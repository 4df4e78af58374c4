import pytest
from hypothesis import given
from hypothesis import strategies as st

from kslide.register import (
    BOTTOM,
    ReadOp,
    SlidingRegister,
    WindowShortRegister,
    WriteOp,
    empty_window,
    first_non_bottom,
    slide,
)
from kslide.sim import Configuration, Protocol, apply_exec
from oracles import FullSequenceRegister, padded_last_k

values = st.integers(min_value=0, max_value=9)
write_lists = st.lists(values, max_size=30)
sizes = st.integers(min_value=1, max_value=5)


def test_empty_window_is_all_bottom():
    reg = SlidingRegister(3)
    assert reg.read() == (BOTTOM, BOTTOM, BOTTOM) == empty_window(3)


def test_partial_window_pads_on_the_left():
    reg = SlidingRegister(2)
    reg.write(5)
    assert reg.read() == (BOTTOM, 5)


def test_full_window_keeps_write_order():
    reg = SlidingRegister(2)
    reg.write(5)
    reg.write(7)
    assert reg.read() == (5, 7)


def test_overflow_evicts_the_oldest():
    reg = SlidingRegister(2)
    for v in (5, 7, 9):
        reg.write(v)
    assert reg.read() == (7, 9)


def test_k1_degenerates_to_plain_register():
    reg = SlidingRegister(1)
    assert reg.read() == (BOTTOM,)
    reg.write(4)
    assert reg.read() == (4,)
    reg.write(6)
    assert reg.read() == (6,)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "2", True])
def test_rejects_bad_window_sizes(bad):
    with pytest.raises(ValueError):
        SlidingRegister(bad)
    with pytest.raises(ValueError):
        empty_window(bad)


def test_bottom_is_not_writable():
    reg = SlidingRegister(2)
    with pytest.raises(ValueError):
        reg.write(BOTTOM)


def test_bottom_is_a_singleton():
    assert type(BOTTOM)() is BOTTOM
    assert repr(BOTTOM) == "⊥"


def test_first_non_bottom():
    assert first_non_bottom((BOTTOM, BOTTOM)) is None
    assert first_non_bottom((BOTTOM, 4)) == 4
    assert first_non_bottom((3, 4)) == 3
    assert first_non_bottom(()) is None


@given(write_lists, sizes)
def test_matches_full_sequence_oracle(writes, k):
    reg = SlidingRegister(k)
    oracle = FullSequenceRegister(k)
    for v in writes:
        reg.write(v)
        oracle.write(v)
        assert reg.read() == oracle.read()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(write_lists)
def test_slide_matches_register_and_oracle(k, writes):
    window = empty_window(k)
    reg = SlidingRegister(k)
    for i, value in enumerate(writes):
        window = slide(window, value)
        reg.write(value)
        assert window == reg.read() == padded_last_k(writes[: i + 1], k)


BOTTOM_WRITE = "^BOTTOM marks missing values and cannot be written$"

# one step per process, writing BOTTOM: apply_exec reaches slide's check
WRITES_BOTTOM = Protocol(1, 1, lambda *_: WriteOp(0, BOTTOM), lambda *_: None)


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.one_of(st.builds(WriteOp, st.just(0), values), st.just(ReadOp(0))), max_size=12),
)
def test_operations_fold_like_the_oracles(k, ops):
    window, written = empty_window(k), []
    reg, oracle = SlidingRegister(k), FullSequenceRegister(k)
    for op in ops:
        before = window
        window, result = op.apply(window)
        if type(op) is WriteOp:
            written.append(op.value)
            reg.write(op.value)
            oracle.write(op.value)
            assert result is None
        else:
            assert window is before and result is before
        assert window == padded_last_k(written, k) == oracle.read() == reg.read()
    # every write path refuses BOTTOM through slide's one check, from any window
    cfg = Configuration(((),), (window,), (), ())
    for write in (
        lambda: slide(window, BOTTOM),
        lambda: WriteOp(0, BOTTOM).apply(window),
        lambda: reg.write(BOTTOM),
        lambda: apply_exec(WRITES_BOTTOM, {1: 0}, cfg, 1),
    ):
        with pytest.raises(ValueError, match=BOTTOM_WRITE):
            write()
    assert reg.read() == window


@given(write_lists, sizes)
def test_window_shape_invariants(writes, k):
    reg = SlidingRegister(k)
    for v in writes:
        reg.write(v)
    window = reg.read()
    assert len(window) == k
    pad = k - min(len(writes), k)
    assert all(slot is BOTTOM for slot in window[:pad])
    assert all(slot is not BOTTOM for slot in window[pad:])


@given(write_lists, sizes)
def test_read_is_pure(writes, k):
    reg = SlidingRegister(k)
    for v in writes:
        reg.write(v)
    before = reg.state()
    assert reg.read() == reg.read()
    assert reg.state() == before


@given(write_lists, sizes)
def test_state_round_trip(writes, k):
    reg = SlidingRegister(k)
    for v in writes:
        reg.write(v)
    clone = SlidingRegister.from_state(k, reg.state())
    assert clone.read() == reg.read()
    assert clone.state() == reg.state()
    clone.write(99)
    # clones are independent
    assert reg.read() == padded_last_k(writes, k)


@given(write_lists, sizes, sizes)
def test_narrow_equals_suffix_and_oracle(writes, k, k_prime):
    # the newest k' slots of a size-k window are the size-k' window
    if k_prime > k:
        k, k_prime = k_prime, k
    wide, narrow = empty_window(k), empty_window(k_prime)
    small = FullSequenceRegister(k_prime)
    for v in writes:
        wide, narrow = slide(wide, v), slide(narrow, v)
        small.write(v)
    assert wide[k - k_prime:] == narrow == small.read()


def test_window_short_mutant_loses_the_oldest():
    reg = WindowShortRegister(2)
    reg.write(1)
    assert reg.read() == (BOTTOM, 1)
    reg.write(2)
    # a correct size-2 register would show (1, 2)
    assert reg.read() == (BOTTOM, 2)


@given(st.integers(min_value=1, max_value=4), write_lists)
def test_window_short_mutant_reads_bottom_in_the_oldest_slot(k, writes):
    short = WindowShortRegister(k)
    plain = SlidingRegister(k)
    for i, v in enumerate(writes):
        short.write(v)
        plain.write(v)
        assert short.read() == (BOTTOM,) + padded_last_k(writes[: i + 1], k)[1:]
        assert short.state() == plain.state()
        for reg in (short, plain):
            assert type(reg).from_state(k, reg.state()).read() == reg.read()


def test_padded_last_k_oracle_shape():
    assert padded_last_k([], 2) == (BOTTOM, BOTTOM)
    assert padded_last_k([5], 2) == (BOTTOM, 5)
    assert padded_last_k([5, 7, 9], 2) == (7, 9)
