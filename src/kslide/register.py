"""Atomic k-sliding read/write register.

A size-k sliding register is an append/read-last-k shared object: write(v)
appends v to the logical sequence of written values, and read() returns the
last k of them, oldest first. While fewer than k values have been written,
the missing leading slots hold the reserved marker BOTTOM. With k == 1 the
object degenerates to a classic atomic register.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Union

Value = Any  # hashable application value; never BOTTOM
Window = tuple  # k slots, oldest first; BOTTOM entries form a prefix


class _Bottom:
    """Reserved placeholder for a slot that was never written."""

    __slots__ = ()
    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOTTOM = _Bottom()


def first_non_bottom(window: Window) -> Optional[Value]:
    """Oldest surviving value in a window, or None if nothing was written."""
    for slot in window:
        if slot is not BOTTOM:
            return slot
    return None


def empty_window(k: int) -> Window:
    """Window of a size-k register nothing was written to: k BOTTOM slots.
    Rejects a k that is not a positive integer or is too large to allocate."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"window size must be a positive integer, got {k!r}")
    try:
        return (BOTTOM,) * k
    except (OverflowError, MemoryError):  # raised before anything is allocated
        raise ValueError(f"window size {k} is too large") from None


def slide(window: Window, value: Value) -> Window:
    """Window after writing value: the oldest slot drops out and value
    becomes the newest. Over the padded window this is the whole of write."""
    if value is BOTTOM:
        raise ValueError("BOTTOM marks missing values and cannot be written")
    return window[1:] + (value,)


class WriteOp(NamedTuple):
    reg: int
    value: Value

    def apply(self, window: Window) -> tuple:
        """(window after the write, result): a write's result is None."""
        return slide(window, self.value), None


class ReadOp(NamedTuple):
    reg: int

    def apply(self, window: Window) -> tuple:
        """(window, result): a read leaves the window and returns it."""
        return window, window


RegisterOp = Union[WriteOp, ReadOp]


class SlidingRegister:
    """Sequential reference implementation. Its state is the padded window
    that `slide` writes; like the paper's object, it counts no past writes."""

    def __init__(self, k: int):
        self.k = k
        self._window = empty_window(k)  # rejects a bad k

    def write(self, value: Value) -> None:
        """Append one value to the logical sequence."""
        self._window = slide(self._window, value)

    def read(self) -> Window:
        """Window of the last k written values, oldest first, BOTTOM padded."""
        return self._window

    def state(self) -> Window:  # a snapshot: the window itself
        return self._window

    @classmethod
    def from_state(cls, k: int, window: Window) -> "SlidingRegister":
        reg = cls(k)
        reg._window = window
        return reg


class WindowShortRegister(SlidingRegister):
    """Deliberately broken register used to calibrate the history checker.

    Reads drop the oldest slot and show BOTTOM there instead, so once k
    values have been written, the oldest value that should still be
    visible is silently lost. With k == 1 every read is (BOTTOM,).
    """

    def read(self) -> Window:
        return (BOTTOM,) + super().read()[1:]
