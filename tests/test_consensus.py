from hypothesis import given
from hypothesis import strategies as st

from kslide.consensus import PropertyReport, check_outcome

values = st.integers(min_value=0, max_value=9)


def test_check_outcome_all_hold():
    report = check_outcome({1: 0, 2: 1}, {1: 0, 2: 0})
    assert report == PropertyReport(True, True, True)
    assert report.ok


def test_check_outcome_disagreement():
    report = check_outcome({1: 0, 2: 1}, {1: 0, 2: 1})
    assert report.validity and not report.agreement and report.termination
    assert not report.ok


def test_check_outcome_crash_exemption():
    report = check_outcome({1: 0, 2: 1}, {2: 1}, crashed={1})
    assert report == PropertyReport(True, True, True)


def test_check_outcome_missing_decision_breaks_termination():
    report = check_outcome({1: 0, 2: 1}, {1: 0})
    assert report.validity and report.agreement and not report.termination


def test_check_outcome_invented_value_breaks_validity():
    report = check_outcome({1: 0, 2: 1}, {1: 3, 2: 3})
    assert not report.validity and report.agreement and report.termination


@given(
    st.dictionaries(st.integers(1, 4), values, min_size=1),
    st.dictionaries(st.integers(1, 4), values),
    st.sets(st.integers(1, 4)),
)
def test_check_outcome_matches_definitions(inputs, drawn, crashed):
    # any subset of the pids decides any values in 0-9, proposed or not
    decisions = {pid: v for pid, v in drawn.items() if pid in inputs}
    report = check_outcome(inputs, decisions, crashed)
    proposed = set(inputs.values())
    assert report.validity == all(decisions[pid] in proposed for pid in decisions)
    assert report.agreement == all(
        decisions[p] == decisions[q] for p in decisions for q in decisions
    )
    assert report.termination == all(
        pid in decisions or pid in crashed for pid in inputs
    )
    assert report.ok == (report.validity and report.agreement and report.termination)
