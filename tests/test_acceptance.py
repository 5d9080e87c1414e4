"""Acceptance gate: every exit criterion at its stated bound.

Run with `pytest -s tests/test_acceptance.py` to see the one-line verdicts.
"""

from types import SimpleNamespace

import pytest

from nodalcover import selfcheck
from nodalcover.covering import ComponentIndex, sigma_word
from nodalcover.hopf import HopfAlgebra
from nodalcover.selfcheck import CRITERIA, run_criterion

from helpers import count_curve_builds


def criterion(number):
    """Criterion `number` run as `run_all` runs it, at seed 42."""
    return run_criterion(CRITERIA[number - 1], seed=42)


@pytest.mark.parametrize("number", [num for num, _, _, _ in CRITERIA],
                         ids=[f"criterion_{num:02d}" for num, _, _, _ in CRITERIA])
def test_criterion(number):
    result = criterion(number)
    print(result.line())
    assert result.criterion == number
    assert result.passed, f"criterion {number} ({result.name}) failed: {result.detail}"
    assert result.in_time, (
        f"criterion {number} ({result.name}) exceeded its time bound: "
        f"{result.seconds:.2f}s >= {result.time_bound:.0f}s")


def test_criterion_11_fails_under_an_identity_antipode(monkeypatch):
    """Criterion 11 evaluates the antipode law, so an antipode that is the
    identity map fails it (Z4 has elements of order 4)."""
    monkeypatch.setattr(HopfAlgebra, "antipode", lambda self, v: v)
    result = criterion(11)
    assert not result.passed
    assert "antipode law fails" in result.detail


def test_criterion_1_fails_when_the_presentation_rank_is_off_by_one(monkeypatch):
    """Criterion 1 compares the Betti rank with the presentation's Z
    generators, so a stand-in with one too many fails it.  It stands in for
    the presentation because a presentation reads its rank off its curve."""
    real = selfcheck.pi1_presentation

    def off_by_one(curve):
        return SimpleNamespace(r=real(curve).r + 1)

    monkeypatch.setattr(selfcheck, "pi1_presentation", off_by_one)
    result = criterion(1)
    assert not result.passed
    assert "leaves" in result.detail


def test_criterion_5_fails_on_a_wrong_one_sided_count(monkeypatch):
    """Criterion 5 counts each open's meets word by word, so a case 2 open
    that reports one more one-sided meet fails it."""
    real = selfcheck.find_separating_open

    def miscounted(U, sig, max_len=6, presentation=None):
        v = real(U, sig, max_len, presentation)
        return v._replace(one_sided_meets=v.one_sided_meets + (v.case == 2))

    monkeypatch.setattr(selfcheck, "find_separating_open", miscounted)
    result = criterion(5)
    assert not result.passed
    assert "per-word walk" in result.detail


def test_criterion_5_fails_on_a_lift_without_its_glue(monkeypatch):
    """Criterion 5 reads the lift's two components off the curve, so an open
    whose second component drops the loop node's glue z1 fails it, though
    its meets agree word by word with its own wrong components."""
    real = selfcheck.find_separating_open

    def glue_dropped(U, sig, max_len=6, presentation=None):
        v = real(U, sig, max_len, presentation)
        if v.case == 1:
            return v
        c_a, c_b = v.components
        c_b = ComponentIndex(c_b.j, sig, sigma_word(sig, U.removed[0].coords).letters)
        return v._replace(components=(c_a, c_b), one_sided_meets=0)

    monkeypatch.setattr(selfcheck, "find_separating_open", glue_dropped)
    result = criterion(5)
    assert not result.passed
    assert result.detail.startswith("NodeClass(node_id='x0'")
    assert "the curve gives" in result.detail


def test_criterion_1_builds_one_spanning_forest_per_curve(monkeypatch):
    """Each of criterion 1's 200 random curves builds its forest once, at
    construction; the Betti rank, the dual graph and the presentation it
    compares build none."""
    built = count_curve_builds(monkeypatch)
    assert criterion(1).passed
    assert len(built) == 200
