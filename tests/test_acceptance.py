"""Acceptance gate: every exit criterion at its stated bound.

Run with `pytest -s tests/test_acceptance.py` to see the one-line verdicts.
"""

import dataclasses

import pytest

from nodalcover import selfcheck
from nodalcover.hopf import HopfAlgebra
from nodalcover.selfcheck import CRITERIA, run_one


@pytest.mark.parametrize("number,name", [(num, name) for num, name, _, _ in CRITERIA],
                         ids=[f"criterion_{num:02d}" for num, _, _, _ in CRITERIA])
def test_criterion(number, name):
    result = run_one(number, seed=42)
    print(result.line())
    assert result.passed, f"criterion {number} ({name}) failed: {result.detail}"
    assert result.in_time, (
        f"criterion {number} ({name}) exceeded its time bound: "
        f"{result.seconds:.2f}s >= {result.time_bound:.0f}s")


def test_criterion_11_fails_under_an_identity_antipode(monkeypatch):
    """Criterion 11 evaluates the antipode law, so an antipode that is the
    identity map fails it (Z4 has elements of order 4)."""
    monkeypatch.setattr(HopfAlgebra, "antipode", lambda self, v: v)
    result = run_one(11, seed=42)
    assert not result.passed
    assert "antipode law fails" in result.detail


def test_criterion_1_fails_when_the_presentation_rank_is_off_by_one(monkeypatch):
    """Criterion 1 compares the Betti rank with the presentation's Z
    generators, so a presentation with one too many fails it."""
    real = selfcheck.pi1_presentation

    def off_by_one(curve):
        pres = real(curve)
        return dataclasses.replace(pres, r=pres.r + 1)

    monkeypatch.setattr(selfcheck, "pi1_presentation", off_by_one)
    result = run_one(1, seed=42)
    assert not result.passed
    assert "leaves" in result.detail


def test_criterion_5_fails_on_a_wrong_one_sided_count(monkeypatch):
    """Criterion 5 counts each open's meets word by word, so a case 2 open
    that reports one more one-sided meet fails it."""
    real = selfcheck.find_separating_open

    def miscounted(U, geom, max_len=6):
        v = real(U, geom, max_len)
        return dataclasses.replace(v, one_sided_meets=v.one_sided_meets + (v.case == 2))

    monkeypatch.setattr(selfcheck, "find_separating_open", miscounted)
    result = run_one(5, seed=42)
    assert not result.passed
    assert "per-word walk" in result.detail
