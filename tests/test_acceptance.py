"""Acceptance gate: every exit criterion at its stated bound.

Run with `pytest -s tests/test_acceptance.py` to see the one-line verdicts.
"""

import pytest

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
