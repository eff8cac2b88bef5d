"""Fixtures shared by the test modules."""

import pytest

from galint.algebra import scalars


@pytest.fixture
def heuristic_gcd_fails():
    """Make the ground field's heuristic gcd (``scalars._heugcd``) fail on
    every call, for the rest of the test, so that sympy's subresultant PRS
    gcd decides; the list it gives records the operands of each call."""
    calls = []

    def fail(f, g, i=0):
        calls.append((f, g))
        return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "_heugcd", fail)
        yield calls
