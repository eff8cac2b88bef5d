"""Fixtures shared by the test modules."""

import pytest
import sympy.polys.rings as sympy_rings
from sympy.polys.polyerrors import HeuristicGCDFailed


@pytest.fixture
def heuristic_gcd_fails():
    """Make sympy's sparse heuristic gcd raise ``HeuristicGCDFailed`` on
    every call, for the rest of the test; the list it gives records the
    operands of each call."""
    calls = []

    def fail(f, g):
        calls.append((f, g))
        raise HeuristicGCDFailed("forced")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sympy_rings, "heugcd", fail)
        yield calls
