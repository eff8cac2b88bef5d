"""Property test for the rational linear-ODE solver on small towers.

For random y' + delta*y = g over Q(alpha)(s) and over w^2 = 1 + s^2, the
solver either returns y and a kernel that are checked here by substitution,
or raises one of its two labelled verdicts.  When g was built as
y0' + delta*y0 from a rational y0, a solution exists, so NoTowerSolution
(a proof of nonexistence) would be wrong.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from galint.algebra import AlgebraicTower, GroundField, rational_ode_solve
from galint.errors import DegreeBoundExceeded, NoTowerSolution

GF = GroundField(params=("alpha",))
S, ALPHA = GF.s, GF.gen("alpha")
BASE = AlgebraicTower(GF)
W_TOWER = BASE.extend("w", 2, 1 + S**2)

# no shrink phase: each solve is slow enough that shrinking a failure takes
# minutes, so a failure is reported as first found
PROPS = settings(max_examples=8, deadline=None, database=None,
                 derandomize=True,
                 phases=[p for p in Phase if p is not Phase.shrink])

# denominators with simple poles, a double pole, a pole at the branch
# points of w and none at all
DENOMS = (GF.one, S, 1 + S, S**2, 1 + S**2)

small = st.integers(-2, 2)
ground = st.tuples(small, small, small)


def elem(tower, x, y, k):
    """(x + y*w) / DENOMS[k], with x, y = a + b*s + c*alpha; y is dropped
    over the base field."""
    out = tower.from_ground(x[0] + x[1] * S + x[2] * ALPHA)
    if tower is W_TOWER:
        out = out + tower.from_ground(y[0] + y[1] * S + y[2] * ALPHA) \
            * tower.gen("w")
    return out * tower.from_ground(1 / DENOMS[k])


denom = st.integers(0, len(DENOMS) - 1)
elems = st.tuples(ground, ground, denom)


def solve_or_verdict(delta, g):
    """The checked solution and kernel, or None on a labelled verdict;
    anything else propagates."""
    try:
        y, kernel, _ = rational_ode_solve(delta, g)
    except DegreeBoundExceeded:
        return None
    assert (y.derive() + delta * y - g).is_zero()
    for h in kernel:
        assert not h.is_zero()
        assert (h.derive() + delta * h).is_zero()
    return y, kernel


towers = st.sampled_from([BASE, W_TOWER])


@PROPS
@given(towers, elems, elems)
def test_random_right_side_is_solved_or_refused(tower, d, v):
    try:
        solve_or_verdict(elem(tower, *d), elem(tower, *v))
    except NoTowerSolution:
        pass


@PROPS
@given(towers, elems, elems)
def test_right_side_with_a_rational_solution_is_never_refused(tower, d, v):
    delta, y0 = elem(tower, *d), elem(tower, *v)
    got = solve_or_verdict(delta, y0.derive() + delta * y0)
    if got is not None:
        y, kernel = got
        # y0 - y solves the homogeneous equation, so it lies in the span
        # of the kernel; with no kernel the solution is unique
        if not kernel:
            assert y == y0
