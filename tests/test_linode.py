"""The rational linear-ODE solver over the tower, and rational integration.

Expected closed forms below were derived by hand from the coefficient
recursions: with y = sum c_k s^k,  s y' + 2 alpha y = s^2  forces
(k + 2 alpha) c_k = [s^2]-row, giving c_2 = 1/(2 alpha + 2) and all other
c_k = 0; similarly for the degree-one case.  The third fixture has no
rational solution because 1/s is not a derivative in Q(alpha)(s).
"""

import pytest

from galint.algebra import (
    AlgebraicTower,
    GroundField,
    fe_integrate_rational,
    rational_ode_solve,
)
from galint.errors import (
    DegreeBoundExceeded,
    IntegrationIncomplete,
    NoTowerSolution,
)


@pytest.fixture()
def gf():
    return GroundField(params=("alpha",))


@pytest.fixture()
def T(gf):
    return AlgebraicTower(gf)


def test_resonant_quadratic_coefficient(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    conds = []
    y, _, _ = rational_ode_solve(
        T.from_ground(2 * alpha / s), T.from_ground(s), conditions=conds
    )
    assert y == T.from_ground(s**2 / (2 * alpha + 2))
    # elimination divided by 2a, 2a+1, 2a+2: those are the parameter values
    # where the formula degenerates
    wants = {str(2 * alpha), str(2 * alpha + 1), str(2 * alpha + 2)}
    assert wants <= {str(c) for c in conds}


def test_resonant_cubic_coefficient(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    y, _, _ = rational_ode_solve(T.from_ground(3 * alpha / s),
                                 T.from_ground(gf.one))
    assert y == T.from_ground(s / (3 * alpha + 1))


def test_obstructed_cell_has_no_solution(gf, T):
    s = gf.s
    with pytest.raises(NoTowerSolution):
        rational_ode_solve(T.zero, T.from_ground(1 / s))


def test_homogeneous_kernels(gf, T):
    s = gf.s
    y, ker, _ = rational_ode_solve(T.from_ground(-1 / s), T.zero)
    assert y.is_zero()
    assert len(ker) == 1 and ker[0] == T.from_ground(s)
    _, ker, _ = rational_ode_solve(T.from_ground(-2 / s), T.zero)
    assert len(ker) == 1 and ker[0] == T.from_ground(s**2)
    _, ker, _ = rational_ode_solve(T.from_ground(1 / s), T.zero)
    assert len(ker) == 1 and ker[0] == T.from_ground(1 / s)
    # generic parameter multiplier: no rational homogeneous solution
    alpha = gf.gen("alpha")
    _, ker, _ = rational_ode_solve(T.from_ground(alpha / s), T.zero)
    assert ker == []


def test_tower_valued_equation(gf, T):
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(1 + s**2))
    w = T1.gen("w")
    g = w * T1.from_ground(s / (1 + s**2)) + w * T1.from_ground(1 / s)
    y, _, _ = rational_ode_solve(T1.from_ground(1 / s), g)
    assert y == w


def test_irregular_system_reports_bound_not_nonexistence(gf, T):
    # order-two pole in the flattened system matrix: the solver must not
    # claim nonexistence, only that its heuristic bound ran out
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(s))
    w = T1.gen("w")
    delta = w / T1.from_ground(s**2)
    with pytest.raises(DegreeBoundExceeded):
        rational_ode_solve(delta, T1.one)


def test_residuals_are_exact(gf, T):
    # rational_ode_solve verifies its own residual; a pass means the
    # returned element satisfies the equation identically
    s, alpha = gf.s, gf.gen("alpha")
    cases = [
        (2 * alpha / s, s**3),
        (gf.zero, s**4 - 2 * s),
        (1 / (s - 1), s),
        (alpha / s + 1 / (s + 2), s**2 / (s + 2)),
    ]
    for d, g in cases:
        try:
            rational_ode_solve(T.from_ground(d), T.from_ground(g))
        except NoTowerSolution:
            pass


def test_integrate_polynomial(gf, T):
    s = gf.s
    y, logs = fe_integrate_rational(T.from_ground(s))
    assert y == T.from_ground(s**2 / 2) and logs == []


def test_integrate_simple_pole(gf, T):
    s = gf.s
    y, logs = fe_integrate_rational(T.from_ground(1 / s))
    assert y.is_zero()
    assert len(logs) == 1
    c, v = logs[0]
    assert c == gf.one and v == T.from_ground(s)


def test_integrate_dlog_of_quadratic(gf, T):
    s = gf.s
    y, logs = fe_integrate_rational(T.from_ground(2 * s / (1 + s**2)))
    assert y.is_zero()
    assert len(logs) == 1
    c, v = logs[0]
    assert c == gf.one and v == T.from_ground(1 + s**2)


def test_integrate_radical_dlog(gf, T):
    # w'/w for w = sqrt(1+s^2) integrates to (1/2) log(1+s^2)
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(1 + s**2))
    w = T1.gen("w")
    y, logs = fe_integrate_rational(w.derive() / w)
    assert y.is_zero()
    assert len(logs) == 1
    c, v = logs[0]
    assert c == gf.from_rational(1) / gf.from_rational(2)
    assert v == T1.from_ground(1 + s**2)


def test_integrate_mixed_rational_and_log(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    T1 = T.extend("w", 2, T.from_ground(1 + s**2))
    w = T1.gen("w")
    a = w + w * T1.from_ground(s**2 / (1 + s**2)) + T1.from_ground(alpha / s)
    y, logs = fe_integrate_rational(a)
    assert y == w * T1.from_ground(s)
    assert len(logs) == 1
    c, v = logs[0]
    assert c == alpha and v == T1.from_ground(s)


def test_integrate_arctangent_kernel_is_incomplete(gf, T):
    # 1/(1+s^2) has no decomposition as rational + rational log combination
    # over Q(alpha)(s): its partial fractions pair complex-conjugate poles
    s = gf.s
    with pytest.raises(IntegrationIncomplete):
        fe_integrate_rational(T.from_ground(1 / (1 + s**2)))


def test_integrate_two_logs(gf, T):
    s = gf.s
    a = T.from_ground(1 / s + 2 * s / (1 + s**2))
    y, logs = fe_integrate_rational(a)
    assert y.is_zero()
    got = {(str(c), str(v)) for c, v in logs}
    assert got == {("1", "s"), ("1", "(s**2 + 1)")}


def test_exact_balance_at_infinity(gf, T):
    # y' + s*y = 1 + s^2: the entry s is a pole of order 3 of the system in
    # 1/s and the system is scalar, so the leading balance bounds the degree
    s = gf.s
    y, _, sound = rational_ode_solve(T.from_ground(s),
                                     T.from_ground(1 + s**2))
    assert y == T.from_ground(s) and sound is True


def test_exact_balance_at_a_double_pole(gf, T):
    # y' + y/s^2 = -1/s^2 + 1/s^3: a double pole at 0 in a scalar system
    s = gf.s
    y, _, sound = rational_ode_solve(T.from_ground(1 / s**2),
                                     T.from_ground(-1 / s**2 + 1 / s**3))
    assert y == T.from_ground(1 / s) and sound is True


def test_heuristic_degree_bound_at_infinity_still_solves(gf, T):
    # on w^2 = s the flattened 2x2 system has a pole of order 3 at infinity,
    # so the degree bound is heuristic: y = 1 is found, flagged as heuristic
    T1 = T.extend("w", 2, T.from_ground(gf.s))
    w = T1.gen("w")
    y, _, sound = rational_ode_solve(w, w)
    assert y == T1.one and sound is False


def test_only_denominators_are_factored(gf, T, monkeypatch):
    # numerators bound no pole of a rational solution, and the degree bound
    # at infinity is read from degrees, so only denominators are factored
    factored = []
    poly_factors = GroundField._poly_factors

    def spy(self, p):
        factored.append(str(p.ring.to_sympy(p).as_expr()))
        return poly_factors(self, p)

    monkeypatch.setattr(GroundField, "_poly_factors", spy)
    s, alpha = gf.s, gf.gen("alpha")
    rational_ode_solve(T.from_ground(2 * alpha / s),
                       T.from_ground(s**3 + alpha * s + 1))
    assert set(factored) == {"s", "1"}



# y' + delta*y = 0 with a one-dimensional rational kernel, each element at
# the bound of a residue eigenvalue: at the degree-2 place s^2 + 1, at
# infinity, or (over w^2 = 1 + s^2) on the flattened D = 2 system.  Entries
# are (over w^2 = 1 + s^2, delta, kernel element) in s and w.
KERNELS = {
    "pole 1 at s^2 + 1": (
        False, lambda s, w: 2 * s / (1 + s**2), lambda s, w: 1 / (1 + s**2)),
    "degree 3 at infinity": (
        False, lambda s, w: -3 / s, lambda s, w: s**3),
    "pole 3 at s = 1, degree 2 at infinity": (
        False, lambda s, w: 3 / (s - 1) - 2 / s,
        lambda s, w: s**2 / (s - 1)**3),
    "D = 2, pole 1 at s^2 + 1": (
        True, lambda s, w: s / (1 + s**2), lambda s, w: w / (1 + s**2)),
    "D = 2, no pole": (
        True, lambda s, w: -s / (1 + s**2), lambda s, w: w),
    "D = 2, degree 2 at infinity": (
        True, lambda s, w: -2 * w.derive() / w, lambda s, w: 1 + s**2),
}


@pytest.mark.parametrize("case", KERNELS)
def test_kernel_reaches_the_residue_eigenvalue_bound(gf, T, case):
    radical, delta, kernel = KERNELS[case]
    if radical:
        T = T.extend("w", 2, 1 + gf.s**2)
    s = T.from_ground(gf.s)
    w = T.gen("w") if radical else None
    y, hom, _ = rational_ode_solve(delta(s, w), T.zero)
    assert y.is_zero()
    assert hom == [kernel(s, w)]
