"""Local exponents at places of the curve variable: finite points, infinity,
ramified points of the radical tower, and the branch-dependence guard."""

from fractions import Fraction

import pytest

from galint.algebra import (
    AlgebraicTower,
    Exponent,
    GroundField,
    evaluate_at,
    fe_local_exponent,
    fiber_tower,
)
from galint.algebra.places import INF, place_context, residue_exponent
from galint.errors import InputError, NotExpandable


@pytest.fixture()
def gf():
    return GroundField(params=("alpha",))


@pytest.fixture()
def T(gf):
    return AlgebraicTower(gf)


def test_monomial_exponents(gf, T):
    s = gf.s
    assert fe_local_exponent(T.from_ground(s**2), 0).rational == 2
    assert fe_local_exponent(T.from_ground(s**2), "inf").rational == -2
    assert fe_local_exponent(T.from_ground((s - 2) ** 3), 2).rational == 3
    assert fe_local_exponent(T.from_ground(gf.one), 0).rational == 0


def test_simple_pole_with_parameter_scale(gf, T):
    # 1/(s*(2*alpha+2)) has a simple pole at 0; the parameter factor is a unit
    s, alpha = gf.s, gf.gen("alpha")
    f = T.from_ground(1 / (s * (2 * alpha + 2)))
    e = fe_local_exponent(f, 0)
    assert e.rational == -1
    assert e.param == ()


def test_pole_at_infinity_of_parameter_multiple(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    assert fe_local_exponent(T.from_ground(alpha / s), "inf").rational == 1


def test_ramified_square_root(gf, T):
    # sqrt(1-s^2) vanishes to order 1/2 at s=1 and is a unit at s=0
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(1 - s**2))
    w = T1.gen("w")
    assert fe_local_exponent(w, 1).rational == Fraction(1, 2)
    assert fe_local_exponent(w, 0).rational == 0
    assert fe_local_exponent(w, "inf").rational == -1


def test_stacked_fourth_root_at_infinity(gf, T):
    s = gf.s
    T1 = T.extend("u", 2, T.from_ground(1 + s**2))
    T2 = T1.extend("v", 2, T1.gen("u"))
    assert fe_local_exponent(T2.gen("v"), "inf").rational == Fraction(-1, 2)


def test_branch_dependent_leading_term_is_refused(gf, T):
    # w^2 = s^2 + s^3: the two branches of w - s have different valuations
    # (the radicand's leading coefficient is a perfect square), so no single
    # exponent exists without declaring a branch.
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(s**2 + s**3))
    w = T1.gen("w")
    with pytest.raises(NotExpandable):
        fe_local_exponent(w - T1.from_ground(s), 0)


def test_exponents_add_on_products(gf, T):
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(2 * s**2 + 2 * s**3))
    w = T1.gen("w")
    pool = [
        w - T1.from_ground(s),
        (T1.one + w) / T1.from_ground(s),
        T1.from_ground(s**3 + s**5),
        w * T1.from_ground(1 / (1 - s)),
    ]
    for place in (0, "inf"):
        for a in pool:
            for b in pool:
                ea = fe_local_exponent(a, place).rational
                eb = fe_local_exponent(b, place).rational
                assert fe_local_exponent(a * b, place).rational == ea + eb


def test_zero_element_not_expandable(gf, T):
    with pytest.raises(NotExpandable):
        fe_local_exponent(T.zero, 0)


def test_residue_exponents(gf, T):
    # alpha/s: residue alpha at 0, and -alpha at infinity (of -s^2 * alpha/s
    # in 1/s); alpha^2/s is not affine in the parameter; zero gives 0
    s, alpha = gf.s, gf.gen("alpha")
    at0, atinf = place_context(T, 0), place_context(T, INF)
    a = T.from_ground(alpha / s)
    assert residue_exponent(at0, a) == Exponent(0, {"alpha": 1})
    assert residue_exponent(atinf, a) == Exponent(0, {"alpha": -1})
    assert isinstance(residue_exponent(at0, T.from_ground(alpha**2 / s)), str)
    assert residue_exponent(at0, T.zero) == Exponent(0)


# a scalar is an Exponent only when it is c0 + c1*alpha with rational c0, c1
FROM_SCALAR = {
    "2alpha/3 + 1/2": (lambda s, a: 2 * a / 3 + Fraction(1, 2),
                       Exponent(Fraction(1, 2), {"alpha": Fraction(2, 3)})),
    "0": (lambda s, a: 0 * a, Exponent(0)),
    "alpha^2": (lambda s, a: a**2, None),
    "alpha/s": (lambda s, a: a / s, None),
    "s": (lambda s, a: s, None),
    "1/alpha": (lambda s, a: 1 / a, None),
    "(alpha + 1)/(s + 1)": (lambda s, a: (a + 1) / (s + 1), None),
}


@pytest.mark.parametrize("case", FROM_SCALAR)
def test_exponent_from_scalar(gf, case):
    scalar, want = FROM_SCALAR[case]
    assert Exponent.from_scalar(gf, scalar(gf.s, gf.gen("alpha"))) == want


def test_a_parameter_free_exponent_hashes_as_its_rational():
    half = Fraction(1, 2)
    assert Exponent(half) == half
    assert len({Exponent(half), half}) == 1
    assert len({Exponent(3), 3}) == 1
    assert len({Exponent(half, {"alpha": 1}), half}) == 2


def test_fiber_evaluation(gf, T):
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(1 - s**2))
    w = T1.gen("w")
    val = evaluate_at(w, Fraction(1, 2))
    sq = val * val
    assert sq.is_scalar()
    assert sq == sq.tower.from_ground(Fraction(3, 4))
    assert evaluate_at(w * w, Fraction(1, 2)) == sq
    ft = fiber_tower(T1, Fraction(1, 2))
    assert ft.degree == 2


def test_valuation_below_reads_the_leading_exponent(gf, T):
    # on the pool above, the exact expansion through k shows a nonzero
    # coefficient exactly when the leading exponent (in u-units) is <= k
    s = gf.s
    T1 = T.extend("w", 2, T.from_ground(2 * s**2 + 2 * s**3))
    w = T1.gen("w")
    pool = [
        w - T1.from_ground(s),
        (T1.one + w) / T1.from_ground(s),
        T1.from_ground(s**3 + s**5),
        w * T1.from_ground(1 / (1 - s)),
    ]
    for place in (0, INF):
        ctx = place_context(T1, place)
        for a in pool:
            v = ctx.m * fe_local_exponent(a, place).rational
            for k in range(-3, 4):
                assert ctx.valuation_below(a, k) == (v if v <= k else None)


@pytest.mark.parametrize("entry", [
    lambda T, a: place_context(T, "x"),
    lambda T, a: evaluate_at(a, 1.5),
    lambda T, a: fe_local_exponent(a, None),
    lambda T, a: T.from_ground("x"),
], ids=["place_context", "evaluate_at", "fe_local_exponent", "from_ground"])
def test_a_value_that_is_not_rational_is_an_input_error(gf, T, entry):
    T1 = T.extend("w", 2, T.from_ground(1 + gf.s**2))
    with pytest.raises(InputError, match="is not a rational number"):
        entry(T1, T1.gen("w") + T1.from_ground(gf.s))
