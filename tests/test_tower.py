"""Tower arithmetic, derivation, Galois action, zero-divisor reporting.

The property tests take values at rational points where every radicand is a
rational square, so each generator has a rational value and an element's
value is read off its coordinates with plain Fractions, never through the
tower's own products: w^2 = 1 + s^2 at s = 3/4 gives w = 5/4, and
w1^2 = s, w2^2 = 1 + w1 at s = 9 gives (w1, w2) = (3, 2); alpha = 2/7.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galint import GroundField
from galint.algebra import linalg
from galint.algebra.places import Lau, place_context
from galint.algebra.scalars import SPoly
from galint.algebra.tower import AlgebraicTower
from galint.errors import (
    DivisionByZero,
    TowerError,
    UndeclaredGenerator,
    VerificationFailed,
    ZeroDivisor,
)


@pytest.fixture
def plain():
    gf = GroundField(["alpha"])
    return gf, AlgebraicTower(gf)


@pytest.fixture
def sqrt_1ps2(plain):
    """Tower with w = sqrt(1+s^2)."""
    gf, t0 = plain
    s = gf.s
    t = t0.extend("w", 2, t0.from_ground(1 + s**2))
    return gf, t


def test_defining_relation_squares_back(sqrt_1ps2):
    gf, t = sqrt_1ps2
    w = t.gen("w")
    assert w * w == t.from_ground(1 + gf.s**2)


def test_conjugate_product_is_minus_one(sqrt_1ps2):
    gf, t = sqrt_1ps2
    s = t.from_ground(gf.s)
    w = t.gen("w")
    assert (s + w) * (s - w) == t.from_ground(-1)


def test_inverse_of_one_plus_w_for_w2_eq_s(plain):
    gf, t0 = plain
    t = t0.extend("w", 2, t0.from_ground(gf.s))
    w = t.gen("w")
    one = t.one
    inv = one / (one + w)
    expected = (one - w) / t.from_ground(1 - gf.s)
    assert inv == expected
    # oracle: multiply back out
    assert inv * (one + w) == one


def test_derive_polynomial(plain):
    gf, t0 = plain
    a = t0.from_ground(gf.s**2)
    assert a.derive() == t0.from_ground(2 * gf.s)


def test_derive_sqrt(sqrt_1ps2):
    gf, t = sqrt_1ps2
    w = t.gen("w")
    expected = t.from_ground(gf.s) * w / t.from_ground(1 + gf.s**2)
    assert w.derive() == expected


def test_derive_fourth_root_stacked():
    # w1^2 = 1+s^2, w2^2 = w1; derivative of (1+s^2)^{1/4} is s*w2/(2(1+s^2)).
    gf = GroundField([])
    s = gf.s
    t0 = AlgebraicTower(gf)
    t1 = t0.extend("w1", 2, t0.from_ground(1 + s**2))
    t2 = t1.extend("w2", 2, t1.gen("w1"))
    w2 = t2.gen("w2")
    got = w2.derive()
    expected = t2.from_ground(s) * w2 / t2.from_ground(2 * (1 + s**2))
    assert got == expected
    # oracle: y = w2 satisfies y^4 = 1+s^2; differentiate: 4 y^3 y' = 2s.
    assert t2.from_ground(4) * w2**3 * got == t2.from_ground(2 * s)


def test_galois_conjugation(sqrt_1ps2):
    gf, t = sqrt_1ps2
    w = t.gen("w")
    t.declare_galois("conj", {"w": -w})
    s = t.from_ground(gf.s)
    assert (s + w).galois("conj") == s - w
    # base field is fixed
    r = t.from_ground((1 + gf.s) / (3 - gf.s))
    assert r.galois("conj") == r


def test_galois_undeclared_raises(sqrt_1ps2):
    _, t = sqrt_1ps2
    with pytest.raises(UndeclaredGenerator):
        t.gen("w").galois("nope")


def test_galois_bad_images_rejected(sqrt_1ps2):
    gf, t = sqrt_1ps2
    with pytest.raises(VerificationFailed):
        t.declare_galois("bad", {"w": t.from_ground(gf.s)})


def test_galois_on_three_level_tower():
    # w1^2 = s, w2^2 = 2 + 2 w1 + s, w3^2 = 2 - 2 w1 + s;
    # sending w1 -> -w1 must swap the other two radicands, so a consistent
    # generator maps w2 -> w3, w3 -> w2.
    gf = GroundField([])
    s = gf.s
    t0 = AlgebraicTower(gf)
    t1 = t0.extend("w1", 2, t0.from_ground(s))
    t2 = t1.extend("w2", 2, t1.from_ground(2 + s) + 2 * t1.gen("w1"))
    t3 = t2.extend("w3", 2, t2.from_ground(2 + s) - 2 * t2.gen("w1"))
    g1 = {"w1": -t3.gen("w1"), "w2": t3.gen("w3"), "w3": t3.gen("w2")}
    t3.declare_galois("g1", g1)
    g2 = {"w1": t3.gen("w1"), "w2": -t3.gen("w2"), "w3": t3.gen("w3")}
    t3.declare_galois("g2", g2)
    a = t3.gen("w2") + t3.gen("w3") * t3.gen("w1")
    img = a.galois("g1")
    assert img == t3.gen("w3") - t3.gen("w2") * t3.gen("w1")
    # automorphism property on a product
    b = t3.gen("w2") * a + t3.from_ground(s)
    assert b.galois("g1") == t3.gen("w2").galois("g1") * img + t3.from_ground(s)


def test_galois_commutes_with_derive():
    gf = GroundField([])
    s = gf.s
    t0 = AlgebraicTower(gf)
    t1 = t0.extend("w1", 2, t0.from_ground(s))
    t2 = t1.extend("w2", 2, t1.from_ground(2 + s) + 2 * t1.gen("w1"))
    t3 = t2.extend("w3", 2, t2.from_ground(2 + s) - 2 * t2.gen("w1"))
    t3.declare_galois(
        "g1", {"w1": -t3.gen("w1"), "w2": t3.gen("w3"), "w3": t3.gen("w2")}
    )
    a = (t3.gen("w2") + t3.from_ground(s) * t3.gen("w1")) / (
        t3.one + t3.gen("w3")
    )
    assert a.galois("g1").derive() == a.derive().galois("g1")


def test_zero_divisor_witness():
    # w^2 = 1 splits: (1+w)(1-w) = 0, so inversion must report a witness.
    gf = GroundField([])
    t0 = AlgebraicTower(gf)
    t = t0.extend("w", 2, t0.one)
    a = t.one + t.gen("w")
    with pytest.raises(ZeroDivisor) as exc:
        t.one / a
    witness = exc.value.witness
    assert witness is not None and not witness.is_zero()
    assert (a * witness).is_zero()


def test_division_by_zero():
    gf = GroundField([])
    t = AlgebraicTower(gf)
    with pytest.raises(DivisionByZero):
        t.one / t.zero


def test_pow_and_inverse_roundtrip():
    gf = GroundField(["alpha"])
    s, (alpha,) = gf.s, gf.param_gens
    t0 = AlgebraicTower(gf)
    t1 = t0.extend("w1", 2, t0.from_ground(s))
    t2 = t1.extend("w2", 3, t1.from_ground(1 + s) + t1.gen("w1"))
    a = t2.from_ground(alpha) * t2.gen("w2") ** 2 + t2.gen("w1") - t2.from_ground(3)
    inv = a ** (-1)
    assert a * inv == t2.one
    assert a ** 4 == a * a * a * a


def test_norm_multiplicative():
    gf = GroundField([])
    s = gf.s
    t0 = AlgebraicTower(gf)
    t = t0.extend("w", 2, t0.from_ground(1 + s**2))
    a = t.from_ground(s) + t.gen("w")
    b = t.one - t.from_ground(2) * t.gen("w")
    assert t.norm(a) * t.norm(b) == t.norm(a * b)
    # norm of s + w is s^2 - (1+s^2) = -1
    assert t.norm(a) == -gf.one


def test_lift_and_cross_tower_equality():
    gf = GroundField([])
    t0 = AlgebraicTower(gf)
    t1 = t0.extend("w", 2, t0.from_ground(gf.s))
    a0 = t0.from_ground(1 + gf.s)
    assert t1.lift(a0) == a0
    assert a0 + t1.gen("w") == t1.lift(a0) + t1.gen("w")


def test_leibniz_spot_checks():
    gf = GroundField(["alpha"])
    s, (alpha,) = gf.s, gf.param_gens
    t0 = AlgebraicTower(gf)
    t = t0.extend("w", 2, t0.from_ground(1 + s**2))
    w = t.gen("w")
    samples = [
        t.from_ground(s) + w,
        t.from_ground(alpha / s) * w - t.one,
        (t.one + w) / t.from_ground(s - 3),
        w * w * t.from_ground(s) + t.from_ground(Fraction(2, 3)),
    ]
    for a in samples:
        for b in samples:
            assert (a * b).derive() == a.derive() * b + a * b.derive()
            assert (a + b).derive() == a.derive() + b.derive()


def test_constant_tower_has_zero_derivative():
    gf = GroundField(["alpha"])
    (alpha,) = gf.param_gens
    t0 = AlgebraicTower(gf)
    t = t0.extend("r", 2, t0.from_ground(alpha))
    assert t.gen("r").derive().is_zero()


def test_extend_rejects_zero_radicand_and_bad_names():
    gf = GroundField(["alpha"])
    t0 = AlgebraicTower(gf)
    with pytest.raises(TowerError):
        t0.extend("w", 2, t0.zero)
    with pytest.raises(TowerError):
        t0.extend("alpha", 2, t0.one + t0.one)
    t1 = t0.extend("w", 2, t0.from_ground(gf.s))
    with pytest.raises(TowerError):
        t1.extend("w", 2, t1.one + t1.one)


def test_equal_elements_of_nested_towers_hash_alike(plain):
    gf, t0 = plain
    t1 = t0.extend("w1", 2, t0.from_ground(gf.s))
    t2 = t1.extend("w2", 3, t1.one + t1.gen("w1"))
    a = t0.from_ground(gf.s)
    assert a == t1.lift(a) and len({a, t1.lift(a)}) == 1
    b = t1.gen("w1") + a
    assert len({b, t2.lift(b), t2.gen("w1") + t2.from_ground(gf.s)}) == 1
    assert len({b, t2.gen("w2")}) == 2


def test_equal_operands_hash_alike(plain):
    # a scalar element hashes as its ground coordinate; ints and Fractions
    # hash unlike the ground scalars they embed as, so they compare unequal
    gf, t0 = plain
    t1 = t0.extend("w1", 2, t0.from_ground(gf.s))
    t2 = t1.extend("w2", 3, t1.one + t1.gen("w1"))
    grounds = [gf.zero, gf.one, gf.from_rational(3),
               gf.from_rational(Fraction(1, 2)), gf.s, gf.gen("alpha") / gf.s]
    elems = [t.from_ground(c) for t in (t0, t1, t2) for c in grounds]
    elems += [t1.gen("w1"), t2.lift(t1.gen("w1")), t2.gen("w2"),
              t2.gen("w1") + t2.from_ground(gf.s)]
    operands = [0, 1, 3, Fraction(1, 2), *grounds, *elems]
    agreed = 0
    for e in elems:
        for x in operands:
            if e == x or x == e:
                assert hash(e) == hash(x), (e, type(x).__name__, x)
                agreed += 1
    assert agreed > len(elems)
    assert t2.from_ground(gf.s) == gf.s and len({t2.from_ground(gf.s),
                                                 gf.s}) == 1
    assert t0.from_ground(3) != 3 and t0.from_ground(Fraction(1, 2)) != \
        Fraction(1, 2)
    assert len({t0.zero, t1.zero, gf.zero}) == 1


# ---------------------------------------------------------------------------
# values at rational points

GF = GroundField(["alpha"])
S, ALPHA = GF.s, GF.gen("alpha")
BASE = AlgebraicTower(GF)
W = BASE.extend("w", 2, BASE.from_ground(1 + S**2))
W.declare_galois("conj", {"w": -W.gen("w")})
W1 = BASE.extend("w1", 2, BASE.from_ground(S))
W2 = W1.extend("w2", 2, W1.one + W1.gen("w1"))
W2.declare_galois("flip", {"w1": W2.gen("w1"), "w2": -W2.gen("w2")})

# tower -> (alpha, s, generator values), the point and its conjugate
POINTS = {
    W: ((Fraction(2, 7), Fraction(3, 4), (Fraction(5, 4),)),
        (Fraction(2, 7), Fraction(3, 4), (Fraction(-5, 4),))),
    W2: ((Fraction(2, 7), Fraction(9), (Fraction(3), Fraction(2))),
         (Fraction(2, 7), Fraction(9), (Fraction(3), Fraction(-2)))),
}
GALOIS = {W: "conj", W2: "flip"}
# denominators free of zeros at both points
DENS = [GF.one, S, 1 + S**2, S + ALPHA, 2 - ALPHA * S]

PROPS = settings(max_examples=25, deadline=None, database=None,
                 derandomize=True)


def _poly_at(p, point):
    return sum((Fraction(int(c)) * math.prod(x**e for x, e in zip(point, m))
                for m, c in p.items()), Fraction(0))


def _at(c, alpha, s):
    return _poly_at(c.numer, (alpha, s)) / _poly_at(c.denom, (alpha, s))


def value(a, point):
    """a at (alpha, s, generator values), from its coordinates alone."""
    alpha, s, ws = point
    return sum((_at(c, alpha, s) * math.prod(w**k for w, k in zip(ws, e))
                for e, c in a.coords.items()), Fraction(0))


def d_ds(a, point):
    """d/ds of a at the point, by the chain rule on the generator values:
    w_i'/w_i = b_i'/(d_i w_i^d_i), with b_i' taken the same way."""
    alpha, s, ws = point
    dlogs = [d_ds(g.radicand, point) / (g.degree * w**g.degree)
             for g, w in zip(a.tower.gens, ws)]
    return sum((math.prod(w**k for w, k in zip(ws, e))
                * (_at(GF.diff_s(c), alpha, s) + _at(c, alpha, s)
                   * sum(k * dl for k, dl in zip(e, dlogs)))
                for e, c in a.coords.items()), Fraction(0))


small = st.integers(-3, 3)
coefficient = st.tuples(small, small, small, st.integers(0, len(DENS) - 1))


def elements(tower):
    """Tower elements with coordinates (a + b*s + c*alpha) / DENS[k]."""
    basis = tower.basis_monomials()
    return st.lists(coefficient, min_size=len(basis),
                    max_size=len(basis)).map(lambda cs: tower.from_coords({
                        e: (a + b * S + c * ALPHA) / DENS[k]
                        for e, (a, b, c, k) in zip(basis, cs)}))


def with_elements(n):
    return st.sampled_from([W, W2]).flatmap(
        lambda t: st.tuples(st.just(t), *([elements(t)] * n)))


@PROPS
@given(with_elements(2))
def test_products_and_sums_take_values(case):
    tower, a, b = case
    for point in POINTS[tower]:
        assert value(a * b, point) == value(a, point) * value(b, point)
        assert value(a + b, point) == value(a, point) + value(b, point)
        assert value(tower.dot([(a, b), (b, b), (a, 3)]), point) == (
            value(a, point) * value(b, point) + value(b, point) ** 2
            + 3 * value(a, point))


@PROPS
@given(with_elements(1))
def test_the_galois_image_takes_the_value_at_the_conjugate_point(case):
    tower, a = case
    point, conjugate = POINTS[tower]
    assert value(a.galois(GALOIS[tower]), point) == value(a, conjugate)


@PROPS
@given(with_elements(2))
def test_derive_obeys_leibniz_and_the_radical_rule(case):
    tower, a, b = case
    for point in POINTS[tower]:
        assert value(a.derive(), point) == d_ds(a, point)
        assert value((a * b).derive(), point) == (
            value(a.derive(), point) * value(b, point)
            + value(a, point) * value(b.derive(), point))
    for g in tower.gens:
        w = tower.gen(g.name)
        assert (w ** g.degree).derive() == tower.lift(g.radicand.derive())
        assert tower.from_ground(g.degree) * w ** (g.degree - 1) \
            * w.derive() == tower.lift(g.radicand.derive())


@PROPS
@given(st.tuples(elements(W1), elements(W2)))
def test_subtower_operands_work_on_either_side(case):
    a, b = case
    point = POINTS[W2][0]
    for x, y in ((a, b), (b, a)):
        assert (x * y).tower is W2 and (x + y).tower is W2
        assert value(x * y, point) == value(a, point) * value(b, point)
        assert value(x + y, point) == value(a, point) + value(b, point)
        assert value(x - y, point) == value(x, point) - value(y, point)
        assert value(W1.dot([(x, y)]), point) == value(x * y, point)
        assert value(W1.sum([x, y, a]), point) == value(
            x, point) + value(y, point) + value(a, point)


@PROPS
@given(st.lists(elements(W), min_size=3, max_size=3),
       st.lists(elements(W), min_size=3, max_size=3))
def test_laurent_products_over_a_shallower_constant_tower(xs, ys):
    # the coefficients live in W, a supertower of the series' tower BASE
    assume(xs[0] and ys[0])
    point = POINTS[W][0]
    x, y = Lau(BASE, 0, list(xs)), Lau(BASE, 0, list(ys))
    prod = x.mul(y, 3)
    for k in range(3):
        assert value(prod.coeff(k), point) == sum(
            value(xs[i], point) * value(ys[k - i], point)
            for i in range(k + 1))
    one = x.mul(x.invert(3), 3)
    assert [value(one.coeff(k), point) for k in range(3)] == [1, 0, 0]


# ---------------------------------------------------------------------------
# inversion through the top quadratic conjugate, against the flat solve

NESTED_2 = W1.extend("w2", 2, 2 + 2 * W1.gen("w1") + S)
NESTED = NESTED_2.extend("w3", 2, NESTED_2.lift(2 - 2 * W1.gen("w1") + S))
# the residue field at s^2 + s + 1: xi^2 = -xi - 1, not a pure square root
RESIDUE = place_context(BASE, SPoly(GF, [GF.one] * 3)).ct
CUBE = BASE.extend("w", 3, BASE.from_ground(1 + S**2))
CUBE_V = CUBE.extend("v", 2, CUBE.from_ground(S + ALPHA))
# tower -> the sizes of the flat solves its inversions may take: only a
# parent whose top generator has degree 3 is solved flat
FLAT_SIZES = {NESTED: set(), RESIDUE: set(), CUBE_V: {3}}

CONJUGATE_PROPS = settings(max_examples=40, deadline=None, database=None,
                           derandomize=True)


def sparse_elements(tower, k):
    """Elements with at most k nonzero coordinates (a + b*s + c*alpha) /
    DENS[i]: the flat reference solve over the degree-8 tower takes seconds
    on a dense element."""
    basis = tower.basis_monomials()
    return st.lists(st.tuples(st.sampled_from(basis), coefficient),
                    min_size=1, max_size=k).map(lambda cs: tower.from_coords({
                        e: (a + b * S + c * ALPHA) / DENS[i]
                        for e, (a, b, c, i) in cs}))


def flat_inverse(tower, a):
    """The regular-matrix solve a*x = 1 over K0."""
    mat, basis, idx = tower.regular_matrix(a)
    rhs = [GF.zero] * len(basis)
    rhs[idx[(0,) * tower.r]] = GF.one
    x, _ = linalg.solve(mat, rhs, GF.zero, GF.one)
    return tower.from_coords(dict(zip(basis, x)))


def flat_witness(tower, a):
    """The first nullspace vector of a's regular matrix, as an element."""
    mat, basis, _ = tower.regular_matrix(a)
    return tower.from_coords(dict(zip(
        basis, linalg.nullspace(mat, GF.zero, GF.one)[0])))


# time budget: about 2 s for the 40 examples, mostly in the flat solves
@CONJUGATE_PROPS
@given(st.sampled_from(list(FLAT_SIZES)).flatmap(
    lambda t: st.tuples(st.just(t), sparse_elements(t, 3))))
def test_the_conjugate_route_matches_the_flat_solve(case):
    tower, a = case
    assume(a)
    sizes = []
    solve = linalg.solve
    with mock.patch.object(linalg, "solve", lambda mat, *args, **kw: (
            sizes.append(len(mat)) or solve(mat, *args, **kw))):
        inv = tower.invert(a)
    assert set(sizes) <= FLAT_SIZES[tower]
    assert a * inv == tower.one
    # equal coordinates are equal reduced (numerator, denominator) pairs
    assert inv == flat_inverse(tower, a)


def test_a_zero_norm_takes_the_flat_witness():
    # v^2 = s^2 splits: N = s^2 - s^2 = 0 for v - s
    split = BASE.extend("v", 2, BASE.from_ground(S**2))
    a = split.gen("v") - S
    with pytest.raises(ZeroDivisor) as err:
        split.invert(a)
    assert err.value.witness == flat_witness(split, a)
    assert (err.value.witness * a).is_zero()


def test_a_zero_divisor_of_the_parent_takes_the_flat_witness():
    # u^2 = s^2 splits, v^2 = s^2 + s - u: a = u + v has
    # N = u^2 - (s^2 + s - u) = u - s, nonzero but a zero divisor of the
    # parent tower, so a is one too
    parent = BASE.extend("u", 2, BASE.from_ground(S**2))
    u = parent.gen("u")
    t = parent.extend("v", 2, parent.from_ground(S**2 + S) - u)
    a = t.lift(u) + t.gen("v")
    with pytest.raises(ZeroDivisor):
        parent.invert(u - S)
    with pytest.raises(ZeroDivisor) as err:
        t.invert(a)
    assert err.value.witness == flat_witness(t, a)
    assert (err.value.witness * a).is_zero()
