"""Tower arithmetic, derivation, Galois action, zero-divisor reporting."""

from fractions import Fraction

import pytest

from galint import GroundField
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
