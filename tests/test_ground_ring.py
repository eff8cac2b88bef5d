"""The ground field Q(params)(s) is hosted on Z[params, s].

Every ``Scalar`` keeps its numerator and denominator in the ground field's
ring over ZZ, whichever path built it; a rational constant is embedded
without a gcd; exact roots factor over that ring; and no printed result
depends on the order in which Python hashes.
"""

import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
import sympy.polys.rings as sympy_rings
from sympy import QQ, ZZ

from galint.algebra import AlgebraicTower, GroundField, scalars
from galint.algebra.places import evaluate_at, scalarize_constant


def operands(gf):
    """Two elements of gf whose sum, difference, product and quotient each
    meet a gcd in two generators, which the heuristic gcd decides: neither
    denominator divides the other, so no operand of that gcd divides the
    other either."""
    s, alpha, beta = gf.s, gf.gen("alpha"), gf.gen("beta")
    return ((1 + s) / ((s**2 + alpha) * (s - beta + 1)),
            (beta - s) * (s - beta + 1) / ((s**2 + alpha) * (s + beta)))


GF = GroundField(params=("alpha", "beta"))
S, ALPHA, BETA = GF.s, GF.gen("alpha"), GF.gen("beta")
X, Y = operands(GF)
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def assert_integral(x):
    for p in (x.numer, x.denom):
        assert p.ring == GF.ring
        assert all(type(c) is ZZ.dtype for c in p.values())


@pytest.mark.parametrize("op", OPS)
def test_gated_operations_yield_integer_polynomials(op):
    assert_integral(op(X, Y))
    assert_integral(op(X, X + GF.one))


@pytest.mark.parametrize("op", OPS)
def test_heuristic_gcd_fallback_yields_integer_polynomials(
        heuristic_gcd_fails, op):
    # on a fresh field, whose gcd memo has decided none of the pairs yet,
    # with the heuristic gcd failing on every call
    got = op(*operands(GroundField(params=("alpha", "beta"))))
    assert heuristic_gcd_fails
    assert_integral(got)


@pytest.mark.parametrize("c", [3, -2, Fraction(-3, 4), QQ(5, 6)])
@pytest.mark.parametrize("op", OPS)
def test_mixed_operands_yield_integer_polynomials(op, c):
    assert_integral(op(X, c))
    assert_integral(op(c, X))


def test_constructors_and_views_yield_integer_polynomials():
    for value in (0, 7, Fraction(-6, 4), QQ(3, 9), sympy.Rational(-5, 15)):
        assert_integral(GF.from_rational(value))
    for f in (X, Y, ALPHA / (2 * BETA), S**3 / 6):
        assert_integral(GF.diff_s(f))
    assert_integral(1 / X)
    sp = GF.spoly((3 * S**2 + ALPHA * S - 1) / (6 * BETA))
    for c in sp.coeffs:
        assert_integral(c)
    assert_integral(sp.to_element())
    assert_integral(sp.monic().to_element())


def test_from_rational_takes_no_gcd(monkeypatch):
    # no gcd of the kernel (the field's memo and gate, its heuristic gcd,
    # the gcd of two integer constants) and none of sympy's
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    spy(GroundField, "cofactors")
    spy(GroundField, "_rational")
    spy(scalars, "_cofactors")
    spy(scalars, "_heugcd")
    spy(sympy_rings.PolyElement, "cancel")
    spy(sympy_rings.PolyElement, "cofactors")
    got = GF.from_rational(Fraction(-6, 4))
    assert not calls
    assert (got.numer, got.denom) == (GF.ring(-3), GF.ring(2))
    assert str(got) == "-3/2"


def test_sympify_refuses_a_scalar():
    # a scalar has no sympy twin but its views, so sympify refuses it and
    # sympy's own operators leave a scalar operand to the scalar's
    with pytest.raises(sympy.SympifyError):
        sympy.sympify(S)
    assert sympy.Integer(2) * S == 2 * S
    assert sympy.Rational(1, 2) + S == S + Fraction(1, 2)


def test_scalars_and_tower_elements_compare_both_ways():
    # a scalar answers NotImplemented to a tower element, so the tower
    # element's comparison decides in either order, and equal operands
    # hash alike
    T = AlgebraicTower(GF).extend("w", 2, 1 + S**2)
    w = T.gen("w")
    for x in (S, GF.from_rational(3)):
        y = T.from_ground(x)
        assert x == y and y == x
        assert not (x != y) and not (y != x)
        assert hash(x) == hash(y) and len({x, y}) == 1
        assert x != w and w != x
    assert GF.from_rational(3) == 3 and hash(GF.from_rational(3)) == hash(3)
    half = GF.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))


ROOTS = GroundField(params=("alpha",))
R_S, R_ALPHA = ROOTS.s, ROOTS.gen("alpha")


@pytest.mark.parametrize("f, d, root", [
    (R_ALPHA**2, 2, R_ALPHA),
    (R_S**2, 2, R_S),
    (4 * R_S**2, 2, 2 * R_S),
    (R_ALPHA**2 * R_S**2, 2, R_ALPHA * R_S),
    (1 / R_S**2, 2, 1 / R_S),
    (R_S**3, 3, R_S),
    (-8 * (1 + R_S)**3 / (27 * R_ALPHA**3), 3, -2 * (1 + R_S) / (3 * R_ALPHA)),
    (9 * (R_S**2 + R_ALPHA)**2 / 4, 2, 3 * (R_S**2 + R_ALPHA) / 2),
    (2 * R_S**2, 2, None),
    (-R_S**2, 2, None),
    (R_S**2 + 1, 2, None),
])
def test_nth_root_of_perfect_powers(f, d, root):
    assert ROOTS.nth_root(f, d) == root


def test_a_square_radicand_scalarizes_to_its_root():
    # w^2 = alpha^2 + s is alpha^2 at s = 0, so w takes the value alpha there
    T = AlgebraicTower(ROOTS).extend("w", 2, R_ALPHA**2 + R_S)
    assert scalarize_constant(evaluate_at(T.gen("w"), 0)) == R_ALPHA


# flow-deep's 1dw system at N = 3 and the resonant toy's certificate,
# rendered in a fresh interpreter
RENDER = """
import hashlib
from galint.algebra import AlgebraicTower, GroundField
from galint.integrability import build_certificate, formal_flow, \\
    verify_certificate
from galint.reduction import ReducedSystem


def reduced(T, lin, table, order):
    unit = {(0,) * len(lin): T.one}
    return ReducedSystem(T, len(lin), order, lin, table, unit, unit,
                         time_reduced=True)


def ratio(r):
    return "(" + r.num.render() + ")/(" + r.den.render() + ")"


gf = GroundField(params=("alpha", "beta"))
s = gf.s
T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
R = reduced(T, [[T.from_ground(gf.gen("alpha")) / T.gen("w")]],
            {(0, (2,)): T.from_ground(gf.gen("beta")),
             (0, (3,)): T.from_ground(s)}, 3)
flow = formal_flow(R, 3)
lines = [c.render() for c in flow.components] + [flow.time.render()]
gf = GroundField(params=("alpha",))
T = AlgebraicTower(gf)
R = reduced(T, [[T.from_ground(1 / gf.s)]],
            {(0, (2,)): T.from_ground(1 / gf.s)}, 3)
cert = build_certificate(R, 3)
for f in cert.fields:
    lines += [ratio(c) for c in (*f.components, f.s_component)]
for F in cert.integrals:
    lines += [str(F.exponent), str(F.witness), ratio(F.series)]
lines.append(repr(verify_certificate(cert)))
print(hashlib.sha1("\\n".join(lines).encode()).hexdigest())
"""


def test_results_do_not_depend_on_hash_order():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", RENDER], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=300)
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests
    assert len(digests.pop()) == 40
