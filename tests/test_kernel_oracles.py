"""The ground field's own routines against sympy, their oracle.

Each routine that took the place of a sympy call is checked against that
call on drawn inputs: the printer against ``str`` of sympy's ``FracField``
element, the heuristic gcd against sympy's ``cofactors``, the factoring of
polynomials in s against ``factor_list``, and the integer helpers against
``divisors`` and ``integer_nthroot``.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galint.algebra import GroundField, scalars
from galint.algebra.scalars import (
    _coprime_powers,
    _fraction_nth_root,
    _heugcd,
    _integer_root,
    _s_factor_list,
    divisors,
)

PROPS = settings(max_examples=150, deadline=None, database=None,
                 derandomize=True)

GF = GroundField(params=("alpha", "beta"))
K = GF.kernel
R = GF.ring
ZA, ZB, ZS = R.gens
# a field of one generator, where sympy sorts factors by degree first
GF1 = GroundField()

coeffs = st.integers(-6, 6)
exponents = st.integers(0, 3)


@st.composite
def polys(draw, max_terms=4):
    """A polynomial of ZZ[alpha, beta, s], possibly zero or constant."""
    p = R.zero
    for c, i, j, k in draw(st.lists(st.tuples(coeffs, exponents, exponents,
                                              exponents),
                                    max_size=max_terms)):
        p += c * ZA**i * ZB**j * ZS**k
    return p


# --------------------------------------------------------------------------
# the printer


@PROPS
@given(polys(), polys())
def test_scalars_print_as_sympys_fraction_field(num, den):
    # the reduced pair of num/den, zero, constants, single terms and unit
    # denominators included
    assume(den)
    plain = GF._plain.new(num, den)
    x = GF.new(K.from_sympy(plain.numer), K.from_sympy(plain.denom))
    assert str(x) == str(plain)
    assert str(x.num) == str(plain.numer)
    assert repr(x.num) == f"Poly({plain.numer})"


def test_printer_corner_cases():
    s, a = GF.s, GF.gen("alpha")
    cases = [GF.zero, GF.from_rational(-3), GF.from_rational(-3) / 2, -s,
             s / a, -2 * s / 3, (s + 1) / a**2, -1 / (2 * s), 1 / (a * s),
             (a**2 * s - 1) / (s**2 + 1)]
    for x in cases:
        assert str(x) == str(GF.plain(x))


# --------------------------------------------------------------------------
# the heuristic gcd


@PROPS
@given(polys(3), polys(), polys())
def test_heuristic_gcd_matches_sympys_cofactors(g, x, y):
    # a planted common factor g; up to a common sign
    a, b = g * x, g * y
    assume(a and b)
    ref = a.cofactors(b)
    got = _heugcd(K.from_sympy(a), K.from_sympy(b))
    assert got is not None
    got = tuple(map(K.to_sympy, got))
    assert got in (ref, tuple(-p for p in ref))


def test_heuristic_gcd_of_the_one_generator_example():
    # the pair sympy's heuristic gcd took before the one-generator route:
    # gcd(-3 alpha^2 s^2 - 3 alpha^2 + 2 s^2 + 2, alpha^2 s^2 + alpha^2
    # - s^2 - 1) = s^2 + 1, in s alone
    a = K.from_sympy(-3 * ZA**2 * ZS**2 - 3 * ZA**2 + 2 * ZS**2 + 2)
    b = K.from_sympy(ZA**2 * ZS**2 + ZA**2 - ZS**2 - 1)
    h = K.from_sympy(ZS**2 + 1)
    assert _heugcd(a, b)[0] in (h, -h)
    assert scalars._cofactors(a, b)[0] in (h, -h)


def test_the_one_generator_route_takes_no_heuristic_gcd(monkeypatch):
    # alpha and s are shared; the images prove degree 0 in alpha, so only
    # s is left open and the gcd is computed in Z[s]
    def refuse(f, g, i=0):
        raise AssertionError("the heuristic gcd ran")

    monkeypatch.setattr(scalars, "_heugcd", refuse)
    a = K.from_sympy(-3 * ZA**2 * ZS**2 - 3 * ZA**2 + 2 * ZS**2 + 2)
    b = K.from_sympy(ZA**2 * ZS**2 + ZA**2 - ZS**2 - 1)
    ref = K.to_sympy(a).cofactors(K.to_sympy(b))
    got = tuple(map(K.to_sympy, scalars._cofactors(a, b)))
    assert got in (ref, tuple(-p for p in ref))


# --------------------------------------------------------------------------
# factoring polynomials in s


small_factors = st.lists(st.tuples(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.integers(1, 3)), min_size=1, max_size=4)


def s_poly(ring, content, factors):
    """content * prod (sum c_k s^k)^e in ``ring``, s its last generator."""
    s = ring.gens[-1]
    p = ring(content)
    for cs, e in factors:
        p *= sum((c * s**k for k, c in enumerate(cs)), ring.zero) ** e
    return p


def left_open(facs):
    """True when the nonlinear factors of one multiplicity have degree 4 or
    more in all, which the kernel leaves to sympy."""
    degrees = {}
    for f, k in facs:
        if f.degree(f.ring.ngens - 1) > 1:
            degrees[k] = degrees.get(k, 0) + f.degree(f.ring.ngens - 1)
    return any(d >= 4 for d in degrees.values())


@pytest.mark.parametrize("gf", [GF, GF1], ids=["three-generators", "one"])
@PROPS
@given(st.integers(-12, 12).filter(bool), small_factors)
def test_s_factor_list_matches_sympy(gf, content, factors):
    p = s_poly(gf.ring, content, factors)
    assume(p.degree(gf.ring.ngens - 1) > 0)
    c, ref = p.factor_list()
    got = _s_factor_list(gf.kernel.from_sympy(p))
    if left_open(ref):
        assert got is None
    else:
        assert [(gf.kernel.to_sympy(f), k) for f, k in got] == ref
    kc, parts = _coprime_powers(gf.kernel.from_sympy(p))
    assert kc == c
    want = sympy.prod((f**k for f, k in ref), start=gf.ring.one)
    assert sympy.prod((gf.kernel.to_sympy(f)**k for f, k in parts),
                      start=gf.ring.one) == want


def reference_nth_root(gf, x, d):
    """nth_root as it was computed from sympy's factor_list."""
    parts = []
    for p in (x.numer, x.denom):
        content, facs = p.factor_list()
        croot = _reference_fraction_root(sympy.Rational(content), d)
        if croot is None or any(k % d for _, k in facs):
            return None
        acc = gf.from_rational(croot)
        for f, k in facs:
            acc = acc * gf.new(gf.kernel.from_sympy(f ** (k // d)),
                               gf.kernel.one)
        parts.append(acc)
    return parts[0] / parts[1]


def _reference_fraction_root(c, d):
    if c < 0:
        if d % 2 == 0:
            return None
        r = _reference_fraction_root(-c, d)
        return None if r is None else -r
    pn, en = sympy.integer_nthroot(c.p, d)
    pd, ed = sympy.integer_nthroot(c.q, d)
    return sympy.Rational(pn, pd) if en and ed else None


@PROPS
@given(st.integers(-8, 8).filter(bool), small_factors, small_factors,
       st.integers(1, 3), st.integers(1, 3))
def test_nth_root_matches_the_factor_list_root(cn, fn, fd, d, power):
    # x^power for power = d is always a d-th power; the parameters enter
    # through an alpha^2 numerator factor, which sympy's factor_list roots
    num = s_poly(R, cn, fn) * ZA**(2 * (power % 2))
    den = s_poly(R, 1, fd)
    assume(num and den)
    x = (GF.new(K.from_sympy(num), K.one)
         / GF.new(K.from_sympy(den), K.one)) ** power
    got = GF.nth_root(x, d)
    assert got == reference_nth_root(GF, x, d)
    if power == d:
        assert got is not None and got**d == x


# --------------------------------------------------------------------------
# integer helpers


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_divisors_match_sympy(n):
    assert divisors(n) == sympy.divisors(n)
    assert divisors(-n) == sympy.divisors(n)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.integers(0, 10**6), st.integers(0, 10**40)),
       st.integers(1, 7), st.booleans())
def test_integer_root_matches_sympy(n, d, power):
    if power:
        n = n ** d
    root, exact = sympy.integer_nthroot(n, d)
    assert _integer_root(n, d) == (root if exact else None)


def test_fraction_roots_keep_the_principal_sign():
    assert _fraction_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert _fraction_nth_root(Fraction(-4, 9), 2) is None
    assert _fraction_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert _fraction_nth_root(Fraction(5, 9), 2) is None
