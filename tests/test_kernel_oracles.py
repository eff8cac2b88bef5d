"""The ground field's own routines against sympy, their oracle.

Each routine that took the place of a sympy call is checked against that
call on drawn inputs: the printer against ``str`` of sympy's ``FracField``
element, the heuristic gcd against sympy's ``cofactors``, the factoring of
polynomials in s against ``factor_list``, and the integer helpers against
``divisors`` and ``integer_nthroot``.  The gcd gate's division route is
checked against sympy's ``gcd`` on pairs where one operand divides the
other and on near-misses.
"""

import time
from fractions import Fraction
from unittest import mock

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
# the gate's division route


DIVISIBLE = ("product", "negated product", "multiple", "equal")


@st.composite
def gate_pairs(draw):
    """(kind, a, b) with b = +-a c, k a or a when kind is in DIVISIBLE, and
    b a near-miss of a's degrees that divides neither way otherwise: a
    shifted by q (a - lt(a)), whose images equal a's and whose leading
    coefficient is a's, so only the exact division tells them apart, or
    a + 1."""
    a = draw(polys(3))
    assume(a and not a.is_ground)
    kind = draw(st.sampled_from(DIVISIBLE + ("shifted by q", "plus one")))
    if kind == "product":
        c = draw(polys(3))
        assume(c)
        b = a * c
    elif kind == "negated product":
        c = draw(polys(3))
        assume(c)
        b = -a * c
    elif kind == "multiple":
        b = draw(st.integers(-9, 9).filter(lambda k: k not in (0, 1))) * a
    elif kind == "equal":
        b = a
    elif kind == "shifted by q":
        assume(len(a) > 1)
        b = a + scalars._Q * (a - a.LT[1] * R({a.LT[0]: 1}))
    else:
        b = a + 1
    return kind, a, b


@PROPS
@given(gate_pairs(), st.booleans())
def test_divisible_pairs_take_one_exact_division(pair, swap):
    # g a1 = a and g b1 = b exactly, g sympy's gcd up to sign; a pair where
    # one operand divides the other never reaches the one-generator lift
    # or the general gcd
    kind, a, b = pair
    if swap:
        a, b = b, a
    ref = a.gcd(b)
    reached = []

    def spy(name):
        real = getattr(scalars, name)

        def wrapper(*args):
            reached.append(name)
            return real(*args)
        return mock.patch.object(scalars, name, wrapper)

    with spy("_one_generator_cofactors"), spy("_general_cofactors"):
        g, a1, b1 = scalars._cofactors(K.from_sympy(a), K.from_sympy(b))
    assert K.to_sympy(g) in (ref, -ref)
    assert K.to_sympy(g * a1) == a and K.to_sympy(g * b1) == b
    if kind in DIVISIBLE:
        assert not reached, (kind, reached)
        assert g.LC > 0


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


def test_trial_division_stops_at_its_bound():
    # a prime factor above _TRIAL left with a cofactor that may be
    # composite is sympy's to find: each input took seconds or more when
    # trial division ran up to the square root, so all of them together
    # get one second
    ints = [2**40 * 3**10, 65521 * 65537, 6 * (2**61 - 1),
            -(2**31 - 1)**2, 65537 * 65539]
    den = ((2**61 - 1) * ZS + 1) * (ZS**2 + 1)
    start = time.perf_counter()
    got = [divisors(n) for n in ints]
    poles = GF.monic_s_factors(GF.new(K.one, K.from_sympy(den)))
    assert time.perf_counter() - start < 1.0
    assert got == [sympy.divisors(n) for n in ints]
    assert [scalars._trial_divisors(n) is None for n in ints] == \
        [False, False, True, True, True]
    # the poles as sympy's factor_list gives them, in its order
    want = [(GF.spoly(GF.new(K.from_sympy(f), K.one)).monic(), -k)
            for f, k in den.factor_list()[1]]
    assert [(f.key(), k) for f, k in poles] == \
        [(f.key(), k) for f, k in want]


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
