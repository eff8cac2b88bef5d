"""The packed-exponent kernel under the ground field.

Every kernel operation is checked against sympy's ring over ZZ on the same
generators, with exponents drawn up to the field-width limit: a result
either equals sympy's, or raises ``OverflowError`` exactly when sympy's
result has an exponent beyond the limit, so no exponent carries silently
into a neighbouring field.  A deep flow runs its polynomial arithmetic on
the kernel alone; sympy's ``PolyElement`` arithmetic runs only inside
sympy's own gcd and factorization, which the ground field keeps as
fallbacks.
"""

from collections import Counter

import pytest
import sympy.polys.rings as sympy_rings
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.polyerrors import ExactQuotientFailed

from galint.algebra import AlgebraicTower, GroundField
from galint.algebra.packed import WIDTH, PackedRing
from galint.integrability import formal_flow
from galint.reduction import ReducedSystem

K = PackedRing(("alpha", "beta", "s"))
S = K.sympy
LIMIT = K.limit

PROPS = settings(max_examples=150, deadline=None, database=None,
                 derandomize=True)

# exponents near 0 and at the field-width limit, where a sum of two
# overflows the field
exponents = st.one_of(st.integers(0, 3), st.integers(LIMIT - 3, LIMIT))
coeffs = st.one_of(st.integers(-5, 5), st.integers(-2**70, 2**70)).filter(bool)


@st.composite
def polys(draw, max_size=4):
    """A polynomial of sympy's ring, possibly zero."""
    terms = draw(st.lists(st.tuples(st.tuples(exponents, exponents,
                                              exponents), coeffs),
                          max_size=max_size))
    p = S.zero
    for m, c in terms:
        p += S({m: c})
    return p


def over_limit(p):
    return any(e > LIMIT for m in p for e in m)


def assert_agrees(kernel, reference):
    """kernel() is reference() on sympy's side, or raises OverflowError
    exactly when that result holds an exponent beyond the limit."""
    want = reference()
    if over_limit(want):
        with pytest.raises(OverflowError):
            kernel()
    else:
        got = kernel()
        assert type(got) is K.dtype
        assert K.to_sympy(got) == want
        assert 0 not in got.values()


def test_layout():
    assert WIDTH == 16 and K.limit == 2**15 - 1
    assert K.shifts == (32, 16, 0)
    assert K.unpack(K.pack((1, 2, 3))) == (1, 2, 3)
    assert K.pack((1, 0, 0)) > K.pack((0, LIMIT, LIMIT))  # lex order
    for bad in ((LIMIT + 1, 0, 0), (0, 0, -1)):
        with pytest.raises(OverflowError):
            K.pack(bad)


@PROPS
@given(polys())
def test_round_trip(a):
    k = K.from_sympy(a)
    assert K.to_sympy(k) == a and K.from_sympy(K.to_sympy(k)) == k
    assert hash(K.dtype(k)) == hash(k)


@PROPS
@given(polys(), polys())
def test_sum_difference_and_negation_match_sympy(a, b):
    x, y = K.from_sympy(a), K.from_sympy(b)
    assert_agrees(lambda: x + y, lambda: a + b)
    assert_agrees(lambda: x - y, lambda: a - b)
    assert_agrees(lambda: -x, lambda: -a)


@PROPS
@given(polys(), polys())
def test_product_matches_sympy(a, b):
    x, y = K.from_sympy(a), K.from_sympy(b)
    assert_agrees(lambda: x * y, lambda: a * b)
    assert_agrees(lambda: y * x, lambda: b * a)


@PROPS
@given(polys(max_size=3), st.integers(0, 4))
def test_power_matches_sympy(a, n):
    x = K.from_sympy(a)
    if not (a or n):
        with pytest.raises(ValueError, match="0\\*\\*0"):
            x**n  # as sympy refuses it
        return
    assert_agrees(lambda: x**n, lambda: a**n)


@PROPS
@given(polys(), st.integers(0, 2))
def test_structure_matches_sympy(a, i):
    x = K.from_sympy(a)
    assert_agrees(lambda: x.diff(i), lambda: a.diff(S.gens[i]))
    assert x.degree(i) == max(a.degree(i), -1)
    assert x.terms() == a.terms()
    assert x.is_ground() == a.is_ground
    if a:
        assert x.LC == a.LC
        assert x.degrees() == [a.degree(j) for j in range(3)]


@PROPS
@given(polys(), polys(), coeffs)
def test_exact_quotients_match_sympy(a, b, c):
    x, y = K.from_sympy(a), K.from_sympy(b)
    assert K.to_sympy((x * K.ground(c)).quo_ground(c)) == \
        (a * c).quo_ground(c) == a
    if not b or over_limit(a * b):
        return
    xy = x * y
    assert K.to_sympy(xy.exquo(y)) == (a * b).exquo(b) == a


def test_a_failed_exact_division_raises_sympys_error():
    # quo_exact answers None where exquo raises what sympy's exquo raises,
    # an error imported only when one is raised
    x, y = K.gens[0], K.gens[1] + K.one
    assert (x * y).quo_exact(y) == x and x.quo_exact(y) is None
    assert (K.ground(6) * x).quo_exact(K.ground(4)) is None
    for fail in (lambda: x.exquo(y), lambda: S.gens[0].exquo(S.gens[1] + 1)):
        with pytest.raises(ExactQuotientFailed):
            fail()


def test_monomial_product_and_power_raise_at_the_limit():
    x = K.gens[2]
    top = x**LIMIT
    assert K.to_sympy(top) == S.gens[2]**LIMIT
    for overflow in (lambda: top * x, lambda: x**(LIMIT + 1),
                     lambda: (K.ground(3) * top) * (x * K.gens[0]),
                     lambda: (top + K.one) * (x + K.one)):
        with pytest.raises(OverflowError):
            overflow()
    # the field above is untouched by a product that stays in range
    assert K.to_sympy(x**(LIMIT - 1) * x * K.gens[1]) == \
        S.gens[1] * S.gens[2]**LIMIT


def one_dw_system(N):
    """The benchmark's 1dw system at seed 0 on a fresh ground field."""
    gf = GroundField(params=("alpha", "beta"))
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    unit = {(0,): T.one}
    table = {(0, (2,)): T.from_ground(gf.gen("beta")),
             (0, (3,)): T.from_ground(s)}
    return ReducedSystem(T, 1, N,
                         [[T.from_ground(gf.gen("alpha")) / T.gen("w")]],
                         table, unit, unit, time_reduced=True)


def test_a_deep_flow_runs_no_polynomial_arithmetic_on_sympy(monkeypatch):
    # one 1dw formal_flow at N = 6: every product, sum and difference of
    # polynomials outside sympy's own gcd and factorization is the
    # kernel's, and sympy's gcd and factorization run at most 4 and 3 times
    R = one_dw_system(6)
    calls = Counter()
    inside = [0]

    def arithmetic(name):
        real = getattr(sympy_rings.PolyElement, name)

        def wrapper(*args):
            if not inside[0]:
                calls[name] += 1
            return real(*args)
        return wrapper

    def entry(name):
        real = getattr(sympy_rings.PolyElement, name)

        def wrapper(*args):
            calls[name] += 1
            inside[0] += 1
            try:
                return real(*args)
            finally:
                inside[0] -= 1
        return wrapper

    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(sympy_rings.PolyElement, name, arithmetic(name))
    for name in ("cofactors", "factor_list"):
        monkeypatch.setattr(sympy_rings.PolyElement, name, entry(name))
    assert formal_flow(R, 6).N == 6
    monkeypatch.undo()
    assert not any(calls[name] for name in ("__mul__", "__add__", "__sub__")), \
        calls
    assert calls["cofactors"] <= 4 and calls["factor_list"] <= 3, calls
