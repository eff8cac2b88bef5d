"""Property tests for the ground-field arithmetic and for small towers.

The ground field's elements (``Scalar``) reach sympy's canonical form with
gcds of denominators only; every result is checked against sympy's plain
``FracElement`` operation on the same operands, in the field over ZZ and in
the field over QQ, whose printed form is the same.  The gcd gate and the
memo work on the packed kernel's polynomials; their tests draw polynomials
of sympy's ring, convert them with ``K.from_sympy`` and compare the results
with sympy's ``cofactors`` after ``K.to_sympy``.  Over
random small towers the tests check the field axioms, inverses, the Leibniz
rule and that declared Galois maps commute with d/ds.
"""

import gc
import itertools
import operator
import weakref
from unittest import mock

import pytest
import sympy
import sympy.polys.rings as sympy_rings
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.fields import FracField

from galint.algebra import AlgebraicTower, GroundField
from galint.algebra import scalars as scalars_module
from galint.algebra.linalg import mat_mul
from galint.algebra.packed import Poly
from galint.algebra.scalars import (
    _MEMO_TERMS,
    _P,
    _POINTS,
    _PRIMES,
    _Q,
    SPoly,
    Scalar,
    _cofactors,
    _gcd_mod,
    _image,
    fraction_sum,
)
from galint.series import HyperexpBasis, TruncSeries

from test_ground_ring import operands
from test_series import one_dw_flow

GF = GroundField(params=("alpha", "beta"))
S, ALPHA, BETA = GF.s, GF.gen("alpha"), GF.gen("beta")
K = GF.kernel
PLAIN = FracField(K.names, ZZ)
PLAIN_QQ = FracField(K.names, QQ)

PROPS = settings(max_examples=25, deadline=None, database=None,
                 derandomize=True)
TOWER_PROPS = settings(max_examples=8, deadline=None, database=None,
                       derandomize=True)

# Denominator factors drawn from one small pool, so operands share some
# factors and not others; the integer ones exercise content cancellation.
FACTORS = (S, 1 + S, 1 + S**2, ALPHA - S, ALPHA * BETA + S, BETA,
           GF.from_rational(2), GF.from_rational(3))
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}

small = st.integers(-3, 3)
factor_powers = st.lists(st.integers(0, len(FACTORS) - 1), max_size=3)


@st.composite
def scalars(draw):
    a, b, c, d = (draw(small) for _ in range(4))
    num = a + b * S + c * ALPHA + d * BETA * S
    for k in draw(factor_powers):
        num = num * FACTORS[k]
    den = GF.one
    for k in draw(factor_powers):
        den = den * FACTORS[k]
    return num / den


def plain(x, field=PLAIN):
    ring = field.ring
    return field.dtype(x.numer.set_ring(ring), x.denom.set_ring(ring))


def diff_s(f):
    return f.diff(f.field.gens[-1])


def references(compute, *xs):
    """compute(*xs) as sympy's plain fields over ZZ and over QQ give it."""
    return (compute(*map(plain, xs)),
            compute(*(plain(x, PLAIN_QQ) for x in xs)))


def assert_matches(got, ref, ref_qq):
    """got is ref, sympy's result over ZZ, hashes as ref brought back to the
    field, and prints as ref and as ref_qq, sympy's result over QQ."""
    assert type(got) is Scalar
    assert (got.numer, got.denom) == (ref.numer, ref.denom)
    back = GF.new(K.from_sympy(ref.numer), K.from_sympy(ref.denom))
    assert got == back and hash(got) == hash(back) and str(got) == str(ref)
    qring = PLAIN_QQ.ring
    assert str(got) == str(ref_qq)
    assert (got.numer.set_ring(qring), got.denom.set_ring(qring)) == (
        ref_qq.numer, ref_qq.denom)


def assert_reference(got, compute, *xs):
    """got is compute(*xs) as sympy's plain fields give it."""
    assert_matches(got, *references(compute, *xs))


# --------------------------------------------------------------------------
# the ground field


def test_the_field_is_one_object():
    # every scalar's field is the ground field that built it
    gf = GroundField(params=("alpha", "beta"))
    assert gf.zero.field is gf
    for x in (gf.zero, gf.one, *gf.param_gens, gf.s, gf.from_rational(3),
              (1 + gf.s) / gf.gen("alpha")):
        assert type(x) is Scalar and x.field is gf


def test_equal_fields_mix_and_unequal_fields_do_not():
    twin = GroundField(params=("alpha", "beta"))
    assert twin is not GF and twin == GF and hash(twin) == hash(GF)
    x = (1 + S) / (ALPHA - BETA)
    y = (1 + twin.s) / (twin.gen("alpha") - twin.gen("beta"))
    assert x == y and y == x and hash(x) == hash(y)
    assert str(x + y) == str(y + x) == "(2*s + 2)/(alpha - beta)"
    assert x - y == 0 and x / y == 1
    for other in (GroundField(params=("alpha",)),
                  GroundField(params=("alpha", "beta"), curve_var="t"),
                  GroundField(params=("beta", "alpha"))):
        assert other != GF
        z = other.gen("alpha") + 1
        assert z != ALPHA + 1 and ALPHA + 1 != z
        for op in OPS.values():
            with pytest.raises(TypeError):
                op(ALPHA + 1, z)


@PROPS
@given(scalars(), scalars(), st.sampled_from(sorted(OPS)))
def test_operations_match_sympy(x, y, op):
    assume(op != "/" or y)
    assert_reference(OPS[op](x, y), OPS[op], x, y)


@PROPS
@given(scalars(), scalars())
def test_cancelling_operations_match_sympy(x, z):
    # x + (z - x) and x * (z / x) leave only z: the most cancellation
    y = z - x
    got = x + y
    assert_reference(got, operator.add, x, y)
    assert got == z
    assume(x)
    y = z / x
    got = x * y
    assert_reference(got, operator.mul, x, y)
    assert got == z


@PROPS
@given(scalars(), small, st.sampled_from(sorted(OPS)))
def test_shared_denominator_matches_sympy(x, k, op):
    y = x + GF.from_rational(k)
    assert y.denom == x.denom  # so + and - take the one-gcd path
    assume(op != "/" or y)
    assert_reference(OPS[op](x, y), OPS[op], x, y)


def test_multiplying_by_one_returns_the_operand():
    x = (1 + S) / (ALPHA - S)
    assert x * GF.one is x and x / GF.one is x


def test_dividing_zero_returns_it_without_a_product(monkeypatch):
    x = (1 + S) / (ALPHA - S)
    calls = []
    mul = Poly.__mul__

    def counted(p, q):
        calls.append(1)
        return mul(p, q)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert GF.zero / x is GF.zero
    assert not calls
    monkeypatch.undo()
    for num in (GF.zero, x):
        with pytest.raises(ZeroDivisionError):
            num / GF.zero


def power(x, n):
    """x**n by repeated multiplication and one division."""
    out = GF.one
    for _ in range(abs(n)):
        out = out * x
    return out if n >= 0 else 1 / out


@PROPS
@given(scalars(), st.integers(-3, 3))
def test_powers_equal_products(x, n):
    # for n < 0 the sign rule; for n = 2 the hash sympy's square leaves
    assume(x or n > 0)
    got = x**n
    want = power(x, n)
    assert type(got) is Scalar and got.denom.LC > 0
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    if n < 0:
        want = 1 / (x**-n)
        assert got == want and hash(got) == hash(want)
        assert str(got) == str(want)


def test_a_square_is_stored_under_the_products_memo_key():
    # the kernel hashes a power only once it is finished, so x**2 equals
    # and hashes like x * x, and a gcd that takes the square's denominator
    # is stored under the key the product's denominator finds
    gf = GroundField(params=("alpha", "beta"))
    s, alpha, beta = gf.s, gf.gen("alpha"), gf.gen("beta")
    x = (1 + s) / (s**2 + alpha * s + beta)
    square, product = x**2, x * x
    assert square == product and hash(square) == hash(product)
    assert str(square) == str(product)
    assert square.den is not product.den
    other = (s - alpha).num
    got = gf.cofactors(square.den, other)
    assert gf._gcd_memo[(product.den, other)] is got


def test_inverse_of_a_negated_generator():
    assert (-S)**-1 == -1 / S and str((-S)**-1) == "-1/s"
    with pytest.raises(ZeroDivisionError):
        GF.zero**-1


# Denominators for d/ds: free of s or not, with repeated factors.
DIFF_POOL = (S, 1 + S, 1 + S**2, S + ALPHA, ALPHA * BETA + S, BETA,
             ALPHA + BETA, GF.from_rational(2), GF.from_rational(3))


@st.composite
def differentiands(draw):
    a, b, c, d = (draw(small) for _ in range(4))
    num = a + b * S + c * ALPHA + d * BETA * S ** draw(st.integers(0, 2))
    den = GF.one
    for k, e in draw(st.lists(st.tuples(
            st.integers(0, len(DIFF_POOL) - 1), st.integers(1, 3)),
            max_size=3)):
        den = den * DIFF_POOL[k] ** e
    return num / den


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.just(GF.zero), small.map(GF.from_rational),
                 differentiands()))
def test_diff_s_matches_sympy(f):
    assert_reference(GF.diff_s(f), diff_s, f)


def test_failed_heuristic_gcd_falls_back(request):
    # every operation meets a gcd of positive degree, which the modular
    # coprimality gate passes on to the heuristic gcd: the shared
    # S^2 + ALPHA of the denominators for + - and /, and S - BETA + 1 of y's
    # numerator and x's denominator for *.  With the heuristic gcd failing
    # on every call, each result, on a fresh field whose gcd memo has
    # decided no pair yet, is still the one sympy's plain fields give.
    x, y = operands(GF)
    want = {op: references(OPS[op], x, y) for op in OPS}
    calls = request.getfixturevalue("heuristic_gcd_fails")
    for op in sorted(OPS):
        calls.clear()
        got = OPS[op](*operands(GroundField(params=("alpha", "beta"))))
        assert calls, f"{op} never reached the heuristic gcd"
        assert_matches(got, *want[op])


# --------------------------------------------------------------------------
# n-ary sums with one final gcd


def fold(xs, zero=GF.zero):
    """The sum of xs by a pairwise ``+``."""
    out = zero
    for x in xs:
        out = out + x
    return out


def assert_same(got, want):
    """got is want in the canonical form, hashing and printing alike."""
    assert type(got) is Scalar
    assert (got.numer, got.denom) == (want.numer, want.denom)
    assert hash(got) == hash(want) and str(got) == str(want)


@st.composite
def sum_terms(draw):
    """1-6 scalars and (numerator, denominator) pairs for them: some share a
    denominator, some pairs carry a common factor, some lists cancel."""
    xs = []
    for _ in range(draw(st.integers(1, 5))):
        if xs and draw(st.booleans()):  # x + k keeps x's denominator
            x = xs[draw(st.integers(0, len(xs) - 1))]
            xs.append(x + GF.from_rational(draw(small)))
        else:
            xs.append(draw(scalars()))
    if draw(st.booleans()):
        xs.append(-fold(xs))
    pairs = []
    for x in xs:
        k = draw(st.integers(-1, len(FACTORS) - 1))
        f = K.one if k < 0 else FACTORS[k].num
        pairs.append((x.num * f, x.den * f))
    return pairs, xs


@PROPS
@given(sum_terms())
def test_fraction_sum_matches_the_pairwise_fold(case):
    pairs, xs = case
    assert_same(fraction_sum(pairs, GF.zero), fold(xs))


# --------------------------------------------------------------------------
# polynomial views and factoring

# s-free denominators, some sharing a factor with a numerator coefficient
SFREE_POOL = (BETA, ALPHA + BETA, ALPHA**2 - 1, ALPHA * BETA + 1,
              GF.from_rational(2), GF.from_rational(3))


@st.composite
def s_polynomials(draw):
    num = GF.zero
    for k in range(draw(st.integers(0, 4))):
        a, b, c = (draw(small) for _ in range(3))
        num = num + (a + b * ALPHA + c * ALPHA * BETA) * S**k
    den = GF.one
    for k in draw(st.lists(st.integers(0, len(SFREE_POOL) - 1), max_size=3)):
        den = den * SFREE_POOL[k]
    return num / den


def per_term_coeffs(f):
    """The coefficients of f in s, each summed one monomial at a time."""
    i = GF._s_index
    coeffs = {}
    for mono, c in f.numer.terms():
        free = mono[:i] + (0,) + mono[i + 1:]
        term = GF.new(K.from_sympy(GF.ring.from_terms([(free, c)])), K.one)
        coeffs[mono[i]] = coeffs.get(mono[i], GF.zero) + term
    den = GF.new(f.den, K.one)
    return {k: v / den for k, v in coeffs.items()}


@PROPS
@given(s_polynomials())
def test_spoly_groups_terms_by_power_of_s(f):
    sp = GF.spoly(f)
    assert sp.to_element() == f
    ref = per_term_coeffs(f)
    assert sp.degree == max(ref, default=-1)
    for k, c in enumerate(sp.coeffs):
        r = ref.get(k, GF.zero)
        assert c == r and str(c) == str(r)


@st.composite
def param_scalars(draw):
    """(a + b alpha + c alpha beta) over a product from SFREE_POOL."""
    a, b, c = (draw(small) for _ in range(3))
    den = GF.one
    for k in draw(st.lists(st.integers(0, len(SFREE_POOL) - 1), max_size=2)):
        den = den * SFREE_POOL[k]
    return (a + b * ALPHA + c * ALPHA * BETA) / den


@PROPS
@given(st.lists(param_scalars(), max_size=5))
def test_spoly_to_element_matches_the_fold(coeffs):
    # coefficients with unrelated denominators, summed by fraction_sum
    want = fold([c * S**k for k, c in enumerate(coeffs)])
    assert_same(SPoly(GF, list(coeffs)).to_element(), want)


@PROPS
@given(st.lists(st.one_of(st.just(GF.zero), param_scalars()), max_size=6))
def test_spoly_monic_divides_each_coefficient_by_the_leading_one(coeffs):
    sp = SPoly(GF, list(coeffs))
    got = sp.monic().coeffs
    assert len(got) == len(sp.coeffs)
    for c, g in zip(sp.coeffs, got):
        want = plain(c) / plain(sp.coeffs[-1])
        assert (g.numer, g.denom) == (want.numer, want.denom)


def test_spoly_monic_leaves_zero_coefficients_undivided(monkeypatch):
    c2, c4 = (ALPHA + 1) / BETA, (ALPHA - BETA) / (ALPHA * BETA + 1)
    sp = SPoly(GF, [GF.zero, GF.zero, c2, GF.zero, c4])
    divided = []
    div = Scalar.__truediv__

    def counted(f, g):
        divided.append(f)
        return div(f, g)

    monkeypatch.setattr(Scalar, "__truediv__", counted)
    got = sp.monic().coeffs
    monkeypatch.undo()
    assert divided == [c2, c4]
    assert got == [GF.zero, GF.zero, c2 / c4, GF.zero, GF.one]


def test_s_free_denominators_are_not_factored(monkeypatch):
    factored = []
    factor_list = sympy_rings.PolyElement.factor_list

    def spy(p):
        factored.append(p)
        return factor_list(p)

    monkeypatch.setattr(sympy_rings.PolyElement, "factor_list", spy)
    gf = GroundField(params=("alpha",))
    s, alpha = gf.s, gf.gen("alpha")
    assert gf.monic_s_factors(1 / (alpha**2 - 1)) == []
    assert not factored and not gf._factor_cache
    facs = gf.monic_s_factors(alpha / ((alpha - 1) * (s**2 + alpha)))
    assert [(p.to_element(), v) for p, v in facs] == [(s**2 + alpha, -1)]
    assert len(factored) == 1 and len(gf._factor_cache) == 1


# --------------------------------------------------------------------------
# a failing heuristic gcd


def diff_s_case(gf):
    # gcd(b, b') = s^2 + alpha, in two generators
    s, alpha, beta = gf.s, gf.gen("alpha"), gf.gen("beta")
    return gf.diff_s((beta + s) / ((s**2 + alpha) ** 2 * (s - beta + 1)))


def fraction_sum_case(gf):
    # (s^2 + alpha + beta) / (s^2 + alpha)^2: the denominators share
    # s - beta + 1 or s^2 + alpha, and the summed numerator shares
    # s - beta + 1 with the lcm
    s, alpha, beta = gf.s, gf.gen("alpha"), gf.gen("beta")
    xs = [1 / (s**2 + alpha) + 1 / (s - beta + 1), -1 / (s - beta + 1),
          beta / (s**2 + alpha) ** 2]
    return fraction_sum([(x.num, x.den) for x in xs], gf.zero)


def to_element_case(gf):
    # the coefficients' denominators share alpha + beta; building them
    # takes no gcd in two generators, so only to_element meets one
    alpha, beta = gf.gen("alpha"), gf.gen("beta")
    return SPoly(gf, [1 / ((alpha + beta) * (alpha - beta)),
                      alpha / ((alpha + beta) * (alpha * beta + 1)),
                      beta / (alpha * beta + 1)]).to_element()


def operation_case(op):
    return lambda gf: op(*operands(gf))


FAILING_GCD_CASES = {
    "add": operation_case(operator.add),
    "sub": operation_case(operator.sub),
    "mul": operation_case(operator.mul),
    "truediv": operation_case(operator.truediv),
    "diff_s": diff_s_case,
    "fraction_sum": fraction_sum_case,
    "to_element": to_element_case,
    "one_dw_flow": lambda gf: one_dw_flow(6),
}


@pytest.mark.parametrize("case", list(FAILING_GCD_CASES))
def test_a_failing_heuristic_gcd_changes_no_result(request, monkeypatch,
                                                    case):
    # with the heuristic gcd failing on every call, sympy's subresultant
    # PRS gcd decides what the gate leaves open, and each result, the
    # 1dw formal flow at N = 6 included, is the one the heuristic gcd
    # gives; nothing calls sympy's cancel, whose heuristic gcd has no
    # fallback.  Each run builds a fresh field, whose gcd memo has decided
    # no pair yet.
    compute = FAILING_GCD_CASES[case]
    want = compute(GroundField(params=("alpha", "beta")))
    calls = request.getfixturevalue("heuristic_gcd_fails")
    cancels = []
    cancel = sympy_rings.PolyElement.cancel

    def spy(f, g):
        cancels.append((f, g))
        return cancel(f, g)

    monkeypatch.setattr(sympy_rings.PolyElement, "cancel", spy)
    got = compute(GroundField(params=("alpha", "beta")))
    assert calls, f"{case} never reached the heuristic gcd"
    assert not cancels
    if isinstance(want, str):
        assert got == want
    else:
        assert_same(got, want)


# --------------------------------------------------------------------------
# the coprimality gate

ZRING = GF.ring
ZA, ZB, ZS = ZRING.gens
GATE_PROPS = settings(max_examples=80, deadline=None, database=None,
                      derandomize=True)

nonzero = st.integers(-4, 4).filter(bool)
exponent = st.integers(0, 2)


@st.composite
def zpolys(draw):
    """A nonzero polynomial of ZZ[alpha, beta, s] with up to four terms."""
    p = ZRING.zero
    for c, i, j, k in draw(st.lists(st.tuples(nonzero, exponent, exponent,
                                              exponent),
                                    min_size=1, max_size=4)):
        p += c * ZA**i * ZB**j * ZS**k
    assume(p)
    return p


@st.composite
def common_factors(draw):
    """1, an integer content, an s-free a x + b, a factor in s or a
    monomial."""
    kind = draw(st.sampled_from(("one", "content", "linear", "s", "monomial")))
    if kind == "one":
        return ZRING.one
    if kind == "content":
        return ZRING(draw(st.integers(2, 12)))
    if kind == "linear":
        x = draw(st.sampled_from((ZA, ZB)))
        return draw(nonzero) * x + draw(nonzero)
    if kind == "s":
        return ZS**draw(st.integers(1, 2)) + draw(nonzero) * ZS + draw(nonzero)
    i, j, k = draw(exponent), draw(exponent), draw(exponent)
    assume(i + j + k)
    return ZA**i * ZB**j * ZS**k


def gate(a, b):
    """``_cofactors`` on the kernel twins of sympy polynomials a and b,
    with its triple brought back to sympy's ring."""
    return tuple(map(K.to_sympy, _cofactors(K.from_sympy(a),
                                            K.from_sympy(b))))


def assert_gate_matches_sympy(a, b):
    got = gate(a, b)
    ref = a.cofactors(b)
    assert got in (ref, tuple(-x for x in ref))


@GATE_PROPS
@given(common_factors(), zpolys(), zpolys())
def test_gate_matches_sympy_cofactors(g, x, y):
    assert_gate_matches_sympy(g * x, g * y)


def test_gate_falls_back_on_a_vanishing_leading_coefficient():
    # the images of g = 1 + (alpha - a0)(beta - b0) s at the gate's points
    # are 1 in every variable, and so the images of the pair are coprime;
    # only the vanishing leading coefficients show that they prove nothing
    a0, b0 = _POINTS[:2]
    g = 1 + (ZA - a0) * (ZB - b0) * ZS
    a, b = g * (ZS + 1), g * (ZS + ZA)
    assert a.cofactors(b)[0] == g
    assert_gate_matches_sympy(a, b)


def test_gate_prime_and_points():
    # one CPython digit per residue; the lift keeps primes of 61 bits and up
    assert sympy.isprime(_Q) and _Q < 2**30
    residues = {pt % _Q for pt in _POINTS}
    assert 0 not in residues and len(residues) == len(_POINTS)
    assert _PRIMES[0] == _P and all(map(sympy.isprime, _PRIMES))


generators = st.sampled_from((ZA, ZB, ZS))


@GATE_PROPS
@given(common_factors(), zpolys(), generators, st.integers(1, 3), small)
def test_gate_matches_sympy_when_a_leading_coefficient_vanishes_mod_q(
        g, x, v, k, r):
    # lc_v(h) is k q for h = k q v + r, so the image of h in v loses its
    # degree; as a common factor, its image is constant
    h = k * _Q * v + r
    for a, b in ((g * x * h, g * (v + 2)), (h * x, h * (v + 2))):
        assert_gate_matches_sympy(a, b)
        assert_gate_matches_sympy(b, a)


@GATE_PROPS
@given(common_factors(), zpolys(), generators, nonzero, small)
def test_gate_matches_sympy_when_images_share_a_root_mod_q(g, x, v, k, r):
    # v - r and v - r - k q are coprime over Z and equal mod q
    a, b = g * x * (v - r), g * (v - r - k * _Q)
    assert_gate_matches_sympy(a, b)
    assert_gate_matches_sympy(b, a)


def image_reference(p, i):
    """p's image in x_i mod _Q, the other generators at _POINTS, by
    sympy's evaluation."""
    gens = ZRING.gens
    rest = [(x, pt) for j, (x, pt) in enumerate(zip(gens, _POINTS)) if j != i]
    u = p.evaluate(rest)
    coeffs = [0] * (p.degree(i) + 1)
    for (k,), c in u.terms():
        coeffs[k] = int(c) % _Q
    return coeffs


@GATE_PROPS
@given(common_factors(), zpolys(), zpolys())
def test_gate_data_is_stored_once_and_left_intact(g, x, y):
    # the gate's degrees and images live on its operands; a second run on
    # the same objects reuses them and must find them as the first left
    # them, though Euclid mod q uses up the lists it is given
    a, b = K.from_sympy(g * x), K.from_sympy(g * y)
    first = _cofactors(a, b)
    assert _cofactors(a, b) == first
    for p in (a, b):
        degs, images = p._gate
        assert degs == [max(e) for e in zip(*K.to_sympy(p))]
        for i, image in images.items():
            assert image == image_reference(K.to_sympy(p), i) \
                == _image(K.dtype(p), i)


# Common factors in one generator, planted in pairs that share only that
# generator: a = g x with x in ZZ[alpha, beta, s] and b = g y with y in the
# generator alone.  Their gcd is computed modularly in that generator, and
# the general gcd (the heuristic gcd, then sympy's) must not be reached.


def cofactors_without_the_general_gcd(a, b):
    """``_cofactors(a, b)``, failing if it reaches the general gcd."""

    def refuse(f, g):
        raise AssertionError(f"the general gcd reached on {f} and {g}")

    with mock.patch.object(scalars_module, "_general_cofactors", refuse):
        return gate(a, b)


def assert_one_generator_gcd(a, b):
    ref = a.cofactors(b)
    got = cofactors_without_the_general_gcd(a, b)
    assert got in (ref, tuple(-x for x in ref))


signs = st.sampled_from((1, -1))


@st.composite
def one_generator_factors(draw, x):
    """(k x +- 1)^e, with s^2 + c as well in s, or a product of two."""

    def factor():
        if x == ZS and draw(st.booleans()):
            return ZS**2 + draw(nonzero)
        return (draw(st.integers(1, 20)) * x + draw(signs)) \
            ** draw(st.integers(1, 3))

    g = factor()
    if draw(st.booleans()):
        g *= factor()
    return g


@st.composite
def big_linear_factors(draw, x):
    """k x +- 1 with k beyond half of 2^61 - 1 and below 2^480."""
    return draw(st.integers(2**62, 2**480)) * x + draw(signs)


@st.composite
def univariates(draw, x):
    """A nonzero polynomial in x alone, of degree up to three."""
    p = sum((draw(small) * x**k for k in range(4)), ZRING.zero)
    assume(p)
    return p


@st.composite
def one_generator_pairs(draw, factors):
    x = draw(st.sampled_from((ZA, ZB, ZS)))
    g = draw(factors(x))
    a, b = g * draw(zpolys()), g * draw(univariates(x))
    if draw(st.booleans()):
        a, b = b, a
    return a, b


@GATE_PROPS
@given(one_generator_pairs(one_generator_factors))
def test_one_generator_gcd_matches_sympy(pair):
    assert_one_generator_gcd(*pair)


@GATE_PROPS
@given(one_generator_pairs(big_linear_factors))
def test_one_generator_gcd_with_coefficients_beyond_the_first_prime(pair):
    assert_one_generator_gcd(*pair)


def spy_on_primes(monkeypatch):
    """The list of primes that Euclid mod p is run with from now on."""
    primes = []

    def spy(f, g, p):
        primes.append(p)
        return _gcd_mod(f, g, p)

    monkeypatch.setattr("galint.algebra.scalars._gcd_mod", spy)
    return primes


@pytest.mark.parametrize("bits, prime", [(70, 2**89 - 1), (100, 2**107 - 1),
                                         (120, 2**127 - 1),
                                         (300, 2**521 - 1)])
def test_each_prime_lifts_what_the_smaller_ones_cannot(monkeypatch, bits,
                                                       prime):
    # the image gcd of the two alpha-coefficients is that of 2^bits alpha + 1,
    # whose coefficient is lifted only by a prime above 2^(bits + 1); the
    # gate's image mod _Q comes first, then the lift's primes in turn
    g = 2**bits * ZA + 1
    a, b = g * (ZA + 2) * (ZS + ZB), g * (ZA - 3)
    primes = spy_on_primes(monkeypatch)
    assert_one_generator_gcd(a, b)
    assert primes == [_Q, *_PRIMES[:_PRIMES.index(prime) + 1]]


def test_one_generator_gcd_beyond_every_prime_takes_the_general_gcd():
    g = (2**600 + 1) * ZA + 3
    a, b = g * (ZA + 2) * (ZS + ZB), g * (ZA - 3)
    with pytest.raises(AssertionError, match="the general gcd reached"):
        cofactors_without_the_general_gcd(a, b)
    assert_gate_matches_sympy(a, b)


@pytest.mark.parametrize("g", [ZS**2 + 1, (ZS - 1)**2 * (2 * ZS + 1)])
def test_one_generator_gcd_after_a_vanishing_leading_coefficient(g):
    # lc_s(a) = alpha - a0 vanishes at the gate's point a0 for alpha, so
    # the image in s proves nothing; the gcd in s does not use the points
    a0, b0 = _POINTS[:2]
    a, b = g * ((ZA - a0) * ZS + ZB), g * (ZS + 2)
    assert_one_generator_gcd(a, b)
    # the same in alpha, whose leading coefficient vanishes at beta = b0
    h = g.compose(ZS, ZA)
    assert_one_generator_gcd(h * ((ZB - b0) * ZA + ZS), h * (ZA - 5))


def test_one_generator_gcd_skips_a_prime_dividing_a_leading_coefficient(
        monkeypatch):
    # (s + 1)(p s + 1) is primitive with leading coefficient p = 2^61 - 1,
    # so its image mod p would lose a degree: after the gate's image mod
    # _Q, the next prime decides
    primes = spy_on_primes(monkeypatch)
    a = (ZS + 1) * (_P * ZS + 1) * (1 + ZA * ZB)
    b = (ZS + 1) * (ZS - 2)
    assert_one_generator_gcd(a, b)
    assert primes == [_Q, 2**89 - 1]
    assert_one_generator_gcd(a * (ZS + 1), b * (_P * ZS + 1))


def test_one_generator_gcd_of_a_pair_equal_mod_q(monkeypatch):
    # s - 5 and s - 5 - q are coprime but their images are equal, so the
    # gate proves nothing and the lift finds gcd 1 at the first prime
    primes = spy_on_primes(monkeypatch)
    a = (ZS - 5) * (1 + ZA * ZB)
    b = ZS - 5 - _Q
    assert_one_generator_gcd(a, b)
    assert primes == [_Q, _P]
    assert gate(a, b) == (ZRING.one, a, b)


def test_one_shared_generator_never_reaches_sympy(monkeypatch):
    a = (ZA**2 - 1)**3 * (ZS + ZB)
    b = 18 * (ZA**2 - 1) * (ZA + 3)
    x = (1 + S) / ((ALPHA**2 - 1)**3 * (S + BETA))
    y = BETA / (18 * (ALPHA**2 - 1) * (ALPHA + 3))
    real = scalars_module._general_cofactors
    calls = []

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(scalars_module, "_general_cofactors", spy)
    got = gate(a, b)
    assert not calls
    assert got == (ZA**2 - 1, (ZA**2 - 1)**2 * (ZS + ZB), 18 * ZA + 54)
    gots = {op: OPS[op](x, y) for op in sorted(OPS)}
    assert not calls
    for op, got in gots.items():
        assert_reference(got, OPS[op], x, y)
    calls.clear()
    # a pair whose images leave alpha and s open goes to the general gcd
    c = (ZS**2 + ZA) * (ZS + ZB)
    d = (ZS**2 + ZA) * (ZS - ZB + 1)
    got = gate(c, d)
    assert calls == [(K.from_sympy(c), K.from_sympy(d))]
    assert got == c.cofactors(d)


# --------------------------------------------------------------------------
# the gcd memo of a ground field


def fresh_field():
    """The ground field built anew, with an empty gcd memo."""
    return GroundField(params=("alpha", "beta"))


@st.composite
def memo_polys(draw):
    """The numerator or denominator of each of three scalars, times the
    denominator of a fourth, so that many pairs share a factor."""
    xs = [draw(scalars().filter(bool)) for _ in range(3)]
    c = draw(scalars()).den
    return [draw(st.sampled_from((x.num, x.den))) * c for x in xs]


@GATE_PROPS
@given(memo_polys())
def test_memo_matches_the_gate_and_sympy(polys):
    # every ordered pair of the three, twice, on one fresh field: the first
    # round decides each pair after pairs that share one of its operands,
    # and the second, on copies, finds each by its content
    field = fresh_field()
    pairs = list(itertools.permutations(polys, 2))
    for a, b in pairs + [(K.dtype(a), K.dtype(b)) for a, b in pairs]:
        got = field.cofactors(a, b)
        assert got == _cofactors(a, b)
        ref = K.to_sympy(a).cofactors(K.to_sympy(b))
        got = tuple(map(K.to_sympy, got))
        assert got in (ref, tuple(-x for x in ref))


def test_memo_stores_no_constant_and_no_large_pair(request, monkeypatch):
    field = fresh_field()
    p = ZS**2 + ZA

    def refuse(a, b):
        raise AssertionError(f"the gate ran on {a} and {b}")

    # a constant operand takes the content gcd, with no gate and no entry
    monkeypatch.setattr(scalars_module, "_cofactors", refuse)
    for a, b in ((ZRING(6), 4 * p), (4 * p, ZRING(-6)), (ZRING.one, p),
                 (p, ZRING.one)):
        ref = a.cofactors(b)
        got = field.cofactors(K.from_sympy(a), K.from_sympy(b))
        assert tuple(map(K.to_sympy, got)) in (ref, tuple(-x for x in ref))
    monkeypatch.undo()
    assert not field._gcd_memo

    def powers(n):
        """s + s^2 + ... + s^n, n terms."""
        return sum((ZS**k for k in range(1, n + 1)), ZRING.zero)

    b = K.from_sympy(ZA + 1)
    big = K.from_sympy(powers(_MEMO_TERMS - 1))
    assert field.cofactors(big, b) == _cofactors(big, b)
    assert not field._gcd_memo
    small = K.from_sympy(powers(_MEMO_TERMS - 2))
    assert field.cofactors(small, b) == _cofactors(small, b)
    assert list(field._gcd_memo) == [(small, b)]

    # a pair whose heuristic gcd fails is stored with the subresultant PRS
    # triple, sympy's own triple up to sign
    c = K.from_sympy((ZS**2 + ZA) * (ZS + ZB))
    d = K.from_sympy((ZS**2 + ZA) * (ZS - ZB + 1))
    ref = tuple(map(K.from_sympy, K.to_sympy(c).cofactors(K.to_sympy(d))))
    calls = request.getfixturevalue("heuristic_gcd_fails")
    got = field.cofactors(c, d)
    assert calls
    assert got in (ref, tuple(-x for x in ref))
    assert list(field._gcd_memo) == [(small, b), (c, d)]
    assert field._gcd_memo[(c, d)] is got


def test_memo_dies_with_its_field():
    gf = GroundField(params=("alpha", "beta"))
    s, alpha = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    x = T.from_ground((1 + s) / (s**2 + alpha)) + T.gen("w") / (s - alpha)
    assert T.invert(x) * x == T.one
    assert gf.diff_s(s / (s**2 + alpha) + alpha / (s - 1))
    assert gf._gcd_memo
    ref = weakref.ref(gf)
    del gf, s, alpha, T, x
    gc.collect()
    assert ref() is None


# --------------------------------------------------------------------------
# small towers over the ground field

BASE = AlgebraicTower(GF)
RADICANDS = (1 + S**2, S + ALPHA, S * (1 + S), S - 2)


@st.composite
def towers(draw):
    """w^3 = r, or w^2 = r possibly followed by v^2 = r2 (r2 in the base),
    with the sign flips of the square roots declared."""
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.sampled_from(RADICANDS))
    t = BASE.extend("w", d, r)
    signs = {"w": -1} if d == 2 else {}
    if d == 2 and draw(st.booleans()):
        r2 = draw(st.sampled_from([x for x in RADICANDS if x != r]))
        t = t.extend("v", 2, t.from_ground(r2))
        signs["v"] = -1
    for name, sign in signs.items():
        images = {g: t.gen(g) * (sign if g == name else 1) for g in t.names}
        t.declare_galois(f"flip_{name}", images)
    return t


ground = st.tuples(small, small, small, st.integers(0, 2))


def ground_elem(abcd):
    a, b, c, d = abcd
    return (a + b * S + c * ALPHA) / (1 + d * S**2)


@st.composite
def tower_elems(draw, t):
    acc = t.zero
    for e in t.basis_monomials():
        mono = t.one
        for name, k in zip(t.names, e):
            mono = mono * t.gen(name) ** k
        acc = acc + t.from_ground(ground_elem(draw(ground))) * mono
    return acc


@st.composite
def tower_cases(draw, n):
    t = draw(towers())
    return t, [draw(tower_elems(t)) for _ in range(n)]


@TOWER_PROPS
@given(tower_cases(3))
def test_tower_field_axioms(case):
    t, (a, b, c) = case
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + t.zero == a and a * t.one == a
    assert (a - a).is_zero() and (a + (-a)).is_zero()


@TOWER_PROPS
@given(tower_cases(1))
def test_tower_inverse(case):
    t, (a,) = case
    assume(not a.is_zero())
    assert a * t.invert(a) == t.one


@TOWER_PROPS
@given(tower_cases(2))
def test_tower_leibniz(case):
    _t, (a, b) = case
    assert (a * b).derive() == a.derive() * b + a * b.derive()


@TOWER_PROPS
@given(tower_cases(2))
def test_declared_galois_maps_commute_with_derive(case):
    t, (a, b) = case
    for name in t.galois_names():
        assert a.derive().galois(name) == a.galois(name).derive()
        assert (a * b).galois(name) == a.galois(name) * b.galois(name)


@TOWER_PROPS
@given(tower_cases(3), st.lists(ground, min_size=1, max_size=2))
def test_tower_sum_and_dot_match_the_pairwise_folds(case, lows):
    # products reach w^4 = r w (w^3 = r) or w^2 v^2 = r r2 and need the
    # reduced monomials; the base-field operands are lifted as + lifts them
    t, elems = case
    xs = elems + [BASE.from_ground(ground_elem(x)) for x in lows]
    for got, want in [(t.sum(xs), fold(xs, t.zero)),
                      (t.sum(xs + [-fold(xs, t.zero)]), t.zero)]:
        assert got.tower is t and got == want and repr(got) == repr(want)
    pairs = list(zip(xs, reversed(xs)))
    got = t.dot(pairs)
    want = fold([a * b for a, b in pairs], t.zero)
    assert got.tower is t and got == want and repr(got) == repr(want)
    assert t.dot(pairs + [(-a, b) for a, b in pairs]).is_zero()


@TOWER_PROPS
@given(tower_cases(4), ground)
def test_tower_mat_mul_matches_the_fold(case, low):
    # each entry of A B is one dot; a zero entry and a base-field entry
    # are placed as + places them
    t, (a, b, c, d) = case
    A = [[a, b], [t.zero, BASE.from_ground(ground_elem(low))]]
    B = [[c, t.zero], [d, a]]
    got = mat_mul(A, B, t.zero)
    for i in range(2):
        for j in range(2):
            want = fold([A[i][k] * B[k][j] for k in range(2)], t.zero)
            assert got[i][j].tower is t
            assert got[i][j] == want and repr(got[i][j]) == repr(want)


@TOWER_PROPS
@given(tower_cases(3))
def test_series_cell_that_cancels_takes_later_contributions(case):
    t, (a, b, c) = case
    basis = HyperexpBasis([t.zero])
    key = (1,)

    def cell(*contributions):
        return TruncSeries(basis, "q", 2, [(key, x) for x in contributions]
                           ).coeff((1,))

    assert cell(a, -a, b) == (b or None)
    assert cell(a, b, -a, c) == (b + c or None)
    assert cell(a, b, -(a + b)) is None
