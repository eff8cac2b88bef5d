"""Property tests for the series engine: sums, products and composition
against the verifier's dense engine, inverse, map inversion, valuation,
linear substitution, and the trimmed quotient arithmetic of RatioSeries."""

import operator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galint.algebra import AlgebraicTower, GroundField
from galint.algebra.linalg import mat_inv
from galint.check import _dadd, _dmul
from galint.errors import DivisionByZero
from galint.series import (
    HyperexpBasis,
    RatioSeries,
    TruncSeries,
    linear_subst,
    q_series,
    ts_invert_map,
)

GF = GroundField(params=("alpha",))
S, ALPHA = GF.s, GF.gen("alpha")
BASE = AlgebraicTower(GF)
W_TOWER = BASE.extend("w", 2, 1 + S**2)
NQ, N = 2, 3
CELLS = [(a, b) for a in range(N + 1) for b in range(N + 1 - a)]

PROPS = settings(max_examples=8, deadline=None, database=None,
                 derandomize=True)

small = st.integers(-2, 2)
# a ground coefficient a + b*s + c*alpha
ground = st.tuples(small, small, small)


def ground_elem(abc):
    a, b, c = abc
    return a + b * S + c * ALPHA


def coeff(tower, x, y=(0, 0, 0)):
    """x + y*w over W_TOWER, x alone over BASE."""
    out = tower.from_ground(ground_elem(x))
    if tower is W_TOWER:
        out = out + tower.from_ground(ground_elem(y)) * tower.gen("w")
    return out


def basis(tower):
    return HyperexpBasis((tower.zero,) * NQ)


tables = st.dictionaries(st.sampled_from(CELLS), st.tuples(ground, ground),
                         max_size=5)


def series(tower, tab, shift=(0, 0)):
    """A q-series from drawn cells, every exponent raised by ``shift``."""
    return q_series(basis(tower), N, {
        (i + shift[0], j + shift[1]): coeff(tower, x, y)
        for (i, j), (x, y) in tab.items()
    })


towers = st.sampled_from([BASE, W_TOWER])


def negated(cell):
    x, y = cell
    return tuple(-v for v in x), tuple(-v for v in y)


# cells of the second operand that cancel the first operand's cells
cancels = st.sets(st.sampled_from(CELLS))


@PROPS
@given(towers, tables, tables, cancels)
def test_sum_and_product_match_the_dense_engine(tower, tab_a, tab_b, cut):
    tab_b.update({k: negated(tab_a[k]) for k in cut & set(tab_a)})
    a, b = series(tower, tab_a), series(tower, tab_b)
    A, B = a.table, b.table
    assert (a + b).table == _dadd(A, B)
    assert (a - b).table == _dadd(A, {i: -c for i, c in B.items()})
    assert (a * b).table == _dmul(A, B, N)


def dense_compose(F, G):
    """sum_i F_i * prod_j G_j^{i_j}, term by term in the dense engine."""
    out = {}
    for i, c in F.items():
        term = {(0,) * NQ: c}
        for j, k in enumerate(i):
            for _ in range(k):
                term = _dmul(term, G[j], N)
        out = _dadd(out, term)
    return out


# substituted series vanish at the origin
subst_tables = st.dictionaries(
    st.sampled_from([i for i in CELLS if sum(i) >= 1]),
    st.tuples(ground, ground), max_size=4)


@PROPS
@given(towers, tables, subst_tables, subst_tables)
def test_compose_matches_the_dense_engine(tower, tab, tab_1, tab_2):
    f = series(tower, tab)
    g = [series(tower, tab_1), series(tower, tab_2)]
    assert f.compose(g).table == dense_compose(
        f.table, [x.table for x in g])


@PROPS
@given(towers, tables, st.tuples(ground, ground))
def test_inverse_of_unit_series(tower, tab, c0):
    assume(any(c0[0]) or (tower is W_TOWER and any(c0[1])))
    tab[(0, 0)] = c0
    a = series(tower, tab)
    one = TruncSeries.constant(a.basis, "q", N, tower.one)
    assert a * a.inverse() == one


@PROPS
@given(towers, tables)
def test_inverse_needs_a_constant_term(tower, tab):
    tab.pop((0, 0), None)
    with pytest.raises(DivisionByZero):
        series(tower, tab).inverse()


@PROPS
@given(st.lists(ground, min_size=4, max_size=4), tables)
def test_linear_substitution_round_trip(entries, tab):
    P = [[BASE.from_ground(ground_elem(e)) for e in entries[:2]],
         [BASE.from_ground(ground_elem(e)) for e in entries[2:]]]
    Pinv, _ker = mat_inv(P, BASE.zero, BASE.one)
    assume(Pinv is not None)
    f = series(BASE, tab)
    B = f.basis
    there = f.compose(linear_subst(B, P, N))
    assert there.compose(linear_subst(B, Pinv, N)) == f


# the nonlinear cells of a tangent-to-identity u-map
u_tables = st.dictionaries(
    st.sampled_from([i for i in CELLS if sum(i) >= 2]),
    st.tuples(ground, ground), max_size=4)


def u_map(tower, tabs):
    """u_j plus the drawn cells, each u^i carrying H^i as a flow-box
    component does."""
    B = basis(tower)
    return [TruncSeries.variable(B, "u", N, j, tower.one) + TruncSeries(
        B, "u", N,
        {i: coeff(tower, x, y)
         for i, (x, y) in tab.items()})
        for j, tab in enumerate(tabs)]


@PROPS
@given(towers, u_tables, u_tables)
def test_compose_inverts_the_inverted_map(tower, tab_1, tab_2):
    phi = u_map(tower, (tab_1, tab_2))
    Phi = ts_invert_map(phi)
    B = basis(tower)
    assert [p.compose(Phi) for p in phi] == \
        [TruncSeries.variable(B, "q", N, j, tower.one) for j in range(NQ)]
    assert [P.compose(phi) for P in Phi] == \
        [TruncSeries.variable(B, "u", N, j, tower.one) for j in range(NQ)]


@PROPS
@given(towers, tables, tables)
def test_valuation(tower, tab_a, tab_b):
    a, b = series(tower, tab_a), series(tower, tab_b)
    degs = [sum(i) for i, (x, y) in tab_a.items()
            if any(x) or (tower is W_TOWER and any(y))]
    assert a.valuation() == (min(degs) if degs else None)
    if a.is_zero() or b.is_zero():
        assert (a * b).valuation() is None
    elif a.valuation() + b.valuation() <= N:
        assert (a * b).valuation() == a.valuation() + b.valuation()


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


def _untrimmed(op, a, b):
    """The cross-multiplied quotient with no common content cancelled."""
    if op in "+-":
        return RatioSeries(OPS[op](a.num * b.den, b.num * a.den),
                           a.den * b.den)
    if op == "*":
        return RatioSeries(a.num * b.num, a.den * b.den)
    return RatioSeries(a.num * b.den, a.den * b.num)


# low-degree cells raised by a random monomial, so that quotients often
# carry common content and still fit the window
shifts = st.tuples(st.integers(0, 1), st.integers(0, 1))
nonempty_tables = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1)]),
    st.tuples(ground.filter(any), ground), min_size=1, max_size=3)


@PROPS
@given(st.sampled_from(sorted(OPS)),
       st.lists(st.tuples(nonempty_tables, shifts), min_size=4, max_size=4))
def test_ratio_ops_return_trimmed_quotients(op, parts):
    num_a, den_a, num_b, den_b = (series(BASE, t, m) for t, m in parts)
    assume(not den_a.is_zero() and not den_b.is_zero())
    a, b = RatioSeries(num_a, den_a), RatioSeries(num_b, den_b)
    try:
        plain = _untrimmed(op, a, b)
    except ZeroDivisionError:  # the denominator truncates away entirely
        assume(False)
    got = OPS[op](a, b)
    assert got.trim() is got
    assert got.eq(plain)
