"""Rank questions: ``linalg.rank`` against ``rref``, and the sampled rank
``check.sample_rank`` behind every independence claim of a certificate
(descent reaches it as ``descent._point_rank``).

The sampled rank evaluates the rows at the fixed rational points of
``check._sample_points`` (q = 1/2, then 2/3, then 3/5 for one transverse
coordinate) and stops at the first point of full rank.  Every evaluated
denominator and every pivot must be a unit of the tower; on a tower that is
not a field, a zero divisor surfaces as ``ZeroDivisor`` with a witness.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galint import check
from galint.algebra import AlgebraicTower, GroundField
from galint.algebra.linalg import rank, rref
from galint.errors import DivisionByZero, ZeroDivisor
from galint.integrability import descent
from galint.series import HyperexpBasis, RatioSeries, q_series

GF = GroundField(params=("alpha",))
S, ALPHA = GF.s, GF.gen("alpha")
BASE = AlgebraicTower(GF)
W_TOWER = BASE.extend("w", 2, 1 + S**2)

PROPS = settings(max_examples=8, deadline=None, database=None,
                 derandomize=True)

small = st.integers(-2, 2)
ground = st.tuples(small, small, small)   # a + b*s + c*alpha


def entry(tower, x, y):
    a, b, c = x
    out = tower.from_ground(a + b * S + c * ALPHA)
    if tower is W_TOWER:
        a, b, c = y
        out = out + tower.from_ground(a + b * S + c * ALPHA) * tower.gen("w")
    return out


@st.composite
def matrices(draw):
    """2-4 rows over BASE or W_TOWER; with some luck a row is planted as a
    combination of the rows above it."""
    tower = draw(st.sampled_from([BASE, W_TOWER]))
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            row = [tower.zero] * n
            for r in rows:
                k = tower.from_ground(draw(small))
                row = [a + k * b for a, b in zip(row, r)]
        else:
            row = [entry(tower, draw(ground), draw(ground)) for _ in range(n)]
        rows.append(row)
    return rows


@PROPS
@given(matrices())
def test_rank_matches_rref(M):
    pivots = []
    r = rank(M, pivot_values=pivots)
    _rows, rpiv = rref(M)
    assert r == len(rpiv)
    assert len(pivots) == r and all(pivots)


def test_rank_over_fractions_and_shapes():
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0
    assert rank([[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]) == 2
    pv = []
    M = [[F(0), F(3), F(1)], [F(2), F(1), F(0)], [F(4), F(5), F(1)]]
    assert rank(M, pivot_values=pv) == 2
    assert pv == [F(2), F(3)]
    pv = []
    assert rank([[F(1), F(2)], [F(3), F(4)]], pivot_values=pv) == 2
    assert pv == [F(1), F(-2)]   # 1*4 - 3*2: no division


def test_require_unit(monkeypatch):
    w = W_TOWER.gen("w")
    solved = []
    invert = AlgebraicTower.invert
    monkeypatch.setattr(AlgebraicTower, "invert",
                        lambda T, a: solved.append(a) or invert(T, a))
    W_TOWER.require_unit(w + S)           # norm -1: a unit
    W_TOWER.require_unit(ALPHA * w + 1)   # norm 1 - alpha^2 (1 + s^2)
    assert solved == []                   # both proven by specialisation
    # a pole at every specialisation point: invert decides
    poles = 1
    for a in (F(3, 2), F(8, 3), F(13, 4)):
        poles = poles * (ALPHA - GF.from_rational(a))
    W_TOWER.require_unit(W_TOWER.from_ground(1 / poles) * w)
    assert len(solved) == 1
    W_TOWER.require_unit(W_TOWER.from_ground(ALPHA))
    BASE.require_unit(BASE.from_ground(S))
    with pytest.raises(DivisionByZero):
        W_TOWER.require_unit(W_TOWER.zero)
    split = BASE.extend("w", 2, S**2)
    v = split.gen("w")
    split.require_unit(v + 1)             # norm 1 - s^2: a unit
    with pytest.raises(ZeroDivisor) as err:
        split.require_unit(v - S)         # (w - s)(w + s) = 0
    assert err.value.witness * (v - S) == 0


# ---------------------------------------------------------------------------
# sampled rank


def ratio(tower, num, den=None):
    """A ratio of q-series in one transverse coordinate."""
    basis = HyperexpBasis((tower.zero,))
    den = den or {(0,): tower.one}
    return RatioSeries(q_series(basis, 3, num), q_series(basis, 3, den))


def q_rows(tower, den=None):
    """[q, 1] and [1, q]: independent, and full rank at every point."""
    one, q = {(0,): tower.one}, {(1,): tower.one}
    return [[ratio(tower, q, den), ratio(tower, one, den)],
            [ratio(tower, one), ratio(tower, q)]]


@pytest.fixture()
def points_used(monkeypatch):
    used = []
    sample = check._sample_points

    def spy(nq):
        for p in sample(nq):
            used.append(p)
            yield p

    monkeypatch.setattr(check, "_sample_points", spy)
    return used


def test_full_rank_stops_at_the_first_point(points_used):
    assert descent._point_rank(q_rows(BASE), BASE) == 2
    assert len(points_used) == 1


def test_deficient_rank_tries_every_point(points_used):
    row = q_rows(W_TOWER)[0]
    assert descent._point_rank([row, row], W_TOWER) == 1
    assert len(points_used) == 3


def test_pole_at_a_point_skips_it(points_used):
    # 1 - 2q vanishes at the first point, q = 1/2
    den = {(0,): BASE.one, (1,): BASE.from_ground(-2)}
    assert descent._point_rank(q_rows(BASE, den), BASE) == 2
    assert len(points_used) == 2


def test_zero_divisor_entry_raises():
    # w^2 = s^2 is not a field: w - s is a zero divisor, and the sampled
    # rank must not divide by it
    T = BASE.extend("w", 2, S**2)
    bad = T.gen("w") - T.from_ground(S)
    rows = [[ratio(T, {(0,): bad}), ratio(T, {})]]
    with pytest.raises(ZeroDivisor) as err:
        descent._point_rank(rows, T)
    witness = err.value.witness
    assert witness and witness * bad == 0


def test_zero_divisor_denominator_raises():
    T = BASE.extend("w", 2, S**2)
    bad = T.gen("w") - T.from_ground(S)
    rows = [[ratio(T, {(1,): T.one}, {(0,): bad}), ratio(T, {(0,): T.one})]]
    with pytest.raises(ZeroDivisor):
        descent._point_rank(rows, T)


def test_an_integral_row_is_its_gradient():
    # q and q^2 have parallel gradients (1, 0) and (2q, 0); q and s q do not
    one = {(0,): BASE.one}
    q = ratio(BASE, {(1,): BASE.one})
    q2 = ratio(BASE, {(2,): BASE.one})
    sq = ratio(BASE, {(1,): BASE.from_ground(S)})
    assert check.sample_rank([q, q2], BASE) == 1
    assert check.sample_rank([q, sq], BASE) == 2
    # the quotient rule needs no expansion: 1/q has the gradient (-1/q^2, 0)
    over_q = RatioSeries(q_series(q.num.basis, 3, one),
                         q_series(q.num.basis, 3, {(1,): BASE.one}))
    assert check.sample_rank([q, over_q], BASE) == 1
    # q1/q2 and q1 q2 have the gradients (q2, -q1, 0)/q2^2 and (q2, q1, 0)
    B2 = HyperexpBasis((BASE.zero, BASE.zero))
    q1, q2 = ({i: BASE.one} for i in ((1, 0), (0, 1)))
    assert check.sample_rank(
        [RatioSeries(q_series(B2, 3, q1), q_series(B2, 3, q2)),
         RatioSeries(q_series(B2, 3, {(1, 1): BASE.one}),
                     q_series(B2, 3, {(0, 0): BASE.one}))], BASE) == 2


def test_each_entry_is_scaled_by_the_other_denominators():
    # [1/(1+q), 1/(1+2q)] spans the line of [1+2q, 1+q], independent of
    # [1+q, 1+2q]; scaling an entry by its own denominator would repeat it
    one = {(0,): BASE.one}
    d1 = {(0,): BASE.one, (1,): BASE.one}
    d2 = {(0,): BASE.one, (1,): BASE.from_ground(2)}
    rows = [[ratio(BASE, one, d1), ratio(BASE, one, d2)],
            [ratio(BASE, d1), ratio(BASE, d2)]]
    assert descent._point_rank(rows, BASE) == 2
