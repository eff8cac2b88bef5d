"""Frame brackets on power-series expansions.

``RatioSeries.expand`` turns a quotient with a unit denominator (after its
common monomial content is cancelled) into one power series, and the frame
brackets, Lie derivatives and their scans run on those expansions.  The
property tests pin why that agrees with differentiating quotients by the
quotient rule: expansion is a ring map through the shared window, it
commutes with ``rpartial``/``rderive_s`` one degree below the window, and
``partial``/``derive_s`` obey the Leibniz rule on truncated series.  The
rest are labelled failures and the bracket-once argument of
``commuting_fields``: the narrow verdict read off the widened fields'
residual is the verdict of the narrow fields themselves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galint.algebra import AlgebraicTower, GroundField
from galint.errors import NotExpandable, VerificationFailed, ZeroDivisor
from galint.integrability import fields, formal_flow
from galint.integrability.certificates import (
    _dense_cols,
    _dderiv_along,
    _lowest_bad,
)
from galint.integrability.fields import (
    CertifiedField,
    commuting_fields,
    lie_bracket,
    ratio_lie,
    rderive_s,
    rpartial,
    scan_residual,
    stabilize_frame,
)
from galint.reduction import CoordRat, VectorFieldSpec, reduce_to_curve, \
    time_reduce
from galint.series import (
    HyperexpBasis,
    RatioSeries,
    SymbolMonomial,
    TruncSeries,
    q_series,
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
ground = st.tuples(small, small, small)   # a + b*s + c*alpha
towers = st.sampled_from([BASE, W_TOWER])


def coeff(tower, x, y):
    """x + y*w over W_TOWER, x alone over BASE."""
    a, b, c = x
    out = tower.from_ground(a + b * S + c * ALPHA)
    if tower is W_TOWER:
        a, b, c = y
        out = out + tower.from_ground(a + b * S + c * ALPHA) * tower.gen("w")
    return out


# x + y*w with y an integer: a unit of either tower whose inverse stays small
units = st.tuples(ground.filter(any), st.tuples(small, st.just(0), st.just(0)))


@st.composite
def quotients(draw, tower, nq=NQ):
    """num/den with a unit constant in den, both raised by one common
    monomial so that ``expand`` has content to cancel first."""
    zero = (0,) * nq
    shift = draw(st.sampled_from(
        [zero] + [tuple(int(k == j) for k in range(nq)) for j in range(nq)]))
    cells = [i[:nq] for i in CELLS if not any(i[nq:])]

    def series(tab):
        return q_series(HyperexpBasis((tower.zero,) * nq), N, {
            tuple(a + b for a, b in zip(i, shift)): coeff(tower, x, y)
            for i, (x, y) in tab.items()
        })

    tables = st.dictionaries(st.sampled_from(cells),
                             st.tuples(ground, ground), max_size=3)
    den_tab = draw(tables)
    den_tab[zero] = draw(units)
    return RatioSeries(series(draw(tables)), series(den_tab))


@st.composite
def quotient_pairs(draw):
    tower = draw(towers)
    return draw(quotients(tower)), draw(quotients(tower))


def upto(a, M):
    return a.truncate(M) if M < a.N else a


@PROPS
@given(quotient_pairs())
def test_expand_is_a_ring_map(pair):
    a, b = pair
    ea, eb = a.expand(), b.expand()
    for got, want in ((a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb)):
        # quotient arithmetic can shed more common content than either
        # operand did, so its window may be the narrower one
        got = got.expand()
        M = min(got.N, want.N)
        assert upto(got, M) == upto(want, M)


@PROPS
@given(towers.flatmap(quotients))
def test_expand_commutes_with_the_quotient_rule(r):
    e = r.expand()
    top = e.N - 1
    for j in range(NQ):
        assert upto(rpartial(r, j).expand(), top) == upto(e.partial(j), top)
    assert upto(rderive_s(r).expand(), top) == upto(e.derive_s(), top)


# series carrying H and L symbols, for the Leibniz rule
SYMS = [SymbolMonomial(e, ell) for e in ((0, 0), (1, 0), (0, -1), (1, 1))
        for ell in ((), (("L", 1),))]
SYM_BASIS = HyperexpBasis((BASE.from_ground(ALPHA / S), BASE.from_ground(S)),
                          {"L": BASE.from_ground(1 / (1 + S))})
sym_tables = st.dictionaries(
    st.tuples(st.sampled_from(CELLS), st.integers(0, len(SYMS) - 1)),
    ground.filter(any), max_size=4)


def sym_series(tab):
    return TruncSeries(SYM_BASIS, "q", N, {
        (i, SYMS[k]): coeff(BASE, x, None) for (i, k), x in tab.items()
    })


@PROPS
@given(sym_tables, sym_tables)
def test_leibniz_rule(tab_a, tab_b):
    a, b = sym_series(tab_a), sym_series(tab_b)
    assert (a * b).derive_s() == a.derive_s() * b + a * b.derive_s()
    for j in range(NQ):
        # the top cell of a partial would come from the truncated degree
        assert upto((a * b).partial(j), N - 1) == \
            upto(a.partial(j) * b + a * b.partial(j), N - 1)


# ------------------------------------------------------- labelled failures

def q(*cells, tower=BASE, nq=NQ, N=N):
    """A q-series from (exponent, coefficient) pairs."""
    return q_series(HyperexpBasis((tower.zero,) * nq), N,
                    {i: tower.from_ground(c) for i, c in cells})


def test_non_unit_denominators_are_not_expandable():
    one = q(((0, 0), 1))
    q1_plus_q2 = RatioSeries(one, q(((1, 0), 1), ((0, 1), 1)))
    over_q1 = RatioSeries(q(((0, 0), 1), ((0, 1), 1)), q(((1, 0), 1)))
    divisible = RatioSeries(q(((1, 0), S), ((2, 1), 1)), q(((1, 0), 1)))
    unit = RatioSeries(one, one)
    for bad in (q1_plus_q2, over_q1):
        with pytest.raises(NotExpandable):
            bad.expand()
        with pytest.raises(NotExpandable):
            lie_bracket([unit, unit, bad], [unit, unit, unit])
        with pytest.raises(NotExpandable):
            ratio_lie([unit, unit, unit], bad)
    # the quotient by a monomial that divides the numerator is a series,
    # one degree narrower
    assert divisible.expand() == q(((0, 0), S), ((1, 1), 1), N=N - 1)


def test_zero_divisor_constant_raises_with_its_witness():
    # on w^2 = s^2 the constant w - s is a zero divisor, not a unit
    T = BASE.extend("w", 2, S**2)
    w_minus_s = T.gen("w") - T.from_ground(S)
    B = HyperexpBasis((T.zero,))
    r = RatioSeries(q_series(B, N, {(0,): T.one}),
                    q_series(B, N, {(0,): w_minus_s, (1,): T.one}))
    with pytest.raises(ZeroDivisor) as err:
        r.expand()
    assert (w_minus_s * err.value.witness).is_zero()


def test_planted_cell_defect_matches_the_dense_verifier():
    # [q d/dq, s q^2 d/dq] = s q^2 d/dq: a residual cell at order 2
    one = q(((0,), 1), nq=1, N=4)
    zero = q(nq=1, N=4)
    X = CertifiedField([RatioSeries(q(((1,), 1), nq=1, N=4), one)],
                       RatioSeries(zero, one), 4)
    Y = CertifiedField([RatioSeries(q(((2,), S), nq=1, N=4), one)],
                       RatioSeries(zero, one), 4)
    res_q, res_s = lie_bracket(X, Y)
    assert res_q == q(((2,), S), nq=1, N=4)
    assert res_s.is_zero()
    assert scan_residual(res_q, 1) == (2, 1)
    assert scan_residual(res_s, 1) == (None, 3)
    (cx, wx), (cy, wy) = _dense_cols(X, BASE), _dense_cols(Y, BASE)
    cap = min(wx, wy) - 1
    dense = _dderiv_along(cx, cy[0], cap, BASE)
    for i, c in _dderiv_along(cy, cx[0], cap, BASE).items():
        dense[i] = dense[i] - c if i in dense else -c
    dense = {i: c for i, c in dense.items() if not c.is_zero()}
    assert _lowest_bad(dense, cap) == 2


# ------------------------------------------------------------ bracket once

@st.composite
def narrow_fields(draw):
    """Two fields on (q, s) at window N, one with a planted cell (the
    tower plays no part in the argument, so the base field keeps the
    coefficients small)."""
    cols = [[draw(quotients(BASE, 1)) for _ in range(2)] for _ in range(2)]
    k = draw(st.integers(1, N))
    c = cols[0][0]
    plant = q_series(c.num.basis, c.num.N, {(k,): BASE.from_ground(S)})
    cols[0][0] = RatioSeries(c.num + plant * c.den, c.den)
    return cols


@PROPS
@given(narrow_fields())
def test_narrow_verdict_is_read_off_the_wide_residual(pair):
    a, b = pair
    narrow = lie_bracket(a, b)
    W_n = min(fields._window(x) for x in a + b)
    wide = lie_bracket([fields._widen(x, N + 1) for x in a],
                       [fields._widen(x, N + 1) for x in b])
    for rn, rw in zip(narrow, wide):
        assert rn.N == W_n
        assert scan_residual(rw.truncate(W_n), 2) == scan_residual(rn, 2)


def cubic_drag_flow(N=4):
    # q' = a q/(s D), s' = 1/D with D = q^3 + q^2 s + s, reduced to q = 0
    T = BASE
    den = CoordRat(T, 1, {(3,): T.one, (2,): T.from_ground(S),
                          (0,): T.from_ground(S)})
    x = CoordRat.coordinate(T, 1, 0)
    X1 = CoordRat.constant(T, 1, ALPHA) * x / (CoordRat.constant(T, 1, S)
                                               * den)
    R = time_reduce(reduce_to_curve(VectorFieldSpec([X1, 1 / den], [T.zero]),
                                    order=N))
    return formal_flow(R, N)


def plant_in_first_column(monkeypatch, degree):
    """Add s q^degree to the first column of field 0 as the bracket sees
    it: _widen re-declares the visible cells, so both verdicts read it."""
    widen = fields._widen
    calls = []

    def planted(r, N):
        if not calls:
            cell = q_series(r.num.basis, r.num.N,
                            {(degree,): BASE.from_ground(S)})
            r = RatioSeries(r.num + cell * r.den, r.den)
        calls.append(r)
        return widen(r, N)

    monkeypatch.setattr(fields, "_widen", planted)


def test_frame_is_bracketed_once_at_the_flow_window():
    flow = cubic_drag_flow()
    frame = commuting_fields(flow)
    # the narrow window is 3 (debt 2), the widened one 4 (debt 1)
    assert (frame.order, frame.wide_order) == (1, 3)
    stable = stabilize_frame(frame, flow)
    assert stable.order == stable.wide_order == 3
    assert all(f.order == 3 for f in stable.fields)


def test_planted_cell_inside_the_narrow_window_raises(monkeypatch):
    flow = cubic_drag_flow()
    plant_in_first_column(monkeypatch, 1)
    with pytest.raises(VerificationFailed,
                       match="frame fields 0 and 1 fail to commute at "
                             "order 1"):
        commuting_fields(flow)


def test_planted_cell_above_the_narrow_window_keeps_the_frame(monkeypatch):
    flow = cubic_drag_flow()
    plant_in_first_column(monkeypatch, 2)
    frame = commuting_fields(flow)
    assert (frame.order, frame.wide_order) == (1, None)
    assert stabilize_frame(frame, flow) is frame
