"""Frame brackets and Lie derivatives on the dense check engine.

``check._dratio`` turns a field column with a unit denominator (after its
monomial content is cancelled) into one dense power series, and
``check.frame_residuals`` checks the frame brackets on those, and the Lie
derivatives of integrals cross-multiplied, for both ``fields.scan_frame``
and ``verify_certificate``.  The property tests pin why the two agree: a
derivation of the dense quotient, times den², is the cross-multiplied
residual one degree below the window.  The rest are labelled refusals and
the frame of ``commuting_fields``: certified through the flow window less
one, a cell planted into a field is named at its own order, and
``stabilize_frame`` names a field that moves an integral.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galint.algebra import AlgebraicTower, GroundField
from galint import check
from galint.check import (
    _dadd,
    _dderiv_along,
    _dense_cols,
    _dlie,
    _dmul,
    _dquot,
    _dratio,
    _dsub,
    frame_residuals,
)
from galint.errors import NotExpandable, VerificationFailed, ZeroDivisor
from galint.integrability import FirstIntegral, formal_flow
from galint.integrability.fields import (
    CertifiedField,
    as_cols,
    commuting_fields,
    scan_frame,
    stabilize_frame,
)
from galint.reduction import CoordRat, VectorFieldSpec, reduce_to_curve, \
    time_reduce
from galint.series import (
    HyperexpBasis,
    RatioSeries,
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
    monomial so that ``_dratio`` has content to cancel first."""
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


def upto(a, M):
    """The cells of a dense series through total degree M."""
    return {i: c for i, c in a.items() if sum(i) <= M}


@PROPS
@given(towers.flatmap(quotients))
def test_dense_conversion_commutes_with_the_quotient_rule(r):
    # along each coordinate field X, den^2 times X of the dense quotient is
    # the cross-multiplied X(num) den - num X(den) of the Lie claims, one
    # degree below the window
    tower = r.num.basis.hs[0].tower
    num, den, _w = _dquot(r)
    e, window = _dratio(r, tower, {})
    top = window - 1
    for j in range(NQ + 1):
        X = [{(0,) * NQ: tower.one} if m == j else {} for m in range(NQ + 1)]
        Xe = _dderiv_along(X, e, top, tower)
        assert upto(_dmul(_dmul(Xe, den, top), den, top), top) == \
            upto(_dlie(X, num, den, top, tower), top)


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
            _dratio(bad, BASE, {})
        with pytest.raises(NotExpandable):
            scan_frame([[unit, unit, bad], [unit, unit, unit]], (), N)
        # an integral is checked cross-multiplied, not expanded: the field
        # d/dq1 + d/dq2 + d/ds moves both quotients at order 0
        with pytest.raises(VerificationFailed,
                           match="frame field 0 moves first integral 0 at "
                                 "order 0"):
            scan_frame([[unit, unit, unit]], [bad], N, brackets=False)
    # the quotient by a monomial that divides the numerator is a series,
    # one degree narrower
    assert _dratio(divisible, BASE, {}) == (
        {(0, 0): BASE.from_ground(S), (1, 1): BASE.one}, N - 1)


def test_zero_divisor_constant_raises_with_its_witness():
    # on w^2 = s^2 the constant w - s is a zero divisor, not a unit
    T = BASE.extend("w", 2, S**2)
    w_minus_s = T.gen("w") - T.from_ground(S)
    B = HyperexpBasis((T.zero,))
    r = RatioSeries(q_series(B, N, {(0,): T.one}),
                    q_series(B, N, {(0,): w_minus_s, (1,): T.one}))
    for refuse in (lambda: _dratio(r, T, {}),
                   lambda: scan_frame([[r, r]], (), N)):
        with pytest.raises(ZeroDivisor) as err:
            refuse()
        assert (w_minus_s * err.value.witness).is_zero()


def test_planted_cell_defect_matches_the_dense_verifier():
    # [q d/dq, s q^2 d/dq] = s q^2 d/dq: a residual cell at order 2, one
    # record that the frame scan raises on and the verifier reports
    one = q(((0,), 1), nq=1, N=4)
    zero = q(nq=1, N=4)
    X = CertifiedField([RatioSeries(q(((1,), 1), nq=1, N=4), one)],
                       RatioSeries(zero, one), 4)
    Y = CertifiedField([RatioSeries(q(((2,), S), nq=1, N=4), one)],
                       RatioSeries(zero, one), 4)
    (cx, wx), (cy, wy) = (_dense_cols(as_cols(f), BASE) for f in (X, Y))
    cap = min(wx, wy) - 1
    assert [_dsub(_dderiv_along(cx, y, cap, BASE),
                  _dderiv_along(cy, x, cap, BASE))
            for x, y in zip(cx, cy)] == [{(2,): BASE.from_ground(S)}, {}]
    assert list(frame_residuals([as_cols(X), as_cols(Y)], (), BASE)) == \
        [(("bracket", 0, 1), 3, 2)]
    with pytest.raises(VerificationFailed,
                       match="frame fields 0 and 1 fail to commute at "
                             "order 2"):
        scan_frame([X, Y], (), 4)


# ------------------------------------------------------------ frame brackets

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
    """Add s q^degree to the first column of the first field the dense
    check converts (field 0 of ``commuting_fields``)."""
    convert = check._dense_cols
    seen = []

    def planted(cols, tower):
        dense, window = convert(cols, tower)
        if not seen:
            dense[0] = _dadd(dense[0], {(degree,): tower.from_ground(S)})
        seen.append(cols)
        return dense, window

    monkeypatch.setattr(check, "_dense_cols", planted)


def test_frame_is_bracketed_once_at_the_flow_window():
    flow = cubic_drag_flow()
    frame = commuting_fields(flow)
    # every column is a series over T at the flow window N = 4; one
    # bracket partial leaves the frame certified through 3
    assert frame.order == 3
    assert all(f.order == 3 for f in frame.fields)
    assert stabilize_frame(frame) is frame


def test_planted_cell_inside_the_narrow_window_raises(monkeypatch):
    # the narrow window is the certified one, orders through N - 1 = 3:
    # a cell anywhere in it is a bracket failure at its own order
    flow = cubic_drag_flow()
    for k in (1, 2, 3):
        with monkeypatch.context() as m:
            plant_in_first_column(m, k)
            with pytest.raises(VerificationFailed,
                               match="frame fields 0 and 1 fail to commute "
                                     f"at order {k}"):
                commuting_fields(flow)


def test_planted_cell_above_the_narrow_window_keeps_the_frame(monkeypatch):
    # s q^4 is a live cell of the N = 4 flow window, but one bracket
    # partial leaves only orders through 3 certified, so it is not seen
    flow = cubic_drag_flow()
    assert not q_series(flow.basis, flow.N,
                        {(4,): BASE.from_ground(S)}).is_zero()
    plant_in_first_column(monkeypatch, 4)
    frame = commuting_fields(flow)
    assert frame.order == 3
    assert stabilize_frame(frame) is frame


def test_stabilize_frame_raises_on_a_moved_integral():
    # q is no first integral of the cubic drag: the first field moves it
    flow = cubic_drag_flow()
    frame = commuting_fields(flow)
    B = flow.basis
    q1 = RatioSeries(q_series(B, flow.N, {(1,): BASE.one}),
                     q_series(B, flow.N, {(0,): BASE.one}))
    with pytest.raises(VerificationFailed,
                       match="frame field 0 moves first integral 0 at "
                             "order 1"):
        stabilize_frame(frame, [FirstIntegral((1,), BASE.one, q1, 4)])
