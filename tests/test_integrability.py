"""Flow-box normal forms: hand oracles worked out before implementation.

* cubic drag (q' = a q/s after time reduction, dt/ds = q^3 + q^2 s + s):
  the transverse series stays u exactly; the time series picks up the cells
  s^2/(2a+2) u^2 and s/(3a+1) u^3 by solving y' + 2a/s y = s and
  y' + 3a/s y = 1, and the base cell integrates s to s^2/2 pinned at the
  default base point 1/2 (the pole of a/s at 0 pushes it there);
* the opposite-exponent pair q1' = a q1/s + q1^2 q2/s,
  q2' = -a q2/s - q1 q2^2/s obstructs at order 3 in component 1: the cell
  (2,1) has delta = h1 + h2 = 0 and right side 1/s, whose primitive is a
  logarithm — proven, not a bounds failure;
* q' = q/s + q^2/s is resonant at every order (delta = (k-1)/s with kernel
  s^{1-k}); at order 2 the particular solution 1 shifts by the kernel to
  1 - 1/(2s), the unique one vanishing at s = 1/2;
* q' = (alpha/s) q + q^2 with s' = q has no tangential motion on the curve,
  so linearize keeps dt = ds; u = q/(1 + s q/(alpha+1)) solves
  u' = (alpha/s) u, so the map is q - c q^2 + c^2 q^3 + ... with
  c = s/(alpha+1);
* diag(alpha/s, 2 alpha/s) has the lattice row (2, -1) with witness 1: its
  integral q1^2 / q2 carries the negative entry in its denominator.
"""

import gc
import weakref
from fractions import Fraction

import pytest

from galint import check
from galint.algebra import AlgebraicTower, GroundField, places, scalars
from galint.check import check_flow, frame_residuals, integral_defect
from galint.errors import (
    BasePointSingular,
    GaugeRequired,
    InputError,
    NonFuchsian,
    NotTimeReduced,
    NoTowerSolution,
    OrderExceedsTable,
    TowerError,
    VerificationFailed,
)
from galint.galois import relation_lattice
from galint.integrability import (
    FormalFlow,
    Linearization,
    LogSymbol,
    Obstruction,
    build_certificate,
    commuting_fields,
    first_integrals,
    formal_flow,
    as_cols,
    invert_flow,
    linearize,
)
from galint.integrability import flows
from galint.reduction import ReducedSystem
from galint.series import RatioSeries, TruncSeries
from test_certificates import log_time_system


@pytest.fixture()
def gf():
    return GroundField(params=("alpha",))


@pytest.fixture()
def T(gf):
    return AlgebraicTower(gf)


def mk(T, lin, table=None, t=None, order=4, **kw):
    nq = len(lin)
    xn = kw.pop("xn", {(0,) * nq: T.one})
    if t is None:
        t = {(0,) * nq: T.one}
    return ReducedSystem(T, nq, order, lin, table or {}, xn, t,
                         time_reduced=True, **kw)


def cubic_drag(gf, T, order=4):
    s, a = gf.s, gf.gen("alpha")
    t = {(3,): T.one, (2,): T.from_ground(s), (0,): T.from_ground(s)}
    return mk(T, [[T.from_ground(a / s)]], t=t, order=order)


def opposite_pair(gf, T, order=4):
    s, a = gf.s, gf.gen("alpha")
    lin = [[T.from_ground(a / s), T.zero],
           [T.zero, T.from_ground(-a / s)]]
    table = {(0, (2, 1)): T.from_ground(1 / s),
             (1, (1, 2)): T.from_ground(-1 / s)}
    return mk(T, lin, table, order=order)


# --------------------------------------------------------------------------
# guards


def test_needs_time_reduction(gf, T):
    R = ReducedSystem(T, 1, 3, [[T.one]], {}, {(0,): T.one})
    with pytest.raises(NotTimeReduced):
        formal_flow(R, 2)


def test_needs_diagonal(gf, T):
    lin = [[T.zero, T.one], [T.zero, T.zero]]
    R = mk(T, lin, order=3)
    with pytest.raises(GaugeRequired):
        formal_flow(R, 2)


def test_order_capped_by_table(gf, T):
    R = cubic_drag(gf, T, order=3)
    with pytest.raises(OrderExceedsTable):
        formal_flow(R, 4)
    with pytest.raises(InputError):
        formal_flow(R, 0)


def test_explicit_base_point_must_be_regular(gf, T):
    R = cubic_drag(gf, T)
    with pytest.raises(BasePointSingular):
        formal_flow(R, 3, s0=0)


def test_a_branch_point_on_one_sheet_is_not_a_base_point(gf, T):
    # w1^2 = s, w2^2 = 1 + w1: at s = 1 the sheet w1 = -1 makes 1 + w1
    # vanish, so w2 branches there; 0 is a branch point of w1 and 1/2 a
    # pole of lambda, so the first regular base point is 3/2
    s, a = gf.s, gf.gen("alpha")
    T1 = T.extend("w1", 2, T.from_ground(s))
    T2 = T1.extend("w2", 2, T1.one + T1.gen("w1"))
    lam = T2.from_ground(a / s + 1 / (2 * s - 1))
    R = mk(T2, [[lam]], {(0, (2,)): T2.gen("w2")}, order=3)
    out = formal_flow(R, 2)
    flow = out.partial if isinstance(out, Obstruction) else out
    assert flow.s0 == Fraction(3, 2)
    with pytest.raises(BasePointSingular):
        formal_flow(R, 2, s0=1)


def test_a_tower_mismatch_at_the_base_point_is_not_a_singular_point(
        monkeypatch, gf, T):
    # at a rational point evaluate_at raises TowerError only for a defect,
    # which must surface instead of reading as "no regular base point"
    def broken(a, s0):
        raise TowerError("operands live in unrelated towers")

    monkeypatch.setattr(flows, "evaluate_at", broken)
    with pytest.raises(TowerError):
        formal_flow(cubic_drag(gf, T), 3)


def test_irregular_diagonal_is_rejected_up_front():
    # q' = q/s^2 over Q(s): the double pole at 0 is caught by the Fuchsian
    # scan before any cell is solved
    gf = GroundField()
    T = AlgebraicTower(gf)
    R = mk(T, [[T.from_ground(1 / gf.s**2)]], order=3)
    with pytest.raises(NonFuchsian) as err:
        formal_flow(R, 3)
    assert err.value.place == 0 and err.value.order == 2


# --------------------------------------------------------------------------
# cubic drag: exact time-series cells


def test_cubic_drag_flow(gf, T):
    s, a = gf.s, gf.gen("alpha")
    R = cubic_drag(gf, T)
    flow = formal_flow(R, 4)
    assert isinstance(flow, FormalFlow)
    assert flow.s0 == Fraction(1, 2)

    # the transverse equation is linear: phi_1 = u_1 on the nose
    comp = flow.components[0]
    assert comp.table == {(1,): T.one}

    # time cells, solved independently per power
    assert flow.time.coeff((2,)) == \
        T.from_ground(s**2 / (2 * a + 2))
    assert flow.time.coeff((3,)) == \
        T.from_ground(s / (3 * a + 1))
    base = flow.time.coeff((0,))
    assert base == T.from_ground(s**2 / 2 - Fraction(1, 8))
    assert flow.logs == ()
    assert flow.resonant == ((2, (0,)),)


def test_cubic_drag_certificate_records_its_pivot_conditions(gf, T):
    # the parameter values where a pivot of the solver vanishes, each once,
    # in the order the solves first met them
    a = gf.gen("alpha")
    conds = []
    build_certificate(cubic_drag(gf, T), 4, conditions=conds)
    assert conds == [2 * a, 2 * a + 1, 2 * a + 2, 3 * a, 3 * a + 1]
    assert [str(c) for c in conds] == [
        "2*alpha", "2*alpha + 1", "2*alpha + 2", "3*alpha", "3*alpha + 1"]


def test_cubic_drag_flow_at_given_base_point(gf, T):
    s = gf.s
    R = cubic_drag(gf, T)
    flow = formal_flow(R, 3, s0=2)
    assert flow.time.coeff((0,)) == T.from_ground(s**2 / 2 - 2)


# --------------------------------------------------------------------------
# the opposite-exponent pair: a proven logarithmic obstruction


def test_opposite_pair_obstructs(gf, T):
    R = opposite_pair(gf, T)
    ob = formal_flow(R, 4)
    assert isinstance(ob, Obstruction)
    assert ob.order == 3
    assert ob.component == 1
    assert ob.index == (2, 1)
    assert ob.net_exponent == (1, 1)
    assert ob.classification == "log-in-normal-part"
    assert ob.delta.is_zero()
    assert ob.rhs == T.from_ground(1 / gf.s)
    with pytest.raises(NoTowerSolution):
        ob.replay()
    # the partial flow is the identity: nothing happens below order 3
    assert ob.partial.N == 2
    assert ob.partial.time is None
    for j, comp in enumerate(ob.partial.components):
        assert list(comp.table) == [(1, 0) if j == 0 else (0, 1)]


def test_linearize_propagates_obstruction(gf, T):
    ob = linearize(opposite_pair(gf, T), 4)
    assert isinstance(ob, Obstruction)
    assert ob.order == 3 and ob.component == 1


# --------------------------------------------------------------------------
# resonance pinning


def resonant_toy(gf, T, order=3):
    s = gf.s
    return mk(T, [[T.from_ground(1 / s)]],
              {(0, (2,)): T.from_ground(1 / s)}, order=order)


def test_resonant_cell_is_pinned(gf, T):
    s = gf.s
    flow = formal_flow(resonant_toy(gf, T), 3)
    a2 = flow.components[0].coeff((2,))
    assert a2 == T.from_ground(1 - 1 / (2 * s))
    # order 3 feeds on the pinned order-2 value and is pinned again
    a3 = flow.components[0].coeff((3,))
    assert a3 == T.from_ground(1 - 1 / s + 1 / (4 * s**2))
    assert (1, (2,)) in flow.resonant and (1, (3,)) in flow.resonant


def test_pinned_cells_vanish_at_custom_base_point(gf, T):
    s = gf.s
    flow = formal_flow(resonant_toy(gf, T), 2, s0=1)
    a2 = flow.components[0].coeff((2,))
    assert a2 == T.from_ground(1 - 1 / s)


# --------------------------------------------------------------------------
# inversion and the linear-part conjugation


def test_invert_flow_round_trip(gf, T):
    flow = formal_flow(resonant_toy(gf, T), 3)
    Phi = invert_flow(flow)
    back = Phi[0].compose(list(flow.components))
    assert list(back.table) == [(1,)]
    assert back.coeff((1,)) == T.one


def test_invert_flow_is_computed_once(gf, T):
    # the integrals and the frame of one certificate share it
    flow = formal_flow(resonant_toy(gf, T), 3)
    assert invert_flow(flow) is invert_flow(flow)


def test_linearize_toy(gf, T):
    s = gf.s
    lz = linearize(resonant_toy(gf, T), 3)
    assert isinstance(lz, Linearization)
    assert lz.order == 3
    assert lz.invariant is None
    m = lz.map[0]
    assert m.coeff((1,)) == T.one
    assert m.coeff((2,)) == T.from_ground(1 / (2 * s) - 1)


def test_linearize_refuses_a_map_that_does_not_straighten(gf, T,
                                                          monkeypatch):
    # s q^2 added to the inverse map leaves a residual D(phi) - h phi
    invert = flows.ts_invert_map

    def planted(phi):
        first, *rest = invert(phi)
        cell = qser(first.basis, first.N, {(2,): T.from_ground(gf.s)})
        return [first + cell, *rest]

    monkeypatch.setattr(flows, "ts_invert_map", planted)
    with pytest.raises(VerificationFailed,
                       match="inverse map does not straighten component 1"):
        linearize(resonant_toy(gf, T), 3)


def test_linearize_equilibrium_curve_keeps_ds(gf, T):
    s, a = gf.s, gf.gen("alpha")
    R = ReducedSystem(T, 1, 3, [[T.from_ground(a / s)]],
                      {(0, (2,)): T.one}, {(1,): T.one})
    lz = linearize(R)
    assert isinstance(lz, Linearization)
    assert lz.order == 3 and lz.invariant is None
    c = T.from_ground(s / (a + 1))
    m = lz.map[0]
    assert m.table == {(1,): T.one, (2,): -c, (3,): c * c}
    # dt = ds: the time series is s - s0 alone
    flow = lz.flow
    assert flow.time == TruncSeries.constant(flow.basis, "u", 3,
                                             T.from_ground(s - flow.s0))


def test_linear_diagonal_flow_is_trivial(gf, T):
    s, a = gf.s, gf.gen("alpha")
    lin = [[T.from_ground(a / s), T.zero], [T.zero, T.from_ground(2 / (s - 1))]]
    R = mk(T, lin, order=3)
    flow = formal_flow(R, 3)
    for j in range(2):
        assert len(flow.components[j].table) == 1
    # dt/ds = 1 integrates to s - 1/2
    assert flow.time.coeff((0, 0)) == T.from_ground(s - Fraction(1, 2))


# --------------------------------------------------------------------------
# first integrals from the lattice


def qser(basis, N, cells):
    return TruncSeries(basis, "q", N, cells)


def test_pair_integral_is_exact(gf, T):
    R = opposite_pair(gf, T, order=5)
    ob = formal_flow(R, 5)
    assert isinstance(ob, Obstruction)
    ints = first_integrals(ob.partial, order=5)
    assert len(ints) == 1
    F = ints[0]
    assert F.exponent == (1, 1)
    assert F.witness.derive().is_zero()
    # the Lie residual is not merely small: it vanishes through order 5,
    # above the partial flow's order 2
    assert integral_defect(R, F.series, 5) is None
    assert F.order == 5
    # q1 q2 over the constant witness
    winv = T.invert(F.witness)
    assert F.series.num.coeff((1, 1)) == winv
    assert len(F.series.num.table) == 1
    assert F.series.den.coeff((0, 0)) == T.one


def test_a_wrong_witness_fails_inside_the_certified_range(gf, T):
    # y (1 + s) is no witness of (1, 1): the dynamics moves q1 q2 / (y (1 + s))
    # at its lowest degree, inside the partial flow's order 2
    ob = formal_flow(opposite_pair(gf, T, order=5), 5)
    report = relation_lattice(list(ob.partial.basis.hs), 5)
    report.witnesses[(1, 1)] = report.witnesses[(1, 1)] * \
        T.from_ground(1 + gf.s)
    with pytest.raises(VerificationFailed,
                       match=r"integral residual for \(1, 1\) fails inside "
                             r"the flow's certified range \(degree 2\)"):
        first_integrals(ob.partial, report, order=5)


def test_integral_with_a_negative_exponent(gf, T):
    # diag(alpha/s, 2 alpha/s): H1^2 / H2 is constant, so the lattice row
    # (2, -1) carries a denominator and the integral is q1^2 / q2
    s, a = gf.s, gf.gen("alpha")
    R = mk(T, [[T.from_ground(a / s), T.zero],
               [T.zero, T.from_ground(2 * a / s)]], order=3)
    flow = formal_flow(R, 3)
    report = relation_lattice(list(flow.basis.hs), 3)
    assert report.basis == [(2, -1)]
    assert report.witnesses[(2, -1)] == T.one
    ints = first_integrals(flow, report)
    assert [F.order for F in ints] == [3]
    q1 = qser(flow.basis, 3, {(1, 0): T.one})
    q2 = qser(flow.basis, 3, {(0, 1): T.one})
    assert ints[0].series.eq(RatioSeries(q1 * q1, q2))


def test_integral_verification_order_capped(gf, T):
    R = opposite_pair(gf, T, order=4)
    ob = formal_flow(R, 4)
    with pytest.raises(OrderExceedsTable):
        first_integrals(ob.partial, order=6)


# --------------------------------------------------------------------------
# the dual frame: two worked examples


def test_frame_needs_complete_flow(gf, T):
    ob = formal_flow(opposite_pair(gf, T), 4)
    with pytest.raises(InputError):
        commuting_fields(ob.partial)
    with pytest.raises(InputError):
        commuting_fields("nope")


def test_cubic_drag_frame_matches_hand_jacobian(monkeypatch, gf, T):
    s, a = gf.s, gf.gen("alpha")
    R = cubic_drag(gf, T, order=5)
    flow = formal_flow(R, 5)
    frame = commuting_fields(flow)
    assert frame.report.basis == []
    assert len(frame.fields) == 2
    basis = flow.basis

    def rq(num_cells, den_cells):
        return RatioSeries(qser(basis, 5, num_cells), qser(basis, 5, den_cells))

    one = {(0,): T.one}

    # the first dual field, against the hand-solved 2x2 inverse: the
    # denominator collapses to q^3 + q^2 s + s and the components are
    # -1/((a+1)(3a+1)) times
    #   q((3a+1)(a+1)s + (3a+1)s q^2 + (a+1)q^3) d/dq
    #   - q^2 s((3a+3)q + (3a+1)s) d/ds
    k = T.from_ground(-1 / ((a + 1) * (3 * a + 1)))
    den = {(0,): T.from_ground(s), (2,): T.from_ground(s), (3,): T.one}
    disp_q = qser(basis, 5, {
        (1,): T.from_ground(s * (3 * a + 1) * (a + 1)),
        (3,): T.from_ground(s * (3 * a + 1)),
        (4,): T.from_ground(a + 1),
    })
    disp_s = qser(basis, 5, {
        (2,): T.from_ground(-(3 * a + 1) * s**2),
        (3,): T.from_ground(-3 * (a + 1) * s),
    })
    Y1 = frame.fields[0]
    assert Y1.components[0].eq(RatioSeries(disp_q.scale(k), qser(basis, 5, den)))
    assert Y1.s_component.eq(RatioSeries(disp_s.scale(k), qser(basis, 5, den)))

    # the last field is the original-time dynamics
    X = frame.fields[1]
    assert X.s_component.eq(rq(one, den))
    assert X.components[0].eq(rq({(1,): T.from_ground(a / s)}, den))

    # the bracket vanishes through the whole window, not just below it
    monkeypatch.setattr(check, "_DEBT", 0)
    assert list(frame_residuals([as_cols(Y1), as_cols(X)], (), T)) == [
        (("bracket", 0, 1), 5, None)]
    assert frame.order >= 1


def test_linear_pair_frame_and_integral(monkeypatch, gf):
    # diagonal +-alpha/w with w^2 = 1 + s^2: the lattice is (1, 1), the
    # integral q1 q2 (trace zero kills the witness), and the first dual
    # field is -q1 d/dq1 + q2 d/dq2 on the nose
    s, a = gf.s, gf.gen("alpha")
    T2 = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    w = T2.gen("w")
    h1 = T2.from_ground(a) * w ** (-1)
    lin = [[h1, T2.zero], [T2.zero, -h1]]
    R = mk(T2, lin, order=4)
    flow = formal_flow(R, 4)
    assert flow.s0 == 0

    ints = first_integrals(flow)
    assert [F.exponent for F in ints] == [(1, 1)]
    assert ints[0].order == 4

    frame = commuting_fields(flow)
    assert frame.report.basis == [(1, 1)]
    basis = flow.basis

    def rq(num_cells, den_cells):
        return RatioSeries(qser(basis, 4, num_cells), qser(basis, 4, den_cells))

    one = {(0, 0): T2.one}
    Y1, X = frame.fields
    assert Y1.components[0].eq(rq({(1, 0): -T2.one}, one))
    assert Y1.components[1].eq(rq({(0, 1): T2.one}, one))
    assert Y1.s_component.is_zero()
    assert X.components[0].eq(rq({(1, 0): h1}, one))
    assert X.components[1].eq(rq({(0, 1): -h1}, one))
    assert X.s_component.eq(rq(one, one))
    # the bracket vanishes, and the frame is tangent to the level sets of
    # q1 q2, through the whole window
    monkeypatch.setattr(check, "_DEBT", 0)
    Fq = rq({(1, 1): T2.one}, one)
    assert list(frame_residuals([as_cols(Y1), as_cols(X)], [Fq], T2)) == [
        (("bracket", 0, 1), 4, None), (("lie", 0, 0), 4, None),
        (("lie", 1, 0), 4, None)]


# --------------------------------------------------------------------------
# the final residual check


def one_dw(gf, order=4):
    """q' = (alpha/w) q + q^2 + s q^3 on w^2 = 1 + s^2."""
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    table = {(0, (2,)): T.one, (0, (3,)): T.from_ground(s)}
    return mk(T, [[T.from_ground(a) / T.gen("w")]], table, order=order)


def test_most_ground_field_gcds_skip_the_heuristic_gcd(monkeypatch):
    # q' = (alpha/w) q + beta q^2 + s q^3 (the benchmark's 1dw system) at
    # N = 5: the heuristic gcd (sympy's heugcd then, recursive calls
    # included) was called 379 times before the modular coprimality gate in
    # the ground field, and 182 times with it; the ground field's own
    # heuristic gcd is counted the same way
    real = scalars._heugcd
    calls = []

    def counting(f, g, i=0):
        calls.append(1)
        return real(f, g, i)

    monkeypatch.setattr(scalars, "_heugcd", counting)
    gf = GroundField(params=("alpha", "beta"))
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    table = {(0, (2,)): T.from_ground(gf.gen("beta")),
             (0, (3,)): T.from_ground(s)}
    R = mk(T, [[T.from_ground(a) / T.gen("w")]], table, order=5)
    assert isinstance(formal_flow(R, 5), FormalFlow)
    assert len(calls) <= 250


def test_divisible_gcds_skip_the_lift_and_interning_is_bounded(
        monkeypatch):
    # 1dw-alpha at N = 6: a gcd where one operand divides the other is
    # settled by one exact division (112 of them when this was written, 92
    # once the flow check stopped taking gcds), so no such pair reaches the
    # one-generator lift or the general gcd
    settled, opened = [], []
    divide = scalars._divisor_cofactors

    def division(a, b):
        got = divide(a, b)
        if got is not None:
            settled.append(got)
        return got

    def opening(fn):
        def wrapper(a, b, *rest):
            opened.append((a, b))
            return fn(a, b, *rest)
        return wrapper

    monkeypatch.setattr(scalars, "_divisor_cofactors", division)
    for name in ("_one_generator_cofactors", "_general_cofactors"):
        monkeypatch.setattr(scalars, name, opening(getattr(scalars, name)))
    gf = GroundField(params=("alpha",))
    flow = formal_flow(one_dw(gf, order=6), 6)
    assert isinstance(flow, FormalFlow)
    assert len(settled) >= 90
    assert opened
    for a, b in opened:
        assert a.quo_exact(b) is None and b.quo_exact(a) is None

    # the intern table holds each gated polynomial of at most _MEMO_TERMS
    # terms as the first object of its content, never a larger one: a new
    # s^2 + 1 gated against a larger polynomial meets the flow's s^2 + 1
    K = gf.kernel
    s = K.gens[-1]
    big = sum((s**k for k in range(scalars._MEMO_TERMS + 1)), K.zero)
    small = s**2 + K.one
    table = gf._intern
    assert small in table
    assert gf.cofactors(big, small)[0] == K.one
    assert big not in table and table[small] is not small
    assert all(len(p) <= scalars._MEMO_TERMS and table[p] is p
               for p in table)

    # and it dies with its field, as the gcd memo does
    ref = weakref.ref(gf)
    del gf, flow, table
    gc.collect()
    assert ref() is None


def test_place_contexts_are_built_once_per_tower_and_place(monkeypatch):
    # the same 1dw system at N = 5: fuchsian_scan expands on w^2 = 1 + s^2
    # at s^2 + 1 and at infinity, the base point 0 is read there too, and
    # every ODE solve reads its residues on the ground tower under it, at
    # s^2 + 1 and at infinity; a context built per solve would repeat a pair
    real = places.PlaceContext.__init__
    built = []

    def counting(self, tower, location):
        built.append((tower.r, str(location)))
        real(self, tower, location)

    monkeypatch.setattr(places.PlaceContext, "__init__", counting)
    gf = GroundField(params=("alpha", "beta"))
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    table = {(0, (2,)): T.from_ground(gf.gen("beta")),
             (0, (3,)): T.from_ground(s)}
    R = mk(T, [[T.from_ground(a) / T.gen("w")]], table, order=5)
    assert isinstance(formal_flow(R, 5), FormalFlow)
    assert len(built) == len(set(built)), built
    circle = "SPoly((1)*s^2 + 1)"
    assert set(built) == {(1, circle), (1, "inf"), (1, "0"),
                          (0, circle), (0, "inf")}, built


def _corrupt(series, order):
    """The series with one of its order-``order`` cells doubled."""
    tab = dict(series.table)
    key = next(k for k in sorted(tab) if sum(k) == order)
    tab[key] = tab[key] + tab[key]
    return TruncSeries(series.basis, series.alphabet, series.N, tab)


@pytest.mark.parametrize("where", ["component", "time", "log-coeff",
                                   "log-deriv", "log-part"])
def test_verify_flow_catches_a_wrong_cell(gf, where):
    if where.startswith("log"):
        # the cell c u1 H1 L of log_time_system's time series, L = log(s),
        # is carried on its LogSymbol
        R = log_time_system(gf, -1 / gf.s, [(0, 0), (1, 0), (0, 1)])
        flow = formal_flow(R, 3)
    else:
        flow = formal_flow(one_dw(gf), 4)
    assert isinstance(flow, FormalFlow)
    check_flow(flow)
    comps, time, logs = list(flow.components), flow.time, flow.logs
    label = "time series"
    if where == "component":
        comps[0] = _corrupt(comps[0], 3)
        label = "component 1"
    elif where == "time":
        time = _corrupt(time, 0)
    else:
        (rec,) = logs
        T = flow.system.tower
        f = T.from_ground(1 + gf.s)
        coeff, deriv = {
            "log-coeff": (rec.coeff + rec.coeff, rec.deriv),
            "log-deriv": (rec.coeff, rec.deriv + rec.deriv),
            # c L' is kept, so only the L part c' + <i, h> c moves
            "log-part": (rec.coeff * f, rec.deriv * T.invert(f)),
        }[where]
        logs = [LogSymbol(rec.name, deriv, rec.index, coeff, rec.argument)]
    bad = FormalFlow(flow.basis, comps, time, flow.s0, flow.N, flow.system,
                     flow.resonant, logs)
    with pytest.raises(VerificationFailed, match=label):
        check_flow(bad)
