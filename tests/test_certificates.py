"""End to end: input system -> build_certificate -> verify_certificate.

The four verdicts are the hand oracles of ``test_integrability.py`` carried
through the whole pipeline:

* cubic drag (reduced from its vector field) -> (2, 0), no radicals, so the
  descent is trivially ``base-field``;
* the resonant toy q' = q/s + q^2/s -> (1, 1), one first integral;
* the linear pair +-alpha/w on w^2 = 1 + s^2 with sigma: w -> -w -> the
  integral q1 q2 is sigma-fixed, so a covering of degree 2 is needed;
* the opposite pair -> the proven logarithmic obstruction at order 3;
* diag(h1, alpha/s) with t = 1 + ... whose time series carries a log(s)
  cell -> (2, 1) when the cell's index lies on the lattice, and a labelled
  VerificationFailed when the lattice is cut off below it;
* diag(alpha/s, 2 alpha/s), whose integral q1^2/q2 has a denominator
  -> (2, 1);
* model two diagonalised by its eigenvector gauge on w^2 = 1 + s^2 ->
  (1, 2), and Galois descent carries it to the base curve; with a
  decoupled third coordinate q3' = (alpha/s) q3 -> (2, 2), and descent
  carries a frame field as well.

Four mutations show that the verifier can fail: a duplicated field, a
frame field perturbed by the cell s q^2, and two columns whose
denominator's constant cell is a zero divisor.  With the series engine's
arithmetic disabled the verifier still passes every certificate: it
evaluates no series arithmetic of its own.
"""

from fractions import Fraction

import pytest

from galint.algebra import AlgebraicTower, GroundField, scalars
from galint.errors import (
    DegreeBoundExceeded,
    RankDeficiency,
    VerificationFailed,
)
from galint.integrability import (
    INCONCLUSIVE_BOUNDS,
    CertifiedField,
    FirstIntegral,
    IntegrabilityCertificate,
    NeedsCovering,
    Obstruction,
    build_certificate,
    formal_flow,
    verify_certificate,
)
from galint.integrability import descent
from galint.integrability.certificates import _independence_or_raise
from galint.reduction import (
    CoordRat,
    ReducedSystem,
    VectorFieldSpec,
    apply_gauge,
    reduce_to_curve,
    time_reduce,
)
from galint.series import RatioSeries, TruncSeries, q_series


@pytest.fixture()
def gf():
    return GroundField(params=("alpha",))


def reduced(T, lin, table, order):
    nq = len(lin)
    unit = {(0,) * nq: T.one}
    return ReducedSystem(T, nq, order, lin, table, unit, unit,
                         time_reduced=True)


def cubic_drag_cert(gf, N=4):
    # q' = a q/(s D), s' = 1/D with D = q^3 + q^2 s + s, reduced to q = 0
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf)
    den = CoordRat(T, 1, {(3,): T.one, (2,): T.from_ground(s),
                          (0,): T.from_ground(s)})
    x = CoordRat.coordinate(T, 1, 0)
    X1 = CoordRat.constant(T, 1, a) * x / (CoordRat.constant(T, 1, s) * den)
    R = time_reduce(reduce_to_curve(VectorFieldSpec([X1, 1 / den], [T.zero]),
                                    order=N))
    return build_certificate(R, N)


def failed(report):
    return [repr(c) for c in report if not c.ok]


def test_cubic_drag_certificate(gf):
    cert = cubic_drag_cert(gf)
    assert isinstance(cert, IntegrabilityCertificate)
    assert (cert.l, len(cert.integrals), cert.descent) == (2, 0, "base-field")
    report = verify_certificate(cert)
    assert report.ok, report
    names = [c.name for c in report]
    assert names[:3] == ["counts", "field-independence",
                         "integral-independence"]
    assert "bracket-0-1" in names
    assert repr(report.checks[1]) == "[ok] field-independence: sample rank 2"


def test_resonant_toy_certificate(gf):
    T = AlgebraicTower(gf)
    R = reduced(T, [[T.from_ground(1 / gf.s)]],
                {(0, (2,)): T.from_ground(1 / gf.s)}, 3)
    cert = build_certificate(R, 3)
    assert (cert.l, len(cert.integrals)) == (1, 1)
    assert cert.descent == "base-field"
    assert verify_certificate(cert).ok


def test_one_generator_gcds_match_sympy_end_to_end(monkeypatch, gf):
    # flow-deep's 1dw system at N = 3 and the resonant toy's certificate:
    # every gcd that the modular path in one shared generator decides is
    # checked against sympy's, and that path must be taken
    real = scalars._one_generator_cofactors
    taken = []

    def checked(a, b, i):
        got = real(a, b, i)
        if got is not None:
            ref = scalars._sympy_cofactors(a, b)
            assert got in (ref, tuple(-x for x in ref)), (a, b)
            taken.append(i)
        return got

    monkeypatch.setattr(scalars, "_one_generator_cofactors", checked)
    gf2 = GroundField(params=("alpha", "beta"))
    s = gf2.s
    T = AlgebraicTower(gf2).extend("w", 2, 1 + s**2)
    table = {(0, (2,)): T.from_ground(gf2.gen("beta")),
             (0, (3,)): T.from_ground(s)}
    R = reduced(T, [[T.from_ground(gf2.gen("alpha")) / T.gen("w")]],
                table, 3)
    assert formal_flow(R, 3).N == 3
    T = AlgebraicTower(gf)
    R = reduced(T, [[T.from_ground(1 / gf.s)]],
                {(0, (2,)): T.from_ground(1 / gf.s)}, 3)
    assert verify_certificate(build_certificate(R, 3)).ok
    assert taken


def test_linear_pair_needs_covering(gf):
    T = AlgebraicTower(gf).extend("w", 2, 1 + gf.s**2)
    w = T.gen("w")
    T.declare_galois("sigma", {"w": -w})
    h = T.from_ground(gf.gen("alpha")) / w
    cert = build_certificate(reduced(T, [[h, T.zero], [T.zero, -h]], {}, 4), 4)
    assert (cert.l, len(cert.integrals)) == (2, 1)
    assert cert.descent == NeedsCovering(2)
    assert cert.descended is None
    assert verify_certificate(cert).ok


def test_opposite_pair_obstructs(gf):
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf)
    lin = [[T.from_ground(a / s), T.zero], [T.zero, T.from_ground(-a / s)]]
    table = {(0, (2, 1)): T.from_ground(1 / s),
             (1, (1, 2)): T.from_ground(-1 / s)}
    ob = build_certificate(reduced(T, lin, table, 4), 4)
    assert isinstance(ob, Obstruction)
    assert (ob.order, ob.component, ob.classification) == \
        (3, 1, "log-in-normal-part")


def log_time_system(gf, h1, t_cells):
    """diag(h1, alpha/s) with no table, xn = 1 and t the sum of the given
    cells: the flow box of q1 puts a log(s) cell into the time series."""
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf)
    lin = [[T.from_ground(h1), T.zero], [T.zero, T.from_ground(a / s)]]
    return ReducedSystem(T, 2, 3, lin, {}, {(0, 0): T.one},
                         {i: T.one for i in t_cells}, time_reduced=True)


def test_log_cell_on_the_lattice_is_fixed_by_the_frame(gf):
    # H1 = s, so the lattice is (1, 0) and the time cell at (1, 0)
    # integrates s^-1 to log(s); the weights vanish on that cell
    R = log_time_system(gf, -1 / gf.s, [(0, 0), (1, 0), (0, 1)])
    flow = formal_flow(R, 3)
    assert [(L.index, L.argument) for L in flow.logs] == [((1, 0), gf.s)]
    cert = build_certificate(R, 3)
    assert (cert.l, len(cert.integrals)) == (2, 1)
    assert cert.report.basis == [(1, 0)]
    assert cert.orders == {"flow": 3, "frame": 2, "integrals": 3}
    assert verify_certificate(cert).ok


def test_log_cell_off_the_lattice_is_labelled(gf):
    # H1^2 = s puts the log cell of t = 1 + q1^2 at (2, 0): on the lattice
    # found through k = 3, off the one found through k = 1
    R = log_time_system(gf, -1 / (2 * gf.s), [(0, 0), (2, 0)])
    cert = build_certificate(R, 3)
    assert (cert.l, len(cert.integrals)) == (2, 1)
    assert cert.report.basis == [(2, 0)]
    assert cert.orders == {"flow": 3, "frame": 2, "integrals": 3}
    assert verify_certificate(cert).ok
    with pytest.raises(VerificationFailed, match=r"log cell \(2, 0\)"):
        build_certificate(R, 3, k_max=1)


def with_fields(cert, fields):
    return IntegrabilityCertificate(
        cert.l, fields, cert.integrals, cert.descent, cert.orders,
        chart=cert.chart, flow=cert.flow, frame=cert.frame,
        report=cert.report, system=cert.system)


def test_duplicated_field_is_caught(gf):
    cert = cubic_drag_cert(gf)
    Y = cert.fields[0]
    bad = with_fields(cert, (Y, Y))
    report = verify_certificate(bad)
    assert not report.ok
    assert "[FAILED] field-independence: sample rank 1" in failed(report)
    with pytest.raises(RankDeficiency, match="sample rank 1; expected 2"):
        _independence_or_raise(bad)


def test_perturbed_field_fails_a_bracket(gf):
    cert = cubic_drag_cert(gf)
    Y, X = cert.fields
    c = Y.components[0]
    T = cert.system.tower
    cell = q_series(c.num.basis, c.num.N, {(2,): T.from_ground(gf.s)})
    bumped = CertifiedField(
        [c + RatioSeries(cell, q_series(c.num.basis, c.num.N, {(0,): T.one}))],
        Y.s_component, Y.order)
    report = verify_certificate(with_fields(cert, (bumped, X)))
    assert not report.ok
    assert failed(report) == [
        "[FAILED] bracket-0-1 (order 3): residual at order 2"]


def test_zero_divisor_column_is_a_failed_check(gf):
    # on w^2 = s^2 the constant w - s of the column q/((w - s) + q) is a
    # zero divisor: the dense check records it with its witness instead of
    # raising out of the verifier
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, s**2)
    cert = build_certificate(reduced(T, [[T.from_ground(a / s)]], {}, 3), 3)
    assert (cert.l, cert.orders) == (2, {"flow": 3, "frame": 2})
    Y, X = cert.fields
    B = Y.s_component.num.basis
    w_minus_s = T.gen("w") - T.from_ground(s)
    col = RatioSeries(q_series(B, 3, {(1,): T.one}),
                      q_series(B, 3, {(0,): w_minus_s, (1,): T.one}))
    bad = CertifiedField([col], Y.s_component, Y.order)
    report = verify_certificate(with_fields(cert, (bad, X)))
    assert failed(report) == [
        f"[FAILED] field-0-dense: tower is not a field at {w_minus_s}: "
        f"{T.gen('w') + T.from_ground(s)} annihilates it"]


def test_zero_divisor_denominator_fails_the_sampled_rank(gf):
    # on w^2 = s^2 the column q/(w - s) has a zero divisor for its
    # denominator at every point: both the sampled rank and the dense check
    # record it with its witness instead of raising out of the verifier
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, s**2)
    cert = build_certificate(reduced(T, [[T.from_ground(a / s)]], {}, 3), 3)
    Y, X = cert.fields
    B = Y.s_component.num.basis
    w_minus_s = T.gen("w") - T.from_ground(s)
    col = RatioSeries(q_series(B, 3, {(1,): T.one}),
                      q_series(B, 3, {(0,): w_minus_s}))
    bad = CertifiedField([col], Y.s_component, Y.order)
    witness = f"tower is not a field at {w_minus_s}: " \
              f"{T.gen('w') + T.from_ground(s)} annihilates it"
    assert failed(verify_certificate(with_fields(cert, (bad, X)))) == [
        f"[FAILED] field-independence: {witness}",
        f"[FAILED] field-0-dense: {witness}"]


def test_an_integral_in_the_u_alphabet_is_a_failed_check(gf):
    # the same cells read in the flow-box alphabet carry H symbols: the
    # rank and Lie checks refuse them, and the verifier records it
    T = AlgebraicTower(gf)
    cert = build_certificate(reduced(T, [[T.from_ground(1 / gf.s)]],
                                     {(0, (2,)): T.from_ground(1 / gf.s)},
                                     3), 3)
    (F,) = cert.integrals
    u = [TruncSeries(x.basis, "u", x.N, x.table)
         for x in (F.series.num, F.series.den)]
    bad = IntegrabilityCertificate(
        cert.l, cert.fields, [FirstIntegral((1,), F.witness, RatioSeries(*u),
                                            F.order)],
        cert.descent, cert.orders, chart=cert.chart, flow=cert.flow,
        frame=cert.frame, report=cert.report, system=cert.system)
    refusal = "transcendental symbols in the series"
    assert failed(verify_certificate(bad)) == [
        f"[FAILED] integral-independence: {refusal}",
        f"[FAILED] symbol-free: {refusal}"]


def test_integral_with_a_denominator_gets_a_frame(gf):
    # diag(alpha/s, 2 alpha/s): the lattice row (2, -1) gives the integral
    # q1^2/q2, no power series along the curve; its Lie derivatives are
    # checked cross-multiplied, so the frame is kept
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf)
    R = reduced(T, [[T.from_ground(a / s), T.zero],
                    [T.zero, T.from_ground(2 * a / s)]], {}, 3)
    cert = build_certificate(R, 3)
    assert (cert.l, len(cert.integrals), cert.descent) == (2, 1, "base-field")
    assert cert.report.basis == [(2, -1)]
    assert cert.orders == {"flow": 3, "frame": 2, "integrals": 3}
    report = verify_certificate(cert)
    assert report.ok, report
    assert [c.order for c in report if c.name.startswith("lie-")] == [2, 2]


def model_two(decoupled=False):
    # model two at alpha = 1 on w^2 = 1 + s^2 with sigma: w -> -w, under its
    # eigenvector gauge; ``decoupled`` adds q3' = (alpha/s) q3 over
    # Q(alpha)(s), which the gauge leaves alone
    gf = GroundField(params=("alpha",) if decoupled else ())
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    w = T.gen("w")
    T.declare_galois("sigma", {"w": -w})
    half = gf.from_rational(Fraction(1, 2)) * s / (1 + s**2)
    lin = [[T.from_ground(half), T.one],
           [T.from_ground(1 / (1 + s**2)), T.from_ground(-half)]]
    gauge = [[T.one, T.one], [T.one / w, -(T.one / w)]]
    if decoupled:
        lin = [row + [T.zero] for row in lin]
        lin.append([T.zero, T.zero, T.from_ground(gf.gen("alpha") / s)])
        gauge = [row + [T.zero] for row in gauge]
        gauge.append([T.zero, T.zero, T.one])
    unit = {(0,) * len(lin): T.one}
    return apply_gauge(
        ReducedSystem(T, len(lin), 8, lin, {}, unit, t=unit,
                      time_reduced=True),
        gauge, assert_diagonal=True)


def test_model_two_descends_to_the_base_field():
    # the eigenvector gauge puts radicals into the reduced chart, and
    # descent takes the (1, 2) certificate back to base-curve coefficients
    cert = build_certificate(model_two(), 4)
    assert (cert.l, len(cert.integrals), cert.descent) == (1, 2, "base-field")
    assert cert.report.basis == [(1, 1), (0, 2)]
    assert cert.orders == {"flow": 4, "frame": 3, "integrals": 4}
    assert verify_certificate(cert).ok
    down = cert.descended
    assert down.chart == "original"
    assert down.orders == {"flow": 4, "frame": 3, "integrals": 4,
                           "descent": 3}
    report = verify_certificate(down)
    assert report.ok, report
    assert "galois-fixed" in [c.name for c in report]


def test_decoupled_third_coordinate_descends_a_frame_field():
    # nq = 3 and l = 2: besides the dynamics the frame has one Euler field,
    # so descent averages a frame field and brackets the descended pair
    cert = build_certificate(model_two(decoupled=True), 4)
    assert (cert.l, len(cert.integrals), cert.descent) == (2, 2, "base-field")
    assert cert.report.basis == [(1, 1, 0), (0, 2, 0)]
    assert cert.orders == {"flow": 4, "frame": 3, "integrals": 4}
    assert verify_certificate(cert).ok
    down = cert.descended
    assert down.chart == "original"
    assert down.orders == {"flow": 4, "frame": 3, "integrals": 4,
                           "descent": 3}
    report = verify_certificate(down)
    assert report.ok, report
    assert "galois-fixed" in [c.name for c in report]


def test_a_field_moved_by_sigma_fails_galois_fixedness():
    # w X still spans the frame and kills the integrals, but sigma moves it
    down = build_certificate(model_two(), 4).descended
    (X,) = down.fields
    w = down.system.tower.gen("w")
    wX = CertifiedField([c.scale(w) for c in X.components],
                        X.s_component.scale(w), X.order)
    assert failed(verify_certificate(with_fields(down, (wX,)))) == [
        "[FAILED] galois-fixed: field 0 under sigma"]


def test_descent_weights_a_frame_field_by_an_integral(monkeypatch):
    # with the unweighted average of the Euler field Y = -q3 d/dq3 refused,
    # descent goes on to the weighted ones: sigma negates F_0, so the
    # average of F_0 Y vanishes and is skipped; F_1 is sigma-fixed, so the
    # average of F_1 Y is 2 F_1 Y, which is -q3 times the second descended
    # integral 2 F_1; the descended data still verifies
    real = descent._independent
    drawn = []

    def refuse_first_field(candidates, need, tower, what):
        candidates = iter(candidates)
        if what == "fields":
            next(candidates)
            candidates = (drawn.append(c) or c for c in candidates)
        return real(candidates, need, tower, what)

    monkeypatch.setattr(descent, "_independent", refuse_first_field)
    down = build_certificate(model_two(decoupled=True), 4).descended
    assert [all(c.is_zero() for c in cols) for cols in drawn] == [True, False]
    Y = down.fields[0]
    F = down.integrals[1].series
    q3 = q_series(F.num.basis, F.num.N, {(0, 0, 1): -down.system.tower.one})
    assert [c.is_zero() for c in Y.components] == [True, True, False]
    assert Y.s_component.is_zero()
    assert Y.components[2].eq(RatioSeries(q3, F.den) * F)
    assert verify_certificate(down).ok


def test_heuristic_bound_gives_an_inconclusive_obstruction(gf):
    # q' = (alpha/w) q + (w/s) q^2 on w^2 = 1 + s^2: the order-2 cell's
    # flattened system has a double pole at infinity, so the solver's degree
    # bound there is heuristic and the refusal is labelled inconclusive.
    # Only a proven verdict may replace this pin.
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    w = T.gen("w")
    R = reduced(T, [[T.from_ground(a) / w]],
                {(0, (2,)): w / T.from_ground(s)}, 3)
    for ob in (formal_flow(R, 3), build_certificate(R, 3)):
        assert isinstance(ob, Obstruction)
        assert (ob.order, ob.component, ob.index) == (2, 1, (2,))
        assert ob.classification == INCONCLUSIVE_BOUNDS
        with pytest.raises(DegreeBoundExceeded):
            ob.replay()


def test_the_verifier_evaluates_no_series_arithmetic(monkeypatch, gf):
    # every claim is re-checked on the dense engine: with the series
    # engine's arithmetic, calculus and trimming disabled, the certificates
    # of cubic drag, the resonant toy and both descended model twos verify
    T = AlgebraicTower(gf)
    toy = reduced(T, [[T.from_ground(1 / gf.s)]],
                  {(0, (2,)): T.from_ground(1 / gf.s)}, 3)
    certs = [cubic_drag_cert(gf), build_certificate(toy, 3),
             build_certificate(model_two(), 4).descended,
             build_certificate(model_two(decoupled=True), 4).descended]

    def disabled(*args, **kw):
        raise AssertionError("series arithmetic in the verifier")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale",
                 "compose"):
        monkeypatch.setattr(TruncSeries, name, disabled)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "scale", "compose", "trim", "eq"):
        monkeypatch.setattr(RatioSeries, name, disabled)
    for cert in certs:
        report = verify_certificate(cert)
        assert report.ok, report
