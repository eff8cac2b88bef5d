"""Reduction to transverse coordinates and the downstream linear machinery.

Hand oracles, worked out independently before implementation:

* the circular-solution system (x1' = x2, x2' = -x1 along x1 = sqrt(1-s^2))
  reduces to q' = -s q / sqrt(1-s^2) with tangential speed -(q + sqrt(1-s^2));
* the cubic-drag system q' = a q/(s(q^3+q^2 s+s)), s' = 1/(q^3+q^2 s+s) has
  the *polynomial* inverse tangential series s + q^2 s + q^3, so its time
  reduction clears every nonlinear term: q' = (a/s) q exactly;
* the eigenvector gauge [[1,1],[1/w,-1/w]] with w = sqrt(1+s^2) diagonalizes
  both linear model systems, giving the log-derivatives of (s +- w)^a and of
  (1+s^2)^{1/4} (s +- w)^a respectively;
* residues: a/s has exponent a at 0 and -a at infinity; partial fractions
  with simple poles have exponents summing to zero.
"""

from fractions import Fraction

import pytest
import sympy

from galint.algebra import AlgebraicTower, Exponent, GroundField
from galint.algebra.scalars import SPoly
from galint.algebra.places import INF
from galint.errors import (
    DivisionByZero,
    GaugeRequired,
    NonFuchsian,
    NotDiagonalAfterGauge,
    NotTangent,
    NotTimeReduced,
    OrderExceedsTable,
    SingularGauge,
    TangentiallySingular,
)
from galint.reduction import (
    CoordRat,
    ReducedSystem,
    VectorFieldSpec,
    apply_gauge,
    build_NVE,
    build_VE,
    fuchsian_scan,
    reduce_to_curve,
    time_reduce,
)
from galint.series import RatioSeries, q_table


@pytest.fixture()
def gf():
    return GroundField(params=("alpha",))


@pytest.fixture()
def T(gf):
    return AlgebraicTower(gf)


def mk(T, lin, table=None, xn=None, t=None, order=4, **kw):
    nq = len(lin)
    if xn is None:
        xn = {(0,) * nq: T.one}
    return ReducedSystem(T, nq, order, lin, table or {}, xn, t, **kw)


# --------------------------------------------------------------------------
# reduce_to_curve


def test_circle_reduction(gf):
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 - s**2)
    w = T.gen("w")
    X1 = CoordRat.constant(T, 1, s)                  # x1' = x2 (= s)
    X2 = -CoordRat.coordinate(T, 1, 0)               # x2' = -x1
    spec = VectorFieldSpec([X1, X2], [w])
    R = reduce_to_curve(spec, order=3)
    assert R.lin[0][0] == -T.from_ground(s) / w
    assert R.table == {}
    assert R.xn == {(0,): -w, (1,): -T.one}
    assert not R.time_reduced
    # gamma' = -s/sqrt(1-s^2) is singular exactly over 1 - s^2 = 0
    assert R.curve_places == {("pt", "1"), ("pt", "-1")}


def test_zero_curve_is_unchanged(gf, T):
    s = gf.s
    x = CoordRat.coordinate(T, 1, 0)
    spec = VectorFieldSpec([x * x + s * x, 1], [T.zero])
    R = reduce_to_curve(spec, order=4)
    assert R.lin[0][0] == T.from_ground(s)
    assert R.table == {(0, (2,)): T.one}
    assert R.xn == {(0,): T.one}
    assert R.curve_places == set()


def test_line_curve(gf, T):
    s = gf.s
    x = CoordRat.coordinate(T, 1, 0)
    spec = VectorFieldSpec([x, CoordRat.constant(T, 1, s)], [T.from_ground(s)])
    R = reduce_to_curve(spec, order=3)
    assert R.lin[0][0] == T.one
    assert R.table == {}
    assert R.xn == {(0,): T.from_ground(s)}


def test_non_invariant_curve_rejected(gf, T):
    s = gf.s
    x = CoordRat.coordinate(T, 1, 0)
    with pytest.raises(NotTangent) as err:
        VectorFieldSpec([x, CoordRat.constant(T, 1, s)],
                        [T.from_ground(s + 1)])
    assert err.value.component == 1
    assert err.value.residual == T.one


# --------------------------------------------------------------------------
# time_reduce


def cubic_drag(gf, T, order=5):
    s, alpha = gf.s, gf.gen("alpha")
    den = CoordRat(T, 1, {(3,): T.one, (2,): T.from_ground(s),
                          (0,): T.from_ground(s)})
    x = CoordRat.coordinate(T, 1, 0)
    X1 = CoordRat.constant(T, 1, alpha) * x / (CoordRat.constant(T, 1, s) * den)
    X2 = 1 / den
    spec = VectorFieldSpec([X1, X2], [T.zero])
    return reduce_to_curve(spec, order=order)


def test_cubic_drag_time_reduction(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    R = time_reduce(cubic_drag(gf, T))
    assert R.time_reduced
    assert R.lin[0][0] == T.from_ground(alpha / s)
    assert R.table == {}                     # all higher terms cancel exactly
    assert R.xn == {(0,): T.one}
    assert R.t == {(0,): T.from_ground(s), (2,): T.from_ground(s), (3,): T.one}


def test_time_reduce_unit_speed_adds_unit_clock(gf, T):
    R0 = mk(T, [[T.from_ground(gf.s)]])
    R = time_reduce(R0)
    assert R.t == {(0,): T.one}
    assert R.lin == R0.lin
    assert time_reduce(R) is R               # idempotent


def test_time_reduce_geometric_series(gf, T):
    x = CoordRat.coordinate(T, 1, 0)
    spec = VectorFieldSpec([x, 1 + x], [T.zero])
    R = time_reduce(reduce_to_curve(spec, order=2))
    assert R.lin[0][0] == T.one
    assert R.table == {(0, (2,)): -T.one}
    assert R.t == {(0,): T.one, (1,): -T.one, (2,): T.one}


def test_tower_elements_on_the_left_of_a_quotient(gf, T):
    # the tower element's own operators step aside for the quotient's
    x = CoordRat.coordinate(T, 1, 0)
    c = T.from_ground(gf.s)
    for got, want in [(T.one + x, x + T.one), (c * x, x * c),
                      (T.one - x, -(x - T.one)),
                      (c / x, CoordRat.constant(T, 1, gf.s) / x)]:
        assert isinstance(got, RatioSeries)
        assert got.eq(want)
        assert (got.num, got.den) == (want.num, want.den)


def test_equilibrium_curve_rejected(gf, T):
    x = CoordRat.coordinate(T, 1, 0)
    spec = VectorFieldSpec([x, x], [T.zero])
    R = reduce_to_curve(spec, order=3)
    with pytest.raises(TangentiallySingular):
        time_reduce(R)


# --------------------------------------------------------------------------
# apply_gauge


def example1_lin(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    return [[T.zero, T.from_ground(alpha)],
            [T.from_ground(alpha / (1 + s**2)), T.from_ground(-s / (1 + s**2))]]


def example2_lin(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    half_drift = gf.from_rational(Fraction(1, 2)) * s / (1 + s**2)
    return [[T.from_ground(half_drift), T.from_ground(alpha)],
            [T.from_ground(alpha / (1 + s**2)), T.from_ground(-half_drift)]]


def eigen_gauge(T):
    w = T.gen("w")
    return [[T.one, T.one], [T.one / w, -(T.one / w)]]


def test_gauge_identity(gf, T):
    R = mk(T, example1_lin(gf, T), table={(0, (2, 0)): T.one})
    out = apply_gauge(R, [[1, 0], [0, 1]])
    assert out.lin == R.lin
    assert out.table == R.table


def test_gauge_scalar_rescale_kills_cauchy_exponent(gf, T):
    # q = s * qt turns q' = (1/s) q into qt' = 0
    R = mk(T, [[T.from_ground(1 / gf.s)]])
    out = apply_gauge(R, [[T.from_ground(gf.s)]], assert_diagonal=True)
    assert out.lambdas == (T.zero,)
    assert out.gauge == ((T.from_ground(gf.s),),)


def test_eigenvector_gauge_diagonalizes_model_one(gf):
    s, alpha = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    w = T.gen("w")
    R = mk(T, example1_lin(gf, T))
    out = apply_gauge(R, eigen_gauge(T), assert_diagonal=True)
    lam = T.from_ground(alpha) / w
    assert out.lambdas == (lam, -lam)
    key = SPoly(gf, [gf.one, gf.zero, gf.one]).key()
    assert ("poly", key) in out.gauge_places


def test_eigenvector_gauge_diagonalizes_model_two(gf):
    s, alpha = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    w = T.gen("w")
    R = mk(T, example2_lin(gf, T))
    out = apply_gauge(R, eigen_gauge(T), assert_diagonal=True)
    drift = T.from_ground(s / (2 * (1 + s**2)))
    lam = T.from_ground(alpha) / w
    assert out.lambdas == (lam + drift, -lam + drift)


def test_singular_gauge_rejected(gf, T):
    R = mk(T, example1_lin(gf, T))
    with pytest.raises(SingularGauge):
        apply_gauge(R, [[1, 1], [1, 1]])


def test_gauge_diagonality_assertion(gf, T):
    R = mk(T, example1_lin(gf, T))
    with pytest.raises(NotDiagonalAfterGauge):
        apply_gauge(R, [[1, 0], [1, 1]], assert_diagonal=True)


def test_gauge_roundtrip_is_identity(gf):
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    w = T.gen("w")
    R = mk(T, example2_lin(gf, T),
           table={(0, (2, 0)): T.from_ground(1 / s), (1, (0, 3)): w},
           xn={(0, 0): T.one, (1, 0): T.from_ground(s)},
           t={(0, 0): T.one}, time_reduced=True)
    P = eigen_gauge(T)
    Pinv = [[T.one / 2, w / 2], [T.one / 2, -(w / 2)]]
    back = apply_gauge(apply_gauge(R, P), Pinv)
    assert back.lin == R.lin
    assert back.table == R.table
    assert back.xn == R.xn
    assert back.t == R.t
    assert back.gauge == R.gauge


def test_gauge_transforms_nonlinear_terms(gf, T):
    s = gf.s
    R = mk(T, [[T.zero]], table={(0, (2,)): T.one},
           xn={(1,): T.one})
    out = apply_gauge(R, [[T.from_ground(s)]])
    # P^{-1} c (P q)^2 = s c q^2 ; xn picks up the bare substitution
    assert out.table == {(0, (2,)): T.from_ground(s)}
    assert out.xn == {(1,): T.from_ground(s)}


# --------------------------------------------------------------------------
# variational systems


def scalar_model(gf, T, order=3):
    s, alpha = gf.s, gf.gen("alpha")
    return mk(T, [[T.from_ground(alpha / s)]],
              table={(0, (2,)): T.from_ground(1 / s)},
              t={(0,): T.one}, time_reduced=True, order=order)


def test_VE_second_order(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    R = scalar_model(gf, T)
    ve = build_VE(R, 2)
    a = ve.index((1, 0))
    b = ve.index((2, 0))
    M = ve.matrix
    assert M[a][a] == T.from_ground(alpha / s)
    assert M[a][b] == T.from_ground(1 / s)
    assert M[b][b] == T.from_ground(2 * alpha / s)
    # degree-2 row sees nothing below itself and drops the q^3 feed
    assert all(M[b][j].is_zero() for j in range(len(M)) if j != b)
    # time rows are inert for a unit clock
    c = ve.index((0, 1))
    assert all(M[c][j].is_zero() for j in range(len(M)))


def test_VE_third_order_cross_terms(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    R = scalar_model(gf, T)
    ve = build_VE(R, 3)
    M = ve.matrix
    assert M[ve.index((3, 0))][ve.index((3, 0))] == T.from_ground(3 * alpha / s)
    assert M[ve.index((2, 0))][ve.index((3, 0))] == T.from_ground(2 / s)
    assert all(
        M[ve.index((3, 0))][j].is_zero()
        for j in range(len(M)) if j != ve.index((3, 0))
    )


def test_NVE_is_linear_part_at_order_one(gf, T):
    R = mk(T, example2_lin(gf, T), t={(0, 0): T.one}, time_reduced=True)
    nve = build_NVE(R, 1)
    assert nve.variables == ((0, 1), (1, 0))
    got = {
        (i, j): nve.matrix[nve.index(v)][nve.index(w)]
        for i, v in ((0, (1, 0)), (1, (0, 1)))
        for j, w in ((0, (1, 0)), (1, (0, 1)))
    }
    assert all(got[(i, j)] == R.lin[i][j] for i in range(2) for j in range(2))


def test_NVE_of_cubic_drag(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    R = time_reduce(cubic_drag(gf, T))
    nve = build_NVE(R, 1)
    assert nve.matrix == ((T.from_ground(alpha / s),),)


def test_NVE_quotient_crosscheck(gf, T):
    # the order-1 normal system equals the pre-reduction linear part divided
    # by the tangential speed on the curve
    s = gf.s
    x = CoordRat.coordinate(T, 1, 0)
    spec = VectorFieldSpec(
        [x * (1 + CoordRat.constant(T, 1, s)) + x * x,
         2 + CoordRat.constant(T, 1, s) * x],
        [T.zero],
    )
    R0 = reduce_to_curve(spec, order=3)
    nve = build_NVE(time_reduce(R0), 1)
    c0 = R0.xn[(0,)]
    assert nve.matrix[0][0] == R0.lin[0][0] / c0


def test_variational_requires_time_reduction(gf, T):
    R = mk(T, [[T.one]])
    with pytest.raises(NotTimeReduced):
        build_VE(R, 1)
    with pytest.raises(NotTimeReduced):
        build_NVE(R, 1)


def test_variational_order_capped_by_table(gf, T):
    R = scalar_model(gf, T, order=3)
    with pytest.raises(OrderExceedsTable):
        build_NVE(R, 4)


def test_VE_diagonal_blocks_scale_lambdas(gf, T):
    s, alpha = gf.s, gf.gen("alpha")
    lam = (T.from_ground(alpha / s), T.from_ground(1 / (s - 1)))
    R = mk(T, [[lam[0], T.zero], [T.zero, lam[1]]],
           table={(0, (1, 1)): T.one, (1, (0, 2)): T.from_ground(s)},
           t={(0, 0): T.one}, time_reduced=True)
    ve = build_VE(R, 3)
    for v in ve.variables:
        row = ve.index(v)
        want = T.zero
        for j in range(2):
            if v[j]:
                want = want + T.from_ground(v[j]) * lam[j]
        assert ve.matrix[row][row] == want
    # block upper-triangular in total degree
    for r, vr in enumerate(ve.variables):
        for c, vc in enumerate(ve.variables):
            if ve.matrix[r][c]:
                assert sum(vc) >= sum(vr)


# --------------------------------------------------------------------------
# fuchsian_scan


def test_scan_simple_cauchy_exponent(gf, T):
    alpha = gf.gen("alpha")
    R = mk(T, [[T.from_ground(alpha / gf.s)]])
    places = fuchsian_scan(R)
    assert len(places) == 2
    at0 = next(p for p in places if p.location is not INF)
    atinf = next(p for p in places if p.location is INF)
    assert at0.m == 1 and str(at0.location) == "0"
    assert at0.exponents == (Exponent(0, {"alpha": 1}),)
    assert atinf.exponents == (Exponent(0, {"alpha": -1}),)
    assert at0.kind == "vector-field-singularity"


def test_scan_rejects_double_pole(gf, T):
    R = mk(T, [[T.from_ground(1 / gf.s**2)]])
    with pytest.raises(NonFuchsian) as err:
        fuchsian_scan(R)
    assert err.value.order == 2


def test_scan_rejects_irregular_infinity(gf, T):
    R = mk(T, [[T.from_ground(gf.gen("alpha"))]])
    with pytest.raises(NonFuchsian) as err:
        fuchsian_scan(R)
    assert err.value.place is INF
    assert err.value.order == 2


def test_scan_model_two_ramified_places(gf):
    s, alpha = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    R = mk(T, example2_lin(gf, T))
    out = fuchsian_scan(apply_gauge(R, eigen_gauge(T), assert_diagonal=True))
    finite = [p for p in out if p.location is not INF
              and not isinstance(p.location, str)]
    ram = [p for p in finite if p.m == 2]
    assert len(ram) == 1
    p = ram[0]
    assert isinstance(p.location, SPoly) and p.location.degree == 2
    assert p.exponents == (Exponent(Fraction(1, 4)), Exponent(Fraction(1, 4)))
    atinf = next(p for p in out if p.location is INF)
    assert atinf.exponents == (
        Exponent(Fraction(-1, 2), {"alpha": -1}),
        Exponent(Fraction(-1, 2), {"alpha": 1}),
    )


def test_scan_residues_sum_to_zero(gf, T):
    lam = T.from_ground(1 / gf.s + 2 / (gf.s - 1))
    places = fuchsian_scan(mk(T, [[lam]]))
    total = Exponent(0)
    for p in places:
        total = total + p.exponents[0]
    assert total == Exponent(0)
    assert len(places) == 3


def test_scan_needs_diagonal_linear_part(gf, T):
    R = mk(T, example1_lin(gf, T))
    with pytest.raises(GaugeRequired):
        fuchsian_scan(R)


def test_scan_tags_gauge_artifacts(gf, T):
    R0 = mk(T, [[T.zero]])
    out = apply_gauge(R0, [[T.from_ground(1 / gf.s)]])
    assert out.lambdas == (T.from_ground(1 / gf.s),)
    places = fuchsian_scan(out)
    at0 = next(p for p in places if p.location is not INF)
    assert at0.kind == "gauge-artifact"
    assert at0.exponents == (Exponent(1),)


def test_scan_tags_curve_singularities(gf, T):
    lam = T.from_ground(1 / (2 * (gf.s - 1)))
    R = mk(T, [[lam]], curve_places={("pt", "1")})
    places = fuchsian_scan(R)
    at1 = next(p for p in places if p.location is not INF)
    assert at1.kind == "curve-singularity"
    assert at1.exponents == (Exponent(Fraction(1, 2)),)


def test_scan_circle_is_irregular_at_infinity(gf):
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 - s**2)
    w = T.gen("w")
    R = mk(T, [[-T.from_ground(s) / w]])
    with pytest.raises(NonFuchsian) as err:
        fuchsian_scan(R)
    assert err.value.place is INF


def test_scan_ramified_curve_pole_is_half_order(gf):
    # lambda = -s/w has a pole of s-order 1/2 over 1 - s^2 = 0: Fuchsian
    # there, zero residue, tagged as a parametrization artifact
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 - s**2)
    w = T.gen("w")
    R = mk(T, [[-T.from_ground(s) / w]],
           curve_places={("pt", "1"), ("pt", "-1")})
    try:
        fuchsian_scan(R)
    except NonFuchsian:
        pass
    # inspect the finite part by stripping the irregular place at infinity:
    # scan a tamed copy whose exponent decays there
    lam = -T.from_ground(s) / w / T.from_ground(1 + s**2)
    R2 = mk(T, [[lam]], curve_places={("pt", "1"), ("pt", "-1")})
    places = fuchsian_scan(R2)
    over_curve = [p for p in places
                  if p.location is not INF and p.kind == "curve-singularity"]
    assert len(over_curve) == 2
    assert all(p.m == 2 and p.exponents == (Exponent(0),) for p in over_curve)


def test_scan_table_poles_and_infinity_fallback(gf, T):
    # lambda = alpha/(s(s-1)) has residues -alpha at 0 and alpha at 1 and no
    # pole of the local system at infinity; place 3 enters only through the
    # table's denominator, infinity only through the table entry's leading
    # exponent there (s + 1/(s-3) has a pole at infinity)
    s, alpha = gf.s, gf.gen("alpha")
    lam = T.from_ground(alpha / (s * (s - 1)))
    R = mk(T, [[lam]], {(0, (2,)): T.from_ground(s + 1 / (s - 3))})
    places = fuchsian_scan(R)
    got = [(str(p.location), p.m, p.exponents) for p in places]
    assert got == [
        ("0", 1, (Exponent(0, {"alpha": -1}),)),
        ("1", 1, (Exponent(0, {"alpha": 1}),)),
        ("3", 1, (Exponent(0),)),
        ("inf", 1, (Exponent(0),)),
    ]
    assert all(p.kind == "vector-field-singularity" for p in places)


def test_scan_skips_coordinate_poles_of_a_regular_table_entry(gf):
    # on w^2 = (s-3)^2 (1+s) the entry w/(s-3) is regular at 3 although its
    # coordinate has a pole there, so 3 is a candidate but not reported
    s, alpha = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, (s - 3) ** 2 * (1 + s))
    lam = T.from_ground(alpha / (s * (s - 1)))
    f = T.gen("w") / T.from_ground(s - 3)
    places = fuchsian_scan(mk(T, [[lam]], {(0, (2,)): f}))
    assert [(str(p.location), p.m) for p in places] == [
        ("0", 1), ("1", 1), ("inf", 2)]


def test_scan_radicand_pole_enters_through_the_table(gf):
    # on w^2 = 1/(s-2) the branch point 2 is a candidate only through the
    # radicand; it is reported because the table entry w has a pole there
    s, alpha = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 / (s - 2))
    lam = T.from_ground(alpha / (s * (s - 1)))
    places = fuchsian_scan(mk(T, [[lam]], {(0, (2,)): T.gen("w")}))
    got = [(str(p.location), p.m, p.exponents) for p in places]
    assert got == [
        ("0", 1, (Exponent(0, {"alpha": -1}),)),
        ("1", 1, (Exponent(0, {"alpha": 1}),)),
        ("2", 2, (Exponent(0),)),
    ]


# --------------------------------------------------------------------------
# CoordRat expansion, checked against sympy


def test_expand_around_matches_sympy_series(gf, T):
    # f(x) = (alpha x^3 + x + s) / (x^2 - s x + s + 1) on the curve x = s:
    # the shifted denominator s + 1 + s q + q^2 has a q-linear term, so the
    # inverse works through every order.  Arithmetic returns plain
    # quotients, rebuilt from their tables as VectorFieldSpec does.
    s, alpha = gf.s, gf.gen("alpha")
    f = CoordRat(T, 1, {(3,): T.from_ground(alpha), (1,): T.one,
                        (0,): T.from_ground(s)},
                 {(2,): T.one, (1,): T.from_ground(-s),
                  (0,): T.from_ground(s + 1)})
    x = CoordRat.coordinate(T, 1, 0)
    N = 6

    S, A, Q = sympy.symbols("s alpha q")
    X = S + Q
    g = (A * X**3 + X + S) / (X**2 - S * X + S + 1)
    for r, expr in [(f, g), (1 - f, 1 - g), (f / x, g / X), (-(x * f), -X * g)]:
        if not isinstance(r, CoordRat):
            r = CoordRat(T, 1, q_table(r.num), q_table(r.den))
        ser = r.expand_around([T.from_ground(s)], N)
        want = sympy.series(expr, Q, 0, N + 1).removeO()
        for k in range(N + 1):
            cell = ser.coeff((k,))
            got = 0 if cell is None else cell.scalar_part().as_expr()
            assert sympy.cancel(got - want.coeff(Q, k)) == 0, (expr, k)
        assert ser.N == N


def test_division_by_zero_is_labelled(T):
    x = CoordRat.coordinate(T, 1, 0)
    with pytest.raises(DivisionByZero):
        x / CoordRat.constant(T, 1, 0)
    with pytest.raises(DivisionByZero):
        CoordRat(T, 1, {(1,): T.one}, {(2,): T.zero})


def test_spec_takes_quotients_from_arithmetic(gf, T):
    s = gf.s
    x = CoordRat.coordinate(T, 1, 0)
    f = x * x / (1 + x)
    assert type(f) is RatioSeries
    spec = VectorFieldSpec([f, f], [T.from_ground(s)])
    assert all(type(c) is CoordRat for c in spec.components)
    R = reduce_to_curve(spec, order=2)
    assert R.lin == ((T.zero,),) and R.table == {}
    # f(s + 1) - 1 * s = ((s + 1)^2 - s (s + 2)) / (s + 2)
    with pytest.raises(NotTangent) as err:
        VectorFieldSpec([f, CoordRat.constant(T, 1, s)],
                        [T.from_ground(s + 1)])
    assert err.value.component == 1
    assert err.value.residual == T.one / T.from_ground(s + 2)


def test_scan_reads_poles_over_every_branch(gf, T):
    # w^2 = s^2 + s^3: at s = 0 the table entry (w - s)/s has valuation 1 on
    # one branch and 0 on the other, so it is regular there although its
    # leading coefficient rho - 1 is a zero divisor; at infinity (m = 2) it
    # has a pole on both branches, and lambda = alpha/(s - 1) has one at 1
    s, alpha = gf.s, gf.gen("alpha")
    T1 = T.extend("w", 2, T.from_ground(s**2 + s**3))
    w = T1.gen("w")
    R = mk(T1, [[T1.from_ground(alpha / (s - 1))]],
           {(0, (2,)): (w - T1.from_ground(s)) / T1.from_ground(s)})
    places = fuchsian_scan(R)
    assert [str(p.location) for p in places] == ["1", "inf"]
    assert [p.m for p in places] == [1, 2]
