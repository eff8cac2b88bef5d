"""Chart transport along the gauge, and the base-field check built on it.

Both systems live on w^2 = 1 + s^2 with sigma: w -> -w declared:

* model two at alpha = 1, lin [[s/(2(1+s^2)), 1], [1/(1+s^2), -s/(2(1+s^2))]],
  is defined over the base; its eigenvector gauge [[1, 1], [1/w, -1/w]]
  diagonalises it with radical exponents, and pushing the gauged right
  sides back through the gauge gives the ungauged ones again;
* the diagonal pair [[1/w, 0], [0, -1/w]] is not defined over the base
  (sigma swaps its exponents), so its right sides move under sigma and
  Galois descent labels it instead of symmetrizing.

The automorphisms that descent averages over come from ``group_closure``:
sigma closes to {id, sigma}, a rational tower to {id} alone.
"""

from fractions import Fraction

import pytest

from galint.algebra import AlgebraicTower, GroundField
from galint.errors import InputError, OrbitIncomplete
from galint.integrability import (
    IntegrabilityCertificate,
    build_certificate,
    group_closure,
    linearize,
    original_field,
    verify_certificate,
)
from galint.reduction import ReducedSystem, apply_gauge
from galint.series import HyperexpBasis, RatioSeries, TruncSeries, q_series


def tower():
    gf = GroundField()
    T = AlgebraicTower(gf).extend("w", 2, 1 + gf.s**2)
    T.declare_galois("sigma", {"w": -T.gen("w")})
    return gf, T


def system(T, lin, order):
    unit = {(0, 0): T.one}
    return ReducedSystem(T, 2, order, lin, {}, unit, t=unit,
                         time_reduced=True)


def model_two():
    gf, T = tower()
    s = gf.s
    half = gf.from_rational(Fraction(1, 2)) * s / (1 + s**2)
    lin = [[T.from_ground(half), T.one],
           [T.from_ground(1 / (1 + s**2)), T.from_ground(-half)]]
    R0 = system(T, lin, 8)
    w = T.gen("w")
    R = apply_gauge(R0, [[T.one, T.one], [T.one / w, -(T.one / w)]],
                    assert_diagonal=True)
    return R0, R


def pm_w():
    _gf, T = tower()
    h = T.one / T.gen("w")
    return system(T, [[h, T.zero], [T.zero, -h]], 6)


def test_original_field_undoes_the_eigenvector_gauge():
    R0, R = model_two()
    T = R.tower
    N = 4
    basis = HyperexpBasis(R.lambdas)
    one = TruncSeries.constant(basis, "q", N, T.one)

    def qdot(S):
        return [RatioSeries(q_series(basis, N, S.qdot_series(j)), one)
                for j in range(2)]

    cols = original_field(R, qdot(R), RatioSeries(one, one))
    assert len(cols) == 3
    for got, want in zip(cols, qdot(R0)):
        assert got.eq(want)
    assert cols[2].eq(RatioSeries(one, one))


def test_linearize_over_the_base_is_invariant():
    _R0, R = model_two()
    assert linearize(R, 4).invariant is True


def test_linearize_off_the_base_skips_the_invariance_check():
    assert linearize(pm_w(), 4).invariant is None


def test_descent_labels_a_system_not_over_the_base():
    cert = build_certificate(pm_w(), 4)
    assert isinstance(cert, IntegrabilityCertificate)
    assert (cert.l, len(cert.integrals), cert.chart) == (1, 2, "reduced")
    assert cert.report.basis == [(1, 0), (0, 1)]
    assert cert.orders == {"flow": 4, "frame": 3, "integrals": 4}
    assert cert.descent == "not-over-base"
    assert cert.descended is None
    assert verify_certificate(cert).ok
    # the label leaves the certificate as it is without descent
    plain = build_certificate(pm_w(), 4, descend=False)
    assert plain.descent == "not-attempted"
    for a, b in zip(cert.fields, plain.fields):
        assert repr(list(a.components) + [a.s_component]) == \
            repr(list(b.components) + [b.s_component])
    assert [repr(F.series) for F in cert.integrals] == \
        [repr(F.series) for F in plain.integrals]


def test_group_closure_of_a_rational_tower_is_the_identity():
    (identity,) = group_closure(AlgebraicTower(GroundField()))
    assert identity.word == ()


def test_group_closure_of_sigma():
    _gf, T = tower()
    w = T.gen("w")
    group = group_closure(T)
    assert [g.word for g in group] == [(), ("sigma",)]
    assert [g.on_elem(w) for g in group] == [w, -w]


def test_group_closure_needs_declared_generators():
    gf = GroundField()
    with pytest.raises(OrbitIncomplete):
        group_closure(AlgebraicTower(gf).extend("w", 2, 1 + gf.s**2))


def test_group_closure_rejects_a_non_tower():
    with pytest.raises(InputError):
        group_closure(GroundField())
