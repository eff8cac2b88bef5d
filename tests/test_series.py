"""Truncated series with hyperexponential symbols: arithmetic, composition,
map inversion, the dense check engine's Lie derivatives, and the error
paths."""

import hashlib
import inspect
import itertools
import textwrap

import pytest
import sympy.polys.rings as sympy_rings

from galint import series
from galint.algebra import AlgebraicTower, GroundField, scalars
from galint.check import _dderiv_along
from galint.errors import (
    AlphabetMismatch,
    NonzeroConstantTerm,
    NotTangentToIdentity,
    VerificationFailed,
)
from galint.integrability import formal_flow
from galint.reduction import ReducedSystem
from galint.series import (
    HyperexpBasis,
    Powers,
    TruncSeries,
    q_table,
    ts_invert_map,
)


@pytest.fixture()
def ctx():
    gf = GroundField(params=("alpha",))
    T = AlgebraicTower(gf)
    s, alpha = gf.s, gf.gen("alpha")
    B = HyperexpBasis([T.from_ground(alpha / s), T.from_ground(2 * alpha / s)])
    return gf, T, B


def u(B, T, j, N=3):
    return TruncSeries.variable(B, "u", N, j, T.one)


def q(B, T, j, N=3):
    return TruncSeries.variable(B, "q", N, j, T.one)


def test_product_of_variables_collects_symbols(ctx):
    gf, T, B = ctx
    p = u(B, T, 0) * u(B, T, 1)
    c = p.coeff((1, 1))
    assert c == T.one and len(p.table) == 1
    assert p.render() == "(1)*u1*u2*H1*H2"


def test_binomial_square_truncates(ctx):
    gf, T, B = ctx
    one = TruncSeries.constant(B, "u", 2, T.one)
    a = one + u(B, T, 0, N=2)
    sq = a * a
    assert sq.coeff((0, 0)) == T.one
    assert sq.coeff((1, 0)) == T.from_ground(2)
    assert sq.coeff((2, 0)) == T.one
    assert len(sq.table) == 3


def test_product_of_tangent_maps_has_unit_cross_cell(ctx):
    # phi_j = u_j + O(2): the coefficient of u1*u2 (symbol H1 H2) in
    # phi_1*phi_2 is exactly 1, whatever the tails are
    gf, T, B = ctx
    u1, u2 = u(B, T, 0), u(B, T, 1)
    phi1 = u1 + u2 * u2
    phi2 = u2 - u1 * u1
    c = (phi1 * phi2).coeff((1, 1))
    assert c == T.one


def test_compose_square(ctx):
    gf, T, B = ctx
    got = (q(B, T, 0) * q(B, T, 0)).compose([u(B, T, 0), u(B, T, 1)])
    assert got.coeff((2, 0)) == T.one
    assert len(got.table) == 1


def test_compose_cubic_monomial(ctx):
    gf, T, B = ctx
    a = q(B, T, 0, 4) * q(B, T, 0, 4) * q(B, T, 1, 4)
    got = a.compose([u(B, T, 0, 4), u(B, T, 1, 4)])
    assert got.coeff((2, 1)) == T.one


def test_compose_polynomial_expansion(ctx):
    # (u - u^2) + (u - u^2)^2 = u - 2u^3 + O(4)
    gf, T, B = ctx
    a = q(B, T, 0) + q(B, T, 0) * q(B, T, 0)
    g = u(B, T, 0) - u(B, T, 0) * u(B, T, 0)
    got = a.compose([g, TruncSeries.zero(B, "u", 3)])
    assert got.coeff((1, 0)) == T.one
    assert got.coeff((2, 0)) is None
    assert got.coeff((3, 0)) == T.from_ground(-2)


def test_compose_rejects_constant_terms(ctx):
    gf, T, B = ctx
    bad = u(B, T, 0) + TruncSeries.constant(B, "u", 3, T.one)
    with pytest.raises(NonzeroConstantTerm):
        q(B, T, 0).compose([bad, u(B, T, 1)])


def test_invert_identity(ctx):
    gf, T, B = ctx
    Phi = ts_invert_map([u(B, T, 0), u(B, T, 1)])
    assert Phi[0] == q(B, T, 0)
    assert Phi[1] == q(B, T, 1)


def test_invert_one_variable_series():
    gf = GroundField(params=("alpha",))
    T = AlgebraicTower(gf)
    alpha = gf.gen("alpha")
    B = HyperexpBasis([T.from_ground(alpha / gf.s)])
    uu = TruncSeries.variable(B, "u", 4, 0, T.one)
    qq = TruncSeries.variable(B, "q", 4, 0, T.one)
    a = T.from_ground(alpha)
    phi = uu + (uu * uu).scale(a)
    (Phi,) = ts_invert_map([phi])
    assert Phi.coeff((1,)) == T.one
    assert Phi.coeff((2,)) == -a
    assert Phi.coeff((3,)) == a * a * T.from_ground(2)
    # two-sided identity, exactly, through the truncation order
    assert (Phi.compose([phi]) - uu).is_zero()
    assert (phi.compose([Phi]) - qq).is_zero()


def test_invert_rejects_bad_linear_part(ctx):
    gf, T, B = ctx
    u1, u2 = u(B, T, 0), u(B, T, 1)
    with pytest.raises(NotTangentToIdentity):
        ts_invert_map([u1 + u2, u2])
    with pytest.raises(NotTangentToIdentity):
        ts_invert_map([u1.scale(T.from_ground(2)), u2])


def lie(a, v, cap, T):
    """The derivative of a series along columns (q-components, then s), on
    the dense engine."""
    return _dderiv_along([c.table for c in v], a.table, cap, T)


def test_lie_of_coordinate_and_constant(ctx):
    gf, T, B = ctx
    q1, q2 = q(B, T, 0), q(B, T, 1)
    one = TruncSeries.constant(B, "q", 3, T.one)
    v = [q2, q1, one]
    assert lie(q1, v, 3, T) == q2.table
    const = TruncSeries.constant(B, "q", 3, T.from_ground(gf.gen("alpha")))
    assert lie(const, v, 3, T) == {}


def test_lie_annihilates_product_integral(ctx):
    # v = (a q1, -a q2, s-comp 1) conserves q1 q2 for any series a
    gf, T, B = ctx
    q1, q2 = q(B, T, 0, 4), q(B, T, 1, 4)
    one = TruncSeries.constant(B, "q", 4, T.one)
    a = one + q1 * q2
    v = [a * q1, -(a * q2), one]
    assert lie(q1 * q2, v, 4, T) == {}


def test_alphabet_mismatch(ctx):
    gf, T, B = ctx
    with pytest.raises(AlphabetMismatch):
        q(B, T, 0) + u(B, T, 0)


def test_plain_table_needs_symbol_free_q_cells(ctx):
    # a u-cell carries H through its alphabet, so it has no plain table
    gf, T, B = ctx
    assert q_table(q(B, T, 0)) == {(1, 0): T.one}
    with pytest.raises(ValueError):
        q_table(u(B, T, 0))


def test_truncation_coherence_spot(ctx):
    gf, T, B = ctx
    s = gf.s
    a = (
        TruncSeries.constant(B, "u", 4, T.from_ground(s))
        + u(B, T, 0, 4)
        + u(B, T, 0, 4) * u(B, T, 1, 4)
    )
    b = u(B, T, 1, 4) + u(B, T, 0, 4) * u(B, T, 0, 4)
    assert (a * b).truncate(2) == a.truncate(2) * b.truncate(2)


def test_constructor_merges_cells(ctx):
    # the constructor is where cells merge: repeats sum in order, a
    # cancelling pair leaves no cell, cells above N are dropped
    gf, T, B = ctx
    one, two = T.one, T.from_ground(2)
    pairs = [
        ((1, 0), one),
        ((0, 1), one),
        ((1, 0), one),
        ((0, 1), -one),
        ((2, 2), one),
    ]
    a = TruncSeries(B, "q", 3, pairs)
    assert a.table == {(1, 0): two}
    assert a == TruncSeries(B, "q", 3, {(1, 0): two, (2, 2): one})
    # a cell that cancelled starts afresh from a later contribution
    again = TruncSeries(B, "q", 3, pairs + [((0, 1), two)])
    assert again.coeff((0, 1)) == two
    for bad in ([((1,), one)], [((1, -1), one)]):
        with pytest.raises(ValueError):
            TruncSeries(B, "q", 3, bad)
    with pytest.raises(ValueError):
        TruncSeries(B, "q", 3, {(-1, 0): one})


# --------------------------------------------------------------------------
# the per-degree composition engine


def _naive_compose(a, subst):
    """a∘subst from whole-series products, cell by cell."""
    zero_i = (0,) * a.basis.n
    out = TruncSeries.zero(a.basis, "u", a.N)
    for i, c in a.cells():
        term = TruncSeries(a.basis, "u", a.N, {zero_i: c})
        for j, k in enumerate(i):
            for _ in range(k):
                term = term * subst[j]
        out = out + term
    return out


@pytest.mark.parametrize("nq", [1, 2])
def test_powers_kept_across_a_growing_substitution(nq):
    # formal_flow's pattern: the substitution gains its degree-k cells only
    # after the degree-k cells of the composite were read.  The composed
    # series has no linear cell (those read the substitution at degree k).
    gf = GroundField(params=("alpha",))
    T = AlgebraicTower(gf)
    s, alpha = gf.s, gf.gen("alpha")
    hs = [T.from_ground((l + 1) * alpha / s) for l in range(nq)]
    B = HyperexpBasis(hs)
    N = 5
    idx = [i for i in itertools.product(range(N + 1), repeat=nq)
           if sum(i) <= N]

    def cell(i, *ks):
        return i, T.from_ground(sum(ks) + 1 + ks[0] * s - alpha * ks[-1])

    a = TruncSeries(B, "q", N, [cell(i, *i) for i in idx if sum(i) != 1])
    subst = [TruncSeries.variable(B, "u", N, j, T.one) for j in range(nq)]
    P = Powers(subst)
    gathered = []
    for k in range(N + 1):
        part = P.cells_at(a, k)
        assert all(sum(i) == k for i in part.table)
        gathered += part.table.items()
        if k > 1:
            for j in range(nq):
                subst[j] = subst[j] + TruncSeries(B, "u", N, [
                    cell(i, j, k, *i) for i in idx if sum(i) == k])
    got = TruncSeries(B, "u", N, gathered)
    assert got == a.compose(subst)
    assert got == _naive_compose(a, subst)


def one_dw_flow(N):
    """The benchmark's 1dw system at seed 0, q' = (alpha/w) q + beta q^2
    + s q^3 on w^2 = 1 + s^2, and its formal flow at order N, rendered."""
    gf = GroundField(params=("alpha", "beta"))
    s = gf.s
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    unit = {(0,): T.one}
    table = {(0, (2,)): T.from_ground(gf.gen("beta")),
             (0, (3,)): T.from_ground(s)}
    R = ReducedSystem(T, 1, N, [[T.from_ground(gf.gen("alpha")) / T.gen("w")]],
                      table, unit, unit, time_reduced=True)
    flow = formal_flow(R, N)
    return "\n".join([c.render() for c in flow.components]
                     + [flow.time.render()])


def test_deep_flow_is_pinned(monkeypatch):
    # the rendered components and time series hash as they did before the
    # per-degree engine (N = 8) and before one reduction per coefficient
    # (N = 10); at N = 8 the gcds are counted too, those of the ground
    # field's gate and those left to sympy.  The gate runs only on a miss of
    # the field's gcd memo (510 times, 631 while the flow check took gcds),
    # and sympy's gcd not at all
    calls = {"gate": 0, "sympy": 0}
    gate, cofactors = scalars._cofactors, sympy_rings.PolyElement.cofactors

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scalars, "_cofactors", counted("gate", gate))
    monkeypatch.setattr(sympy_rings.PolyElement, "cofactors",
                        counted("sympy", cofactors))
    text = one_dw_flow(8)
    monkeypatch.undo()
    assert hashlib.sha1(text.encode()).hexdigest() == \
        "63481497d472b0c5e04b82d3701193b5d41aa66b"
    assert calls["gate"] <= 740 and calls["sympy"] <= 8, calls
    assert hashlib.sha1(one_dw_flow(10).encode()).hexdigest() == \
        "971838db7b4b9a897993733b208b1af7975544ad"


def test_the_flow_check_refuses_a_planted_powers_defect(monkeypatch):
    # Powers._at with its degree loop started one too high drops the
    # products of two degree-1 cells; the flow check shares no code with
    # Powers, so it names the first equation and order that go wrong
    source = textwrap.dedent(inspect.getsource(Powers._at))
    assert "range(n - 1, k)" in source
    scope = {}
    exec(source.replace("range(n - 1, k)", "range(n, k)"), vars(series), scope)
    monkeypatch.setattr(Powers, "_at", scope["_at"])
    with pytest.raises(VerificationFailed, match="component 1 .* order 2"):
        one_dw_flow(6)
