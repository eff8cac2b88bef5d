"""The flow check's evaluation mod p: a ring homomorphism that commutes
with d/ds, mod a random prime per point; points redrawn at poles, at
radicands with no root and on primes where a constant radicand has none;
and the planted defects that construction arithmetic shares with the
exact check, which it refuses."""

import inspect
import random
import textwrap

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galint import jets
from galint.algebra import AlgebraicTower, GroundField
from galint.algebra import tower as tower_module
from galint.check import check_flow
from galint.errors import VerificationFailed
from galint.integrability import FormalFlow, Obstruction, flows, formal_flow
from test_integrability import _corrupt, mk, one_dw

PROPS = settings(max_examples=25, deadline=None, database=None,
                 derandomize=True)


@pytest.fixture()
def gf():
    return GroundField(params=("alpha",))


@pytest.fixture()
def T(gf):
    return AlgebraicTower(gf)


#: a prime = 3 (mod 8), where neither -1 nor 2 is a square
P0 = 2**61 - 2373


def test_the_primality_test_agrees_with_sympy():
    rng = random.Random(0)
    odd = [(1 << 60) + rng.getrandbits(60) | 1 for _ in range(300)]
    # strong pseudoprimes to every prime base through 7 and 13
    liars = [3215031751, 3474749660383]
    for n in odd + liars + [P0, (1 << 61) - 1]:
        assert jets._is_prime(n) == sympy.isprime(n), n
    for _ in range(20):
        p = jets._prime()
        assert 1 << 60 <= p < 1 << 61 and sympy.isprime(p)


@pytest.mark.parametrize("p", [P0, 2**61 - 1, 2**61 - 31])
def test_roots_mod_p(p):
    # p - 1 = 2 q, 2 * 3^2 * ... and 2^5 * 3 * ...: square roots by
    # Tonelli-Shanks with one, one and five factors 2 in p - 1
    rng = random.Random(p)
    for _ in range(50):
        r = rng.randrange(1, p)
        if sympy.is_quad_residue(r, p):
            assert pow(jets._sqrt(r, p), 2, p) == r
        else:
            with pytest.raises(jets._Redraw):
                jets._sqrt(r, p)
        for n in (3, 4, 6, 12):
            try:
                x = jets._root(r, n, p)
            except jets._Redraw:
                continue
            assert pow(x, n, p) == r
    # cube roots are not unique where 3 divides p - 1: the point is redrawn
    if p != P0:
        with pytest.raises(jets._Redraw):
            jets._root(8, 3, p)


# --------------------------------------------------------------------------
# a homomorphism that commutes with d/ds


def _towers():
    gf = GroundField(params=("alpha",))
    s = gf.s
    base = AlgebraicTower(gf)
    nested = base.extend("w1", 2, s)
    w1 = nested.gen("w1")
    return {
        "Q(alpha)(s)": base,
        "w^2 = 1 + s^2": base.extend("w", 2, 1 + s**2),
        "w^3 = 1 + s^2": base.extend("w", 3, 1 + s**2),
        "w1^2 = s, w2^2 = 2 + 2 w1 + s": nested.extend("w2", 2, 2 + 2 * w1 + s),
    }


TOWERS = _towers()
small = st.integers(-3, 3)


@st.composite
def elements(draw, T):
    """An element of T whose coordinates are small quotients in alpha and
    s, each denominator with constant term 1."""
    gf = T.gf
    s, a = gf.s, gf.gen("alpha")
    coords = {}
    for e in T.basis_monomials():
        num = draw(small) + draw(small) * a + draw(small) * s \
            + draw(small) * a * s**2
        den = 1 + draw(st.integers(0, 2)) * s + draw(st.integers(0, 2)) * a * s
        coords[e] = num / den
    return T.from_coords(coords)


def _times(x, y, p):
    return x[0] * y[0] % p, (x[0] * y[1] + x[1] * y[0]) % p


@pytest.mark.parametrize("name", list(TOWERS))
def test_evaluation_is_a_homomorphism_that_commutes_with_d_ds(name):
    T = TOWERS[name]

    @PROPS
    @given(elements(T), elements(T))
    def check(a, b):
        assume(b)
        [(p, got)] = jets._at_random_points(T, lambda pt: (pt.p, [
            pt.jet(x) for x in (a, b, a + b, a * b, a / b, a.derive())]), 1)
        ja, jb, jsum, jprod, jquot, jder = got
        assert jsum == ((ja[0] + jb[0]) % p, (ja[1] + jb[1]) % p)
        assert jprod == _times(ja, jb, p)
        assert _times(jquot, jb, p) == ja
        assert jder[0] == ja[1]

    check()


# --------------------------------------------------------------------------
# redrawn points


class Script:
    """Stands in for the module's ``_draw``: hands out ``values`` in order,
    then real draws, which it counts in ``extra``.  A prime candidate is
    drawn as its offset from 2^60."""

    def __init__(self, values):
        self.values = list(values)
        self.extra = 0
        self.real = jets._draw

    def __call__(self, n):
        if self.values:
            return self.values.pop(0)
        self.extra += 1
        return self.real(n)


def _legendre(x):
    return pow(x % P0, (P0 - 1) // 2, P0)


def _first(residue, start=1):
    """The least s0 >= start where 1 + s0^2 is a nonzero square mod P0
    (``residue``), or a non-square (not ``residue``)."""
    s0 = start
    while (_legendre(1 + s0 * s0) == 1) != residue:
        s0 += 1
    return s0


def _with_cell_doubled(flow, order):
    return FormalFlow(flow.basis, [_corrupt(flow.components[0], order)],
                      flow.time, flow.s0, flow.N, flow.system, flow.resonant,
                      flow.logs)


def test_a_point_at_a_pole_or_with_no_root_is_redrawn(monkeypatch, gf):
    # 1dw over Q(alpha, s), kernel order (alpha, s), the prime drawn
    # first: 2^60 + 1 is no prime, so the next candidate is drawn.  Mod P0
    # the flow's cells have alpha^2 - 1 in their denominators, so
    # alpha0 = 1 is a pole; 1 + s0^2 has no square root at s0 = 1, 2 being
    # no square mod P0; it never vanishes, -1 being no square.  The first
    # point is drawn again twice, the second once; after _KEEP draws a new
    # prime is taken.  The script is spent exactly
    flow = formal_flow(one_dw(gf), 4)
    assert isinstance(flow, FormalFlow)
    good = _first(True)
    assert _first(False) == 1
    off = P0 - (1 << 60)
    assert jets._KEEP == 4
    draws = [0, off, 1, good, 5, 1, 7, good, 11, 1,
             off, 13, _first(True, good + 1)]
    bad = _with_cell_doubled(flow, 3)
    for checked, refused in ((flow, None), (bad, "component 1 .* order 3")):
        script = Script(draws)
        monkeypatch.setattr(jets, "_draw", script)
        if refused is None:
            check_flow(checked)
        else:
            with pytest.raises(VerificationFailed, match=refused):
                check_flow(checked)
        assert script.values == [] and script.extra == 0


@pytest.mark.parametrize("c", [-1, 2])
def test_a_constant_radicand_is_checked_mod_a_prime_where_it_has_a_root(
        monkeypatch, gf, c):
    # q' = (alpha w/(1 + s)) q + q^2 + s q^3 on w^2 = c.  c has no square
    # root mod P0, at any point, so the first _KEEP draws, mod P0, are
    # redrawn, and then a new prime is taken, here a real draw
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, c * gf.one)
    table = {(0, (2,)): T.one, (0, (3,)): T.from_ground(s)}
    R = mk(T, [[T.from_ground(a / (1 + s)) * T.gen("w")]], table)
    flow = formal_flow(R, 4)
    assert isinstance(flow, FormalFlow)
    for checked, refused in ((flow, None),
                             (_with_cell_doubled(flow, 3), "component 1")):
        script = Script([P0 - (1 << 60)])
        monkeypatch.setattr(jets, "_draw", script)
        if refused is None:
            check_flow(checked)
        else:
            with pytest.raises(VerificationFailed, match=refused):
                check_flow(checked)
        assert script.values == [] and script.extra > 2 * jets._KEEP


def test_a_radicand_c_times_a_square_gets_its_obstruction(gf):
    # w^2 = 2 (1 + s^2)^2: the partial flow of the obstruction is checked,
    # where 2 (1 + s0^2)^2 has a square root only for some primes
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 2 * (1 + s**2)**2)
    table = {(0, (2,)): T.one, (0, (3,)): T.from_ground(s)}
    R = mk(T, [[T.from_ground(a) / T.gen("w")]], table)
    assert isinstance(formal_flow(R, 4), Obstruction)


# --------------------------------------------------------------------------
# planted defects


def test_the_flow_check_refuses_a_planted_derivation_defect(monkeypatch, gf):
    # _deriv_factor taking 2 k dcoef gives w' = r' w / r on w^2 = r, a wrong
    # derivation that construction and the exact check shared; the flow
    # check reads no derivation rule of the tower
    source = textwrap.dedent(
        inspect.getsource(AlgebraicTower._deriv_factor))
    assert "(g.dcoef, k)" in source
    scope = {}
    exec(source.replace("(g.dcoef, k)", "(g.dcoef, 2 * k)"),
         vars(tower_module), scope)
    monkeypatch.setattr(AlgebraicTower, "_deriv_factor",
                        scope["_deriv_factor"])
    with pytest.raises(VerificationFailed, match="component 1"):
        formal_flow(one_dw(gf, order=6), 6)


def test_an_obstructions_partial_flow_is_checked(monkeypatch, gf, T):
    # the opposite pair with a q1^2 term, so that component 1 has an
    # order-2 cell (u1^2, y' + (alpha/s) y = 1); it still obstructs at
    # order 3, cell (2, 1).  With that cell doubled the partial flow is
    # wrong below the obstruction, and the check refuses it
    s, a = gf.s, gf.gen("alpha")
    lin = [[T.from_ground(a / s), T.zero],
           [T.zero, T.from_ground(-a / s)]]
    table = {(0, (2, 0)): T.one,
             (0, (2, 1)): T.from_ground(1 / s),
             (1, (1, 2)): T.from_ground(-1 / s)}
    R = mk(T, lin, table)
    ob = formal_flow(R, 4)
    assert isinstance(ob, Obstruction)
    assert (ob.order, ob.component, ob.index) == (3, 1, (2, 1))
    assert (2, 0) in ob.partial.components[0].table

    real, solved = flows._solve_cell, []

    def doubled(delta, g, s0, conditions):
        y, res = real(delta, g, s0, conditions)
        solved.append(y)
        return (y + y if len(solved) == 1 else y), res

    monkeypatch.setattr(flows, "_solve_cell", doubled)
    with pytest.raises(VerificationFailed, match="component 1 .* order 2"):
        formal_flow(R, 4)
