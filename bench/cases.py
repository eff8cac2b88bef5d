"""The benchmark's workloads: input builders, verdict calls and pinned verdicts.

Each case is split the way a user meets it: ``build`` makes the inputs
(ground field, towers, Galois maps, systems), ``decide`` runs the public
calls that produce the verdict, timing them on a :class:`Clock`, and
``check`` compares the verdict with the one pinned from the tests' hand
oracles.  Seed 0 reproduces the test fixtures exactly; any other seed draws
the nonzero rational coefficients of a case's nonlinear terms from
``COEFFS``, keeping the monomial support.  Cases with no nonlinear terms
(the linear pair, the nested-tower lattice, the gauge and the Diophantine
sweep) have nothing to draw and are the same on every seed.
"""

import random
import time
from collections import namedtuple
from fractions import Fraction

from galint.algebra import AlgebraicTower, Exponent, FieldElem, GroundField
from galint.algebra.places import INF
from galint.galois import diophantine_eval, relation_lattice
from galint.integrability import (
    FormalFlow,
    IntegrabilityCertificate,
    NeedsCovering,
    Obstruction,
    build_certificate,
    formal_flow,
    verify_certificate,
)
from galint.reduction import (
    CoordRat,
    ReducedSystem,
    VectorFieldSpec,
    apply_gauge,
    fuchsian_scan,
    reduce_to_curve,
    time_reduce,
)
from galint.series import RatioSeries, TruncSeries

COEFFS = (1, -1)

# build() -> inputs; decide(inputs, clock) -> result; check(result) raises
# Mismatch.  ``terms`` counts the polynomial terms of the result.
Case = namedtuple("Case", "name build decide check")


class Mismatch(Exception):
    """The verdict differs from the pinned one."""


class Clock:
    """Sums the time of the verdict calls and of the verifier calls."""

    def __init__(self):
        self.verdict_s = 0.0
        self.verify_s = 0.0

    def verdict(self, fn, *args, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.verdict_s += time.perf_counter() - t0

    def verify(self, fn, *args, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.verify_s += time.perf_counter() - t0


def draw(seed, case, k):
    """k coefficients for one case; all ones on seed 0 (the test fixtures)."""
    if seed == 0:
        return [1] * k
    rng = random.Random(f"{seed}:{case}")
    return [rng.choice(COEFFS) for _ in range(k)]


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# result size


def _frac_terms(f):
    return len(f.numer.terms()) + len(f.denom.terms())


def terms(obj):
    """Polynomial terms in the numerators and denominators of every
    coefficient an object returned by galint carries."""
    if obj is None or isinstance(obj, (str, int, Fraction, Exponent)):
        return 0
    if isinstance(obj, FieldElem):
        return sum(_frac_terms(c) for c in obj.coords.values())
    if isinstance(obj, TruncSeries):
        return sum(terms(c) for c in obj.table.values())
    if isinstance(obj, RatioSeries):
        return terms(obj.num) + terms(obj.den)
    if isinstance(obj, FormalFlow):
        return terms(obj.components) + terms(obj.time)
    if isinstance(obj, Obstruction):
        return terms(obj.delta) + terms(obj.rhs) + terms(obj.partial)
    if isinstance(obj, IntegrabilityCertificate):
        return sum(terms(f.components) + terms(f.s_component)
                   for f in obj.fields) + sum(
            terms(F.series) + terms(F.witness) for F in obj.integrals)
    if isinstance(obj, ReducedSystem):
        return terms(obj.lin) + terms(list(obj.table.values()))
    if isinstance(obj, (list, tuple)):
        return sum(terms(x) for x in obj)
    if isinstance(obj, dict):
        return terms(list(obj.values()))
    if hasattr(obj, "witnesses"):  # ResonanceReport
        return terms(obj.witnesses)
    return 0


# ---------------------------------------------------------------------------
# shared builders


def _reduced(T, lin, table, order):
    """A time-reduced system with xn = t = 1."""
    nq = len(lin)
    unit = {(0,) * nq: T.one}
    return ReducedSystem(T, nq, order, lin, table, unit, unit,
                         time_reduced=True)


def _one_dw(params, q2, c3, order):
    """The "1dw" normal form over Q(params, s) with w^2 = 1 + s^2:
    q' = (alpha/w) q + q2 q^2 + c3 s q^3, where q2(gf) gives the ground
    coefficient of q^2."""
    gf = GroundField(params=params)
    s, a = gf.s, gf.gen("alpha")
    T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
    table = {(0, (2,)): T.from_ground(q2(gf)),
             (0, (3,)): T.from_ground(c3 * s)}
    return _reduced(T, [[T.from_ground(a) / T.gen("w")]], table, order)


def _certify(R, N, clock):
    cert = clock.verdict(build_certificate, R, N)
    report = None
    if isinstance(cert, IntegrabilityCertificate):
        report = clock.verify(verify_certificate, cert)
    return cert, report


def _check_cert(l, n_ints, descent):
    def check(result):
        cert, report = result
        expect(isinstance(cert, IntegrabilityCertificate),
               f"expected a certificate, got {cert!r}")
        got = (cert.l, len(cert.integrals), cert.descent)
        expect(got == (l, n_ints, descent),
               f"certificate (l, integrals, descent) = {got}, "
               f"expected {(l, n_ints, descent)}")
        expect(report.ok, f"verify_certificate failed: {report!r}")
    return check


# ---------------------------------------------------------------------------
# flow-deep


def _flow_deep_case(seed, N):
    def build():
        c2, c3 = draw(seed, "flow-deep", 2)
        return _one_dw(("alpha", "beta"), lambda gf: c2 * gf.gen("beta"),
                       c3, N)

    def decide(R, clock):
        return clock.verdict(formal_flow, R, N)

    def check(flow):
        expect(isinstance(flow, FormalFlow),
               f"expected a FormalFlow, got {flow!r}")
        expect(flow.N == N and flow.time is not None and flow.logs == (),
               f"expected a complete log-free flow at order {N}, got {flow!r}")

    return Case(f"1dw-N{N}", build, decide, check)


def flow_deep(seed, small=False):
    return [_flow_deep_case(seed, N) for N in ((3,) if small else (6, 7))]


# ---------------------------------------------------------------------------
# certify-suite


def _cubic_drag(seed, N):
    """q' = a q/(s D), s' = 1/D with D = c3 q^3 + c2 q^2 s + s, reduced to
    the curve q = 0 and time-normalised."""

    def build():
        c3, c2 = draw(seed, "cubic-drag", 2)
        gf = GroundField(params=("alpha",))
        s, a = gf.s, gf.gen("alpha")
        T = AlgebraicTower(gf)
        den = CoordRat(T, 1, {(3,): T.from_ground(c3),
                              (2,): T.from_ground(c2 * s),
                              (0,): T.from_ground(s)})
        x = CoordRat.coordinate(T, 1, 0)
        X1 = CoordRat.constant(T, 1, a) * x / (CoordRat.constant(T, 1, s) * den)
        return VectorFieldSpec([X1, 1 / den], [T.zero])

    def decide(spec, clock):
        R = clock.verdict(reduce_to_curve, spec, order=N)
        R = clock.verdict(time_reduce, R)
        return _certify(R, N, clock)

    return Case(f"cubic-drag-N{N}", build, decide,
                _check_cert(2, 0, "base-field"))


def _resonant_toy(seed, N):
    """q' = q/s + c q^2/s: resonant at every order, one integral."""

    def build():
        (c,) = draw(seed, "resonant-toy", 1)
        gf = GroundField(params=("alpha",))
        T = AlgebraicTower(gf)
        return _reduced(T, [[T.from_ground(1 / gf.s)]],
                        {(0, (2,)): T.from_ground(c / gf.s)}, N)

    return Case(f"resonant-toy-N{N}", build,
                lambda R, clock: _certify(R, N, clock),
                _check_cert(1, 1, "base-field"))


def _linear_pair(N):
    """Diagonal +-alpha/w on w^2 = 1 + s^2 with sigma: w -> -w declared."""

    def build():
        gf = GroundField(params=("alpha",))
        T = AlgebraicTower(gf).extend("w", 2, 1 + gf.s**2)
        w = T.gen("w")
        T.declare_galois("sigma", {"w": -w})
        h = T.from_ground(gf.gen("alpha")) / w
        return _reduced(T, [[h, T.zero], [T.zero, -h]], {}, N)

    return Case(f"linear-pair-N{N}", build,
                lambda R, clock: _certify(R, N, clock),
                _check_cert(2, 1, NeedsCovering(2)))


def _opposite_pair(seed, N):
    """q1' = a q1/s + c1 q1^2 q2/s, q2' = -a q2/s - c2 q1 q2^2/s."""

    def build():
        c1, c2 = draw(seed, "opposite-pair", 2)
        gf = GroundField(params=("alpha",))
        s, a = gf.s, gf.gen("alpha")
        T = AlgebraicTower(gf)
        lin = [[T.from_ground(a / s), T.zero], [T.zero, T.from_ground(-a / s)]]
        table = {(0, (2, 1)): T.from_ground(c1 / s),
                 (1, (1, 2)): T.from_ground(-c2 / s)}
        return _reduced(T, lin, table, N)

    def check(result):
        ob, _ = result
        expect(isinstance(ob, Obstruction),
               f"expected an Obstruction, got {ob!r}")
        got = (ob.order, ob.component, ob.classification)
        expect(got == (3, 1, "log-in-normal-part"),
               f"obstruction (order, component, class) = {got}, "
               "expected (3, 1, 'log-in-normal-part')")

    return Case(f"opposite-pair-N{N}", build,
                lambda R, clock: _certify(R, N, clock), check)


def _one_dw_alpha(seed, N):
    """flow-deep's system over Q(alpha, s), with a rational q^2 coefficient."""

    def build():
        c2, c3 = draw(seed, "1dw-alpha", 2)
        return _one_dw(("alpha",), lambda gf: gf.from_rational(c2), c3, N)

    return Case(f"1dw-alpha-N{N}", build,
                lambda R, clock: _certify(R, N, clock),
                _check_cert(2, 0, "not-attempted"))


def certify_suite(seed, small=False):
    drag_N, dwa_N = (4, 3) if small else (8, 4)
    return [
        _cubic_drag(seed, drag_N),
        _resonant_toy(seed, 3),
        _linear_pair(4),
        _opposite_pair(seed, 4),
        _one_dw_alpha(seed, dwa_N),
    ]


# ---------------------------------------------------------------------------
# lattice-towers


def _nested_lattice(k_max):
    """The four h_i over w1^2 = s, w2^2 = 2+2w1+s, w3^2 = 2-2w1+s: the
    conjugate node products are units, so the lattice has rank two."""

    def build():
        gf = GroundField(params=("alpha",))
        s = gf.s
        T1 = AlgebraicTower(gf).extend("w1", 2, s)
        T2 = T1.extend("w2", 2, 2 + 2 * T1.gen("w1") + s)
        T = T2.extend("w3", 2, 2 - 2 * T2.gen("w1") + s)
        w1, w2, w3 = T.gen("w1"), T.gen("w2"), T.gen("w3")
        one = T.one
        n1, n2 = one + w1 + w2, one + w1 - w2
        n3, n4 = one - w1 + w3, one - w1 - w3
        a = T.from_ground(gf.gen("alpha"))
        u2, u3 = w2 * w2, w3 * w3
        base2 = u2.derive() / (4 * u2)
        base3 = u3.derive() / (4 * u3)
        return (base2 + a * n1.derive() / n1,
                base2 + a * n2.derive() / n2,
                base3 + a * n3.derive() / n3,
                base3 + a * n4.derive() / n4)

    def check(rep):
        want = [(1, 1, 0, 0), (0, 0, 1, 1)]
        expect(rep.basis == want and rep.inconclusive == [],
               f"lattice basis {rep.basis} inconclusive {rep.inconclusive}, "
               f"expected {want} and none inconclusive")

    return Case(f"nested-tower-k{k_max}", build,
                lambda h, clock: clock.verdict(relation_lattice, h, k_max),
                check)


def _model_two_gauge():
    """The eigenvector gauge [[1, 1], [1/w, -1/w]] on model two."""

    def build():
        gf = GroundField(params=("alpha",))
        s, a = gf.s, gf.gen("alpha")
        T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
        w = T.gen("w")
        half_drift = gf.from_rational(Fraction(1, 2)) * s / (1 + s**2)
        lin = [[T.from_ground(half_drift), T.from_ground(a)],
               [T.from_ground(a / (1 + s**2)), T.from_ground(-half_drift)]]
        unit = {(0, 0): T.one}
        R = ReducedSystem(T, 2, 4, lin, {}, unit)
        return R, [[T.one, T.one], [T.one / w, -(T.one / w)]]

    def decide(inputs, clock):
        R, P = inputs
        out = clock.verdict(apply_gauge, R, P, assert_diagonal=True)
        return out, clock.verdict(fuchsian_scan, out)

    def check(result):
        _, places = result
        ram = [p for p in places if p.location is not INF
               and not isinstance(p.location, str) and p.m == 2]
        quarter = (Exponent(Fraction(1, 4)), Exponent(Fraction(1, 4)))
        expect(len(ram) == 1 and ram[0].exponents == quarter,
               f"ramified places {ram}, expected one with exponents "
               "(1/4, 1/4)")

    return Case("model-two-gauge", build, decide, check)


def _golden_angle(nu_max):
    def check(rep):
        expect(rep.verdict == "diophantine-up-to-nu_max"
               and rep.nu_reached == nu_max,
               f"Diophantine verdict {rep.verdict} at nu={rep.nu_reached}, "
               f"expected diophantine-up-to-nu_max at {nu_max}")

    return Case(f"golden-angle-nu{nu_max}", lambda: [0.6180339887498949],
                lambda angles, clock: clock.verdict(
                    diophantine_eval, angles=angles, nu_max=nu_max),
                check)


def lattice_towers(seed, small=False):
    return [
        _nested_lattice(1 if small else 2),
        _model_two_gauge(),
        _golden_angle(10 if small else 18),
    ]


def cases(workload, seed, small=False):
    """The cases of one workload; ``small`` gives each its smallest size."""
    builders = {"flow-deep": flow_deep, "certify-suite": certify_suite,
                "lattice-towers": lattice_towers}
    return builders[workload](seed, small)
