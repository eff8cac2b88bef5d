"""Flow-box normal forms around the invariant curve.

The reduced, time-normalized system  dq_j/ds = h_j q_j + ...  is conjugated,
order by order, to its linear part: we solve for series phi_j(s, u) in the
flow-box coordinates u_j = c_j H_j(s) (with H_j'/H_j = h_j) so that
q = phi(s, u) sweeps out solutions, together with the time series phi_t.
Every coefficient solves a scalar equation  y' + delta*y = g  over the
radical tower.  A non-resonant cell has at most one rational solution; a
resonant cell is pinned down by vanishing at a regular base point; cells of
the time series whose primitive is genuinely logarithmic are carried
symbolically.  Failure in a transverse component is not an exception but a
result: the Obstruction records exactly which cell refused and why.
"""

from fractions import Fraction

from ..algebra.linalg import mat_inv
from ..algebra.linode import fe_integrate_rational, rational_ode_solve
from ..algebra.places import evaluate_at, fiber_tower, scalarize_constant
from ..check import check_flow, straightening_defect
from ..errors import (
    BasePointSingular,
    DegreeBoundExceeded,
    GaugeRequired,
    InputError,
    IntegrationIncomplete,
    NotExpandable,
    NoTowerSolution,
    NotTimeReduced,
    OrderExceedsTable,
    SingularGauge,
    TangentiallySingular,
    TowerError,
    VerificationFailed,
    ZeroDivisor,
)
from ..galois.resonance import combination, unit_solution
from ..reduction import ReducedSystem, fuchsian_scan, time_reduce
from ..series import (
    HyperexpBasis,
    Powers,
    RatioSeries,
    TruncSeries,
    linear_subst,
    q_series,
    ts_invert_map,
)

#: classification labels used by :class:`Obstruction`
LOG_IN_NORMAL_PART = "log-in-normal-part"
INCONCLUSIVE_BOUNDS = "inconclusive-bounds"


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class LogSymbol:
    """A formal primitive L and its cell coeff * u^index * H^index * L of
    the time series.

    ``deriv`` is the exact derivative L' (a tower element); ``argument`` is
    the log argument when L = log(argument), None for an opaque primitive;
    ``index`` is the variable multi-index of the cell and ``coeff`` its
    tower-element coefficient.
    """

    __slots__ = ("name", "deriv", "index", "coeff", "argument")

    def __init__(self, name, deriv, index, coeff, argument=None):
        self.name = name
        self.deriv = deriv
        self.index = tuple(index)
        self.coeff = coeff
        self.argument = argument

    def __repr__(self):
        arg = "" if self.argument is None else f" = log({self.argument})"
        return f"<LogSymbol {self.name}{arg}>"


class FormalFlow:
    """Normal-form flow data.

    ``components`` are the transverse series phi_j in the u-alphabet,
    ``time`` the plain cells of the series phi_t (None on a partial flow
    recovered from an Obstruction), ``s0`` the base point used to pin
    resonant coefficients, ``resonant`` the (component, index) pairs that
    needed pinning, ``logs`` the LogSymbol records in creation order, each
    carrying one cell of phi_t whose primitive is logarithmic.  The inverse
    map of :func:`invert_flow` is kept once computed.
    """

    __slots__ = ("basis", "components", "time", "s0", "N", "system",
                 "resonant", "logs", "_inverse")

    def __init__(self, basis, components, time, s0, N, system,
                 resonant=(), logs=()):
        self.basis = basis
        self.components = tuple(components)
        self.time = time
        self.s0 = s0
        self.N = int(N)
        self.system = system
        self.resonant = tuple(resonant)
        self.logs = tuple(logs)
        self._inverse = None

    @property
    def nq(self):
        return len(self.components)

    def __repr__(self):
        time = "with time series" if self.time is not None else "no time series"
        logs = f", {len(self.logs)} log symbols" if self.logs else ""
        return (f"FormalFlow(nq={self.nq}, N={self.N}, s0={self.s0}, "
                f"{time}{logs})")


class Obstruction:
    """Order-k refusal: one cell of the normal form has no rational
    coefficient.

    ``component`` is 1-based; the value nq+1 refers to the time series.
    ``classification`` separates the proven case from exhausted heuristic
    bounds.  ``partial`` carries the flow completed so far — the lower-order
    normal form stays valid and usable.
    """

    __slots__ = ("order", "component", "index", "delta", "rhs",
                 "classification", "partial")

    def __init__(self, order, component, index, delta, rhs,
                 classification, partial=None):
        self.order = int(order)
        self.component = int(component)
        self.index = tuple(index)
        self.delta = delta
        self.rhs = rhs
        self.classification = classification
        self.partial = partial

    @property
    def net_exponent(self):
        """H-monomial exponent of the offending cell relative to H_j."""
        e = list(self.index)
        j = self.component - 1
        if j < len(e):
            e[j] -= 1
        return tuple(e)

    def replay(self):
        """Re-run the failing solve; raises the error class seen during
        construction (the ``(y, kernel, sound)`` of a solve that succeeds
        is discarded)."""
        rational_ode_solve(self.delta, self.rhs)

    def __repr__(self):
        return (f"Obstruction(order={self.order}, component={self.component}, "
                f"index={self.index}, {self.classification})")


class Linearization:
    """A tangent-to-identity map conjugating the system to its linear part.

    ``map`` holds the component series in the chart the system was reduced
    in (the accumulated gauge has been undone); ``invariant`` is True when
    the coefficients were checked fixed under every declared Galois
    generator, None when the check did not apply (no generators, or the
    system itself is not defined over the base).
    """

    __slots__ = ("map", "flow", "order", "gauge", "invariant")

    def __init__(self, map_, flow, order, gauge, invariant=None):
        self.map = tuple(map_)
        self.flow = flow
        self.order = int(order)
        self.gauge = gauge
        self.invariant = invariant

    def __repr__(self):
        return (f"Linearization(nq={len(self.map)}, order={self.order}, "
                f"invariant={self.invariant})")


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _needed_values(R):
    vals = list(R.lambdas)
    vals.extend(R.table.values())
    if R.t:
        vals.extend(R.t.values())
    return vals


def _regular_at(tower, vals, s0):
    """Whether s0 is regular on every sheet and no value has a pole there;
    a radicand whose value is a zero divisor marks a branch point."""
    try:
        fiber_tower(tower, s0)
        for v in vals:
            evaluate_at(v, s0)
    except (ZeroDivisionError, NotExpandable):
        return False
    return True


_BASE_CAP = 64


def _default_base_point(R):
    """Smallest nonnegative rational (halves included) where the system data
    evaluates; None when nothing below the cap works."""
    vals = _needed_values(R)
    for twice in range(2 * _BASE_CAP + 1):
        s0 = Fraction(twice, 2)
        if _regular_at(R.tower, vals, s0):
            return s0
    return None


def _pin(a, hom, s0):
    """Subtract the kernel multiple that makes ``a`` vanish at the base
    point.  The normalization constant has to be a parameter scalar — a
    genuinely algebraic value cannot be lifted back to a constant of the
    tower."""
    if a.is_zero():
        return a
    if s0 is None:
        raise BasePointSingular(
            "a resonant coefficient needs a regular base point for its "
            "normalization and no default was found; pass s0 explicitly"
        )
    tower = a.tower
    try:
        va = evaluate_at(a, s0)
    except ZeroDivisionError as exc:
        raise BasePointSingular(
            f"particular solution has a pole at the base point s = {s0}"
        ) from exc
    for w in hom:
        try:
            vw = evaluate_at(w, s0)
            vwi = vw.tower.invert(vw)
        except (ZeroDivisionError, ZeroDivisor):
            continue
        c = scalarize_constant(va * vwi)
        if c is None:
            raise TowerError(
                "resonant normalization constant lies outside the "
                "parameter field"
            )
        if not c:
            return a
        left = scalarize_constant(va - vw * vw.tower.from_ground(c))
        if left is None or left:
            raise VerificationFailed(
                "pinned coefficient does not vanish at the base point"
            )
        return a - w * tower.from_ground(c)
    raise BasePointSingular(
        f"no kernel witness is invertible at the base point s = {s0}"
    )


def _soft_pin(a, s0):
    """Best-effort version of :func:`_pin` used for integration constants:
    when the value at the base point is not a parameter scalar the constant
    is simply left as produced."""
    if s0 is None or a.is_zero():
        return a
    try:
        c = scalarize_constant(evaluate_at(a, s0))
    except ZeroDivisionError:
        return a
    if c is None or not c:
        return a
    return a - a.tower.from_ground(c)


def _solve_cell(delta, g, s0, conditions):
    """One normal-form cell:  y' + delta*y = g,  resonant ones pinned."""
    y, hom, _ = rational_ode_solve(delta, g, conditions=conditions)
    if hom:
        y = _pin(y, hom, s0)
    return y, bool(hom)


# ---------------------------------------------------------------------------
# the flow construction
# ---------------------------------------------------------------------------

def formal_flow(R, N=None, s0=None, *, conditions=None):
    """Normal-form flow of a diagonal, time-reduced system.

    Returns a :class:`FormalFlow`, or an :class:`Obstruction` describing
    the first transverse cell with no rational coefficient (a mathematical
    conclusion about the system, not a failure of the computation).  The
    flow, or the Obstruction's partial flow (its components only), passes
    :func:`~galint.check.check_flow` first, which evaluates the defining
    equations at two random points mod p; VerificationFailed otherwise.
    """
    if not isinstance(R, ReducedSystem):
        raise InputError("formal_flow expects a ReducedSystem")
    if not R.time_reduced or R.t is None:
        raise NotTimeReduced("normalize time first (time_reduce)")
    if not R.is_diagonal():
        raise GaugeRequired("the linear part must be diagonalized first")
    N = R.order if N is None else int(N)
    if N < 1:
        raise InputError("flow order must be at least 1")
    if N > R.order:
        raise OrderExceedsTable(
            f"flow order {N} exceeds the reduction order {R.order}"
        )
    fuchsian_scan(R)  # irregular diagonals are rejected up front

    tower = R.tower
    nq = R.nq
    hs = R.lambdas
    if s0 is None:
        s0 = _default_base_point(R)
    else:
        s0 = Fraction(s0)
        if s0 < 0:
            raise InputError("the base point must be nonnegative")
        if not _regular_at(tower, _needed_values(R), s0):
            raise BasePointSingular(f"s = {s0} is not a regular base point")

    basis = HyperexpBasis(hs)
    one = tower.one
    phi = [TruncSeries.variable(basis, "u", N, j, one) for j in range(nq)]
    rhs = R.rhs_series(basis, N)

    def partial(upto):
        """The components through order ``upto``, checked: an Obstruction
        rests on a checked partial flow."""
        comps = tuple(p.truncate(upto) for p in phi)
        flow = FormalFlow(basis, comps, None, s0, upto, R, tuple(resonant))
        check_flow(flow)
        return flow

    resonant = []
    # One Powers object keeps the monomials of phi degree by degree for
    # the whole loop: their order-k cells read phi only below order k,
    # which no later order changes.  The order-k defect is the order-k
    # part of rhs∘phi; phi[j] has no order-k cell yet, so -phi[j]' adds
    # none there, and the linear part reads phi's cells afresh.
    powers = Powers(phi)
    for order in range(2, N + 1):
        for j in range(nq):
            defect = powers.cells_at(rhs[j], order)
            for index, g in defect.cells():
                delta = combination(tower, index, hs) - hs[j]
                try:
                    y, res = _solve_cell(delta, g, s0, conditions)
                except NoTowerSolution:
                    return Obstruction(order, j + 1, index, delta, g,
                                       LOG_IN_NORMAL_PART, partial(order - 1))
                except DegreeBoundExceeded:
                    return Obstruction(order, j + 1, index, delta, g,
                                       INCONCLUSIVE_BOUNDS, partial(order - 1))
                phi[j] = phi[j] + TruncSeries(basis, "u", N, {index: y})
                if res:
                    resonant.append((j + 1, index))

    # ---- the time series --------------------------------------------------
    image = powers.compose(q_series(basis, N, R.t), N)
    plain = {}
    symbols = []
    for index, g in image.cells():
        delta = combination(tower, index, hs)
        try:
            y, res = _solve_cell(delta, g, s0, conditions)
        except (NoTowerSolution, DegreeBoundExceeded):
            psi, sound = unit_solution(delta, conditions=conditions)
            if psi is None:
                cls = LOG_IN_NORMAL_PART if sound else INCONCLUSIVE_BOUNDS
                return Obstruction(sum(index), nq + 1, index, delta, g,
                                   cls, partial(N))
            # The primitive of g*H^index is psi times a rational integral;
            # its logarithmic part rides along symbolically.
            gi = g * tower.invert(psi)
            split = None
            try:
                split = fe_integrate_rational(gi, conditions=conditions)
            except IntegrationIncomplete:
                pass
            if split is None:
                symbols.append(
                    LogSymbol(f"L{len(symbols) + 1}", gi, index, psi))
            else:
                r, glogs = split
                r = _soft_pin(r, s0)
                if not r.is_zero():
                    plain[tuple(index)] = psi * r
                for c, arg in glogs:
                    deriv = arg.derive() * tower.invert(arg)
                    symbols.append(LogSymbol(
                        f"L{len(symbols) + 1}", deriv, index,
                        psi * tower.from_ground(c), arg))
        else:
            if res:
                resonant.append((nq + 1, tuple(index)))
            if not y.is_zero():
                plain[tuple(index)] = y

    flow = FormalFlow(basis, phi, TruncSeries(basis, "u", N, plain), s0, N,
                      R, tuple(resonant), tuple(symbols))
    check_flow(flow)
    return flow


def invert_flow(flow):
    """The inverse map: series Phi_j(s, q) recovering u_j = c_j H_j.

    Computed once per flow: the integrals and the frame of one certificate
    both read it.
    """
    if not isinstance(flow, FormalFlow):
        raise InputError("invert_flow expects a FormalFlow")
    if flow._inverse is None:
        flow._inverse = tuple(ts_invert_map(list(flow.components)))
    return flow._inverse


# ---------------------------------------------------------------------------
# chart transport along the accumulated gauge
# ---------------------------------------------------------------------------

def _gauge_inverse(R):
    inv, _bad = mat_inv([list(r) for r in R.gauge],
                        R.tower.zero, R.tower.one)
    if inv is None:
        raise SingularGauge("the accumulated gauge is singular")
    return inv


def original_field(R, components, s_component):
    """Pushforward of a reduced-chart vector field by the gauge.

    ``components`` and ``s_component`` are ratio columns (a series is a
    ratio over 1).  With q_orig = P(s) q_red the original components pick
    up a P'(s) q_red drift from the s-motion besides the linear mix;
    everything is rewritten in the original chart afterwards.  Returns the
    full column list: transverse components, then s.  The one gauge
    pushforward: :func:`_system_fixed` and ``galois_descent`` use it.
    """
    tower = R.tower
    P = R.gauge
    base = components[0].num
    basis, N = base.basis, base.N
    if base.alphabet != "q":
        raise InputError("chart transport applies to q-alphabet series")
    subst = linear_subst(basis, _gauge_inverse(R), N)
    one = TruncSeries.constant(basis, "q", N, tower.one)
    qvars = [RatioSeries(TruncSeries.variable(basis, "q", N, l, tower.one), one)
             for l in range(R.nq)]
    out = []
    for row in P:
        acc = RatioSeries(TruncSeries.zero(basis, "q", N), one)
        for l, p in enumerate(row):
            if p:
                acc = acc + components[l].scale(p)
            dp = p.derive()
            if not dp.is_zero():
                acc = acc + (qvars[l] * s_component).scale(dp)
        out.append(acc.compose(subst))
    out.append(s_component.compose(subst))
    return out


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def _unit_time(R):
    """dt = ds for systems whose tangential part vanishes on the curve."""
    zero_i = (0,) * R.nq
    return ReducedSystem(
        R.tower, R.nq, R.order, R.lin, dict(R.table), dict(R.xn),
        t={zero_i: R.tower.one}, time_reduced=True, gauge=R.gauge,
        curve_places=R.curve_places, gauge_places=R.gauge_places,
    )


def _fixed(series, names):
    """Whether every cell of every series is fixed by every named Galois
    generator."""
    return all((c.galois(name) - c).is_zero()
               for a in series for c in a.table.values() for name in names)


def _system_fixed(R, basis, names):
    """Whether the original-chart right sides are fixed by every declared
    Galois generator (i.e. the input system is defined over the base).

    The right sides go through :func:`original_field` as ratios over 1 and
    come back over 1, so the cell-wise test on their numerators decides.
    """
    one = TruncSeries.constant(basis, "q", R.order, R.tower.one)
    qdot = [RatioSeries(x, one) for x in R.rhs_series(basis, R.order)]
    cols = original_field(R, qdot, RatioSeries(one, one))
    return _fixed([x.num for x in cols], names)


def linearize(R, N=None, s0=None, *, conditions=None):
    """Tangent-to-identity map conjugating the system to its linear part.

    Works in the reduced chart, then undoes the accumulated gauge so the
    returned map applies in the chart the system was reduced in.  Time is
    normalized on the way when the input still carries flow time; a system
    whose tangential component vanishes on the curve keeps its own parameter
    (dt = ds).  Propagates the flow's Obstruction when there is one.
    """
    if not isinstance(R, ReducedSystem):
        raise InputError("linearize expects a ReducedSystem")
    if not R.time_reduced:
        try:
            R = time_reduce(R)
        except TangentiallySingular:
            R = _unit_time(R)
    if not R.is_diagonal():
        raise GaugeRequired("diagonalize the linear part first (apply_gauge)")
    flow = formal_flow(R, N, s0, conditions=conditions)
    if isinstance(flow, Obstruction):
        return flow
    Phi = invert_flow(flow)

    tower = R.tower
    nq = R.nq
    basis = flow.basis
    M = flow.N

    # in the reduced chart the inverse map straightens the field exactly
    for j in range(nq):
        if straightening_defect(R, Phi[j], j, M) is not None:
            raise VerificationFailed(
                f"inverse map does not straighten component {j + 1}"
            )

    P = R.gauge
    subst = linear_subst(basis, _gauge_inverse(R), M)
    moved = [p.compose(subst) for p in Phi]
    comps = []
    for i in range(nq):
        acc = TruncSeries.zero(basis, "q", M)
        for l in range(nq):
            if P[i][l]:
                acc = acc + moved[l].scale(P[i][l])
        comps.append(acc)

    invariant = None
    names = tower.galois_names()
    if names and _system_fixed(R, basis, names):
        if not _fixed(comps, names):
            raise VerificationFailed("linearizing map is not Galois-invariant")
        invariant = True
    return Linearization(tuple(comps), flow, M, R.gauge, invariant)
