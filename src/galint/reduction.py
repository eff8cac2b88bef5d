"""Reduction of a vector field to a tubular neighborhood of an invariant curve.

Start from a polynomial/rational field X on (x_1, ..., x_{n-1}, s) together
with a parametrized algebraic curve x = gamma(s) that X is tangent to.  The
operations here rewrite the dynamics in transverse coordinates q = x - gamma,
normalize time so that s itself becomes the independent variable, apply
user-supplied gauge transformations to diagonalize the linear part, extract
variational systems of any jet order, and finally locate and classify the
singular places of the reduced diagonal data.

A rational function of the coordinates is a
:class:`~galint.series.RatioSeries` of q-series (no cell carries H-content
at this stage); :class:`CoordRat` builds one from tables.  All
series work here runs on :class:`~galint.series.TruncSeries` over that
neutral basis: expanding a :class:`CoordRat` around the curve (whose
degree-0 cell is also its value there), inverting the tangential speed, and
substituting a gauge.  A :class:`ReducedSystem` stores its results as plain
tables ``{exponent tuple: FieldElem}``; :func:`~galint.series.q_series` and
:func:`~galint.series.q_table` convert between the two.

Conventions:

* q-indices are 0-based throughout the code; rendered names are 1-based.
* ``lin[j][l]`` multiplies q_l in the equation for q_j'.
* the nonlinear table maps ``(j, i)`` with ``2 <= |i| <= order`` to the
  coefficient of q^i in the equation for q_j'.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionByZero,
    GaugeRequired,
    InputError,
    NonFuchsian,
    NotDiagonalAfterGauge,
    NotTangent,
    NotTimeReduced,
    OrderExceedsTable,
    SingularGauge,
    TangentiallySingular,
    VerificationFailed,
)
from .algebra import linalg
from .algebra.tower import FieldElem, deepest_tower
from .algebra.places import (
    INF,
    Exponent,
    SingularPlace,
    place_context,
    pole_places,
    residue_exponent,
)
from .series import (HyperexpBasis, RatioSeries, TruncSeries, linear_subst,
                     q_series, q_table)

__all__ = [
    "CoordRat",
    "VectorFieldSpec",
    "ReducedSystem",
    "VESystem",
    "reduce_to_curve",
    "time_reduce",
    "apply_gauge",
    "build_VE",
    "build_NVE",
    "fuchsian_scan",
]


# --------------------------------------------------------------------------
# series over a neutral basis


# Rational functions in the coordinates are never truncated.
_EXACT = 10**9


def _neutral_basis(tower, nq):
    """A symbol basis for plain q-series: no cell carries H-content, so its
    hs are only the tower's zeros, which name the tower."""
    return HyperexpBasis((tower.zero,) * nq)


def _split_table(ser, nq):
    """(constant, linear row, higher table) of one component's series."""
    const = None
    row = [None] * nq
    high = {}
    for e, c in q_table(ser).items():
        d = sum(e)
        if d == 0:
            const = c
        elif d == 1:
            row[e.index(1)] = c
        else:
            high[e] = c
    return const, row, high


# --------------------------------------------------------------------------
# rational functions in coordinates


def _poly_shift(ser, center, N):
    """The polynomial q-series p(center + q) truncated to total degree N."""
    basis = ser.basis
    one = basis.hs[0].tower.one
    unit = TruncSeries.constant(basis, "q", N, one)
    # powers of (center_l + q_l), extended on demand
    pows = [[unit, unit.scale(c) + TruncSeries.variable(basis, "q", N, l, one)]
            for l, c in enumerate(center)]
    out = TruncSeries.zero(basis, "q", N)
    for e, c in q_table(ser).items():
        term = unit.scale(c)
        for l, k in enumerate(e):
            if k:
                while len(pows[l]) <= k:
                    pows[l].append(pows[l][-1] * pows[l][1])
                term = term * pows[l][k]
        out = out + term
    return out


class CoordRat(RatioSeries):
    """A rational function in the coordinates x_1..x_{n-1} and s, from tables.

    ``num`` and ``den`` are polynomial tables ``{exponent: coeff}`` with
    coefficients in a radical tower, which carries the s-dependence; they
    become untruncated neutral q-series, so a CoordRat is a
    :class:`~galint.series.RatioSeries` and computes as one: ``+ - * /``
    (constants on either side) return plain quotients, which
    :class:`VectorFieldSpec` takes as they are.  :meth:`expand_around` is
    the one evaluation; its degree-0 cell is the value on the curve.
    """

    __slots__ = ()

    def __init__(self, tower, nq, num, den=None):
        basis = _neutral_basis(tower, nq)
        if den is None:
            den = {(0,) * nq: tower.one}
        den = q_series(basis, _EXACT, den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in coordinate expression")
        super().__init__(q_series(basis, _EXACT, num), den)

    @classmethod
    def constant(cls, tower, nq, c):
        c = tower.coerce(c)
        return cls(tower, nq, {(0,) * nq: c})

    @classmethod
    def coordinate(cls, tower, nq, j):
        if not 0 <= j < nq:
            raise InputError(f"coordinate index {j} out of range")
        e = [0] * nq
        e[j] = 1
        return cls(tower, nq, {tuple(e): tower.one})

    def expand_around(self, center, N):
        """Neutral q-series of self(center + q, s) through total degree N."""
        tower = self.num.basis.hs[0].tower
        center = [tower.coerce(p) for p in center]
        num = _poly_shift(self.num, center, N)
        den = _poly_shift(self.den, center, N)
        if den.coeff((0,) * len(center)) is None:
            raise DivisionByZero("denominator vanishes along the curve")
        return num * den.inverse()


# --------------------------------------------------------------------------
# vector fields tangent to a parametrized curve


class VectorFieldSpec:
    """A rational vector field together with an invariant parametrized curve.

    ``components`` are the n right-hand sides: the first n-1 drive the
    transverse coordinates x_1..x_{n-1}, the last one drives s (the curve
    parameter doubles as the last phase-space coordinate).  Each is a
    q-alphabet :class:`~galint.series.RatioSeries` of plain q-series (a
    :class:`CoordRat` or the quotient its arithmetic returns) or a constant,
    and is kept as a :class:`CoordRat` in the deepest tower of the data.
    ``curve`` holds gamma_1..gamma_{n-1} as tower elements.  Invariance is
    not assumed — the exact tangency identities

        X_i(gamma(s), s) - gamma_i'(s) * X_n(gamma(s), s) = 0

    are verified on construction, on the degree-0 cells of
    :meth:`CoordRat.expand_around`, and a failure reports the first
    offending component together with its residual.
    """

    __slots__ = ("tower", "n", "nq", "components", "curve", "curve_deriv")

    def __init__(self, components, curve, tower=None):
        components = list(components)
        curve = list(curve)
        n = len(components)
        if n < 2:
            raise InputError("need at least two components (one transverse, one tangential)")
        if len(curve) != n - 1:
            raise InputError(f"curve must have {n - 1} components, got {len(curve)}")
        quots = [c for c in components if isinstance(c, RatioSeries)]
        if any(c.num.basis.n != n - 1 for c in quots):
            raise InputError("component has wrong coordinate count")
        cand = [c.num.basis.hs[0].tower for c in quots]
        cand += [g.tower for g in curve if isinstance(g, FieldElem)]
        if tower is not None:
            cand.append(tower)
        if not cand:
            raise InputError("no tower declared anywhere in the field data")
        self.tower = T = deepest_tower(cand)
        self.n = n
        self.nq = n - 1
        comps = []
        for c in components:
            if not isinstance(c, RatioSeries):
                comps.append(CoordRat.constant(T, self.nq, c))
                continue
            try:
                num, den = q_table(c.num), q_table(c.den)
            except ValueError as exc:
                raise InputError(
                    f"component is not a q-series quotient: {exc}") from exc
            comps.append(CoordRat(T, self.nq,
                                  {e: T.coerce(v) for e, v in num.items()},
                                  {e: T.coerce(v) for e, v in den.items()}))
        self.components = tuple(comps)
        self.curve = tuple(T.coerce(g) for g in curve)
        self.curve_deriv = tuple(g.derive() for g in self.curve)
        # the degree-0 cell of the expansion is the value on the curve
        zero = (0,) * self.nq
        on_curve = [c.expand_around(self.curve, 0).coeff(zero) or T.zero
                    for c in self.components]
        for i in range(self.nq):
            residual = on_curve[i] - self.curve_deriv[i] * on_curve[self.nq]
            if not residual.is_zero():
                raise NotTangent(
                    f"curve is not invariant: component {i + 1} has residual {residual}",
                    component=i + 1,
                    residual=residual,
                )

    def __repr__(self):
        return f"VectorFieldSpec(n={self.n}, tower={self.tower!r})"


# --------------------------------------------------------------------------
# the reduced system


class ReducedSystem:
    """Dynamics in transverse coordinates q around the curve.

    ``lin`` is the (n-1) x (n-1) linear part, ``table`` the nonlinear
    coefficients ``{(j, i): c}`` for 2 <= |i| <= order, ``xn`` the full series
    of the tangential component, and ``t`` the series of dt/ds once time has
    been normalized (None before that).  ``gauge`` accumulates the coordinate
    changes applied so far (original q = gauge * current q).  The two place
    sets remember where the curve data and the gauges were singular, so the
    Fuchsian scan can tag the provenance of each singular place it finds.
    """

    __slots__ = ("tower", "nq", "order", "lin", "table", "xn", "t",
                 "time_reduced", "gauge", "curve_places", "gauge_places")

    def __init__(self, tower, nq, order, lin, table, xn, t=None, *,
                 time_reduced=False, gauge=None, curve_places=frozenset(),
                 gauge_places=frozenset()):
        self.tower = tower
        self.nq = nq
        self.order = order
        if len(lin) != nq or any(len(row) != nq for row in lin):
            raise InputError("linear part must be square of size n-1")
        self.lin = tuple(tuple(tower.coerce(c) for c in row) for row in lin)
        tab = {}
        for (j, i), c in table.items():
            i = tuple(i)
            if not 0 <= j < nq or len(i) != nq:
                raise InputError(f"bad table key ({j}, {i})")
            if not 2 <= sum(i) <= order:
                raise InputError(f"table degree {sum(i)} outside 2..{order}")
            c = tower.coerce(c)
            if c:
                tab[(j, i)] = c
        self.table = tab
        self.xn = {tuple(e): tower.coerce(c) for e, c in xn.items() if c}
        self.t = None if t is None else {
            tuple(e): tower.coerce(c) for e, c in t.items() if c
        }
        self.time_reduced = bool(time_reduced)
        if gauge is None:
            gauge = [[tower.one if i == j else tower.zero for j in range(nq)]
                     for i in range(nq)]
        self.gauge = tuple(tuple(tower.coerce(c) for c in row) for row in gauge)
        self.curve_places = frozenset(curve_places)
        self.gauge_places = frozenset(gauge_places)

    # -- views ----------------------------------------------------------------

    @property
    def lambdas(self):
        """Diagonal entries of the linear part (the h_j once diagonal)."""
        return tuple(self.lin[j][j] for j in range(self.nq))

    def is_diagonal(self):
        return all(
            self.lin[i][j].is_zero()
            for i in range(self.nq) for j in range(self.nq) if i != j
        )

    def qdot_series(self, j):
        """Full series table of dq_j/ds (linear and higher terms)."""
        out = {}
        for l in range(self.nq):
            c = self.lin[j][l]
            if c:
                e = [0] * self.nq
                e[l] = 1
                out[tuple(e)] = c
        for (jj, i), c in self.table.items():
            if jj == j:
                out[i] = c
        return out

    def rhs_series(self, basis, N):
        """The right sides dq_j/ds as neutral q-series over ``basis``."""
        return [q_series(basis, N, self.qdot_series(j))
                for j in range(self.nq)]

    def __repr__(self):
        flag = ", time-reduced" if self.time_reduced else ""
        return (f"ReducedSystem(nq={self.nq}, order={self.order}, "
                f"{len(self.table)} nonlinear terms{flag})")


def reduce_to_curve(spec, order=4):
    """Rewrite the field in transverse coordinates q = x - gamma.

    The q-equations read dq_j/ds-style only after time reduction; here the
    independent variable is still the flow time, so the output carries the
    tangential series ds/dt = X_n(gamma + q, s) alongside the q-table.
    """
    if order < 1:
        raise InputError("expansion order must be at least 1")
    T = spec.tower
    nq = spec.nq
    comp_series = [c.expand_around(spec.curve, order) for c in spec.components]
    xn = comp_series[nq]
    lin = []
    table = {}
    for j in range(nq):
        ser = comp_series[j] - xn.scale(spec.curve_deriv[j])
        const, row, high = _split_table(ser, nq)
        if const is not None and const:
            raise VerificationFailed(
                "tangency residual reappeared in the series expansion"
            )
        lin.append([c if c is not None else T.zero for c in row])
        for e, c in high.items():
            table[(j, e)] = c
    curve_places = set(pole_places(spec.curve + spec.curve_deriv))
    inf = place_context(T, INF)
    if any(inf.valuation_below(g, -1) is not None for g in spec.curve_deriv):
        curve_places.add(("inf",))
    return ReducedSystem(T, nq, order, lin, table, q_table(xn),
                         curve_places=curve_places)


def time_reduce(R):
    """Divide the transverse equations by the tangential speed.

    Afterwards s is the independent variable: the s-equation becomes the
    constant 1 and the residual time dependence survives as the retained
    equation dt/ds = 1 / X_n(s, q).  Requires X_n(s, 0) != 0; a curve of
    equilibria has no tangential speed to normalize by and must go through
    the linearization pipeline instead.
    """
    if R.time_reduced:
        return R
    T = R.tower
    nq = R.nq
    z = (0,) * nq
    c0 = R.xn.get(z)
    if c0 is None or c0.is_zero():
        raise TangentiallySingular(
            "tangential component vanishes on the curve (equilibrium curve)"
        )
    basis = _neutral_basis(T, nq)
    inv = q_series(basis, R.order, R.xn).inverse()
    lin = []
    table = {}
    for j, ser in enumerate(R.rhs_series(basis, R.order)):
        ser = ser * inv
        const, row, high = _split_table(ser, nq)
        if const is not None and const:
            raise VerificationFailed("time reduction created a constant term")
        lin.append([c if c is not None else T.zero for c in row])
        for e, c in high.items():
            table[(j, e)] = c
    return ReducedSystem(T, nq, R.order, lin, table, {z: T.one}, q_table(inv),
                         time_reduced=True, gauge=R.gauge,
                         curve_places=R.curve_places,
                         gauge_places=R.gauge_places)


def apply_gauge(R, P, *, assert_diagonal=False):
    """Apply the coordinate change q = P q~ to a reduced system.

    The linear part transforms as P^{-1} lin P - P^{-1} P', the nonlinear
    vector as P^{-1} F(P q~), and the tangential/t series by plain
    substitution.  P must be invertible over the tower; pass
    ``assert_diagonal=True`` to have the result checked for a strictly
    diagonal linear part.
    """
    nq = R.nq
    towers = [R.tower] + [c.tower for row in P for c in row
                          if isinstance(c, FieldElem)]
    T = deepest_tower(towers)
    P = [[T.coerce(c) for c in row] for row in P]
    if len(P) != nq or any(len(row) != nq for row in P):
        raise InputError("gauge matrix has wrong shape")
    Pinv, ker = linalg.mat_inv(P, T.zero, T.one)
    if Pinv is None:
        raise SingularGauge(f"gauge matrix is singular; kernel witness {ker}")
    Pd = [[c.derive() for c in row] for row in P]

    lin = [[T.coerce(c) for c in row] for row in R.lin]
    AP = linalg.mat_mul(lin, P, T.zero)
    M = [[AP[i][j] - Pd[i][j] for j in range(nq)] for i in range(nq)]
    lin_new = linalg.mat_mul(Pinv, M, T.zero)

    basis = _neutral_basis(T, nq)
    subst = linear_subst(basis, P, R.order)

    def substituted(tab):
        lifted = {e: T.coerce(c) for e, c in tab.items()}
        return q_series(basis, R.order, lifted).compose(subst)

    high = [{} for _ in range(nq)]
    for (j, i), c in R.table.items():
        high[j][i] = c
    moved = [substituted(h) for h in high]
    table = {}
    for j in range(nq):
        acc = TruncSeries.zero(basis, "q", R.order)
        for l in range(nq):
            if Pinv[j][l]:
                acc = acc + moved[l].scale(Pinv[j][l])
        for e, c in q_table(acc).items():
            if sum(e) < 2:
                raise VerificationFailed("gauge leaked low-order terms")
            table[(j, e)] = c
    xn = q_table(substituted(R.xn))
    t = None if R.t is None else q_table(substituted(R.t))

    gauge_places = set(R.gauge_places)
    gauge_places.update(
        pole_places(c for row in (*P, *Pinv, *Pd) for c in row))
    gauge_new = linalg.mat_mul([[T.coerce(c) for c in row] for row in R.gauge],
                               P, T.zero)
    out = ReducedSystem(T, nq, R.order, lin_new, table, xn, t,
                        time_reduced=R.time_reduced, gauge=gauge_new,
                        curve_places=R.curve_places, gauge_places=gauge_places)
    if assert_diagonal and not out.is_diagonal():
        raise NotDiagonalAfterGauge(
            "gauge did not diagonalize the linear part"
        )
    return out


# --------------------------------------------------------------------------
# variational systems


class VESystem:
    """A variational system of some jet order k.

    ``variables`` are jet multi-indices: length n-1 tuples (transverse only)
    or length n with a trailing slot counting powers of the time deviation.
    The matrix acts as d/ds Z = M Z with variables sorted by total degree,
    which makes M block upper-triangular.
    """

    __slots__ = ("tower", "order", "variables", "matrix", "has_t", "_index")

    def __init__(self, tower, order, variables, matrix, has_t):
        self.tower = tower
        self.order = order
        self.variables = tuple(tuple(v) for v in variables)
        self.matrix = tuple(tuple(row) for row in matrix)
        self.has_t = has_t
        self._index = {v: k for k, v in enumerate(self.variables)}

    def index(self, v):
        return self._index[tuple(v)]

    def __repr__(self):
        kind = "VE" if self.has_t else "NVE"
        return f"{kind}(order={self.order}, size={len(self.variables)})"


def _jet_variables(slots, k):
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            if sum(prefix):
                out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            rec(prefix + [v], remaining - 1, budget - v)

    rec([], slots, k)
    out.sort(key=lambda v: (sum(v), v))
    return out


def _build_variational(R, k, with_t):
    if not R.time_reduced:
        raise NotTimeReduced(
            "variational systems are built after time reduction"
        )
    if k < 1:
        raise InputError("jet order must be at least 1")
    if k > R.order:
        raise OrderExceedsTable(
            f"jet order {k} exceeds the stored table order {R.order}"
        )
    T = R.tower
    nq = R.nq
    slots = nq + 1 if with_t else nq
    variables = _jet_variables(slots, k)
    index = {v: i for i, v in enumerate(variables)}
    size = len(variables)
    M = [[[] for _ in range(size)] for _ in range(size)]
    # one right-hand table per slot: dq_j/ds, then the time slot's dt/ds
    rhs = [R.qdot_series(j) for j in range(nq)]
    if with_t:
        rhs.append({e: c for e, c in (R.t or {}).items() if sum(e) >= 1})
    for row, v in enumerate(variables):
        for j, m in enumerate(v):
            if not m:
                continue
            factor = T.from_ground(m)
            for i, c in rhs[j].items():
                target = list(v)
                target[j] -= 1
                for l, x in enumerate(i):
                    target[l] += x
                if sum(target) > k:
                    continue
                M[row][index[tuple(target)]].append((factor, c))
    M = [[T.dot(pairs) for pairs in cells] for cells in M]
    return VESystem(T, k, variables, M, with_t)


def build_VE(R, k):
    """Variational system of order k, time deviation included."""
    return _build_variational(R, k, True)


def build_NVE(R, k):
    """Normal variational system of order k: transverse jets only."""
    return _build_variational(R, k, False)


# --------------------------------------------------------------------------
# Fuchsian scan


def fuchsian_scan(R):
    """Locate and classify the singular places of a diagonal reduced system.

    Walks the poles of the diagonal exponents, of the nonlinear table and of
    the tower's radicands, then the place at infinity, where the local
    system's coefficient is -s^2 lambda; a pole order is the least valuation
    over the branches (``PlaceContext.valuation_below``).  Checks that every
    diagonal pole is simple after ramification normalization, and reports
    each singular place with its ramification index, its local exponent
    vector (the residue exponents of
    :func:`~galint.algebra.places.residue_exponent`) and a provenance tag.
    Raises :class:`NonFuchsian` as soon as some diagonal entry has a pole of
    order > 1.
    """
    if not R.is_diagonal():
        raise GaugeRequired("fuchsian_scan needs a diagonal linear part")
    T = R.tower
    lams = [T.coerce(c) for c in R.lambdas]
    fs = [T.coerce(c) for c in R.table.values()]
    radicands = [g.radicand for g in T.gens if g.radicand is not None]
    places = pole_places(lams + fs + radicands)

    def kind_of(key):
        if key in R.curve_places:
            return "curve-singularity"
        if key in R.gauge_places:
            return "gauge-artifact"
        return "vector-field-singularity"

    found = []
    for key in sorted(places, key=str) + [("inf",)]:
        loc = places.get(key, INF)
        ctx = place_context(T, loc)
        # at infinity the local coefficient -s^2 lambda has pole order 2 - e
        shift = 2 if loc is INF else 0
        poles = []
        for lam in lams:
            v = ctx.valuation_below(lam, ctx.m * shift - 1)
            order = 0 if v is None else shift - Fraction(v, ctx.m)
            if order > 1:
                where = ("of the local system at infinity" if loc is INF
                         else f"at {loc}")
                raise NonFuchsian(f"pole of order {order} {where}",
                                  place=loc, order=order)
            poles.append(order > 0)
        if any(poles) or any(ctx.valuation_below(f, -1) is not None
                             for f in fs):
            exps = [residue_exponent(ctx, lam) if pole else Exponent(0)
                    for lam, pole in zip(lams, poles)]
            found.append(SingularPlace(loc, ctx.m, exps, kind_of(key)))
    return found
