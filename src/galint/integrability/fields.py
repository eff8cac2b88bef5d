"""Commuting frames dual to a closed coframe along the level sets.

The transverse rows -dPhi_j/Phi_j + h_j ds are the differentials of
-log(c_j) for the flow-box constants c_j = Phi_j/H_j, and the time row is
the differential of the time primitive with its L-cells projected out (their
coefficients are products of first integrals, so those cells die on the
level-set distribution anyway).  Rows of closed 1-forms have a commuting
dual frame, and the same pairing equations are solved by the original-time
dynamics, which therefore *is* the last dual field; we pin it exactly
instead of keeping the eliminated copy.

The frame is assembled as exact quotients of truncated polynomial series,
and every check expands each quotient once into a power series (its
denominator, cleared of common monomial content, must be a unit along the
curve; see RatioSeries.expand) and scans the residual of the series.  The
content a quotient sheds costs its window as many degrees, so an expansion
window can be short, and every verification here reports the order it
actually certified rather than pretending to see the full window.
"""

from fractions import Fraction

from ..algebra.linalg import mat_inv, nullspace, rank
from ..errors import InputError, RankDeficiency, VerificationFailed
from ..galois.resonance import relation_lattice
from ..series import (
    FormalVectorField,
    RatioSeries,
    SymbolMonomial,
    TruncSeries,
    q_series,
    ts_lie,
)
from .flows import FormalFlow, invert_flow

__all__ = [
    "CertifiedField",
    "CommutingFrame",
    "as_cols",
    "commuting_fields",
    "lie_bracket",
    "ratio_lie",
    "rderive_s",
    "rpartial",
    "scan_residual",
    "stabilize_frame",
]


class CertifiedField(FormalVectorField):
    """A vector field whose components are rational quotients, plus the
    order through which its frame brackets were actually checked."""

    __slots__ = ("order",)

    def __init__(self, components, s_component, order):
        super().__init__(components, s_component)
        self.order = int(order)

    def __repr__(self):
        return f"<CertifiedField on {len(self.components)}+1 coords, " \
               f"order {self.order}>"


class CommutingFrame:
    """The dual frame together with the scaffolding that produced it.

    ``fields``    l certified fields, the last one the original-time dynamics
    ``rows``      the coframe rows (transverse rows first, time row last)
    ``jacobian``  the rows paired against the kernel basis
    ``kernel``    basis of the level-set distribution
    ``report``    the resonance-lattice report the construction used
    ``order``     frame-wide certified commutation order; small (even
                  negative) values mean the fields' expansion windows were
                  spent on denominator valuations during assembly, not that
                  anything failed — every bracket residual vanished on its
                  faithful window
    ``wide_order`` the order through which the brackets of the fields
                  widened to the flow window vanish (the exactness ansatz
                  of :func:`stabilize_frame`), or None when that residual
                  shows a visible defect
    """

    __slots__ = ("fields", "rows", "jacobian", "kernel", "report", "order",
                 "wide_order")

    def __init__(self, fields, rows, jacobian, kernel, report, order,
                 wide_order):
        self.fields = tuple(fields)
        self.rows = rows
        self.jacobian = jacobian
        self.kernel = kernel
        self.report = report
        self.order = int(order)
        self.wide_order = None if wide_order is None else int(wide_order)

    def __repr__(self):
        return f"<CommutingFrame: {len(self.fields)} fields, " \
               f"order {self.order}>"


# ------------------------------------------------------------ ratio calculus

def rpartial(r, j):
    """d/dq_{j+1} of a quotient, by the quotient rule."""
    return RatioSeries(
        r.num.partial(j) * r.den - r.num * r.den.partial(j),
        r.den * r.den,
    ).trim()


def rderive_s(r):
    return RatioSeries(
        r.num.derive_s() * r.den - r.num * r.den.derive_s(),
        r.den * r.den,
    ).trim()


def scan_residual(r, debt):
    """(defect order or None, certified order) for a residual power series.

    ``debt`` is the number of q-partials nested in the computation: each
    one costs the top degree of the window (the derivative of the
    truncated-away cells would have landed there).  Cells above the
    remaining window N - debt are ignored as potential junk; a clean scan
    certifies through N - debt."""
    W = r.N - debt
    f = r.valuation()
    if f is None or f > W:
        return None, W
    return f, f - 1


def as_cols(f):
    """Column list (q-components then s) of a field-like object."""
    if isinstance(f, FormalVectorField):
        return list(f.components) + [f.s_component]
    return list(f)


def _expanded(field):
    """The field with every ratio column expanded once (a power series)."""
    cols = [x.expand() for x in as_cols(field)]
    return FormalVectorField(cols[:-1], cols[-1])


def ratio_lie(field, f):
    """Derivative of the quotient ``f`` along a field with ratio columns,
    as a power series; raises NotExpandable when a quotient is not one."""
    return ts_lie(f.expand(), _expanded(field))


def lie_bracket(a, b):
    """Componentwise [a, b] as power series, both given as ratio columns or
    fields; each column is expanded once."""
    A = _expanded(a)
    B = _expanded(b)
    return [ts_lie(y, A) - ts_lie(x, B)
            for x, y in zip(as_cols(A), as_cols(B))]


# ------------------------------------------------------------- construction

def _log_gradient(phi, h, nq):
    """Columns of dPhi/Phi - h ds, the differential of log(Phi/H)."""
    cols = [RatioSeries(phi.partial(j), phi) for j in range(nq)]
    cols.append(RatioSeries(phi.derive_s() - phi.scale(h), phi))
    return cols


def _time_row(flow, Phi, one_s):
    """The differential of the time primitive in the (q, s) chart.

    L-cells contribute their exact s-derivative (coefficient times L') and
    nothing else: the cell coefficients are constants times products of
    first integrals, whose differentials vanish on the level sets where the
    row is used.
    """
    basis = flow.basis
    N = flow.N
    nq = flow.nq
    parts = {}
    for i, sym, c in flow.time.cells():
        if sym.ell:
            if len(sym.ell) != 1 or sym.ell[0][1] != 1:
                raise VerificationFailed(
                    "unexpected L-symbol multiplicity in the time series"
                )
            key = sym.ell[0][0]
        else:
            key = None
        parts.setdefault(key, {})[(i, SymbolMonomial(i))] = c
    tm = TruncSeries(basis, "u", N, parts.pop(None, {})).compose(Phi)
    row = [tm.partial(j) for j in range(nq)]
    scol = tm.derive_s()
    logmap = {L.name: L for L in flow.logs}
    for name in sorted(parts):
        comp = TruncSeries(basis, "u", N, parts[name]).compose(Phi)
        scol = scol + comp.scale(logmap[name].deriv)
    row.append(scol)
    return [RatioSeries(x, one_s) for x in row]


def _transverse_choice(lattice_rows, nq, count):
    """First ``count`` unit rows that are independent of the lattice."""
    rows = [[Fraction(x) for x in r] for r in lattice_rows]
    have = rank(rows)
    picked = []
    for j in range(nq):
        if len(picked) == count:
            break
        unit = [Fraction(0)] * nq
        unit[j] = Fraction(1)
        r2 = rank(rows + [unit])
        if r2 > have:
            picked.append(j)
            rows.append(unit)
            have = r2
    if len(picked) < count:
        raise RankDeficiency(
            "unit rows cannot complete the lattice to a transverse coframe"
        )
    return picked


def _dot(row, vec, rzero):
    acc = rzero
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


def commuting_fields(flow, report=None, *, conditions=None):
    """Build the commuting dual frame tangent to the integral level sets.

    Needs a complete flow (with its time component).  Returns a
    CommutingFrame whose last field is the original-time dynamics; raises
    RankDeficiency when the coframe degenerates and VerificationFailed when
    a bracket or pairing residual survives inside the certified window.

    The frame is bracketed once, on the fields widened to the flow window
    (their visible cells declared exact at ``flow.N``), and both verdicts
    are read off that residual.  Narrow: let W_n be the least expansion
    window of a pair's columns as built.  Each widened column expands to
    the same cells through its own window, and a bracket takes one partial
    per product, so the narrow and wide residuals agree through degree
    W_n - 1.  The narrow scan (debt 2: the rows' partial plus the
    bracket's) looks only through W_n - 2, so it is the scan of the wide
    residual truncated to W_n and raises exactly when bracketing the
    fields as built would.  Wide: the same residual scanned at the flow
    window with debt 1 is the exactness ansatz that :func:`stabilize_frame`
    certifies; its order (None after a visible defect) is kept as
    ``wide_order``.
    """
    if not isinstance(flow, FormalFlow):
        raise InputError("commuting_fields expects a FormalFlow")
    if flow.time is None:
        raise InputError(
            "the flow has no time component (partial normal form); a dual "
            "frame needs the complete flow box"
        )
    R = flow.system
    tower = R.tower
    basis = flow.basis
    N = flow.N
    nq = flow.nq
    n = nq + 1
    if report is None:
        report = relation_lattice(list(basis.hs), N, conditions=conditions)

    Phi = list(invert_flow(flow))
    one_s = TruncSeries.constant(basis, "q", N, tower.one)
    rone = RatioSeries(one_s, one_s)
    rzero = RatioSeries(TruncSeries.zero(basis, "q", N), one_s)

    lg = [_log_gradient(Phi[j], basis.hs[j], nq) for j in range(nq)]

    # gradients (up to a nonzero factor) of the lattice integrals
    grows = []
    for row in report.basis:
        cols = []
        for c in range(n):
            acc = rzero
            for j, k in enumerate(row):
                if k:
                    acc = acc + lg[j][c].scale(tower.from_ground(k))
            cols.append(acc)
        grows.append(cols)

    if grows:
        V = nullspace(grows, rzero, rone)
    else:
        V = []
        for j in range(n):
            v = [rzero] * n
            v[j] = rone
            V.append(v)
    l = n - len(grows)
    if len(V) != l:
        raise RankDeficiency(
            f"level-set distribution has dimension {len(V)}, expected {l}"
        )

    chosen = _transverse_choice(report.basis, nq, l - 1)
    rows = [[-x for x in lg[j]] for j in chosen]
    rows.append(_time_row(flow, Phi, one_s))

    jac = [[_dot(r, v, rzero) for v in V] for r in rows]
    inv, _ker = mat_inv(jac, rzero, rone)
    if inv is None:
        raise RankDeficiency("coframe degenerates along the level sets")

    cols_by_field = []
    for m in range(l):
        col = [rzero] * n
        for k in range(l):
            c = inv[k][m]
            if c:
                col = [a + c * b for a, b in zip(col, V[k])]
        cols_by_field.append(col)

    # the original-time dynamics, exact in the reduced chart
    T = q_series(basis, N, R.t)
    xt = [RatioSeries(q_series(basis, N, R.qdot_series(j)), T)
          for j in range(nq)]
    xt.append(RatioSeries(one_s, T))

    # it solves the same pairing equations as the eliminated last field,
    # so pinning it is a replacement, not an approximation — but check
    # (the rows carry one partial each, hence debt 1)
    for i, r in enumerate(rows):
        p = _dot(r, xt, rzero)
        if i == len(rows) - 1:
            p = p - rone
        defect, _cert = scan_residual(p.expand(), 1)
        if defect is not None:
            raise VerificationFailed(
                "the original-time dynamics fails its coframe pairing at "
                f"order {defect}"
            )
    cols_by_field[-1] = xt

    # Bracket once (see the docstring).  A nonzero cell inside the narrow
    # window is a genuine failure; a clean scan certifies only as far as
    # the window reaches, which can be short (even negative) once
    # valuations have eaten the truncation budget.  Record that honestly
    # instead of failing a correct frame.
    wide = [[_widen(x, N) for x in cols] for cols in cols_by_field]
    order = wide_order = N - 1
    for a in range(l):
        for b in range(a + 1, l):
            W_n = min(_window(x) for x in cols_by_field[a] + cols_by_field[b])
            for r in lie_bracket(wide[a], wide[b]):
                defect, cert = scan_residual(r.truncate(W_n), 2)
                if defect is not None:
                    raise VerificationFailed(
                        f"frame fields {a} and {b} fail to commute at "
                        f"order {defect}"
                    )
                order = min(order, cert)
                defect, cert = scan_residual(r, 1)
                if defect is not None:
                    wide_order = None
                elif wide_order is not None:
                    wide_order = min(wide_order, cert)

    fields = tuple(
        CertifiedField(c[:nq], c[-1], order) for c in cols_by_field
    )
    return CommutingFrame(fields, rows, jac, V, report, order, wide_order)


# ------------------------------------------------------- polynomial lift

def _widen(r, N):
    """The same visible cells declared at window N (an exactness ansatz)."""

    def up(a):
        if a.N >= N:
            return a
        return TruncSeries(a.basis, a.alphabet, N, dict(a.table))

    return RatioSeries(up(r.num), up(r.den))


def _window(r):
    """The window through which :meth:`RatioSeries.expand` is faithful."""
    r = r.trim()
    return min(r.num.N, r.den.N)


def stabilize_frame(frame, flow, integrals=()):
    """Re-certify the frame fields as exact objects at the full window.

    Assembling the dual frame spends truncation budget on denominator
    valuations, so a field that is really a small polynomial object can
    come out with a narrow faithful window.  This pass takes each field's
    visible cells as an exactness ansatz at the flow's own window: the
    pairwise brackets were already scanned that way by
    :func:`commuting_fields` (``frame.wide_order``), so only the Lie
    derivatives of the given first integrals are checked here, and the
    widened fields are kept only when every residual stays clean.  The
    claim is established by the re-verification, not by the provenance;
    when any check shows a visible defect the original frame is returned
    untouched.
    """
    if not isinstance(frame, CommutingFrame):
        raise InputError("stabilize_frame expects a CommutingFrame")
    if frame.wide_order is None:
        return frame
    N = flow.N
    wide = [
        [_widen(x, N) for x in list(f.components) + [f.s_component]]
        for f in frame.fields
    ]
    order = frame.wide_order
    for cols in wide:
        for F in integrals:
            defect, cert = scan_residual(ratio_lie(cols, F.series), 1)
            if defect is not None:
                return frame
            order = min(order, cert)
    if order <= frame.order:
        return frame
    nq = len(frame.fields[0].components)
    fields = tuple(
        CertifiedField(cols[:nq], cols[-1], order) for cols in wide
    )
    return CommutingFrame(fields, frame.rows, frame.jacobian, frame.kernel,
                          frame.report, order, frame.wide_order)
