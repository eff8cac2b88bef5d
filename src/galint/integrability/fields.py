"""Commuting frames tangent to the level sets of the first integrals.

In the flow box q = phi(s, u), with u_j = c_j H_j(s) and the time
primitive tau(s, u), the chart (tau, log c) straightens everything: the
original-time dynamics is d/dtau, the lattice integrals are monomials
c^k, and the constant fields  sum_j a_j c_j d/dc_j  with  k.a = 0  on every
lattice row k are tangent to their level sets.  Constant fields commute,
so the frame is written down there and pushed to the (q, s) chart.  With
E_a = sum_j a_j u_j d/du_j (it multiplies the cell u^i by <a, i>),
Phi = ``invert_flow(flow)`` and T = dt/ds,

    Y_a = (E_a phi) o Phi - ((E_a tau) o Phi) * (qdot, 1) / T,

and the last field is the dynamics (qdot, 1) / T itself.  One weight
vector a is taken per unit j picked by the transverse choice, with
a_j = -1 and a_k = 0 on the other picked units, so that field is dual to
-dlog c_j.  A log cell of tau must have <a, i> = 0 (its index on the
lattice), since E_a of it would not be a series in q.  Every column is a
polynomial series over T, exact through the flow window.  Nothing is
taken on trust: :func:`scan_frame` checks the pairwise brackets, and
:func:`stabilize_frame` that every field kills every first integral
(cross-multiplied, so an integral such as q1²/q2 needs no expansion), on
the dense engine of ``galint.check`` (see ``check.frame_residuals``); the
construction here only builds and differentiates nothing.
"""

from fractions import Fraction

from ..algebra.linalg import rank, solve
from ..check import frame_residuals
from ..errors import InputError, RankDeficiency, VerificationFailed
from ..galois.resonance import relation_lattice
from ..series import RatioSeries, TruncSeries, q_series
from .flows import FormalFlow, invert_flow

__all__ = [
    "CertifiedField",
    "CommutingFrame",
    "as_cols",
    "commuting_fields",
    "scan_frame",
    "stabilize_frame",
]


class CertifiedField:
    """A vector field whose components along the coordinates and along s
    are rational quotients, plus the order through which its frame
    brackets were actually checked."""

    __slots__ = ("components", "s_component", "order")

    def __init__(self, components, s_component, order):
        self.components = tuple(components)
        self.s_component = s_component
        self.order = int(order)

    def __repr__(self):
        return f"<CertifiedField on {len(self.components)}+1 coords, " \
               f"order {self.order}>"


class CommutingFrame:
    """l commuting fields tangent to the integral level sets.

    ``fields``  l certified fields, the last one the original-time dynamics
    ``report``  the resonance-lattice report the construction used
    ``order``   frame-wide certified order: every pairwise bracket (and,
                after :func:`stabilize_frame`, every Lie derivative of a
                first integral) vanishes through it
    """

    __slots__ = ("fields", "report", "order")

    def __init__(self, fields, report, order):
        self.fields = tuple(fields)
        self.report = report
        self.order = int(order)

    def __repr__(self):
        return f"<CommutingFrame: {len(self.fields)} fields, " \
               f"order {self.order}>"


# ------------------------------------------------------------------ checks

def scan_frame(fields, integrals, order, *, brackets=True):
    """``order`` lowered to what a clean check certifies.

    Checks (see ``check.frame_residuals``) every pairwise bracket of
    ``fields`` unless ``brackets`` is false, then the Lie derivative of
    every quotient in ``integrals`` along every field, and lowers ``order``
    to each claim's cap.  The first failing claim raises VerificationFailed
    naming the fields or the field and integral; a column that is no power
    series along the curve raises NotExpandable, and one whose constant
    cell is a zero divisor raises ZeroDivisor with its witness.
    """
    fields = [as_cols(f) for f in fields]
    tower = fields[0][0].num.basis.hs[0].tower
    for (kind, *idx), cap, bad in frame_residuals(fields, integrals, tower,
                                                  brackets=brackets):
        if cap is None:
            raise bad
        if bad is not None:
            a, b = idx
            what = f"frame fields {a} and {b} fail to commute" \
                if kind == "bracket" else \
                f"frame field {a} moves first integral {b}"
            raise VerificationFailed(f"{what} at order {bad}")
        order = min(order, cap)
    return order


def as_cols(f):
    """Column list (q-components then s) of a field-like object."""
    if isinstance(f, CertifiedField):
        return list(f.components) + [f.s_component]
    return list(f)


# ------------------------------------------------------------- construction

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
            "unit rows cannot complete the lattice to a basis"
        )
    return picked


def _weights(lattice_rows, chosen, nq):
    """One weight vector a per chosen unit j: k.a = 0 on every lattice row,
    a_j = -1 and a_k = 0 on the other chosen units."""
    M = [[Fraction(x) for x in r] for r in lattice_rows]
    M += [[Fraction(int(k == j)) for k in range(nq)] for j in chosen]
    zeros = [Fraction(0)] * len(lattice_rows)
    out = []
    for j in chosen:
        rhs = zeros + [Fraction(-int(k == j)) for k in chosen]
        sol = solve(M, rhs, Fraction(0), Fraction(1))
        if sol is None or sol[1]:
            raise RankDeficiency(
                "the lattice rows and the chosen units do not fix the "
                "level-set weights"
            )
        out.append(sol[0])
    return out


def _euler(series, a, tower, logs=()):
    """E_a = sum_j a_j u_j d/du_j: every cell u^i times <a, i>.

    The log cells of ``logs`` (LogSymbol records) must be fixed by E_a:
    their L(s) is not a series in q, so a transverse derivative of one
    would leave the chart."""
    for rec in logs:
        if sum(x * y for x, y in zip(a, rec.index)):
            raise VerificationFailed(
                f"the log cell {rec.index} of the time series varies along "
                "the level sets; its index is off the resonance lattice"
            )
    table = {}
    for i, c in series.table.items():
        w = sum(x * y for x, y in zip(a, i))
        if w:
            table[i] = c * tower.from_ground(w)
    return TruncSeries(series.basis, series.alphabet, series.N, table)


def commuting_fields(flow, report=None, *, conditions=None):
    """Build the commuting frame tangent to the integral level sets.

    Needs a complete flow (with its time component).  Returns a
    CommutingFrame of l = n - rank(lattice) fields: one pushed-forward
    Euler field per unit chosen by the transverse choice (see the module
    docstring), then the original-time dynamics.  Every pairwise bracket
    costs one partial per product, so a clean frame is certified through
    ``flow.N - 1``.  Raises RankDeficiency when the
    lattice cannot be completed by unit rows and VerificationFailed when a
    bracket residual survives, or when a log cell of the time series varies
    along the level sets.
    """
    if not isinstance(flow, FormalFlow):
        raise InputError("commuting_fields expects a FormalFlow")
    if flow.time is None:
        raise InputError(
            "the flow has no time component (partial normal form); a "
            "commuting frame needs the complete flow box"
        )
    R = flow.system
    tower = R.tower
    basis = flow.basis
    N = flow.N
    nq = flow.nq
    if report is None:
        report = relation_lattice(list(basis.hs), N, conditions=conditions)
    chosen = _transverse_choice(report.basis, nq, nq - len(report.basis))

    Phi = list(invert_flow(flow))
    T = q_series(basis, N, R.t)
    qdot = R.rhs_series(basis, N)

    cols_by_field = []
    for a in _weights(report.basis, chosen, nq):
        e_tau = _euler(flow.time, a, tower, flow.logs).compose(Phi)
        cols = [
            RatioSeries(_euler(p, a, tower).compose(Phi) * T - e_tau * x, T)
            for p, x in zip(flow.components, qdot)
        ]
        cols.append(RatioSeries(-e_tau, T))
        cols_by_field.append(cols)
    one = TruncSeries.constant(basis, "q", N, tower.one)
    cols_by_field.append([RatioSeries(x, T) for x in qdot + [one]])

    order = scan_frame(cols_by_field, (), N - 1)

    fields = tuple(
        CertifiedField(c[:nq], c[-1], order) for c in cols_by_field
    )
    return CommutingFrame(fields, report, order)


def stabilize_frame(frame, integrals=()):
    """Check that every frame field kills every first integral.

    Each Lie derivative is checked one degree below its windows like the
    brackets; a defect raises VerificationFailed.  A clean check returns the frame, its order
    lowered to what the checks certified (only when an integral's window
    is the shorter one).
    """
    if not isinstance(frame, CommutingFrame):
        raise InputError("stabilize_frame expects a CommutingFrame")
    if not integrals:
        return frame
    order = scan_frame(frame.fields, [F.series for F in integrals],
                       frame.order, brackets=False)
    if order == frame.order:
        return frame
    fields = tuple(
        CertifiedField(f.components, f.s_component, order)
        for f in frame.fields
    )
    return CommutingFrame(fields, frame.report, order)
