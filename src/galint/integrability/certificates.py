"""Integrability certificates: assembly, bookkeeping and re-verification.

A certificate bundles what the pipeline actually proved: l commuting
fields (the dynamics among them), n-l first integrals, the orders through
which each claim was checked, and the outcome of the attempt to descend
the data to the base curve.  ``verify_certificate`` recomputes every
claim on the independent dense engine of ``galint.check``: the sampled
ranks of the fields and of the integrals' gradients, the brackets, the
Lie derivatives of the integrals and Galois-fixedness.  It evaluates no
series arithmetic of its own.
"""

from ..check import frame_residuals, galois_moved, sample_rank
from ..errors import (InputError, NotExpandable, RankDeficiency,
                      VerificationFailed, ZeroDivisor)
from ..galois.resonance import relation_lattice
from ..reduction import ReducedSystem
from .fields import as_cols, commuting_fields, stabilize_frame
from .flows import FormalFlow, formal_flow
from .integrals import first_integrals

__all__ = [
    "CertificateCheck",
    "CertificateReport",
    "IntegrabilityCertificate",
    "build_certificate",
    "verify_certificate",
]


class IntegrabilityCertificate:
    """The exported structure: fields, integrals, and what was verified.

    ``l``         number of commuting fields (the last one is the dynamics)
    ``fields``    certified vector fields, ratio components
    ``integrals`` first integrals (lattice rows, or symmetrized descents)
    ``descent``   "base-field" | "not-attempted" | "not-over-base" |
                  NeedsCovering
    ``orders``    per-stage verified orders, keyed by stage name
    ``chart``     "reduced" or "original" (which transverse chart)
    ``descended`` the original-chart certificate when descent succeeded
    """

    __slots__ = ("l", "fields", "integrals", "descent", "orders", "chart",
                 "flow", "frame", "report", "system", "descended")

    def __init__(self, l, fields, integrals, descent, orders, *, chart,
                 flow, frame, report, system):
        self.l = int(l)
        self.fields = tuple(fields)
        self.integrals = tuple(integrals)
        self.descent = descent
        self.orders = dict(orders)
        self.chart = chart
        self.flow = flow
        self.frame = frame
        self.report = report
        self.system = system
        self.descended = None
        if len(self.fields) != self.l:
            raise VerificationFailed(
                f"certificate carries {len(self.fields)} fields but "
                f"claims l = {self.l}"
            )
        n = system.nq + 1
        if len(self.integrals) != n - self.l:
            raise VerificationFailed(
                f"certificate carries {len(self.integrals)} integrals; "
                f"expected n - l = {n - self.l}"
            )

    def __repr__(self):
        return (
            f"<IntegrabilityCertificate ({self.l},"
            f"{self.system.nq + 1 - self.l}) chart={self.chart} "
            f"descent={self.descent!r}>"
        )


class CertificateCheck:
    """One re-verified claim: name, verdict, order checked, detail."""

    __slots__ = ("name", "ok", "order", "detail")

    def __init__(self, name, ok, order=None, detail=""):
        self.name = name
        self.ok = bool(ok)
        self.order = order
        self.detail = detail

    def __repr__(self):
        verdict = "ok" if self.ok else "FAILED"
        tail = f" (order {self.order})" if self.order is not None else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"[{verdict}] {self.name}{tail}{extra}"


class CertificateReport:
    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def __repr__(self):
        lines = "\n".join(repr(c) for c in self.checks)
        return f"<CertificateReport ok={self.ok}>\n{lines}"


# ---------------------------------------------------------------------------
# assembly and re-verification
# ---------------------------------------------------------------------------

def build_certificate(R, N, *, s0=None, k_max=None, conditions=None,
                      descend=True):
    """Run the full pipeline on a reduced system.

    Returns the reduced-chart certificate (descent outcome recorded on it,
    the original-chart certificate hanging off ``.descended`` when the
    symmetrization succeeded), or the Obstruction that stopped the flow.
    """
    if not isinstance(R, ReducedSystem):
        raise InputError("build_certificate expects a ReducedSystem")
    flow = formal_flow(R, N, s0, conditions=conditions)
    if not isinstance(flow, FormalFlow):
        return flow
    report = relation_lattice(list(flow.basis.hs), k_max or N,
                              conditions=conditions)
    integrals = first_integrals(flow, report, conditions=conditions)
    frame = commuting_fields(flow, report, conditions=conditions)
    frame = stabilize_frame(frame, integrals)
    orders = {
        "flow": flow.N,
        "frame": frame.order,
    }
    if integrals:
        orders["integrals"] = min(F.order for F in integrals)
    cert = IntegrabilityCertificate(
        len(frame.fields), frame.fields, integrals, "not-attempted", orders,
        chart="reduced", flow=flow, frame=frame, report=report, system=R,
    )
    _independence_or_raise(cert)
    if R.tower.r == 0:
        cert.descent = "base-field"
    elif descend and R.tower.galois_names():
        from .descent import galois_descent

        outcome = galois_descent(cert)
        if isinstance(outcome, IntegrabilityCertificate):
            cert.descent = "base-field"
            cert.descended = outcome
        else:
            cert.descent = outcome
    return cert


def _independence_or_raise(cert):
    tower = cert.system.tower
    for rows, want, what in (
            ([as_cols(f) for f in cert.fields], cert.l, "fields have sample"),
            ([F.series for F in cert.integrals], len(cert.integrals),
             "integrals have gradient")):
        got = sample_rank(rows, tower)
        if got < want:
            raise RankDeficiency(
                f"certificate {what} rank {got}; expected {want}")


def verify_certificate(C):
    """Recompute every certificate claim through the dense engine.

    Nothing raises: each claim becomes a report entry with its verdict and
    the order through which it was actually checked.  A zero divisor fails
    the claim that met it, naming its witness; a series carrying symbols
    fails that claim or ``symbol-free``.
    """
    if not isinstance(C, IntegrabilityCertificate):
        raise InputError("verify_certificate expects an IntegrabilityCertificate")
    from .descent import group_closure

    tower = C.system.tower
    n = C.system.nq + 1
    fields = [as_cols(f) for f in C.fields]
    integrals = [F.series for F in C.integrals]
    checks = []

    checks.append(CertificateCheck(
        "counts", len(C.fields) == C.l and len(C.integrals) == n - C.l,
        detail=f"l={C.l}, fields={len(C.fields)}, integrals={len(C.integrals)}",
    ))

    for name, rows, what in (
            ("field-independence", fields, "sample rank"),
            ("integral-independence", integrals, "sample gradient rank")):
        try:
            r = sample_rank(rows, tower)
        except (NotExpandable, ZeroDivisor) as err:
            checks.append(CertificateCheck(name, False, detail=str(err)))
        else:
            checks.append(CertificateCheck(name, r == len(rows),
                                           detail=f"{what} {r}"))

    try:
        for (kind, *idx), cap, bad in frame_residuals(fields, integrals,
                                                      tower):
            if cap is None:
                checks.append(CertificateCheck(
                    f"{kind}-{idx[0]}-dense", False, detail=str(bad)))
                continue
            a, b = idx
            name = f"bracket-{a}-{b}" if kind == "bracket" else \
                f"lie-{a}-integral-{b}"
            checks.append(CertificateCheck(
                name, bad is None, order=cap,
                detail="" if bad is None else f"residual at order {bad}"))

        if C.chart == "original" and tower.r > 0 and tower.galois_names():
            moved = galois_moved(group_closure(tower), fields, integrals)
            checks.append(CertificateCheck(
                "galois-fixed", not moved, detail="; ".join(moved)))
    except NotExpandable as err:
        checks.append(CertificateCheck("symbol-free", False, detail=str(err)))

    return CertificateReport(checks)
