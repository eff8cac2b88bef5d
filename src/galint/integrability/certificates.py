"""Integrability certificates: assembly, bookkeeping and re-verification.

A certificate bundles what the pipeline actually proved: l commuting
fields (the dynamics among them), n-l first integrals, the orders through
which each claim was checked, and the outcome of the attempt to descend
the data to the base curve.  ``verify_certificate`` recomputes every
claim through a deliberately naive dense-series engine — a different data
layout and different loops than the construction's calculus, which
expands each quotient once into a power series and differentiates that —
so a bug shared with the construction path would have to be invented
twice to slip through.
"""

from ..errors import InputError, RankDeficiency, VerificationFailed
from ..galois.resonance import relation_lattice
from ..reduction import ReducedSystem
from .fields import commuting_fields, stabilize_frame
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

    @property
    def order(self):
        return min(self.orders.values())

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
# the independent dense engine
# ---------------------------------------------------------------------------

def _dense(series):
    """Plain q-cells; None when a cell carries H (u-alphabet) or L."""
    if series.alphabet != "q":
        return None
    out = {}
    for i, sym, c in series.cells():
        if not sym.is_neutral():
            return None
        out[i] = c
    return out


def _dadd(A, B):
    out = dict(A)
    for i, c in B.items():
        prev = out.get(i)
        s = c if prev is None else prev + c
        if s.is_zero():
            out.pop(i, None)
        else:
            out[i] = s
    return out


def _dmul(A, B, cap):
    out = {}
    for i, a in A.items():
        for j, b in B.items():
            k = tuple(x + y for x, y in zip(i, j))
            if sum(k) > cap:
                continue
            prev = out.get(k)
            s = a * b if prev is None else prev + a * b
            out[k] = s
    return {k: v for k, v in out.items() if not v.is_zero()}


def _dpartial(A, j, tower):
    out = {}
    for i, c in A.items():
        if not i[j]:
            continue
        k = i[:j] + (i[j] - 1,) + i[j + 1:]
        out[k] = c * tower.from_ground(i[j])
    return out


def _dderive(A):
    out = {}
    for i, c in A.items():
        d = c.derive()
        if not d.is_zero():
            out[i] = d
    return out


def _dinv(D, cap, tower):
    nq = len(next(iter(D)))
    origin = (0,) * nq
    c0 = D.get(origin)
    if c0 is None or c0.is_zero():
        return None
    u = tower.invert(c0)
    E = {i: -(c * u) for i, c in D.items() if i != origin}
    acc = {origin: u}
    term = {origin: u}
    for _ in range(cap):
        term = _dmul(term, E, cap)
        if not term:
            break
        acc = _dadd(acc, term)
    return acc


def _dratio(r, tower):
    """A RatioSeries as a plain dense dict plus its faithful window."""
    num, den = _dense(r.num), _dense(r.den)
    if num is None or den is None:
        return None, "transcendental symbols in the series"
    window = min(r.num.N, r.den.N)
    if den:
        m = None
        for i in den:
            m = list(i) if m is None else [min(a, b) for a, b in zip(m, i)]
        if any(m):
            for i in num:
                if any(a < b for a, b in zip(i, m)):
                    return None, "denominator valuation exceeds the numerator"
            num = {tuple(a - b for a, b in zip(i, m)): c
                   for i, c in num.items()}
            den = {tuple(a - b for a, b in zip(i, m)): c
                   for i, c in den.items()}
            window -= sum(m)
    inv = _dinv(den, window, tower) if den else None
    if inv is None:
        return None, "denominator not invertible at the curve"
    return _dmul(num, inv, window), window


def _dense_cols(field, tower):
    cols, window = [], None
    for r in list(field.components) + [field.s_component]:
        d, w = _dratio(r, tower)
        if d is None:
            return None, w
        cols.append(d)
        window = w if window is None else min(window, w)
    return cols, window


def _dderiv_along(cols, F, cap, tower):
    """The dense directional derivative sum_m cols[m] * D_m(F)."""
    nq = len(cols) - 1
    out = {}
    for m in range(nq):
        out = _dadd(out, _dmul(cols[m], _dpartial(F, m, tower), cap))
    out = _dadd(out, _dmul(cols[nq], _dderive(F), cap))
    return out


def _lowest_bad(D, cap):
    bad = [sum(i) for i in D if sum(i) <= cap]
    return min(bad) if bad else None


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
    from .descent import _gradient_row, _point_rank

    tower = cert.system.tower
    nq = cert.system.nq
    rows = [list(f.components) + [f.s_component] for f in cert.fields]
    rank = _point_rank(rows, tower)
    if rank < cert.l:
        raise RankDeficiency(
            f"certificate fields have sample rank {rank}; expected {cert.l}"
        )
    grads = [_gradient_row(F.series, nq) for F in cert.integrals]
    rank = _point_rank(grads, tower)
    if rank < len(grads):
        raise RankDeficiency(
            f"certificate integrals have gradient rank {rank}; expected "
            f"{len(grads)}"
        )


def verify_certificate(C):
    """Recompute every certificate claim through the dense engine.

    Nothing raises: each claim becomes a report entry with its verdict and
    the order through which it was actually checked.
    """
    if not isinstance(C, IntegrabilityCertificate):
        raise InputError("verify_certificate expects an IntegrabilityCertificate")
    from .descent import _gradient_row, _moved_under, _point_rank, group_closure

    tower = C.system.tower
    nq = C.system.nq
    n = nq + 1
    checks = []

    checks.append(CertificateCheck(
        "counts", len(C.fields) == C.l and len(C.integrals) == n - C.l,
        detail=f"l={C.l}, fields={len(C.fields)}, integrals={len(C.integrals)}",
    ))

    rows = [list(f.components) + [f.s_component] for f in C.fields]
    rank = _point_rank(rows, tower)
    checks.append(CertificateCheck(
        "field-independence", rank == C.l, detail=f"sample rank {rank}"))

    grads = [_gradient_row(F.series, nq) for F in C.integrals]
    grank = _point_rank(grads, tower)
    checks.append(CertificateCheck(
        "integral-independence", grank == len(grads),
        detail=f"sample gradient rank {grank}"))

    dense_fields = []
    for k, f in enumerate(C.fields):
        cols, w = _dense_cols(f, tower)
        if cols is None:
            checks.append(CertificateCheck(f"field-{k}-dense", False, detail=w))
        dense_fields.append((cols, w))

    for a in range(len(dense_fields)):
        ca, wa = dense_fields[a]
        if ca is None:
            continue
        for b in range(a + 1, len(dense_fields)):
            cb, wb = dense_fields[b]
            if cb is None:
                continue
            cap = min(wa, wb) - 1
            bad = None
            for k in range(n):
                res = _dadd(
                    _dderiv_along(ca, cb[k], cap, tower),
                    {i: -c for i, c in
                     _dderiv_along(cb, ca[k], cap, tower).items()},
                )
                low = _lowest_bad(res, cap)
                if low is not None:
                    bad = low if bad is None else min(bad, low)
            checks.append(CertificateCheck(
                f"bracket-{a}-{b}", bad is None, order=cap,
                detail="" if bad is None else f"residual at order {bad}"))

    for t, F in enumerate(C.integrals):
        dF, wf = _dratio(F.series, tower)
        if dF is None:
            checks.append(CertificateCheck(f"integral-{t}-dense", False,
                                           detail=wf))
            continue
        for a, (ca, wa) in enumerate(dense_fields):
            if ca is None:
                continue
            cap = min(wa, wf) - 1
            res = _dderiv_along(ca, dF, cap, tower)
            low = _lowest_bad(res, cap)
            checks.append(CertificateCheck(
                f"lie-{a}-integral-{t}", low is None, order=cap,
                detail="" if low is None else f"residual at order {low}"))

    if C.chart == "original" and tower.r > 0 and tower.galois_names():
        moved = _moved_under(group_closure(tower), C.fields,
                            [F.series for F in C.integrals])
        checks.append(CertificateCheck(
            "galois-fixed", not moved, detail="; ".join(moved)))

    return CertificateReport(checks)
