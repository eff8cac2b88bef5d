"""The independent check engine: a series is a plain dict ``{i: c}``.

Its products, derivatives, inverses and substitutions share no code with
the construction's calculus (``series.py``) or with the code that builds
flows, integrals and frames, so a bug on the construction path would have
to be invented twice to slip through.  :func:`check_flow` re-checks every
formal flow ``formal_flow`` returns; ``certificates.verify_certificate``
recomputes every certificate claim here.
"""

from .algebra.tower import deepest_tower
from .errors import VerificationFailed

__all__ = ["check_flow"]


def _dense(series):
    """The cells of a series, either alphabet; None when a cell carries L."""
    out = {}
    for (i, sym), c in series.table.items():
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
    """The product through total degree ``cap``: the pairs meeting in one
    output cell are summed by one ``AlgebraicTower.dot``."""
    if not A or not B:
        return {}
    tower = deepest_tower(c.tower for c in (*A.values(), *B.values()))
    cols = {}
    for i, a in A.items():
        for j, b in B.items():
            k = tuple(x + y for x, y in zip(i, j))
            if sum(k) <= cap:
                cols.setdefault(k, []).append((a, b))
    out = {}
    for k, pairs in cols.items():
        c = tower.dot(pairs)
        if c:
            out[k] = c
    return out


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
    """A q-alphabet RatioSeries as a plain dense dict plus its faithful
    window."""
    num, den = _dense(r.num), _dense(r.den)
    if num is None or den is None or "u" in (r.num.alphabet, r.den.alphabet):
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
# the formal flow
# ---------------------------------------------------------------------------

def check_flow(flow):
    """Re-check a formal flow's defining equations through its order N:
    rhs_j(phi) = d/ds phi_j for each component and t(phi) = d/ds phi_t.

    The dynamics come from the system's raw tables (``qdot_series``, ``t``),
    the H weights h_j from its ``lambdas``, the L derivatives from
    ``flow.logs``.  A u-cell c u^i L^ell carries H^i, so d/ds gives
    (c' + <i, h> c) u^i L^ell and, for each L of exponent m in ell,
    m L' c u^i L^(ell - 1).  Each side sums a cell once and the sides are
    compared with ``==`` (reduced tower coordinates are canonical).  Raises
    VerificationFailed naming the equation and its lowest bad order.
    """
    R, N, tower = flow.system, flow.N, flow.system.tower
    hs = R.lambdas
    logs = {rec.name: rec.deriv for rec in flow.logs}
    phi = [_dense(p) for p in flow.components]
    if None in phi:
        raise VerificationFailed("a transverse component carries L symbols")
    origin = (0,) * R.nq
    powers = {origin: {origin: tower.one}}

    def power(i):
        if i not in powers:
            j = next(j for j, e in enumerate(i) if e)
            rest = i[:j] + (i[j] - 1,) + i[j + 1:]
            powers[i] = _dmul(power(rest), phi[j], N) if any(rest) else phi[j]
        return powers[i]

    eqs = [(f"component {j + 1}", R.qdot_series(j), p)
           for j, p in enumerate(flow.components)]
    for name, table, series in eqs + [("the time series", R.t, flow.time)]:
        image, deriv = {}, {}
        for i, c in table.items():
            for k, p in (power(i) if sum(i) <= N else {}).items():
                image.setdefault((k, ()), []).append(c * p)
        for (i, sym), c in series.table.items():
            deriv.setdefault((i, sym.ell), []).extend(
                [c.derive()] + [hs[j] * tower.from_ground(e) * c
                                for j, e in enumerate(i) if e])
            for n, (L, m) in enumerate(sym.ell):
                low = sym.ell[:n] + ((L, m - 1),) * (m > 1) + sym.ell[n + 1:]
                deriv.setdefault((i, low), []).append(
                    logs[L] * c * tower.from_ground(m))
        image, deriv = ({k: tower.sum(cs) for k, cs in d.items()}
                        for d in (image, deriv))
        bad = [sum(k[0]) for k in image.keys() | deriv.keys()
               if image.get(k, tower.zero) != deriv.get(k, tower.zero)]
        if bad:
            raise VerificationFailed(
                f"defining residual of {name} is nonzero at order {min(bad)}"
            )
