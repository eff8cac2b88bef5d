"""The independent check engine: a series is a plain dict ``{i: c}``.

Its products, derivatives, inverses and substitutions share no code with
the construction's calculus (``series.py``) or with the code that builds
flows, integrals and frames, so a bug on the construction path would have
to be invented twice to slip through.  It is the one place where a
residual is evaluated: :func:`check_flow` re-checks every formal flow
``formal_flow`` returns, :func:`integral_defect` every first integral and
:func:`straightening_defect` every linearizing map, and
:func:`frame_residuals` checks the brackets and Lie derivatives of a frame
for both ``fields.scan_frame`` (which certifies the frame's order while
building it) and ``certificates.verify_certificate``.
"""

from .algebra.tower import deepest_tower
from .errors import NotExpandable, VerificationFailed, ZeroDivisor

__all__ = [
    "check_flow",
    "frame_residuals",
    "integral_defect",
    "straightening_defect",
]


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


def _dsub(A, B):
    return _dadd(A, {i: -c for i, c in B.items()})


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
    window: the denominator's monomial content is cancelled (the window
    shrinks by its degree) and what is left is inverted.  Raises
    NotExpandable when the quotient is no power series along the curve, and
    ZeroDivisor with its witness when its constant cell is a zero divisor."""
    num, den = _dense(r.num), _dense(r.den)
    if num is None or den is None or "u" in (r.num.alphabet, r.den.alphabet):
        raise NotExpandable("transcendental symbols in the series")
    window = min(r.num.N, r.den.N)
    if den:
        m = None
        for i in den:
            m = list(i) if m is None else [min(a, b) for a, b in zip(m, i)]
        if any(m):
            for i in num:
                if any(a < b for a, b in zip(i, m)):
                    raise NotExpandable(
                        "denominator valuation exceeds the numerator")
            num = {tuple(a - b for a, b in zip(i, m)): c
                   for i, c in num.items()}
            den = {tuple(a - b for a, b in zip(i, m)): c
                   for i, c in den.items()}
            window -= sum(m)
    inv = _dinv(den, window, tower) if den else None
    if inv is None:
        raise NotExpandable("denominator not invertible at the curve")
    return _dmul(num, inv, window), window


def _dense_cols(cols, tower):
    """A field's ratio columns as dense dicts, plus their least window."""
    dense = [_dratio(r, tower) for r in cols]
    return [d for d, _w in dense], min(w for _d, w in dense)


def _dderiv_along(cols, F, cap, tower):
    """The dense directional derivative sum_m cols[m] * D_m(F)."""
    nq = len(cols) - 1
    out = {}
    for m in range(nq):
        out = _dadd(out, _dmul(cols[m], _dpartial(F, m, tower), cap))
    out = _dadd(out, _dmul(cols[nq], _dderive(F), cap))
    return out


def _lowest_bad(cap, *Ds):
    """The least total degree through ``cap`` of a cell of any of ``Ds``;
    None when every one vanishes there."""
    return min((sum(i) for D in Ds for i in D if sum(i) <= cap), default=None)


def _converted(convert, x, tower):
    """``convert(x, tower)``, or ``(None, refusal)`` when the quotient is
    no power series or its constant cell is a zero divisor."""
    try:
        return convert(x, tower)
    except (NotExpandable, ZeroDivisor) as err:
        return None, err


def _dynamics(R):
    """The reduced dynamics D = sum_j qdot_j d/dq_j + d/ds as dense
    columns, read from the system's raw tables."""
    return [R.qdot_series(j) for j in range(R.nq)] + [
        {(0,) * R.nq: R.tower.one}]


# ---------------------------------------------------------------------------
# frames, first integrals and linearizing maps
# ---------------------------------------------------------------------------

def frame_residuals(fields, integrals, tower, debt, *, brackets=True):
    """Check a frame's claims on dense columns, one record per claim.

    ``fields`` are column lists (q-components, then s) and ``integrals``
    quotients, all RatioSeries.  A record is ``(claim, cap, bad)``: the
    claim ``("bracket", a, b)`` for each pair a < b of fields (unless
    ``brackets`` is false) and ``("lie", k, t)`` for field k and integral
    t; ``cap`` is the least window of the quotients involved less ``debt``
    (each nested partial costs the top degree of a window), and ``bad`` the
    lowest order through ``cap`` where the residual has a cell, or None.
    A field or integral that does not convert yields one record
    ``(("field", k), None, err)`` or ``(("integral", t), None, err)`` in
    place of its claims, ``err`` the NotExpandable or ZeroDivisor refusal.
    Records are made lazily: a caller may stop at the first bad one.
    """
    dense = [_converted(_dense_cols, f, tower) for f in fields]
    for k, (cols, err) in enumerate(dense):
        if cols is None:
            yield ("field", k), None, err
    for a, (ca, wa) in enumerate(dense if brackets else ()):
        for b in range(a + 1, len(dense)):
            cb, wb = dense[b]
            if ca is None or cb is None:
                continue
            cap = min(wa, wb) - debt
            yield ("bracket", a, b), cap, _lowest_bad(cap, *(
                _dsub(_dderiv_along(ca, y, cap, tower),
                      _dderiv_along(cb, x, cap, tower))
                for x, y in zip(ca, cb)))
    for t, F in enumerate(integrals):
        dF, wf = _converted(_dratio, F, tower)
        if dF is None:
            yield ("integral", t), None, wf
            continue
        for k, (ck, wk) in enumerate(dense):
            if ck is not None:
                cap = min(wk, wf) - debt
                yield ("lie", k, t), cap, _lowest_bad(
                    cap, _dderiv_along(ck, dF, cap, tower))


def integral_defect(R, F, cap):
    """The lowest order through ``cap`` at which the reduced dynamics D of
    ``R`` moves the quotient ``F``, or None.

    The residual is cross-multiplied, D(num)·den − num·D(den), so a
    denominator without a constant cell (q1²/q2) needs no inverse.
    """
    tower, D = R.tower, _dynamics(R)
    num, den = _dense(F.num), _dense(F.den)
    return _lowest_bad(cap, _dsub(
        _dmul(_dderiv_along(D, num, cap, tower), den, cap),
        _dmul(num, _dderiv_along(D, den, cap, tower), cap)))


def straightening_defect(R, phi, j, cap):
    """The lowest order through ``cap`` of D(phi) − h_j·phi, D the reduced
    dynamics of ``R`` and h_j its j-th diagonal entry, or None: ``phi``
    straightens component j when it vanishes."""
    tower, h = R.tower, R.lambdas[j]
    phi = _dense(phi)
    return _lowest_bad(cap, _dsub(_dderiv_along(_dynamics(R), phi, cap, tower),
                                  {i: c * h for i, c in phi.items()}))


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
