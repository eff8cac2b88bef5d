"""The independent check engine, the one place where a claim is evaluated.

:func:`check_flow` re-checks every formal flow by evaluation mod p: each
defining equation at two random points, each mod a random prime p of 61
bits, through :mod:`galint.jets`, which shares no arithmetic with
construction, the tower's included.  A correct flow always passes; a
wrong one passes with probability at most ((d + b)/2^60)^2 when the tower
is a field, d and b the degree and coefficient bits of a residual's norm.

The other checks are exact, over the tower's arithmetic, with a series as
a plain dict ``{i: c}``.  Their products, derivatives, inverses,
substitutions and point values share no code with the construction's
calculus (``series.py``) or with the code that builds flows, integrals and
frames, so a bug on the construction path would have to be invented twice
to slip through.  :func:`integral_defect` re-checks every first integral,
:func:`straightening_defect` every linearizing map; :func:`frame_residuals`
(brackets and Lie derivatives), :func:`sample_rank` (independence) and
:func:`galois_moved` check certificates, for construction and
``verify_certificate`` alike.
"""

from fractions import Fraction
from math import prod

from .algebra.linalg import rank
from .errors import NotExpandable, VerificationFailed, ZeroDivisor
from .jets import flow_defect

__all__ = [
    "check_flow",
    "frame_residuals",
    "galois_moved",
    "integral_defect",
    "sample_rank",
    "straightening_defect",
]

_DEBT = 1   # one partial of series known through w is known through w - 1


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
    cols = {}
    for i, a in A.items():
        for j, b in B.items():
            k = tuple(x + y for x, y in zip(i, j))
            if sum(k) <= cap:
                cols.setdefault(k, []).append((a, b))
    out = {}
    for k, pairs in cols.items():
        c = pairs[0][0].tower.dot(pairs)
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


def _dquot(r):
    """A q-alphabet RatioSeries as its dense numerator and denominator and
    its window; raises NotExpandable on the u-alphabet, whose cells carry
    H symbols."""
    if "u" in (r.num.alphabet, r.den.alphabet):
        raise NotExpandable("transcendental symbols in the series")
    return r.num.table, r.den.table, min(r.num.N, r.den.N)


def _dratio(r, tower, inverses):
    """A field column as a plain dense dict plus its faithful window: the
    denominator's monomial content is cancelled (the window shrinks by its
    degree) and what is left is inverted, or read from ``inverses``, a
    dict keyed by (denominator, window) that this call fills.  Raises
    NotExpandable when the quotient is no power series along the curve,
    and ZeroDivisor with its witness when its constant cell is a zero
    divisor."""
    num, den, window = _dquot(r)
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
    key = (frozenset(den.items()), window)
    if key not in inverses:
        inverses[key] = _dinv(den, window, tower) if den else None
    inv = inverses[key]
    if inv is None:
        raise NotExpandable("denominator not invertible at the curve")
    return _dmul(num, inv, window), window


def _dense_cols(cols, tower):
    """A field's ratio columns as dense dicts, plus their least window;
    each distinct denominator is inverted once (the columns of a
    ``commuting_fields`` field share theirs)."""
    inverses = {}
    dense = [_dratio(r, tower, inverses) for r in cols]
    return [d for d, _w in dense], min(w for _d, w in dense)


def _dderiv_along(cols, F, cap, tower):
    """The dense directional derivative sum_m cols[m] * D_m(F)."""
    nq = len(cols) - 1
    out = {}
    for m in range(nq):
        out = _dadd(out, _dmul(cols[m], _dpartial(F, m, tower), cap))
    out = _dadd(out, _dmul(cols[nq], _dderive(F), cap))
    return out


def _dlie(cols, num, den, cap, tower):
    """X(num)·den − num·X(den) through ``cap``, X = sum_m cols[m] D_m: it
    vanishes where X kills num/den, and den needs no inverse (q1²/q2)."""
    return _dsub(_dmul(_dderiv_along(cols, num, cap, tower), den, cap),
                 _dmul(num, _dderiv_along(cols, den, cap, tower), cap))


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

def frame_residuals(fields, integrals, tower, *, brackets=True):
    """Check a frame's claims on dense columns, one record per claim.

    ``fields`` are column lists (q-components, then s) and ``integrals``
    quotients, all RatioSeries.  A record is ``(claim, cap, bad)``: the
    claim ``("bracket", a, b)`` for each pair a < b of fields (unless
    ``brackets`` is false) and ``("lie", k, t)`` for field k and integral
    t; ``cap`` is the least window of the quotients involved less
    ``_DEBT``, and ``bad`` the lowest order through ``cap`` where the
    residual has a cell, or None.  A Lie derivative is checked
    cross-multiplied, X(num)·den − num·X(den), like
    :func:`integral_defect`, so an integral need not be a power series.  A
    field that does not convert yields one record
    ``(("field", k), None, err)`` in place of its claims, ``err`` the
    NotExpandable or ZeroDivisor refusal.  Records are made lazily: a
    caller may stop at the first bad one.
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
            cap = min(wa, wb) - _DEBT
            yield ("bracket", a, b), cap, _lowest_bad(cap, *(
                _dsub(_dderiv_along(ca, y, cap, tower),
                      _dderiv_along(cb, x, cap, tower))
                for x, y in zip(ca, cb)))
    for t, F in enumerate(integrals):
        num, den, wf = _dquot(F)
        for k, (ck, wk) in enumerate(dense):
            if ck is not None:
                cap = min(wk, wf) - _DEBT
                yield ("lie", k, t), cap, _lowest_bad(
                    cap, _dlie(ck, num, den, cap, tower))


def integral_defect(R, F, cap):
    """The lowest order through ``cap`` at which the reduced dynamics D of
    ``R`` moves the quotient ``F``, or None; cross-multiplied like the Lie
    claims of :func:`frame_residuals`."""
    num, den, _w = _dquot(F)
    return _lowest_bad(cap, _dlie(_dynamics(R), num, den, cap, R.tower))


def straightening_defect(R, phi, j, cap):
    """The lowest order through ``cap`` of D(phi) − h_j·phi, D the reduced
    dynamics of ``R`` and h_j its j-th diagonal entry, or None: ``phi``
    straightens component j when it vanishes."""
    tower, h = R.tower, R.lambdas[j]
    phi = phi.table
    return _lowest_bad(cap, _dsub(_dderiv_along(_dynamics(R), phi, cap, tower),
                                  {i: c * h for i, c in phi.items()}))


# ---------------------------------------------------------------------------
# sampled ranks and Galois-fixedness
# ---------------------------------------------------------------------------

def _sample_points(nq):
    """The fixed rational points of :func:`sample_rank`, in order: q_l =
    1/(l + 2), then 2/(2l + 3), then 3/(3l + 5)."""
    for a, c in ((1, 2), (2, 3), (3, 5)):
        yield tuple(Fraction(a, a * l + c) for l in range(nq))


def _deval(D, point, tower):
    """A dense series at a rational point, summed by one ``tower.dot``."""
    return tower.dot([(c, prod(x**e for x, e in zip(point, i)))
                      for i, c in D.items()])


def _row_at(row, point, tower):
    """A rank row at a point as (numerator, denominator) values.

    A list is a field's columns.  Anything else is an integral num/den,
    whose row is its gradient by the quotient rule at the point,
    (dnum(p)·den(p) − num(p)·dden(p), den(p)²): no series product.
    """
    if isinstance(row, list):
        return [(_deval(n, point, tower), _deval(d, point, tower))
                for n, d, _w in map(_dquot, row)]
    num, den, _w = _dquot(row)
    n, d = _deval(num, point, tower), _deval(den, point, tower)
    parts = [(_dpartial(num, j, tower), _dpartial(den, j, tower))
             for j in range(len(point))]
    parts.append((_dderive(num), _dderive(den)))
    return [(_deval(a, point, tower) * d - n * _deval(b, point, tower), d * d)
            for a, b in parts]


def _scaled(pairs, tower):
    """Row values times the product of their distinct denominators; None
    when a denominator vanishes.  Each denominator is proven a unit first,
    so the scaled row spans the same line as the row of quotients, without
    dividing in the tower."""
    dens = []
    for _n, d in pairs:
        if d.is_zero():
            return None
        if d not in dens:
            tower.require_unit(d)
            dens.append(d)
    return [prod((e for e in dens if e != d), start=n) for n, d in pairs]


def sample_rank(rows, tower):
    """Generic rank of ``rows`` (see :func:`_row_at`), certified from
    below at the points of :func:`_sample_points`.

    A point where a denominator vanishes is skipped; the first point of
    full rank ends the search.  Elimination is division-free
    (``linalg.rank``) and every denominator and pivot is proven a unit
    (``AlgebraicTower.require_unit``), so a zero divisor raises
    ``ZeroDivisor`` with its witness.  A u-alphabet row raises
    NotExpandable.
    """
    if not rows:
        return 0
    first = rows[0]
    nq = len(first) - 1 if isinstance(first, list) else first.num.basis.n
    full = min(len(rows), nq + 1)
    best = 0
    for point in _sample_points(nq):
        mat = []
        for row in rows:
            vals = _scaled(_row_at(row, point, tower), tower)
            if vals is None:
                break
            mat.append(vals)
        else:
            pivots = []
            best = max(best, rank(mat, pivot_values=pivots))
            for pv in pivots:
                tower.require_unit(pv)
            if best == full:
                break
    return best


def galois_moved(group, fields, integrals):
    """What the automorphisms of ``group`` (identity first; each with a
    ``word`` and an action ``on_elem``) move, as "field k under w" for a
    field's column list and "integral t under w".  sigma fixes num/den
    when sigma(num)·den == num·sigma(den) through its window.
    """
    def fixed(r, sigma):
        num, den, w = _dquot(r)
        return (_dmul({i: sigma(c) for i, c in num.items()}, den, w)
                == _dmul(num, {i: sigma(c) for i, c in den.items()}, w))

    moved = []
    for auto in group[1:]:
        word = "*".join(auto.word)
        for k, cols in enumerate(fields):
            if not all(fixed(x, auto.on_elem) for x in cols):
                moved.append(f"field {k} under {word}")
        for t, F in enumerate(integrals):
            if not fixed(F, auto.on_elem):
                moved.append(f"integral {t} under {word}")
    return moved


# ---------------------------------------------------------------------------
# the formal flow
# ---------------------------------------------------------------------------

def check_flow(flow):
    """Re-check a formal flow's defining equations through its order N:
    rhs_j(phi) = d/ds phi_j for each component and, when ``flow.time`` is
    not None, t(phi) = d/ds phi_t.

    The equations are checked at two random points mod p
    (:func:`galint.jets.flow_defect`), on arithmetic of their own.  The
    dynamics come from the system's raw tables (``qdot_series``, ``t``),
    the H weights h_j from its ``lambdas``.  A u-cell c u^i carries H^i, so
    d/ds gives (c' + <i, h> c) u^i.  The logarithmic cells of phi_t are
    read from ``flow.logs``: a record's cell c u^i H^i L gives
    (c' + <i, h> c) u^i H^i L, which must vanish since t(phi) has no L
    part, and c L' u^i H^i, which joins plain cell i.  A correct flow always
    passes; when the tower is a field, a wrong one passes with probability
    at most ((d + b)/2^60)^2, d and b the degree and coefficient bits of a
    nonzero residual's norm.  Raises VerificationFailed naming the equation
    and its lowest bad order.
    """
    bad = flow_defect(flow)
    if bad is not None:
        name, order = bad
        raise VerificationFailed(
            f"defining residual of {name} is nonzero at order {order}")
