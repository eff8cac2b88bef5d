"""Rational solutions of linear ODEs with coefficients in a radical tower.

The scalar problem  y' + delta*y = g  (delta, g in a tower over K0) is
flattened to a first-order system  z' + M z = G  over K0 = Q(params)(s) by
writing y in the reduced monomial basis: multiplication by delta becomes the
regular representation, and the derivation contributes the (generally
non-diagonal) matrix of  w^e -> (w^e)'.

The system is solved by the classical pole-bound / undetermined-coefficients
method:

* the candidate places are the poles of the data: the irreducible s-factors
  of the denominators of M, G (solutions of a linear system are analytic at
  every regular point, so a rational solution has no other poles), and
  infinity;
* one routine bounds every place: where M has at most a simple pole, the
  local exponents of the homogeneous system are the eigenvalues of the
  residue matrix, so the pole order of y (its degree, at infinity) is
  bounded by the largest integer eigenvalue (taken generically in the
  parameters) or by the order forced by G;
* the residue matrix's characteristic polynomial is the product of those of
  its diagonal blocks, the strongly connected components of its nonzero
  pattern: the matrix is block triangular up to a permutation, so this is
  exact over any commutative ring, the residue towers with zero divisors
  included, and Faddeev-LeVerrier runs only inside the blocks (the residue
  matrices of a deep tower are sparse, with small blocks); its integer
  roots are found in Python ints, by the rational root theorem and Horner's
  rule on the integer polynomials it splits into;
* the residues and the valuations at infinity come from the contexts of
  :mod:`places` on the ground tower K0 (one cached context per place): each
  residue is one coefficient of the exact local expansion
  (``PlaceContext.residue``), so no norm is taken; at infinity they are
  those of the system in tau = 1/s;
* the substitution y = z/Den turns the finite bounds into a polynomial
  ansatz, whose degree is the bound at infinity;
* the remaining finite-dimensional linear system is solved exactly, and every
  scalar divided by along the way is recorded so callers can report the
  exceptional parameter values.

When every place involved is at most a simple pole (or the system is scalar,
where an exact leading-term balance handles higher-order poles), the bounds
are complete and an unsolvable system genuinely has no rational solution:
``NoTowerSolution``.  Otherwise the bound is heuristic and failure is
reported as ``DegreeBoundExceeded`` — never conflated with nonexistence.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy

from ..errors import (
    DegreeBoundExceeded,
    IntegrationIncomplete,
    NoTowerSolution,
    VerificationFailed,
)
from . import linalg
from .places import INF, place_context
from .scalars import SPoly
from .tower import FieldElem, deepest_tower

__all__ = ["rational_ode_solve", "fe_integrate_rational", "solve_rational_system"]


# ---------------------------------------------------------------------------
# local data at a place, read from its expansion in places.py
# ---------------------------------------------------------------------------

def _inf_order(inf, f):
    """Order at tau = 0 of -f(1/tau)/tau^2, f's entry in the tau = 1/s system.

    ``inf`` is the ground tower's context at infinity.
    """
    return inf.rat_valuation(f) - 2


def _blocks(R):
    """Index sets of R's diagonal blocks in a block-triangular order.

    They are the strongly connected components (Tarjan, SIAM J. Comput. 1
    (1972)) of the graph with an edge i -> j when R[i][j] is nonzero:
    permuting R by their order makes it block triangular.
    """
    D = len(R)
    succ = [[j for j in range(D) if R[i][j]] for i in range(D)]
    index, low, on_stack = {}, {}, set()
    stack, blocks = [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            block = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                block.append(w)
                if w == v:
                    break
            blocks.append(sorted(block))

    for v in range(D):
        if v not in index:
            visit(v)
    return blocks


def _charpoly(A, ct):
    """Faddeev-LeVerrier: [1, c_1, ..., c_D], det(T - A) = sum c_k T^(D-k)."""
    D = len(A)
    chi = [ct.one]
    AN = A  # A N_k, where N_1 = I and N_(k+1) = A N_k + c_k I
    for k in range(1, D + 1):
        tr = ct.sum(AN[i][i] for i in range(D))
        ck = tr * ct.from_ground(Fraction(-1, k))
        chi.append(ck)
        if k < D:  # A N_D + c_D I is zero (Cayley-Hamilton)
            N = [[AN[i][j] + ck if i == j else AN[i][j] for j in range(D)]
                 for i in range(D)]
            AN = linalg.mat_mul(A, N, ct.zero)
    return chi


def _horner(p, r):
    """The integer polynomial sum p[d] T^d at T = r."""
    v = 0
    for c in reversed(p):
        v = v * r + c
    return v


def _integer_eigs(R):
    """Integer eigenvalues of a residue matrix, generic in the parameters.

    The characteristic polynomial is the product of those of R's diagonal
    blocks (``_blocks``), each from Faddeev-LeVerrier over the residue
    field.  This is exact over any commutative ring, so also where the
    residue tower has zero divisors: R is block triangular up to a
    permutation, and a block-triangular determinant is the product of its
    diagonal-block determinants.  The product is taken, not the union of
    the blocks' roots: over a tower with zero divisors a product can
    vanish where no factor does (diag((1 - xi)/2, (1 + xi)/2) over
    xi^2 = 1 has eigenvalues 0 and 1, neither block alone any).

    An integer r is kept iff the product vanishes at r identically in the
    parameters and in every residue-field coordinate — special parameter
    values may admit more, and those surface separately through the
    recorded pivot conditions.  So each coordinate's coefficients, cleared
    of denominators, split by parameter monomial into integer polynomials
    in T, and r must be a root of all of them.  By the rational root
    theorem a nonzero one divides the lowest nonzero coefficient of each,
    so the candidates are 0 and the divisors of their gcd, with either
    sign, each checked by Horner's rule.
    """
    ct = R[0][0].tower
    D = len(R)
    parts = [_charpoly([[R[i][j] for j in block] for i in block], ct)
             for block in _blocks(R)]
    chi = parts[0]
    for part in parts[1:]:
        chi = [ct.dot((chi[a], part[n - a]) for a in range(len(chi))
                      if 0 <= n - a < len(part))
               for n in range(len(chi) + len(part) - 1)]
    by_coord = {}
    for k, c in enumerate(chi):
        for e, ce in c.coords.items():
            by_coord.setdefault(e, []).append((D - k, ce))
    comps = []
    for terms in by_coord.values():
        common = ct.gf.kernel.one
        for _, ce in terms:
            common = common * ce.den
        grouped = {}
        for td, ce in terms:
            for mono, q in (ce.num * common.exquo(ce.den)).items():
                grouped.setdefault(mono, [0] * (D + 1))[td] = q
        comps.extend(grouped.values())
    lows = [next(c for c in p if c) for p in comps]
    divs = sympy.divisors(math.gcd(*lows))
    return [r for r in [-d for d in reversed(divs)] + [0] + divs
            if all(_horner(p, r) == 0 for p in comps)]


# ---------------------------------------------------------------------------
# the system solver
# ---------------------------------------------------------------------------

def _coeff(sp, k, zero):
    cs = sp.coeffs
    return cs[k] if 0 <= k < len(cs) else zero


def _times_poly(gf, f, Q):
    """Q*f as an SPoly (Q must clear the s-denominator of f)."""
    if not f:
        return SPoly(gf, [])
    num = gf.numer_spoly(f)
    den = gf.denom_spoly(f)
    lead = den.coeffs[-1]
    q, r = Q.divmod(den.monic())
    if r:
        raise ArithmeticError("common denominator does not clear an entry")
    return (num * q).scale(gf.one / lead)


def _local_bound(ground, M, vm, vg, place):
    """Bound on a rational solution of  z' + M z = rhs  at one place.

    ``place`` is a monic irreducible SPoly, where the bound is a pole order
    (floor 0), or None for infinity, where it is a degree (floor -1: no
    polynomial part).  ``vm`` and ``vg`` are the valuations there of M and of
    the right sides, clamped to at most 0; at infinity they are those of the
    system in tau = 1/s.  Returns ``(bound, detail)``, where ``detail`` is
    None when the bound is complete and otherwise says why it is heuristic.
    """
    floor = 0 if place is not None else -1
    if vm >= -1:
        ctx = place_context(ground, INF if place is None else place)
        eigs = _integer_eigs([[ctx.residue(f) for f in row] for row in M])
        return max([floor, -(vg + 1)] + eigs), None
    if len(M) == 1:
        # exact leading balance: v(y) = v(rhs) - v(M)
        return max(floor, vm - vg), None
    if place is not None:
        where, what = f"at a degree-{place.degree} place", "pole"
    else:
        where, what = "at infinity", "degree"
    return max(0, -(vg + 1)) - vm, (
        f"pole of order {-vm} in the system matrix {where}; "
        f"{what} bound is heuristic"
    )


def solve_rational_system(ground, M, G, *, extra_cols=(), conditions=None):
    """Rational solutions of  z' + M z = G - sum_e c_e E_e  over K0.

    ``ground`` is the tower K0 itself (no generators), on which the local
    data at each place is read and cached (:func:`places.place_context`).
    ``M`` is a D×D matrix of ground-field elements, ``G`` a length-D vector,
    and each entry of ``extra_cols`` a further length-D vector whose constant
    coefficient c_e is solved for along with z (used to peel off logarithmic
    parts when integrating).

    Returns ``(Y, cvals, kernel, sound)`` where ``Y`` is a particular
    solution (ground-field entries), ``cvals`` the extra coefficients,
    ``kernel`` a basis of homogeneous solutions as ``(Yh, ch)`` pairs, and
    ``sound`` records whether the pole/degree bounds were complete.  Raises
    ``NoTowerSolution`` (sound) or ``DegreeBoundExceeded`` (heuristic bounds)
    when the linear system is inconsistent.
    """
    gf = ground.gf
    D = len(M)
    zero, one = gf.zero, gf.one
    rhs_vecs = [G] + [list(E) for E in extra_cols]

    # -- pole orders at the finite places: the poles of M and of the right
    #    sides, first seen first; a place that is a pole of neither bounds
    #    nothing, and neither does a positive valuation of a right side
    places = {}

    def pole_orders(entries):
        out = []
        for f in entries:
            if f:
                vals = {}
                for p, v in gf.monic_s_factors(f):
                    key = p.key()
                    places.setdefault(key, p)
                    vals[key] = v
                out.append(vals)
        return out

    m_vals = pole_orders(f for row in M for f in row)
    g_vals = pole_orders(f for vec in rhs_vecs for f in vec)

    sound_detail = None
    Den = SPoly(gf, [one])
    for key, p in places.items():
        vm = min([0] + [v.get(key, 0) for v in m_vals])
        vg = min([0] + [v.get(key, 0) for v in g_vals])
        mp, detail = _local_bound(ground, M, vm, vg, p)
        sound_detail = detail or sound_detail
        for _ in range(mp):
            Den = Den * p
    den_el = Den.to_element()
    dd = Den.diff().to_element() / den_el if Den.degree > 0 else zero

    Mt = [[M[i][j] - dd if i == j else M[i][j] for j in range(D)]
          for i in range(D)]
    rhs_t = [[f * den_el for f in vec] for vec in rhs_vecs]

    # -- degree bound at infinity, on the transformed system
    inf = place_context(ground, INF)
    vm = min([0] + [_inf_order(inf, f) for row in Mt for f in row if f])
    vg = min([0] + [_inf_order(inf, f) for vec in rhs_t for f in vec if f])
    N, detail = _local_bound(ground, Mt, vm, vg, None)
    sound_detail = detail or sound_detail

    # -- common denominator and polynomial identity
    Q = SPoly(gf, [one])
    for f in [x for row in Mt for x in row] + [x for vec in rhs_t for x in vec]:
        if f:
            d = gf.denom_spoly(f).monic()
            if d.degree > 0:
                Q = Q * d.divmod(Q.gcd(d))[0]
    QM = [[_times_poly(gf, Mt[i][j], Q) for j in range(D)] for i in range(D)]
    Qrhs = [[_times_poly(gf, f, Q) for f in vec] for vec in rhs_t]
    Qg, QE = Qrhs[0], Qrhs[1:]

    nE = len(QE)
    ncols = D * (N + 1) + nE if N >= 0 else nE
    nz = ncols - nE
    maxdeg = -1
    for row in QM:
        for e in row:
            if e.degree >= 0 and N >= 0:
                maxdeg = max(maxdeg, e.degree + N)
    if N >= 1:
        maxdeg = max(maxdeg, Q.degree + N - 1)
    for vec in Qrhs:
        for e in vec:
            maxdeg = max(maxdeg, e.degree)

    ints = [gf.from_rational(j) for j in range(N + 1)]
    rows = []
    rhs = []
    for i in range(D):
        for t in range(maxdeg + 1):
            row = [zero] * ncols
            if N >= 0:
                for j in range(N + 1):
                    acc = zero
                    if j >= 1:
                        qc = _coeff(Q, t - j + 1, zero)
                        if qc:
                            acc = acc + qc * ints[j]
                    row[i * (N + 1) + j] = acc
                for f in range(D):
                    e = QM[i][f]
                    if not e.coeffs:
                        continue
                    base = f * (N + 1)
                    for j in range(N + 1):
                        c = _coeff(e, t - j, zero)
                        if c:
                            row[base + j] = row[base + j] + c
            for eidx in range(nE):
                c = _coeff(QE[eidx][i], t, zero)
                if c:
                    row[nz + eidx] = c
            rows.append(row)
            rhs.append(_coeff(Qg[i], t, zero))

    pivots = []
    if rows:
        sol = linalg.solve(rows, rhs, zero, one, pivot_values=pivots)
    else:
        # no constraints at all: every ansatz coefficient is free
        sol = ([zero] * ncols,
               [[one if k == j else zero for k in range(ncols)]
                for j in range(ncols)])
    if conditions is not None:
        seen = set(conditions)
        for pv in pivots:
            for part in (gf.new(pv.num, gf.kernel.one),
                         gf.new(pv.den, gf.kernel.one)):
                if gf.is_rational_const(part):
                    continue
                if part not in seen:
                    seen.add(part)
                    conditions.append(part)
    if sol is None:
        if sound_detail is None:
            raise NoTowerSolution(
                "the equation has no solution rational over the tower"
            )
        raise DegreeBoundExceeded(sound_detail)

    x, null = sol

    def unpack(vec):
        ys = []
        for f in range(D):
            if N >= 0:
                cs = vec[f * (N + 1):(f + 1) * (N + 1)]
            else:
                cs = []
            ys.append(SPoly(gf, list(cs)).to_element() / den_el)
        return ys, list(vec[nz:])

    Y, cvals = unpack(x)
    kernel = [unpack(v) for v in null]
    return Y, cvals, kernel, sound_detail is None


# ---------------------------------------------------------------------------
# tower-level wrappers
# ---------------------------------------------------------------------------

def _ground(tower):
    """The tower K0 under a radical tower: the root of its extensions."""
    while tower.parent is not None:
        tower = tower.parent
    return tower


def _flatten_operator(tower, delta):
    """Matrix of  y -> y' + delta*y  acting on coordinate columns."""
    basis = tower.basis_monomials()
    idx = {e: k for k, e in enumerate(basis)}
    D = len(basis)
    gf = tower.gf
    A, _, _ = tower.regular_matrix(delta)
    for j, e in enumerate(basis):
        dmono = FieldElem(tower, {e: gf.one}).derive()
        for mono, c in dmono.coords.items():
            A[idx[mono]][j] = A[idx[mono]][j] + c
    return A, basis, idx


def rational_ode_solve(delta, g, *, conditions=None):
    """Solve  y' + delta*y = g  for y rational over the radical tower.

    Both arguments are tower elements (of the same tower or nested ones).
    Returns ``(y, kernel, sound)``: a particular solution, a basis of the
    homogeneous rational solutions, and whether the pole/degree bounds were
    complete — an empty kernel is a proof of nonexistence only when
    ``sound`` is true.  Pivots divided by during elimination are appended to
    ``conditions`` (when given) so callers can report parameter values where
    the formula degenerates.

    Raises ``NoTowerSolution`` when provably none exists, and
    ``DegreeBoundExceeded`` when only the heuristic bounds were exhausted.
    """
    tower = deepest_tower((delta.tower, g.tower))
    delta, g = tower.coerce(delta), tower.coerce(g)
    gf = tower.gf
    M, basis, _ = _flatten_operator(tower, delta)
    G = [gf.zero] * len(basis)
    for k, e in enumerate(basis):
        c = g.coords.get(e)
        if c:
            G[k] = c
    Y, _, kernel, sound = solve_rational_system(_ground(tower), M, G,
                                                conditions=conditions)
    y = tower.from_coords({e: c for e, c in zip(basis, Y)})
    if not tower.sum([y.derive(), delta * y, -g]).is_zero():
        raise VerificationFailed("ODE residual is nonzero (internal error)")
    hom = []
    for Yh, _ in kernel:
        h = tower.from_coords({e: c for e, c in zip(basis, Yh)})
        if h.is_zero():
            continue
        if not (h.derive() + delta * h).is_zero():
            raise VerificationFailed(
                "homogeneous residual is nonzero (internal error)"
            )
        hom.append(h)
    return y, hom, sound


def fe_integrate_rational(a, *, conditions=None):
    """Antiderivative of a tower element, split into rational and log parts.

    Returns ``(y, logs)`` with ``logs`` a list of ``(coefficient, argument)``
    pairs such that  y' + sum c_i * arg_i'/arg_i = a,  i.e. the integral of a
    is y + sum c_i log(arg_i).  Candidate log arguments are the irreducible
    s-factors of coordinate denominators together with the radicands of the
    tower.  Raises ``IntegrationIncomplete`` when no such decomposition is
    found in that span.
    """
    tower = a.tower
    gf = tower.gf
    M, basis, _ = _flatten_operator(tower, tower.zero)
    G = [gf.zero] * len(basis)
    for k, e in enumerate(basis):
        c = a.coords.get(e)
        if c:
            G[k] = c

    try:
        Y, _, _, _ = solve_rational_system(_ground(tower), M, G,
                                           conditions=conditions)
        y = tower.from_coords({e: c for e, c in zip(basis, Y)})
        if not (y.derive() - a).is_zero():
            raise VerificationFailed("integral residual is nonzero")
        return y, []
    except (NoTowerSolution, DegreeBoundExceeded):
        pass

    cand = []
    seen_keys = set()
    for c in a.coords.values():
        for p, _ in gf.monic_s_factors(c):
            if p.key() not in seen_keys:
                seen_keys.add(p.key())
                cand.append(tower.from_ground(p.to_element()))
    for info in tower.gens:
        if info.radicand is None:
            continue
        v = tower.coerce(info.radicand)
        if not any(v == w for w in cand):
            cand.append(v)
    if not cand:
        raise IntegrationIncomplete(
            "no rational antiderivative and no log candidates"
        )
    cols = []
    for v in cand:
        dlog = v.derive() / v
        col = [gf.zero] * len(basis)
        for k, e in enumerate(basis):
            c = dlog.coords.get(e)
            if c:
                col[k] = c
        cols.append(col)
    try:
        Y, cvals, _, _ = solve_rational_system(
            _ground(tower), M, G, extra_cols=cols, conditions=conditions
        )
    except (NoTowerSolution, DegreeBoundExceeded) as exc:
        raise IntegrationIncomplete(
            f"no decomposition over the candidate log span ({exc})"
        ) from exc
    y = tower.from_coords({e: c for e, c in zip(basis, Y)})
    logs = [(c, v) for c, v in zip(cvals, cand) if c]
    resid = tower.dot([(y.derive(), 1), (a, -1)]
                      + [(v.derive() / v, c) for c, v in logs])
    if not resid.is_zero():
        raise VerificationFailed("integral residual is nonzero (internal error)")
    return y, logs
