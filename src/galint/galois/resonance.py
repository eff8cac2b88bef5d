"""Resonance relations among hyperexponential log-derivatives.

A diagonalized reduced system hands us a vector of log-derivatives
h = (h_1, ..., h_d), h_l = H_l'/H_l, for hyperexponential solutions H_l
living over a radical tower.  A cell (j, k) of the variational equations
is resonant when H^k / H_j lies in the coefficient field.  Everything here
answers such multiplicative questions about the H_l exactly:

* ``relation_lattice`` — the subgroup of Z^d of all k with H^k in the
  field, swept up to a sup-norm bound and returned as a Hermite normal form
  basis with multiplicative witnesses.  This is what the pipeline runs:
  first integrals, the commuting frame and certificates read its basis
  and witnesses.
* ``resonance_test`` — is  H^k / H_j  an element of the coefficient field?
  Equivalently, does  y'/y = sum_l k_l h_l - h_j  have a solution y in the
  tower?  Such a y is exactly what turns the (j, k) jet cell resonant in
  normal-form computations, so the verdict carries it as a witness.  A
  report answers single cells with it (``ResonanceReport.query``).

Positive verdicts carry proofs (each witness is re-verified on
construction, and each lattice witness again after the Hermite normal form
recombines them), and inconclusive solver outcomes — ``DegreeBoundExceeded``
— are first-class: they propagate or are listed, never silently mapped to
NonResonant.

The lattice sweep prunes candidates with an exact necessary condition before
the ODE solver runs: at every usable singular place, the residue of
sum_l k_l h_l must be a parameter-free rational whose denominator divides
the ramification index, because for a would-be witness it equals
ord(y)/m.  The places and the residues (branch-invariant u^{-m}
coefficients) come from :func:`~galint.algebra.places.pole_places` and
:func:`~galint.algebra.places.residue_exponent`; places where a residue
fails to scalarize simply contribute no constraint.  The rows are fixed for
the whole sweep, so they are converted to integers once, and each candidate
costs a few integer dot products and one congruence.

Verdicts are generic in the parameters.  Since those are independent
transcendentals, a combination delta = delta_0 + sum_p alpha_p delta_p that
is affine in them admits an invertible witness only if every delta_p
vanishes identically: specializing a witness at two integer parameter
values yields y1/y0 with (y1/y0)'/(y1/y0) = delta_p, an element all of
whose valuations are pinned to zero by the rationality of y's coordinates
in alpha.  That settles most candidates exactly, without the ODE solver
and regardless of its bounds.  (Special rational parameter values can
still be resonant; pass a ``conditions`` list to skip the shortcut and
collect the pivot denominators the solver divides by.)
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..errors import (
    DegreeBoundExceeded,
    InputError,
    NotExpandable,
    VerificationFailed,
    ZeroDivisor,
)
from ..algebra.linode import rational_ode_solve
from ..algebra.places import (
    INF,
    Exponent,
    place_context,
    pole_places,
    residue_exponent,
)
from ..algebra.tower import deepest_tower

__all__ = [
    "Resonant",
    "NonResonant",
    "ResonanceReport",
    "resonance_test",
    "relation_lattice",
]


class Resonant:
    """Positive verdict; ``witness`` satisfies y'/y = (tested combination)."""

    __slots__ = ("witness",)

    def __init__(self, witness):
        self.witness = witness

    def __bool__(self):
        return True

    def __repr__(self):
        return f"Resonant(witness={self.witness!r})"


class NonResonant:
    """Proven absence of a tower witness (within complete solver bounds)."""

    __slots__ = ("detail",)

    def __init__(self, detail=""):
        self.detail = detail

    def __bool__(self):
        return False

    def __repr__(self):
        if self.detail:
            return f"NonResonant({self.detail!r})"
        return "NonResonant()"


def combination(tower, k, h):
    """The tower element  sum_l k_l * h_l."""
    return tower.dot((c, hl) for c, hl in zip(k, h) if c)


def _param_split(tower, delta):
    """delta as ``(delta0, {param: part})`` with parameter-free parts.

    None when some coordinate is not affine in the parameters (or carries
    one in its denominator).
    """
    gf = tower.gf
    if not gf.param_names:
        return delta, {}
    base = {}
    parts = {}
    for e, c in delta.coords.items():
        sp = gf.param_affine_parts(c)
        if sp is None:
            return None
        f0, lin = sp
        if f0:
            base[e] = f0
        for name, fi in lin.items():
            parts.setdefault(name, {})[e] = fi
    return (tower.from_coords(base),
            {n: tower.from_coords(m) for n, m in parts.items()})


def unit_solution(delta, *, conditions=None):
    """An invertible rational y with  y' + delta*y = 0  (or None), and
    whether the solver's bounds were complete, which makes a None a proof.

    Both come from ``rational_ode_solve``'s ``(y, kernel, sound)`` on the
    homogeneous equation: the kernel vectors are tried in turn and then
    their sum, and ``sound`` is passed on.  In an etale (non-field) tower a
    kernel vector can be a zero divisor, which never witnesses membership
    in a field; those are skipped.
    """
    _, hom, sound = rational_ode_solve(delta, delta.tower.zero,
                                       conditions=conditions)
    cands = list(hom)
    if len(hom) > 1:
        total = hom[0]
        for y in hom[1:]:
            total = total + y
        cands.append(total)
    for y in cands:
        try:
            y.tower.require_unit(y)
        except ZeroDivisor:
            continue
        return y, sound
    return None, sound


def _witness_verdict(delta, *, conditions=None):
    """Solve y'/y = delta over the tower; Resonant/NonResonant, or raise."""
    if conditions is None:
        split = _param_split(delta.tower, delta)
        if split is not None and any(not p.is_zero()
                                     for p in split[1].values()):
            # The parameters are independent transcendentals: specializing
            # a would-be witness at two integer values and comparing
            # valuations forces every parameter part of delta to vanish, so
            # a nonzero part is a sound generic no.
            return NonResonant("nonzero parameter part in the combination")
    y, sound = unit_solution(-delta, conditions=conditions)
    if y is not None:
        return Resonant(y)
    if not sound:
        raise DegreeBoundExceeded(
            "witness search bounds were heuristic and nothing was found"
        )
    return NonResonant()


def _checked_query(n, j, k):
    """A resonance question (j, k) on a basis of n log-derivatives as
    (int, tuple of ints); raises InputError when it is malformed."""
    j = int(j)
    if not 1 <= j <= n:
        raise InputError(f"index j={j} out of range 1..{n}")
    k = tuple(int(x) for x in k)
    if len(k) != n:
        raise InputError("multi-index length does not match the basis")
    if any(x < 0 for x in k):
        raise InputError("multi-index entries must be nonnegative")
    if sum(k) < 2:
        raise InputError("resonance multi-indices have |k| >= 2")
    return j, k


def resonance_test(h, j, k, *, conditions=None):
    """Decide whether H^k / H_j lies in the coefficient field.

    ``h`` is the vector of log-derivatives h_l = H_l'/H_l (tower elements),
    ``j`` a 1-based index into it, and ``k`` a multi-index of nonnegative
    integers with |k| >= 2.  Returns ``Resonant(witness)`` with
    witness'/witness = sum_l k_l h_l - h_j, or ``NonResonant()`` when the
    solver proves no tower witness exists; raises ``DegreeBoundExceeded``
    when the question is out of the solver's reach.
    """
    h = list(h)
    if not h:
        raise InputError("empty log-derivative basis")
    j, k = _checked_query(len(h), j, k)
    tower = deepest_tower(a.tower for a in h)
    h = [tower.coerce(a) for a in h]
    delta = combination(tower, k, h) - h[j - 1]
    return _witness_verdict(delta, conditions=conditions)


# ---------------------------------------------------------------------------
# integer lattice utilities (tiny matrices; plain exact row reduction)
# ---------------------------------------------------------------------------

def _hnf_with_transform(rows, width):
    """Row Hermite normal form plus the row transform over the inputs.

    Returns ``(basis, transform)``: basis rows have positive pivots on
    strictly increasing columns with entries above each pivot reduced into
    [0, pivot), and ``transform[i]`` gives basis row i as an integer
    combination of the input rows.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(width):
        while True:
            live = [i for i in range(r, n) if a[i][c]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(a[i][c]))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            rest = [i for i in range(r + 1, n) if a[i][c]]
            if not rest:
                break
            for i in rest:
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if r < n and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
    return [tuple(row) for row in a[:r]], [tuple(row) for row in u[:r]]


def _express(basis, k):
    """Integer coefficients of k over the HNF basis rows, or None."""
    v = list(k)
    coeffs = []
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return None
        coeffs.append(q)
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        return None
    return coeffs


def _sign_normal(k):
    for x in k:
        if x:
            return k if x > 0 else tuple(-y for y in k)
    return k


def _graded(vecs):
    return sorted(vecs, key=lambda k: (max(abs(x) for x in k),
                                       sum(abs(x) for x in k),
                                       tuple(-x for x in k)))


def _signed_candidates(d, k_max):
    out = []
    for k in itertools.product(range(-k_max, k_max + 1), repeat=d):
        nz = next((x for x in k if x), 0)
        if nz > 0:
            out.append(k)
    return _graded(out)


def _nonneg_members(basis, d, k_max):
    out = []
    for k in itertools.product(range(k_max + 1), repeat=d):
        if any(k) and _express(basis, k) is not None:
            out.append(k)
    return _graded(out)


# ---------------------------------------------------------------------------
# residue pruning for the lattice sweep
# ---------------------------------------------------------------------------

def _residue_rows(tower, h):
    """Exact residue vectors of the h_l at every usable singular place.

    Each entry is ``(m, exps)`` with one affine Exponent per h_l, from
    :func:`~galint.algebra.places.residue_exponent`.  Places with
    branch-dependent or non-affine residues are dropped entirely (they
    impose no pruning constraint).
    """
    radicands = [g.radicand for g in tower.gens if g.radicand is not None]
    places = pole_places(h + radicands)
    rows = []
    for loc in [places[key] for key in sorted(places, key=str)] + [INF]:
        try:
            ctx = place_context(tower, loc)
            exps = []
            for a in h:
                e = residue_exponent(ctx, a)
                if not isinstance(e, Exponent):
                    break
                exps.append(e)
            else:
                rows.append((ctx.m, exps))
        except (NotExpandable, ZeroDivisor):
            continue
    return rows


def _integer_rows(rows):
    """``_residue_rows`` in integers, converted once for the whole sweep.

    Each row ``(m, exps)`` becomes ``(m, L, R, P)``: L is the common
    denominator of the rational parts, R_l = L times the rational part of
    exps[l], and P holds, for each parameter, the integer row that its parts
    scaled by their common denominator make.
    """
    out = []
    for m, exps in rows:
        L = math.lcm(*(e.rational.denominator for e in exps))
        R = [int(e.rational * L) for e in exps]
        parts = {}
        for l, e in enumerate(exps):
            for name, v in e.param:
                parts.setdefault(name, [Fraction(0)] * len(exps))[l] = v
        P = []
        for row in parts.values():
            den = math.lcm(*(v.denominator for v in row))
            P.append([int(v * den) for v in row])
        out.append((m, L, R, P))
    return out


def _residue_admissible(rows, k):
    """Necessary condition: every residue combination is in (1/m) Z.

    ``rows`` come from ``_integer_rows``.  The combination sum_l k_l e_l at
    a place is parameter-free iff sum_l k_l P_l = 0 for every parameter row
    P (a row is a nonzero multiple of that parameter's parts), and its
    rational part sum_l k_l R_l / L lies in (1/m) Z iff
    m * sum_l k_l R_l = 0 (mod L): the same test as in exact Exponent
    arithmetic, with integers only.
    """
    for m, L, R, P in rows:
        for row in P:
            if sum(c * p for c, p in zip(k, row)):
                return False
        if m * sum(c * r for c, r in zip(k, R)) % L:
            return False
    return True


# ---------------------------------------------------------------------------
# the relation lattice
# ---------------------------------------------------------------------------

class ResonanceReport:
    """Lattice of multiplicative relations among the H_l, with witnesses.

    ``basis`` rows are in Hermite normal form and each carries, in
    ``witnesses``, a verified tower element y with y'/y = sum_l row_l h_l.
    ``res`` lists the nonnegative lattice members met within the bound,
    ``inconclusive`` the swept candidates whose verdict the solver could not
    settle, and ``queries`` accumulates (j, k) tests run through ``query``.
    """

    def __init__(self, h, k_max, basis, witnesses, inconclusive, res):
        self.h = tuple(h)
        self.k_max = int(k_max)
        self.basis = [tuple(r) for r in basis]
        self.witnesses = {tuple(r): w for r, w in witnesses.items()}
        self.inconclusive = [tuple(t) for t in inconclusive]
        self.res = [tuple(t) for t in res]
        self.queries = {}

    @property
    def rank(self):
        return len(self.basis)

    @property
    def l_candidate(self):
        """Candidate block count suggested by the relation rank."""
        return len(self.h) - self.rank + 1

    def member(self, k):
        k = tuple(int(x) for x in k)
        if len(k) != len(self.h):
            raise InputError("multi-index length does not match the basis")
        return _express(self.basis, k) is not None

    def witness(self, k):
        """Witness for an arbitrary lattice member, combined Z-linearly."""
        k = tuple(int(x) for x in k)
        coeffs = _express(self.basis, k)
        if coeffs is None:
            raise InputError(f"{k} is not in the computed relation lattice")
        tower = deepest_tower(a.tower for a in self.h)
        y = tower.one
        for c, row in zip(coeffs, self.basis):
            if c:
                y = y * self.witnesses[row] ** c
        return y

    def query(self, j, k):
        """resonance_test through the lattice, memoized on (j, k).

        Membership of k - e_j answers positively with a combined witness;
        a completed sweep answers negatively for in-bound candidates; only
        the remaining cases touch the ODE solver.
        """
        j, k = key = _checked_query(len(self.h), j, k)
        if key in self.queries:
            return self.queries[key]
        vec = list(k)
        vec[j - 1] -= 1
        if _express(self.basis, vec) is not None:
            verdict = Resonant(self.witness(vec))
        elif (max(abs(x) for x in vec) <= self.k_max
              and _sign_normal(tuple(vec)) not in set(self.inconclusive)):
            verdict = NonResonant("swept without a witness")
        else:
            verdict = resonance_test(self.h, j, k)
        self.queries[key] = verdict
        return verdict


def relation_lattice(h, k_max, *, conditions=None):
    """Sweep |k|_inf <= k_max for relations  prod_l H_l^{k_l} in the field.

    Returns a :class:`ResonanceReport` whose basis is the Hermite normal
    form of every relation found.  Candidates are pruned by the exact
    residue condition before the ODE solver runs; sign-opposite candidates
    and candidates already inside the found lattice are skipped; solver
    outcomes that are inconclusive land in ``report.inconclusive`` instead
    of being dropped.
    """
    h = list(h)
    if not h:
        raise InputError("empty log-derivative basis")
    k_max = int(k_max)
    if k_max < 1:
        raise InputError("k_max must be at least 1")
    tower = deepest_tower(a.tower for a in h)
    h = [tower.coerce(a) for a in h]
    d = len(h)
    rows = _integer_rows(_residue_rows(tower, h))

    raw = []
    raw_wit = []
    basis, transform = [], []
    inconclusive = []
    for k in _signed_candidates(d, k_max):
        if basis and _express(basis, list(k)) is not None:
            continue
        if not _residue_admissible(rows, k):
            continue
        try:
            v = _witness_verdict(combination(tower, k, h),
                                 conditions=conditions)
        except DegreeBoundExceeded:
            inconclusive.append(k)
            continue
        if not v:
            continue
        raw.append(list(k))
        raw_wit.append(v.witness)
        basis, transform = _hnf_with_transform(raw, d)

    witnesses = {}
    for row, comb in zip(basis, transform):
        y = tower.one
        for c, w in zip(comb, raw_wit):
            if c:
                y = y * w ** c
        if not (y.derive() - combination(tower, row, h) * y).is_zero():
            raise VerificationFailed(
                "recombined lattice witness failed its log-derivative check"
            )
        witnesses[tuple(row)] = y
    res = _nonneg_members(basis, d, k_max)
    return ResonanceReport(h, k_max, basis, witnesses, inconclusive, res)

