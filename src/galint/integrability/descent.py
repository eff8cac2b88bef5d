"""Descending integrability data from the covering to the base curve.

Diagonalizing the linear part usually costs radical extensions, so the
frame and the integrals built in the reduced chart carry coefficients in
a radical tower: they live on a finite covering of the curve, not on the
curve itself.  When the declared automorphism group acts faithfully on
the first integrals, symmetrized combinations

    sum over sigma of  sigma(F)^m sigma(Y_i),    m = 0, 1, 2, ...

have base-curve coefficients, and the Vandermonde matrix of the weights
(F and its conjugates are pairwise distinct under a faithful action)
keeps enough of them independent.  Power sums of conjugate integrals do
the same on the scalar side.  When instead a nontrivial subgroup fixes
every integral, no weight can separate the conjugated frames and the
covering is genuinely needed; its degree is the order of that subgroup.

Everything here acts in the original transverse chart, reached through
the one gauge pushforward ``flows.original_field`` (integrals need only
its substitution, ``RatioSeries.compose``).  Before any symmetrization,
descent proves that the right sides there are defined over the base: only
then does conjugating a symmetry yield again a symmetry of the *same*
dynamics, and the group action reduces to a coefficient-wise application
of the declared automorphisms.  A system whose right sides move is
labelled ``"not-over-base"`` instead.
"""

from itertools import combinations

from ..algebra.linalg import rank
from ..algebra.tower import AlgebraicTower
from ..errors import (
    InputError,
    OrbitIncomplete,
    RankDeficiency,
    VerificationFailed,
)
from ..series import RatioSeries, TruncSeries, linear_subst
from .fields import (
    CertifiedField,
    lie_bracket,
    ratio_lie,
    rderive_s,
    rpartial,
    scan_residual,
)
from .flows import _gauge_inverse, _system_fixed, original_field
from .integrals import FirstIntegral

__all__ = [
    "NeedsCovering",
    "galois_descent",
    "group_closure",
]

_GROUP_CAP = 64


class NeedsCovering:
    """The verdict that no base-curve frame exists without a covering.

    ``degree`` is the order of the subgroup acting trivially on every
    first integral; a covering of that degree is required before the
    commuting fields become single-valued.
    """

    __slots__ = ("degree",)

    def __init__(self, degree):
        self.degree = int(degree)

    def __repr__(self):
        return f"NeedsCovering({self.degree})"

    def __eq__(self, other):
        return isinstance(other, NeedsCovering) and self.degree == other.degree


# ---------------------------------------------------------------------------
# the declared automorphism group
# ---------------------------------------------------------------------------

class _Auto:
    """A word in the declared generators, with its radical images cached."""

    __slots__ = ("word", "images")

    def __init__(self, word, images):
        self.word = tuple(word)
        self.images = tuple(images)

    def on_elem(self, a):
        for name in self.word:
            a = a.galois(name)
        return a


def group_closure(tower, *, cap=_GROUP_CAP):
    """All distinct automorphisms generated by the declared generators.

    Returns a list of :class:`_Auto` starting with the identity.  Raises
    :class:`OrbitIncomplete` when the tower has radical generators but no
    declared automorphisms (the orbit cannot even start), or when closure
    is not reached within ``cap`` elements.
    """
    if not isinstance(tower, AlgebraicTower):
        raise InputError("group_closure expects an AlgebraicTower")
    idgen = [tower.gen(n) for n in tower.names]
    identity = _Auto((), idgen)
    if tower.r == 0:
        return [identity]
    names = tower.galois_names()
    if not names:
        raise OrbitIncomplete(
            "the tower has radical generators but no declared Galois "
            "generators; descent cannot enumerate the group"
        )
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for name in names:
                images = [img.galois(name) for img in e.images]
                if any(images == list(known.images) for known in elements):
                    continue
                new = _Auto(e.word + (name,), images)
                elements.append(new)
                nxt.append(new)
                if len(elements) > cap:
                    raise OrbitIncomplete(
                        f"automorphism closure exceeded {cap} elements; "
                        "check the declared generators"
                    )
        frontier = nxt
    return elements


def _series_galois(a, auto):
    """Coefficient-wise action; only symbol-free series can be acted on."""
    table = {}
    for i, sym, c in a.cells():
        if a.alphabet != "q" or not sym.is_neutral():
            raise VerificationFailed(
                "Galois action is undefined on series carrying "
                "transcendental symbols"
            )
        table[(i, sym)] = auto.on_elem(c)
    return TruncSeries(a.basis, a.alphabet, a.N, table)


def _ratio_galois(r, auto):
    return RatioSeries(_series_galois(r.num, auto),
                       _series_galois(r.den, auto))


def _ratio_fixed(r, auto):
    """Exact test sigma(num) * den == num * sigma(den)."""
    return _series_galois(r.num, auto) * r.den == r.num * _series_galois(r.den, auto)


# ---------------------------------------------------------------------------
# exact independence tests at a rational sample point
# ---------------------------------------------------------------------------

def _sample_points(nq):
    yield tuple((1, l + 2) for l in range(nq))
    yield tuple((2, 2 * l + 3) for l in range(nq))
    yield tuple((3, 3 * l + 5) for l in range(nq))


def _eval_series(a, qvals, tower):
    gf = tower.gf
    total = tower.zero
    for i, sym, c in a.cells():
        if a.alphabet != "q" or not sym.is_neutral():
            raise VerificationFailed(
                "independence sampling is undefined on series carrying "
                "transcendental symbols"
            )
        factor = gf.one
        for e, (p, q) in zip(i, qvals):
            if e:
                factor = factor * gf.from_rational(p) ** e / gf.from_rational(q) ** e
        total = total + c * tower.from_ground(factor)
    return total


def _eval_row(row, qvals, tower):
    """One row of ratios at a point, times the product of its distinct
    denominators; None when a denominator vanishes there.

    Each denominator is proven a unit first, so the scaled row spans the
    same line as the row of quotients, without dividing in the tower.
    """
    nums, dens = [], []
    for x in row:
        den = _eval_series(x.den, qvals, tower)
        if den.is_zero():
            return None
        if den not in dens:
            tower.require_unit(den)
            dens.append(den)
        nums.append((_eval_series(x.num, qvals, tower), den))
    out = []
    for num, den in nums:
        for d in dens:
            if d != den:
                num = num * d
        out.append(num)
    return out


def _point_rank(rows_of_ratios, tower):
    """Generic rank certified from below: evaluate at rational transverse
    points and eliminate over the tower.

    Tries the points of ``_sample_points`` in order, skipping one where a
    denominator vanishes, keeps the best rank seen and stops at the first
    point of full rank, since no later point can raise it; later points are
    not evaluated at all.  Elimination is division-free
    (:func:`linalg.rank`), and every evaluated denominator and every pivot
    is proven a unit by ``AlgebraicTower.require_unit``: a zero divisor
    raises ``ZeroDivisor`` with the witness a division by it would give.
    """
    if not rows_of_ratios:
        return 0
    nq = len(rows_of_ratios[0]) - 1
    full = min(len(rows_of_ratios), nq + 1)
    best = 0
    for qvals in _sample_points(nq):
        mat = []
        for row in rows_of_ratios:
            vals = _eval_row(row, qvals, tower)
            if vals is None:
                mat = None
                break
            mat.append(vals)
        if mat is None:
            continue
        pivots = []
        best = max(best, rank(mat, pivot_values=pivots))
        for pv in pivots:
            tower.require_unit(pv)
        if best == full:
            break
    return best


def _gradient_row(r, nq):
    return [rpartial(r, j) for j in range(nq)] + [rderive_s(r)]


# ---------------------------------------------------------------------------
# descent proper
# ---------------------------------------------------------------------------

def _scale_cols(cols, weight, rzero):
    return [weight * x if x else rzero for x in cols]


def _add_cols(a, b):
    return [x + y for x, y in zip(a, b)]


def _ratio_pow(r, m, rone):
    out = rone
    for _ in range(m):
        out = out * r
    return out


def galois_descent(certificate, *, cap=_GROUP_CAP):
    """Symmetrize a reduced-chart certificate down to the base curve.

    Returns a new certificate in the original chart with every coefficient
    fixed by the declared automorphisms, or one of two verdicts, decided in
    this order from the transported integrals and the right sides alone:
    :class:`NeedsCovering` when a nontrivial subgroup keeps all first
    integrals fixed (then no weighted symmetrization can recover a full
    frame on the base), and ``"not-over-base"`` when the original-chart
    right sides move under a declared generator (the input is not defined
    over the base, so there is nothing to descend to).  The frame is
    transported only after both.
    """
    from .certificates import IntegrabilityCertificate

    if not isinstance(certificate, IntegrabilityCertificate):
        raise InputError("galois_descent expects an IntegrabilityCertificate")
    if certificate.chart != "reduced":
        raise InputError("descent starts from the reduced-chart certificate")
    R = certificate.system
    flow = certificate.flow
    tower = R.tower
    nq = R.nq
    group = group_closure(tower, cap=cap)

    # transport the integrals to the original chart
    inv = _gauge_inverse(R)
    ints_orig = [
        F.series.compose(linear_subst(flow.basis, inv, F.series.num.N))
        for F in certificate.integrals
    ]

    # the subgroup fixing every integral decides whether descent can work
    stab = [
        auto for auto in group
        if all(_ratio_fixed(F, auto) for F in ints_orig)
    ]
    if len(stab) > 1:
        return NeedsCovering(len(stab))
    if not _system_fixed(R, flow.basis, tower.galois_names()):
        return "not-over-base"

    fields_orig = [
        original_field(R, f.components, f.s_component)
        for f in certificate.fields
    ]
    x_orig = fields_orig[-1]
    y_orig = fields_orig[:-1]

    base = ints_orig[0].num if ints_orig else x_orig[-1].num
    one_s = TruncSeries.constant(base.basis, "q", base.N, tower.one)
    rone = RatioSeries(one_s, one_s)
    rzero = RatioSeries(TruncSeries.zero(base.basis, "q", base.N), one_s)

    orbits = [[_ratio_galois(F, auto) for auto in group] for F in ints_orig]

    # scalar side: power sums of conjugates, then symmetrized products
    n_int = len(ints_orig)
    candidates = []
    for t in range(n_int):
        for m in range(1, len(group) + 1):
            acc = rzero
            for conj in orbits[t]:
                acc = acc + _ratio_pow(conj, m, rone)
            candidates.append(acc)
    for ta, tb in combinations(range(n_int), 2):
        acc = rzero
        for ca, cb in zip(orbits[ta], orbits[tb]):
            acc = acc + ca * cb
        candidates.append(acc)

    new_ints = []
    grad_rows = []
    for cand in candidates:
        if len(new_ints) == n_int:
            break
        if cand.is_zero():
            continue
        row = _gradient_row(cand, nq)
        if _point_rank(grad_rows + [row], tower) > len(grad_rows):
            new_ints.append(cand)
            grad_rows.append(row)
    if len(new_ints) < n_int:
        raise RankDeficiency(
            f"descent assembled only {len(new_ints)} of {n_int} independent "
            "base-curve integrals"
        )

    # frame side: conjugated fields weighted by powers of the conjugated
    # integrals (the Vandermonde trick), greedily kept while the point rank
    # of the selected columns grows
    n_y = len(y_orig)
    orb_fields = [
        [[_ratio_galois(x, auto) for x in cols] for auto in group]
        for cols in y_orig
    ]
    new_fields = []
    rank_rows = []
    weights = list(range(n_int)) or [None]
    for m in range(len(group)):
        if len(new_fields) == n_y or (m > 0 and n_int == 0):
            break
        for t in weights if m else [None]:
            for i in range(n_y):
                if len(new_fields) == n_y:
                    break
                acc = [rzero] * (nq + 1)
                for k, auto in enumerate(group):
                    cols = orb_fields[i][k]
                    if m and t is not None:
                        w = _ratio_pow(orbits[t][k], m, rone)
                        cols = _scale_cols(cols, w, rzero)
                    acc = _add_cols(acc, cols)
                if all(x.is_zero() for x in acc):
                    continue
                if _point_rank(rank_rows + [acc], tower) > len(rank_rows):
                    new_fields.append(acc)
                    rank_rows.append(acc)
    if len(new_fields) < n_y:
        raise RankDeficiency(
            f"descent assembled only {len(new_fields)} of {n_y} independent "
            "base-curve fields"
        )
    new_fields.append(x_orig)

    # every surviving coefficient must be fixed by every group element,
    # and the descended data must still verify against the dynamics
    for auto in group[1:]:
        for cols in new_fields:
            for x in cols:
                if not _ratio_fixed(x, auto):
                    raise VerificationFailed(
                        "a descended field coefficient moves under "
                        f"{'*'.join(auto.word)}"
                    )
        for F in new_ints:
            if not _ratio_fixed(F, auto):
                raise VerificationFailed(
                    "a descended integral coefficient moves under "
                    f"{'*'.join(auto.word)}"
                )

    order = certificate.orders.get("frame", flow.N - 1)
    for a in range(len(new_fields)):
        for b in range(a + 1, len(new_fields)):
            for r in lie_bracket(new_fields[a], new_fields[b]):
                defect, cert = scan_residual(r, 2)
                if defect is not None:
                    raise VerificationFailed(
                        f"descended fields {a} and {b} fail to commute at "
                        f"order {defect}"
                    )
                order = min(order, cert)
        for F in new_ints:
            res = ratio_lie(new_fields[a], F)
            defect, cert = scan_residual(res, 2)
            if defect is not None:
                raise VerificationFailed(
                    f"a descended integral moves along field {a} at order "
                    f"{defect}"
                )
            order = min(order, cert)

    fields = tuple(
        CertifiedField(cols[:nq], cols[-1], order) for cols in new_fields
    )
    integrals = tuple(
        FirstIntegral((), tower.one, F, order) for F in new_ints
    )
    orders = dict(certificate.orders)
    orders["descent"] = order
    return IntegrabilityCertificate(
        certificate.l, fields, integrals, "base-field", orders,
        chart="original", flow=flow, frame=certificate.frame,
        report=certificate.report, system=R,
    )
