"""Descending integrability data from the covering to the base curve.

Diagonalizing the linear part usually costs radical extensions, so the
frame and the integrals built in the reduced chart carry coefficients in
a radical tower: they live on a finite covering of the curve, not on the
curve itself.  Descent averages over the declared automorphism group G:

    average(x) = sum over sigma in G of sigma(x),

|G| times the Reynolds operator, has base-curve coefficients whatever x
is.  The integral candidates are the averages of the powers F_t^m (power
sums of the conjugates) and of the products F_a F_b; the frame candidates
are the averages of F_t^m Y_i, which are sum sigma(F_t)^m sigma(Y_i)
since sigma acts on coefficients as a ring automorphism.  When G acts
faithfully on the integrals, the conjugates of F are pairwise distinct and
the Vandermonde matrix of the weights keeps enough of the averages
independent; the first ones that raise the sample rank are kept.  When
instead a nontrivial subgroup fixes every integral, no weight can
separate the conjugated frames and the covering is genuinely needed; its
degree is the order of that subgroup.

Everything here acts in the original transverse chart, reached through
the one gauge pushforward ``flows.original_field`` (integrals need only
its substitution, ``RatioSeries.compose``).  Before any average is taken,
descent proves that the right sides there are defined over the base: only
then does conjugating a symmetry yield again a symmetry of the *same*
dynamics, and the group action reduces to a coefficient-wise application
of the declared automorphisms.  A system whose right sides move is
labelled ``"not-over-base"`` instead.

Which averages are independent (``check.sample_rank``) and whether the
kept ones are fixed by the group (``check.galois_moved``) are certificate
claims, decided on the check engine; only the stabiliser of the
integrals (:func:`_ratio_fixed`) is the construction's own decision.
"""

from itertools import combinations

from ..algebra.tower import AlgebraicTower
from ..check import galois_moved, sample_rank as _point_rank
from ..errors import (
    InputError,
    OrbitIncomplete,
    RankDeficiency,
    VerificationFailed,
)
from ..series import RatioSeries, TruncSeries, linear_subst
from .fields import CertifiedField, scan_frame
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


def group_closure(tower):
    """All distinct automorphisms generated by the declared generators.

    Returns a list of :class:`_Auto` starting with the identity.  Raises
    :class:`OrbitIncomplete` when the tower has radical generators but no
    declared automorphisms (the orbit cannot even start), or when closure
    is not reached within ``_GROUP_CAP`` elements.
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
                if len(elements) > _GROUP_CAP:
                    raise OrbitIncomplete(
                        f"automorphism closure exceeded {_GROUP_CAP} elements; "
                        "check the declared generators"
                    )
        frontier = nxt
    return elements


def _series_galois(a, auto):
    """Coefficient-wise action; only q-alphabet series can be acted on."""
    if a.alphabet != "q":
        raise VerificationFailed(
            "Galois action is undefined on series carrying "
            "transcendental symbols"
        )
    return TruncSeries(a.basis, a.alphabet, a.N,
                       {i: auto.on_elem(c) for i, c in a.table.items()})


def _ratio_galois(r, auto):
    return RatioSeries(_series_galois(r.num, auto),
                       _series_galois(r.den, auto))


def _ratio_fixed(r, auto):
    """Exact test sigma(num) * den == num * sigma(den)."""
    return _series_galois(r.num, auto) * r.den == r.num * _series_galois(r.den, auto)


# ---------------------------------------------------------------------------
# descent proper
# ---------------------------------------------------------------------------

def _independent(candidates, need, tower, what):
    """The first ``need`` candidates, in order, that raise the sample rank
    (``check.sample_rank``) of the ones kept before them; zero candidates
    are skipped.  A candidate is a field's column list or an integral.

    ``candidates`` is consumed lazily, only until ``need`` are kept; raises
    RankDeficiency when it runs out first.
    """
    kept = []
    candidates = iter(candidates)
    while len(kept) < need:
        cand = next(candidates, None)
        if cand is None:
            raise RankDeficiency(
                f"descent assembled only {len(kept)} of {need} independent "
                f"base-curve {what}"
            )
        if not (any(cand) if isinstance(cand, list) else cand):
            continue
        if _point_rank(kept + [cand], tower) > len(kept):
            kept.append(cand)
    return kept


def galois_descent(certificate):
    """Average a reduced-chart certificate down to the base curve.

    Returns a new certificate in the original chart with every coefficient
    fixed by the declared automorphisms, or one of two verdicts, decided in
    this order from the transported integrals and the right sides alone:
    :class:`NeedsCovering` when a nontrivial subgroup keeps all first
    integrals fixed (then no weighted average can recover a full frame on
    the base), and ``"not-over-base"`` when the original-chart right sides
    move under a declared generator (the input is not defined over the
    base, so there is nothing to descend to).  The frame is transported
    only after both.

    Every candidate is a group average, sum over sigma of sigma(x) (|G|
    times the Reynolds operator): the integral candidates average F_t^m
    for m = 1..|G|, then F_a F_b for a < b; the frame candidates average
    omega Y_i with omega = 1, then F_t^m for m = 1..|G|-1.  Candidates are
    kept in that order while the sample rank grows (:func:`_independent`),
    then the kept data is checked to be fixed by the group
    (``check.galois_moved``) and its brackets and Lie derivatives are
    checked on the dense engine (:func:`fields.scan_frame`), with the
    same debt as every other frame claim.
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
    group = group_closure(tower)

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
    rzero = RatioSeries(TruncSeries.zero(base.basis, "q", base.N), one_s)

    def average(x):
        acc = rzero
        for auto in group:
            acc = acc + _ratio_galois(x, auto)
        return acc

    # pows[t][m] = F_t^m for m = 0..|G|: power sums and frame weights
    pows = []
    for F in ints_orig:
        p = [RatioSeries(one_s, one_s)]
        for _ in group:
            p.append(p[-1] * F)
        pows.append(p)

    new_ints = _independent(
        map(average, [Fm for p in pows for Fm in p[1:]]
            + [Fa * Fb for Fa, Fb in combinations(ints_orig, 2)]),
        len(ints_orig), tower, "integrals")
    # omega = 1 (None: the columns as they are), then F_t^m, m < |G|
    weights = [None] + [p[m] for m in range(1, len(group)) for p in pows]
    new_fields = _independent(
        ([average(x if w is None else (w * x if x else rzero)) for x in cols]
         for w in weights for cols in y_orig),
        len(y_orig), tower, "fields")
    new_fields.append(x_orig)

    # every surviving coefficient must be fixed by every group element,
    # and the descended data must still verify against the dynamics
    moved = galois_moved(group, new_fields, new_ints)
    if moved:
        raise VerificationFailed(
            f"descended data moves: {'; '.join(moved)}")
    order = scan_frame(new_fields, new_ints,
                       certificate.orders.get("frame", flow.N - 1))

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
