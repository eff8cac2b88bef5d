"""Local analysis at points of the base curve.

This module owns singular-place discovery and residues: where a coefficient
can be singular (:func:`pole_places`) and the residue exponent of h·ds at
such a place (:func:`residue_exponent`).  The Fuchsian scan and the
resonance lattice's pruning both read them from here, and the rational ODE
solver (:mod:`linode`) is a client too: it reads the residue matrices and
the valuations at infinity behind its pole and degree bounds from the
contexts of :func:`place_context` on the ground tower.  Values at a point
regular on every sheet are the u^0 coefficient of the expansion there
(:func:`evaluate_at`); a radicand whose value at a point is a zero divisor
marks a branch point on some sheet, and its context raises NotExpandable.

For a tower element and a place of the s-line (a scalar point, a conjugacy
class of algebraic points given by an irreducible monic polynomial, or the
point at infinity) this module produces truncated ramified Laurent–Puiseux
expansions

    a  =  c_v u^v + c_{v+1} u^{v+1} + ...,      u^m = s - s0   (τ = 1/s at ∞)

with coefficients in a *constant* residue tower: the original parameter
scalars, a root of the place polynomial when the point is algebraic, and one
formal root per tower radical for the leading coefficients.  The ramification
index m is discovered, not declared: it starts at 1 and is refined whenever a
radicand's valuation is not divisible by the radical degree.

:meth:`PlaceContext.expand` is exact through the exponent asked for, and
each coefficient holds every branch at once, so residues and pole tests read
it directly: :meth:`~PlaceContext.residue`, and
:meth:`~PlaceContext.valuation_below` (the least valuation over the
branches).  Only a leading term of unknown depth, a radicand's or
:func:`fe_local_exponent`'s, needs a cancellation guard: a sum of monomials
can cancel to arbitrary depth, so "expand a bit and look" is not a proof.
We cap the cancellation through the field norm: for nonzero a,

    v(a) = v(N(a)) - Σ_{σ ≠ id} v(σ(a))  ≤  v(N(a)) - (D-1)·L,

where L lower-bounds every conjugate's valuation monomial-by-monomial (the
recursive bound ``lb`` below — conjugates of a radical share the radicand, so
branch valuations obey the same bound).  v(N(a)) is a plain rational-function
valuation, computed exactly.  Expanding through the cap either exhibits the
leading term or proves a = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import NotExpandable, TowerError, VerificationFailed, ZeroDivisor
from .scalars import SPoly
from .tower import AlgebraicTower, FieldElem

__all__ = [
    "INF",
    "Exponent",
    "SingularPlace",
    "PlaceContext",
    "place_context",
    "pole_places",
    "residue_exponent",
    "fe_local_exponent",
    "fiber_tower",
    "evaluate_at",
]


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


class Exponent:
    """A local exponent: rational part plus a ℚ-linear parameter part.

    Immutable.  These are the exact exponents that ``fuchsian_scan`` puts on
    its places and that the lattice sweep's residue rows are read from.  The
    addition and scaling kept here are what the tests use as the exact
    reference for the integer residue kernel and the Fuchs relation.
    """

    __slots__ = ("rational", "param")

    def __init__(self, rational, param=()):
        self.rational = Fraction(rational)
        if isinstance(param, dict):
            param = tuple(sorted((k, Fraction(v)) for k, v in param.items() if v))
        self.param = tuple(param)

    @classmethod
    def from_scalar(cls, gf, f):
        """Build from an affine parameter scalar; None if not affine."""
        parts = gf.affine_parts(f)
        if parts is None:
            return None
        const, lin = parts
        return cls(const, lin)

    def param_dict(self):
        return dict(self.param)

    def __add__(self, other):
        if isinstance(other, Exponent):
            d = self.param_dict()
            for k, v in other.param:
                d[k] = d.get(k, Fraction(0)) + v
            return Exponent(self.rational + other.rational, d)
        return Exponent(self.rational + Fraction(other), self.param)

    def scale(self, c):
        c = Fraction(c)
        return Exponent(self.rational * c, {k: v * c for k, v in self.param})

    def __eq__(self, other):
        if isinstance(other, Exponent):
            return self.rational == other.rational and self.param == other.param
        if not self.param:
            try:
                return self.rational == Fraction(other)
            except (TypeError, ValueError):
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        # a parameter-free exponent equals its rational, so hashes as it
        return hash((self.rational, self.param) if self.param
                    else self.rational)

    def __repr__(self):
        bits = []
        if self.rational or not self.param:
            bits.append(str(self.rational))
        for k, v in self.param:
            if v == 1:
                bits.append(k)
            elif v == -1:
                bits.append(f"-{k}")
            else:
                bits.append(f"{v}*{k}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")


class SingularPlace:
    """A singular place found by the scan: location, ramification, exponents.

    ``location`` is a Fraction / parameter scalar (finite point), an SPoly
    (irreducible monic-in-s polynomial, an algebraic point class), or INF.
    ``exponents`` is one entry per diagonal component: an :class:`Exponent`
    when affine in the parameters, else the string rendering of the algebraic
    value.  ``kind`` tags the provenance: curve-singularity (the parametriza-
    tion γ is singular), vector-field-singularity, or gauge-artifact.
    """

    __slots__ = ("location", "m", "exponents", "kind")

    def __init__(self, location, m, exponents=(), kind="vector-field-singularity"):
        self.location = location
        self.m = m
        self.exponents = tuple(exponents)
        self.kind = kind

    def __repr__(self):
        loc = self.location
        if isinstance(loc, SPoly):
            loc = repr(loc)
        return (f"SingularPlace({loc}, m={self.m}, exponents="
                f"{list(self.exponents)}, kind={self.kind})")


# --------------------------------------------------------------------------
# truncated Laurent series over a constant tower


class Lau:
    """u^v · (cs[0] + cs[1] u + ...), coefficients in a constant tower.

    ``len(cs)`` is the relative precision: coefficients beyond it are
    unknown, not zero.  The all-zero series keeps its precision window so
    sums honestly propagate what is known.  ``ct`` may be a subtower of the
    coefficients' tower, since the place context extends it as it adjoins
    generators; each product coefficient is one ``ct.dot``, which runs on
    the deepest tower of its operands.
    """

    __slots__ = ("ct", "v", "cs")

    def __init__(self, ct, v, cs):
        while cs and not cs[0]:
            cs.pop(0)
            v += 1
        self.ct = ct
        self.v = v
        self.cs = cs

    @classmethod
    def zero(cls, ct, v, prec):
        return cls(ct, v, [ct.zero] * prec) if prec > 0 else cls(ct, v, [])

    def known_through(self):
        """Largest exponent whose coefficient is determined (inclusive)."""
        return self.v + len(self.cs) - 1

    def coeff(self, k):
        if k < self.v:
            return self.ct.zero
        if k > self.known_through():
            raise NotExpandable(f"coefficient u^{k} beyond computed precision")
        return self.cs[k - self.v]

    def __add__(self, other):
        # both operands promise: zero below v, coefficients known through
        # v + len - 1; the sum keeps the weaker of the two windows.
        ct = self.ct
        v = min(self.v, other.v)
        end = min(self.known_through(), other.known_through())
        if end < v:
            return Lau(ct, v, [])
        cs = []
        for k in range(v, end + 1):
            a = self.cs[k - self.v] if self.v <= k else ct.zero
            b = other.cs[k - other.v] if other.v <= k else ct.zero
            cs.append(a + b)
        return Lau(ct, v, cs)

    def mul(self, other, rel_prec):
        """Product truncated to relative precision ``rel_prec``."""
        ct = self.ct
        prec = min(len(self.cs), len(other.cs), rel_prec)
        if prec <= 0 or not self.cs or not other.cs:
            return Lau.zero(ct, self.v + other.v, max(prec, 0))
        a, b = self.cs, other.cs
        out = [ct.dot((a[i], b[k - i]) for i in range(k + 1))
               for k in range(prec)]
        return Lau(ct, self.v + other.v, out)

    def scale(self, c):
        return Lau(self.ct, self.v, [c * x for x in self.cs])

    def shift(self, k):
        return Lau(self.ct, self.v + k, list(self.cs))

    def binom_pow(self, exponent, rel_prec):
        """(self)^exponent for Fraction exponent, valid when cs[0] invertible.

        Returns (leading-free) the series (cs[0] + cs[1]u + ...)^e as
        1-leading form requires factoring out cs[0]; the caller handles the
        leading coefficient and the u^{v·e} shift.  Here self must have v = 0
        and cs[0] = 1 (tangent form); exponent may be any Fraction.
        """
        ct = self.ct
        if self.v != 0 or not self.cs or self.cs[0] != ct.one:
            raise ValueError("binom_pow expects a 1 + O(u) series")
        prec = min(len(self.cs), rel_prec)
        x = Lau(ct, 0, [ct.zero] + self.cs[1:prec])
        acc = Lau(ct, 0, [ct.one] + [ct.zero] * (prec - 1))
        term = Lau(ct, 0, [ct.one] + [ct.zero] * (prec - 1))
        coef = Fraction(1)
        e = Fraction(exponent)
        for k in range(1, prec):
            coef = coef * (e - (k - 1)) / k
            term = term.mul(x, prec)
            if coef:
                acc = acc + term.scale(ct.from_ground(coef))
        return acc

    def invert(self, rel_prec):
        """1/self to relative precision (cs[0] must be invertible)."""
        ct = self.ct
        if not self.cs or not self.cs[0]:
            raise NotExpandable("cannot invert: leading coefficient unknown/zero")
        prec = min(len(self.cs), rel_prec)
        lead_inv = ct.one / self.cs[0]
        out = [ct.zero] * prec
        out[0] = lead_inv
        for k in range(1, prec):
            out[k] = -lead_inv * ct.dot(
                (self.cs[j], out[k - j]) for j in range(1, k + 1))
        return Lau(ct, -self.v, out)


# --------------------------------------------------------------------------


def _normalize_location(gf, loc):
    if loc is INF or (isinstance(loc, str) and loc in ("inf", "oo", "infinity")):
        return INF
    if isinstance(loc, SPoly):
        if loc.degree == 1:
            return -loc.coeffs[0]
        return loc
    if isinstance(loc, SingularPlace):
        return _normalize_location(gf, loc.location)
    if gf is not None and not isinstance(loc, type(gf.zero)):
        return gf.from_rational(loc)
    return loc


def _location_key(loc):
    if loc is INF:
        return ("inf",)
    if isinstance(loc, SPoly):
        return ("poly", loc.key())
    return ("pt", str(loc))


class PlaceContext:
    """Expansion engine for one (tower, place) pair.  Cached on the tower."""

    def __init__(self, tower, location):
        self.tower = tower
        self.gf = gf = tower.gf
        self.loc = _normalize_location(gf, location)
        if isinstance(self.loc, type(gf.zero)) and not gf.is_param_scalar(self.loc):
            raise NotExpandable("place location must be a scalar (s-free) value")
        ct = AlgebraicTower(gf)
        if isinstance(self.loc, SPoly):
            p = self.loc
            rep = {
                (k,): -c for k, c in enumerate(p.coeffs[:-1]) if c
            }
            ct = ct.extend_monic("xi", p.degree, rep)
            self.s0 = ct.gen("xi")
            self.place_poly = p
        elif self.loc is INF:
            self.s0 = None
            self.place_poly = None
        else:
            self.s0 = ct.from_ground(self.loc)
            self.place_poly = SPoly(gf, [-self.loc, gf.one])
        self.ct = ct
        self.m = 1
        self._gen_v = []        # exact valuation of each generator, u-units
        self._gen_rho = []      # leading coefficient (a ct generator elem)
        self._gen_tail = []     # cached (1 + O(u)) tail Lau per generator
        self._lb = []           # conjugate-safe lower bounds, Fractions, u-units
        self._rat_cache = {}
        for i, info in enumerate(tower.gens):
            self._adjoin_gen(i, info)

    # -- construction of generator data ------------------------------------

    def _adjoin_gen(self, i, info):
        if not info.radical:
            raise NotExpandable(
                f"generator {info.name!r} is not radical; no Puiseux branch data"
            )
        b = info.radicand  # element of the subtower with r = i
        d = info.degree
        vb, lead = self._exact_leading(b)
        g = gcd(vb, d)
        scale = d // g
        if scale > 1:
            self._rescale(scale)
            vb *= scale
        self._lb.append(Fraction(vb, d))
        self._gen_v.append(vb // d)
        rho_name = f"rho{i}"
        self.ct = self.ct.extend(rho_name, d, lead)
        self._gen_rho.append(self.ct.gen(rho_name))
        self._gen_tail.append(None)

    def _rescale(self, scale):
        # u_old = u_new^scale: exponents multiply; tails spread onto the
        # coarser grid.  Precision: known through (len-1) old units becomes
        # scale*(len-1) new units.
        self.m *= scale
        self._gen_v = [v * scale for v in self._gen_v]
        self._lb = [v * scale for v in self._lb]
        rescaled = []
        for t in self._gen_tail:
            if t is None:
                rescaled.append(None)
                continue
            cs = []
            for c in t.cs:
                cs.append(c)
                cs.extend([t.ct.zero] * (scale - 1))
            cs = cs[: scale * (len(t.cs) - 1) + 1]
            rescaled.append(Lau(t.ct, t.v * scale, cs))
        self._gen_tail = rescaled
        self._rat_cache.clear()

    # -- valuations ---------------------------------------------------------

    def rat_valuation(self, c):
        """Exact valuation (u-units) of a ground-field element at the place."""
        if not c:
            raise ValueError("valuation of zero")
        gf = self.gf
        if self.loc is INF:
            i = gf._s_index
            return self.m * (c.denom.degree(i) - c.numer.degree(i))
        p = self.place_poly
        num = gf.numer_spoly(c)
        den = gf.denom_spoly(c)
        return self.m * (p.valuation_of(num) - p.valuation_of(den))

    def _crude_bound(self, a):
        """Lower bound (Fraction, u-units) for the valuation of *every*
        conjugate of a: min over monomials of v(coeff) + Σ e_i·lb_i."""
        best = None
        for e, c in a.coords.items():
            v = Fraction(self.rat_valuation(c))
            for j, k in enumerate(e):
                if k:
                    v += k * self._lb[j]
            if best is None or v < best:
                best = v
        if best is None:
            raise ValueError("crude bound of zero")
        return best

    def _exact_leading(self, a):
        """Exact (valuation, leading coefficient) of a nonzero element."""
        if a.is_zero():
            raise ValueError("leading term of zero")
        nm = a.tower.norm(a)
        if not nm:
            raise ZeroDivisor(
                "norm vanishes: tower is not a field at this element",
                witness=None,
            )
        vn = self.rat_valuation(nm)
        cap = vn - (a.tower.degree - 1) * self._crude_bound(a)
        # cap is a Fraction >= true valuation; expand through it
        upto = int(cap.__floor__()) if isinstance(cap, Fraction) else int(cap)
        lau = self.expand(a, upto)
        # The expansion lives in an étale residue algebra (one formal root
        # per radical): its coefficient at k is the tuple of all branch
        # coefficients.  A unit means every branch has valuation exactly k;
        # a zero divisor means the branches disagree — there is no single
        # exponent without a declared branch.
        for i, c in enumerate(lau.cs):
            if not c:
                continue
            if c.tower.r == 0 or c.tower.norm(c):
                return lau.v + i, c
            raise NotExpandable(
                "leading coefficient is branch-dependent at this place "
                "(declare a branch to disambiguate)"
            )
        raise VerificationFailed(
            "expansion vanished through its cancellation cap for a "
            "nonzero element — internal inconsistency"
        )

    # -- expansions -----------------------------------------------------------

    def _rat_lau(self, c, upto):
        """Expansion of a ground-field element through exponent ``upto``."""
        key = (c, upto)
        hit = self._rat_cache.get(key)
        if hit is not None:
            return hit
        if not c:
            return Lau.zero(self.ct, 0, upto + 1)
        gf = self.gf
        ct = self.ct
        num = gf.numer_spoly(c)
        den = gf.denom_spoly(c)
        if self.loc is INF:
            # p(s) = τ^{-deg p} · (reversed coefficients)(τ)
            vnum, vden = -num.degree, -den.degree
        else:
            vnum = self.place_poly.valuation_of(num)
            vden = self.place_poly.valuation_of(den)
        v = self.m * (vnum - vden)
        rel = upto - v + 1
        if rel <= 0:
            out = Lau.zero(self.ct, v, 0)
            self._rat_cache[key] = out
            return out
        steps = -(-rel // self.m)  # x-steps needed (x = u^m)
        if self.loc is INF:
            ncs = [ct.from_ground(x) for x in reversed(num.coeffs)]
            dcs = [ct.from_ground(x) for x in reversed(den.coeffs)]
        else:
            # Taylor-shift numerator and denominator to s0; the place
            # valuation shows up as exact leading zeros (for places of
            # degree > 1 the shift keeps the unit cofactor of p^v that plain
            # division by p would discard).
            ncs = self._shift_coeffs(num, vnum + steps)[vnum:]
            dcs = self._shift_coeffs(den, vden + steps)[vden:]
        nl = Lau(ct, 0, self._spread(ncs, steps))
        dl = Lau(ct, 0, self._spread(dcs, steps))
        out = nl.mul(dl.invert(steps * self.m), steps * self.m).shift(v)
        out = Lau(out.ct, out.v, out.cs[:rel])
        self._rat_cache[key] = out
        return out

    def _spread(self, xcoeffs, steps):
        """Place x-coefficients on the u-grid (x = u^m), zero-padded."""
        ct = self.ct
        out = []
        for k in range(steps):
            out.append(xcoeffs[k] if k < len(xcoeffs) else ct.zero)
            out.extend([ct.zero] * (self.m - 1))
        return out

    def _shift_coeffs(self, sp, k):
        """The first k coefficients of sp(s0 + x) as ct elements, low to high
        in x."""
        ct = self.ct
        out = [ct.zero] * min(k, sp.degree + 1)
        # Horner: out <- out*(s0 + x) + c, top coefficient first; a
        # coefficient never reads the ones above it
        for c in reversed(sp.coeffs):
            for j in range(len(out) - 1, 0, -1):
                out[j] = out[j] * self.s0 + out[j - 1]
            out[0] = out[0] * self.s0 + ct.from_ground(c)
        return out

    def _gen_pow(self, i, e, rel_prec):
        """Lau for w_i^e (e >= 0) to the given relative precision."""
        ct = self.ct
        if e == 0:
            return Lau(ct, 0, [ct.one] + [ct.zero] * (rel_prec - 1))
        tail = self._gen_tail[i]
        if tail is None or len(tail.cs) < rel_prec:
            tail = self._compute_tail(i, rel_prec)
        d = self.tower.gens[i].degree
        body = tail.binom_pow(Fraction(e, d), rel_prec)
        return body.scale(self._gen_rho[i] ** e).shift(self._gen_v[i] * e)

    def _compute_tail(self, i, rel_prec):
        """(b_i / (lead·u^{v_b})) as 1 + O(u), to relative precision."""
        info = self.tower.gens[i]
        b = info.radicand
        d = info.degree
        vb = self._gen_v[i] * d
        lau = self.expand(b, vb + rel_prec - 1)
        lead_inv = self.ct.one / (self._gen_rho[i] ** d)
        cs = [lead_inv * c for c in lau.cs]
        if lau.v != vb or not cs or cs[0] != self.ct.one:
            raise VerificationFailed("generator tail lost its leading term")
        tail = Lau(self.ct, 0, cs)
        self._gen_tail[i] = tail
        return tail

    def expand(self, a, upto):
        """Expansion of a tower element through exponent ``upto`` (u-units).

        The element may live in the context's tower or any subtower.
        """
        if isinstance(a, FieldElem):
            if not a.tower.ancestor_of(self.tower) and a.tower is not self.tower:
                raise TowerError("element does not belong to this tower")
        else:
            a = self.tower.from_ground(a)
        ct = self.ct
        if a.is_zero():
            return Lau.zero(ct, 0, upto + 1)
        terms = []
        for e, c in a.coords.items():
            # the monomial's generators shift the coordinate's valuation
            shift = sum(k * self._gen_v[j] for j, k in enumerate(e) if k)
            terms.append((e, shift, self._rat_lau(c, upto - shift)))
        vmin = min(shift + term.v for _, shift, term in terms)
        acc = Lau.zero(ct, vmin, upto - vmin + 1)
        for e, shift, term in terms:
            rel = upto - shift - term.v + 1
            if rel <= 0:
                continue
            for j, k in enumerate(e):
                if k:
                    term = term.mul(self._gen_pow(j, k, rel), rel)
            acc = acc + term
        return acc

    def residue(self, a):
        """The u^-m coefficient of a, and of -s^2·a at infinity: the residue
        of a·ds there, in the residue tower; branch-invariant."""
        if self.loc is INF:
            a = a * (-self.gf.s**2)
        return self.expand(a, -self.m).coeff(-self.m)

    def valuation_below(self, a, upto):
        """Least valuation (u-units) over the branches of a, when it is at
        most ``upto``; else None."""
        lau = self.expand(a, upto)
        return lau.v if lau.cs else None


def place_context(tower, location):
    """The :class:`PlaceContext` of a tower at a place, cached on the tower."""
    try:
        cache = tower._place_ctxs
    except AttributeError:
        cache = tower._place_ctxs = {}
    # a rational number prints as the ground element it names, so its key
    # needs no conversion
    if not isinstance(location, (int, Fraction)):
        location = _normalize_location(tower.gf, location)
    key = _location_key(location)
    ctx = cache.get(key)
    if ctx is None:
        ctx = PlaceContext(tower, location)
        cache[key] = ctx
    return ctx


def pole_places(elems):
    """``{location key: location}`` of the poles of tower elements.

    Collects the irreducible s-factors of every coordinate denominator: a
    linear factor s - s0 gives the scalar s0, any other factor the monic
    SPoly itself (a class of conjugate algebraic points).  Keys are
    ``("pt", str(s0))`` and ``("poly", SPoly.key())``.
    """
    out = {}
    for a in elems:
        gf = a.tower.gf
        for c in a.coords.values():
            for p, _ in gf.monic_s_factors(c):
                loc = -p.coeffs[0] if p.degree == 1 else p
                out[_location_key(loc)] = loc
    return out


def residue_exponent(ctx, a):
    """Residue exponent of the coefficient ``a`` of a log-derivative h·ds.

    The u^{-m} coefficient of a at a finite place u^m = s - s0, and of
    -s^2·a (the local system's coefficient in τ = 1/s) at infinity; it is
    branch-invariant.  Returned as an :class:`Exponent` when affine in the
    parameters, else as the string rendering of its value.
    """
    gf = ctx.gf
    resid = ctx.residue(a)
    if resid.is_zero():
        return Exponent(0)
    scalar = scalarize_constant(resid)
    if scalar is None:
        return str(resid)
    e = Exponent.from_scalar(gf, scalar)
    return e if e is not None else str(gf.to_expr(scalar))


def fe_local_exponent(a, place):
    """Leading Puiseux exponent of a tower element at a place.

    ``place`` is a scalar location, INF, or a :class:`SingularPlace`; the
    exponent is reported in s-units (at ∞: in 1/s-units), as an
    :class:`Exponent` whose parameter part is zero for tower elements.
    """
    if not isinstance(a, FieldElem):
        raise TypeError("fe_local_exponent expects a tower element")
    if a.is_zero():
        raise NotExpandable("the zero element has no leading exponent")
    loc = _normalize_location(a.tower.gf, place)
    if isinstance(loc, SPoly):
        raise NotExpandable(
            "public exponent extraction is restricted to scalar points and "
            "infinity"
        )
    ctx = place_context(a.tower, loc)
    v, _ = ctx._exact_leading(a)
    return Exponent(Fraction(v, ctx.m))


# --------------------------------------------------------------------------
# values at a regular scalar point


def _regular_context(tower, s0):
    """The context at s0 when s0 is regular on every sheet: every radicand
    is a unit there, so m = 1 and each residue generator is the value of a
    tower generator.  Raises ZeroDivisionError otherwise (NotExpandable when
    a radicand's value is a zero divisor, a branch point on some sheet)."""
    ctx = place_context(tower, s0)
    if any(ctx._gen_v):
        raise ZeroDivisionError(f"a radicand has a zero or pole at s = {s0}")
    return ctx


def fiber_tower(tower, s0):
    """The constant tower of values at a point s0 regular on every sheet: the
    residue tower of its place context, one generator ``rho<i>`` per tower
    generator, with the radicands' values as radicands."""
    return _regular_context(tower, s0).ct


def evaluate_at(a, s0):
    """The value of a tower element at a point s0 regular on every sheet: the
    u^0 coefficient of its exact expansion there, in :func:`fiber_tower`.
    Raises ZeroDivisionError when a has a pole at s0, or as
    :func:`fiber_tower` does; callers translate that into BasePointSingular.
    """
    lau = _regular_context(a.tower, s0).expand(a, 0)
    if lau.cs and lau.v < 0:
        raise ZeroDivisionError(f"pole at s = {s0}")
    return lau.coeff(0)


def scalarize_constant(a):
    """Principal value of a constant-tower element as a parameter scalar.

    Each radical generator whose radicand works out to an exact d-th power
    in the parameter field is replaced by the principal root; monic-extension
    generators and non-power radicands have no scalar value.  Returns a
    ground-field element, or None when the element genuinely leaves the
    parameter field.
    """
    tower = a.tower
    gf = tower.gf
    vals = [None] * tower.r
    done = [False] * tower.r

    def coords_value(coords):
        total = gf.zero
        for e, c in coords.items():
            term = c
            for j, k in enumerate(e):
                if not k:
                    continue
                v = gen_value(j)
                if v is None:
                    return None
                term = term * v**k
            total = total + term
        return total

    def gen_value(i):
        if done[i]:
            return vals[i]
        done[i] = True
        info = tower.gens[i]
        if info.radical and info.radicand is not None:
            rc = coords_value(info.radicand.coords)
            if rc is not None:
                vals[i] = gf.nth_root(rc, info.degree)
        return vals[i]

    return coords_value(a.coords)
