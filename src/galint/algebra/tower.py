"""Radical extension towers  K0(w_1, ..., w_r),  w_i^{d_i} = b_i.

The coefficient field of the whole pipeline: rational functions in ``s`` over
the parameter field (see :mod:`galint.algebra.scalars`), extended by a tower
of radicals.  Elements are stored in the reduced monomial basis

    { w_1^{e_1} ... w_r^{e_r} : 0 <= e_i < d_i },

with ground-field coordinates; arithmetic reduces exponents through the
defining relations.  One kernel accumulates tower elements,
:meth:`AlgebraicTower.sum` and :meth:`AlgebraicTower.dot`: ``+`` and ``*``,
the derivation, the Galois action and the Laurent products of
:mod:`galint.algebra.places` are each one call.  A coordinate that one term
reaches takes Henrici's ``+`` or ``*``; where more meet,
:func:`~galint.algebra.scalars.fraction_sum` reduces their sum once.  The
kernel runs on the deepest tower of its operands, whichever tower it is
called on, and reads each product of two basis monomials from the tower's
product table, filled on first use.  On top of the plain field structure
the tower carries

* the derivation extending d/ds, via  w_i' = b_i' w_i / (d_i b_i);
* user-declared Galois generators (verified ring automorphisms commuting
  with the derivation), see :meth:`AlgebraicTower.declare_galois`;
* the inverse: through the quadratic conjugate of the top generator when
  that has degree 2, recursively down the tower, and otherwise, or at a
  zero divisor, by solving the regular-representation system over K0,
  whose nullspace gives the witness (:meth:`AlgebraicTower.invert`);
* the regular-representation machinery (norm, unit test) that downstream
  code uses both for division and for valuation caps in local expansions.

Internally a generator may carry a general monic replacement rule
``w^d = rep`` where ``rep`` involves lower powers of ``w`` itself — that is
what residue fields of nonlinear places need (e.g. adjoining a root of
``s^2 + 1``).  The public radical API never produces those; they are built by
:mod:`galint.algebra.places` only.

Termination of the normalization: rewriting always targets the *highest*
generator index carrying an exponent >= d_i, and the replacement only
involves exponents < d_i at that index and arbitrary (already reduced)
exponents below.  The exponent at the rewritten index strictly drops while
all higher indices stay fixed, so the top-down lexicographic measure
decreases and the worklist empties.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import (
    DivisionByZero,
    TowerError,
    UndeclaredGenerator,
    VerificationFailed,
    ZeroDivisor,
)
from . import linalg
from .scalars import Scalar, _times, fraction_sum

__all__ = [
    "AlgebraicTower", "FieldElem", "GenInfo", "GaloisGen", "deepest_tower",
]


class GenInfo:
    """One tower level: name, degree, replacement rule for w^d.

    ``rep`` is a coordinate dict over the tower *up to and including* this
    generator (exponent tuples of length ``level + 1``, but with reduced
    exponent < d at the last slot).  ``radical`` marks w^d = b with b free of
    w; then ``radicand`` is b as an element of the subtower, ``dcoef`` is
    b'/(d*b) lifted to the full tower (the dlog derivative coefficient:
    w' = dcoef * w), and ``constant`` says b' = 0.
    """

    __slots__ = ("name", "degree", "rep", "radical", "radicand", "dcoef", "constant")

    def __init__(self, name, degree, rep, radical, radicand, dcoef, constant):
        self.name = name
        self.degree = degree
        self.rep = rep
        self.radical = radical
        self.radicand = radicand
        self.dcoef = dcoef
        self.constant = constant


class GaloisGen:
    """A declared automorphism: images of every generator, plus caches."""

    __slots__ = ("name", "images", "_mono_cache")

    def __init__(self, name, images):
        self.name = name
        self.images = tuple(images)
        self._mono_cache = {}


class AlgebraicTower:
    """Immutable tower structure; extend() returns a new tower.

    The Galois registry is the one append-only mutable part: generators are
    declared (and verified) after the tower is complete, and never removed.
    """

    def __init__(self, gf, _gens=(), _parent=None):
        self.gf = gf
        self.gens = tuple(_gens)
        self.parent = _parent
        self.names = tuple(g.name for g in self.gens)
        self.degrees = tuple(g.degree for g in self.gens)
        self.r = len(self.gens)
        deg = 1
        for d in self.degrees:
            deg *= d
        self.degree = deg
        self._name_index = {n: i for i, n in enumerate(self.names)}
        self._mono_cache = {}
        self._products = {}
        # (-p0, p1) when the top rule is w^2 = p1*w + p0: invert's conjugate
        self._quadratic = None
        if self.degrees and self.degrees[-1] == 2:
            p0, p1 = self._halves(self.gens[-1].rep)
            self._quadratic = (-p0, p1)
        self._dfac_cache = {}
        self._galois = {}
        self.zero = FieldElem(self, {})
        self.one = FieldElem(self, {(0,) * self.r: gf.one})

    # ------------------------------------------------------------ structure

    def __repr__(self):
        if not self.gens:
            return f"AlgebraicTower({self.gf!r})"
        bits = ", ".join(f"{g.name}^{g.degree}" for g in self.gens)
        return f"AlgebraicTower({self.gf!r}; {bits})"

    def basis_monomials(self):
        """All reduced exponent tuples, in deterministic (graded lex) order."""
        out = [()]
        for d in self.degrees:
            out = [e + (k,) for e in out for k in range(d)]
        out.sort(key=lambda e: (sum(e), e))
        return out

    def extend(self, name, degree, radicand):
        """Adjoin w with w^degree = radicand (an element of *this* tower).

        The radicand must be nonzero.  Returns the new tower.
        """
        if degree < 2:
            raise TowerError(f"radical degree must be >= 2, got {degree}")
        if name in self._name_index or name == self.gf.curve_var \
                or name in self.gf.param_names:
            raise TowerError(f"generator name {name!r} already in use")
        radicand = self.coerce(radicand)
        if radicand.is_zero():
            raise TowerError(f"radicand of {name!r} is zero")
        rep = {e + (0,): c for e, c in radicand.coords.items()}
        # dlog coefficient b'/(d b), computed in this tower then lifted
        if self.derivation_ok():
            db = radicand.derive()
            dcoef_sub = db / (radicand * self.gf.from_rational(degree))
            constant = db.is_zero()
        else:
            dcoef_sub, constant = None, all(
                self.gf.is_param_scalar(c) for c in radicand.coords.values()
            ) and all(g.constant for g in self.gens)
        info = GenInfo(name, degree, rep, True, radicand, None, constant)
        new = AlgebraicTower(self.gf, self.gens + (info,), self)
        if dcoef_sub is not None:
            info.dcoef = new.lift(dcoef_sub)
        elif constant:
            info.dcoef = new.zero
        return new

    def extend_monic(self, name, degree, rep_coords):
        """Adjoin w with a general monic rule w^degree = rep.

        ``rep_coords`` maps exponent tuples of length r+1 (last slot < degree)
        to ground coordinates.  Internal: residue fields of nonlinear places.
        Derivation is available only when the new generator is a constant
        (all coordinates parameter scalars over a constant subtower).
        """
        if degree < 2:
            raise TowerError(f"degree must be >= 2, got {degree}")
        if name in self._name_index:
            raise TowerError(f"generator name {name!r} already in use")
        rep = {}
        for e, c in rep_coords.items():
            if len(e) != self.r + 1 or e[-1] >= degree:
                raise TowerError("malformed replacement exponent tuple")
            if c:
                rep[tuple(e)] = c
        constant = all(self.gf.is_param_scalar(c) for c in rep.values()) and all(
            g.constant for g in self.gens
        )
        info = GenInfo(name, degree, rep, False, None, None, constant)
        new = AlgebraicTower(self.gf, self.gens + (info,), self)
        if constant:
            info.dcoef = new.zero
        return new

    def derivation_ok(self):
        return all(g.dcoef is not None for g in self.gens)

    def ancestor_of(self, other):
        """True if self is other or a subtower of other (prefix of gens)."""
        return other.gens[: self.r] == self.gens and other.gf == self.gf

    # ---------------------------------------------------------- construction

    def from_ground(self, c):
        """Embed a ground-field element / Fraction / int."""
        gf = self.gf
        if isinstance(c, FieldElem):
            return self.coerce(c)
        if not isinstance(c, Scalar):
            c = gf.from_rational(c)
        if not c:
            return self.zero
        return FieldElem(self, {(0,) * self.r: c})

    def gen(self, name):
        try:
            i = self._name_index[name]
        except KeyError:
            raise UndeclaredGenerator(f"no generator {name!r} in tower") from None
        e = [0] * self.r
        e[i] = 1
        return FieldElem(self, {tuple(e): self.gf.one})

    def from_coords(self, coords):
        clean = {}
        for e, c in coords.items():
            e = tuple(e)
            if len(e) != self.r:
                raise TowerError("exponent tuple length mismatch")
            if any(x < 0 or x >= d for x, d in zip(e, self.degrees)):
                raise TowerError("exponent tuple not reduced")
            if c:
                clean[e] = c
        return FieldElem(self, clean)

    def lift(self, a):
        """Embed an element of a subtower (gens must be a prefix of ours)."""
        if a.tower is self:
            return a
        if not a.tower.ancestor_of(self):
            raise TowerError("element does not live in a subtower")
        pad = self.r - a.tower.r
        return FieldElem(self, {e + (0,) * pad: c for e, c in a.coords.items()})

    def coerce(self, x):
        if isinstance(x, FieldElem):
            if x.tower is self:
                return x
            return self.lift(x)
        return self.from_ground(x)

    # ------------------------------------------------------------- n-ary sums

    def sum(self, elems):
        """The sum of ``elems``, each output coordinate reduced once.

        The elements may be ground scalars or live in this tower, a
        subtower or a supertower: the sum lives in the deepest of them.  A
        coordinate with two terms takes Henrici's ``+``; three or more go
        through :func:`~galint.algebra.scalars.fraction_sum`, whose
        (numerator, denominator) pairs are the terms' reduced pairs, so
        every denominator has a positive leading coefficient.
        """
        elems = list(elems)
        t = deepest_tower([self, *(x.tower for x in elems
                                   if isinstance(x, FieldElem))])
        cols = {}
        for x in elems:
            for e, c in t.coerce(x).coords.items():
                cols.setdefault(e, []).append(c)
        zero = t.gf.zero
        out = {}
        for e, cs in cols.items():
            if len(cs) == 1:
                v = cs[0]
            elif len(cs) == 2:
                v = cs[0] + cs[1]
            else:
                v = fraction_sum([(c.num, c.den) for c in cs], zero)
            if v:
                out[e] = v
        return FieldElem(t, out)

    def dot(self, pairs):
        """The sum of a*b over (a, b) in ``pairs``, each output coordinate
        reduced once; operands are placed as in :meth:`sum`, and skip that
        placement when every one of them already lives in this tower.

        Monomial products come from the tower's product table, which maps
        a pair of reduced exponent tuples (e, f) to the coordinates of
        w^e * w^f as ((monomial, reduction coefficient or None), ...),
        None where e + f is already reduced; an entry is filled from
        :meth:`_reduce_monomial` on first use.  A coordinate that one
        coordinate product c*c' reaches takes Henrici's ``*`` (times the
        reduction coefficient, if any).  Where two or more meet, each is
        kept unreduced, as the pair (numer*numer', denom*denom'), and
        :func:`fraction_sum` sums them with one final gcd; reduced pairs
        have denominators with positive leading coefficients, so these
        products do too.
        """
        pairs = list(pairs)
        t = self
        if not all(type(x) is FieldElem and x.tower is t
                   for pair in pairs for x in pair):
            t = deepest_tower([self, *(x.tower for pair in pairs for x in pair
                                       if isinstance(x, FieldElem))])
            pairs = [(t.coerce(a), t.coerce(b)) for a, b in pairs]
        table = t._products
        cols = {}
        for a, b in pairs:
            b = b.coords
            for e, ce in a.coords.items():
                for f, cf in b.items():
                    prods = table.get((e, f))
                    if prods is None:
                        prods = t._product(e, f)
                    for mono, c in prods:
                        cols.setdefault(mono, []).append((ce, cf, c))
        zero = t.gf.zero
        out = {}
        for e, terms in cols.items():
            if len(terms) == 1:
                ce, cf, c = terms[0]
                v = ce * cf if c is None else ce * cf * c
            else:
                v = fraction_sum([
                    (_times(ce.num, cf.num), _times(ce.den, cf.den))
                    if c is None else
                    (_times(_times(ce.num, cf.num), c.num),
                     _times(_times(ce.den, cf.den), c.den))
                    for ce, cf, c in terms], zero)
            if v:
                out[e] = v
        return FieldElem(t, out)

    # ------------------------------------------------------- normalization

    def _product(self, e, f):
        """The product table's entry for w^e * w^f, filled on this call."""
        key = tuple(x + y for x, y in zip(e, f))
        if all(k < d for k, d in zip(key, self.degrees)):
            prods = ((key, None),)
        else:
            prods = tuple(self._reduce_monomial(key).items())
        self._products[(e, f)] = prods
        return prods

    def _reduce_monomial(self, e):
        """Coordinates of w^e (arbitrary exponents >= 0) in the reduced basis."""
        hit = self._mono_cache.get(e)
        if hit is not None:
            return hit
        for i in range(self.r - 1, -1, -1):
            if e[i] >= self.degrees[i]:
                base = list(e)
                base[i] -= self.degrees[i]
                out = {}
                for f, c in self.gens[i].rep.items():
                    g = list(base)
                    for j, fj in enumerate(f):
                        g[j] += fj
                    for mono, c2 in self._reduce_monomial(tuple(g)).items():
                        prev = out.get(mono)
                        val = c * c2 if prev is None else prev + c * c2
                        if val:
                            out[mono] = val
                        elif prev is not None:
                            del out[mono]
                self._mono_cache[e] = out
                return out
        out = {e: self.gf.one}
        self._mono_cache[e] = out
        return out

    def _deriv_factor(self, e):
        """Sum_i e_i * dcoef_i as a tower element (dlog of the monomial w^e)."""
        hit = self._dfac_cache.get(e)
        if hit is not None:
            return hit
        for g, k in zip(self.gens, e):
            if k and g.dcoef is None:
                raise TowerError(
                    f"derivation undefined: generator {g.name!r} "
                    "has a non-radical, non-constant replacement rule"
                )
        hit = self._dfac_cache[e] = self.dot(
            (g.dcoef, k) for g, k in zip(self.gens, e) if k)
        return hit

    # ------------------------------------------------------------- galois

    def declare_galois(self, name, images):
        """Declare and verify an automorphism by its generator images.

        ``images`` maps generator name -> FieldElem (in this tower).  The
        declaration is checked: it must respect every defining relation,
        be invertible as a linear map, and commute with the derivation.
        """
        if name in self._galois:
            raise TowerError(f"Galois generator {name!r} already declared")
        img_list = []
        for gname in self.names:
            if gname not in images:
                raise TowerError(f"missing image for generator {gname!r}")
            img_list.append(self.coerce(images[gname]))
        g = GaloisGen(name, img_list)
        # relations: sigma(w_i)^{d_i} == sigma(rep_i)
        for i, info in enumerate(self.gens):
            pad = (0,) * (self.r - i - 1)
            rhs = self.dot((c, self._galois_monomial(g, f + pad))
                           for f, c in info.rep.items())
            if img_list[i] ** info.degree != rhs:
                raise VerificationFailed(
                    f"declared images of {name!r} break the relation for "
                    f"{info.name!r}"
                )
        # invertibility of the induced linear map
        basis = self.basis_monomials()
        idx = {e: k for k, e in enumerate(basis)}
        cols = []
        for e in basis:
            im = self._galois_monomial(g, e)
            col = [self.gf.zero] * len(basis)
            for mono, c in im.coords.items():
                col[idx[mono]] = c
            cols.append(col)
        mat = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
        d = linalg.det(mat, self.gf.zero, self.gf.one)
        if not d:
            raise VerificationFailed(
                f"declared images of {name!r} are not invertible"
            )
        # commutation with d/ds on generators (extends by Leibniz/linearity)
        if self.derivation_ok():
            for i, info in enumerate(self.gens):
                w = self.gen(info.name)
                if self._apply_galois(g, w.derive()) != img_list[i].derive():
                    raise VerificationFailed(
                        f"images of {name!r} do not commute with d/ds"
                    )
        self._galois[name] = g
        return g

    def galois_names(self):
        return tuple(self._galois)

    def _galois_monomial(self, g, e):
        hit = g._mono_cache.get(e)
        if hit is not None:
            return hit
        acc = self.one
        for i, k in enumerate(e):
            if k:
                acc = acc * g.images[i] ** k
        g._mono_cache[e] = acc
        return acc

    def _apply_galois(self, g, a):
        return self.dot((c, self._galois_monomial(g, e))
                        for e, c in a.coords.items())

    # ------------------------------------------------- regular representation

    def regular_matrix(self, a):
        """Matrix of x -> a*x on the reduced monomial basis (row-major)."""
        basis = self.basis_monomials()
        idx = {e: k for k, e in enumerate(basis)}
        n = len(basis)
        mat = [[self.gf.zero] * n for _ in range(n)]
        for j, f in enumerate(basis):
            prod = a * FieldElem(self, {f: self.gf.one})
            for mono, c in prod.coords.items():
                mat[idx[mono]][j] = c
        return mat, basis, idx

    def norm(self, a):
        """Field norm (determinant of the regular representation) in K0."""
        mat, _, _ = self.regular_matrix(a)
        return linalg.det(mat, self.gf.zero, self.gf.one)

    def require_unit(self, a):
        """Return when ``a`` is a unit of the tower, raise otherwise.

        A nonzero ground scalar is always a unit.  Otherwise the regular
        matrix of ``a`` is specialised at the fixed rational points of
        :func:`_unit_points`, skipping a point where an entry has a pole; a
        nonzero determinant over Q there proves the norm nonzero, so ``a``
        is a unit and nothing is solved over K0.  When no point proves it,
        :meth:`invert` decides: it raises ``ZeroDivisor`` with a witness
        exactly when ``a`` is a zero divisor.
        """
        if a.is_zero():
            raise DivisionByZero("division by zero tower element")
        if a.is_scalar():
            return
        mat, _, _ = self.regular_matrix(a)
        for point in _unit_points(len(self.gf.param_names) + 1):
            try:
                spec = [[_value(f.num, point) / _value(f.den, point)
                         for f in row] for row in mat]
            except ZeroDivisionError:
                continue
            if linalg.det(spec, Fraction(0), Fraction(1)):
                return
        self.invert(a)

    def invert(self, a):
        """The inverse of ``a``; ``ZeroDivisor`` with a witness when ``a``
        is a zero divisor.

        A ground scalar is divided directly.  When the top generator has
        degree 2, w^2 = p1*w + p0 over the parent tower, a = A + B*w
        inverts through its conjugate: 1/a = (A + p1*B - B*w)/N with
        N = A^2 + p1*A*B - p0*B^2 in the parent tower, where N is inverted
        the same way, recursively (and a with B = 0 is A's inverse there).
        Otherwise, and when N is zero or the parent tower meets a zero
        divisor, the regular-matrix system a*x = 1 is solved over K0, and
        a failed solve takes its witness from the matrix's nullspace.
        """
        if a.is_zero():
            raise DivisionByZero("division by zero tower element")
        return self._inverse(a)

    def _inverse(self, a):
        """:meth:`invert` of a nonzero ``a``, without re-entering it."""
        if a.is_scalar():
            inv = self.gf.one / a.scalar_part()
            return FieldElem(self, {(0,) * self.r: inv})
        if self._quadratic is not None:
            inv = self._conjugate_inverse(a)
            if inv is not None:
                return inv
        mat, basis, idx = self.regular_matrix(a)
        rhs = [self.gf.zero] * len(basis)
        rhs[idx[(0,) * self.r]] = self.gf.one
        sol = linalg.solve(mat, rhs, self.gf.zero, self.gf.one)
        if sol is None:
            ker = linalg.nullspace(mat, self.gf.zero, self.gf.one)[0]
            witness = FieldElem(
                self, {basis[k]: c for k, c in enumerate(ker) if c}
            )
            raise ZeroDivisor(
                f"tower is not a field at {a}: {witness} annihilates it",
                witness=witness)
        x, _ = sol
        return FieldElem(self, {basis[k]: c for k, c in enumerate(x) if c})

    def _conjugate_inverse(self, a):
        """1/a through the conjugate over the parent tower, for a top
        generator of degree 2; None when a is a zero divisor there."""
        parent = self.parent
        neg_p0, p1 = self._quadratic
        A, B = self._halves(a.coords)
        try:
            if not B:
                return self.lift(parent._inverse(A))
            C = parent.sum((A, p1 * B)) if p1 else A
            N = parent.dot(((A, C), (neg_p0 * B, B)))
            if not N:
                return None
            Ninv = parent._inverse(N)
        except ZeroDivisor:
            return None
        x0, x1 = parent.dot(((C, Ninv),)), parent.dot(((B, Ninv),))
        coords = {e + (0,): c for e, c in x0.coords.items()}
        coords.update((e + (1,), -c) for e, c in x1.coords.items())
        return FieldElem(self, coords)

    def _halves(self, coords):
        """(A, B) in the parent tower with A + B*w the element of these
        coordinates, w the top generator, of degree 2."""
        halves = ({}, {})
        for e, c in coords.items():
            halves[e[-1]][e[:-1]] = c
        return tuple(FieldElem(self.parent, h) for h in halves)


def _value(p, point):
    """A kernel polynomial at a point of Q^n, over Q."""
    unpack = p.ring.unpack
    return sum((c * math.prod(x**e for x, e in zip(point, unpack(m)) if e)
                for m, c in p.items()), Fraction(0))


def _unit_points(n):
    """Three fixed rational points of Q^n, for ``require_unit``: the i-th
    coordinate of point k is (2i + 5k + 3)/(k + 2), away from 0 and +-1."""
    for k in range(3):
        yield tuple(Fraction(2 * i + 5 * k + 3, k + 2) for i in range(n))


def _trim(e):
    """An exponent tuple without the trailing zeros that ``lift`` pads, so
    that equal elements of nested towers hash alike."""
    while e and not e[-1]:
        e = e[:-1]
    return e


def deepest_tower(towers):
    """The deepest of nested towers; ``TowerError`` when two are unrelated."""
    towers = iter(towers)
    deepest = next(towers)
    for t in towers:
        if t is deepest or t.ancestor_of(deepest):
            continue
        if not deepest.ancestor_of(t):
            raise TowerError("data lives in unrelated towers")
        deepest = t
    return deepest


class FieldElem:
    """Element of an :class:`AlgebraicTower`, in reduced canonical form.

    ``coords`` maps reduced exponent tuples to nonzero ground coordinates.
    Values are immutable once built; all operations return fresh elements.
    """

    __slots__ = ("tower", "coords", "_hash")

    def __init__(self, tower, coords):
        self.tower = tower
        self.coords = coords
        self._hash = None

    # -- basics ---------------------------------------------------------

    def is_zero(self):
        return not self.coords

    def __bool__(self):
        return bool(self.coords)

    def is_scalar(self):
        if not self.coords:
            return True
        z = (0,) * self.tower.r
        return set(self.coords) == {z}

    def scalar_part(self):
        """The coordinate on the trivial monomial (0 if absent)."""
        return self.coords.get((0,) * self.tower.r, self.tower.gf.zero)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            if self.tower is not other.tower:
                if self.tower.ancestor_of(other.tower):
                    return other.tower.lift(self) == other
                if other.tower.ancestor_of(self.tower):
                    return self == self.tower.lift(other)
                return NotImplemented
            return self.coords == other.coords
        if isinstance(other, Scalar):
            return self == self.tower.from_ground(other)
        # a tower element equals only tower elements and ground scalars;
        # an int or Fraction is left to its own comparison
        return NotImplemented

    def __hash__(self):
        # a scalar element equals its ground coordinate, so hashes as it
        if self._hash is None:
            self._hash = hash(self.scalar_part() if self.is_scalar() else
                              frozenset((_trim(e), c)
                                        for e, c in self.coords.items()))
        return self._hash

    def __repr__(self):
        if not self.coords:
            return "0"
        names = self.tower.names
        bits = []
        for e in sorted(self.coords, key=lambda t: (sum(t), t)):
            c = self.coords[e]
            mono = "*".join(
                f"{names[i]}^{k}" if k > 1 else names[i]
                for i, k in enumerate(e)
                if k
            )
            cs = str(c.as_expr())
            if any(op in cs for op in "+-") and not cs.lstrip("-").isalnum():
                cs = f"({cs})"
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)

    # -- ring ops ---------------------------------------------------------

    def _same(self, other):
        """``other`` in this tower; None when it lives in a bigger one, and
        NotImplemented when ``from_ground`` cannot take it (a quotient of
        series, say), so that the other operand's operator answers."""
        t = self.tower
        if isinstance(other, FieldElem):
            if other.tower is t:
                return other
            if other.tower.ancestor_of(t):
                return t.lift(other)
            if t.ancestor_of(other.tower):
                return None  # caller should re-dispatch in the bigger tower
            raise TowerError("operands live in unrelated towers")
        if isinstance(other, Scalar) or (
                hasattr(other, "numerator") and hasattr(other, "denominator")):
            return t.from_ground(other)
        return NotImplemented

    def __add__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        if o is None:
            return other.tower.lift(self) + other
        return self.tower.sum((self, o))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.tower, {e: -c for e, c in self.coords.items()})

    def __sub__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        if o is None:
            return other.tower.lift(self) - other
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        if o is None:
            return other.tower.lift(self) * other
        return self.tower.dot(((self, o),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        if o is None:
            return other.tower.lift(self) / other
        if o.is_scalar():
            c = o.scalar_part()
            if not c:
                raise DivisionByZero("division by zero tower element")
            return self.tower.dot(((self, self.tower.gf.one / c),))
        return self * self.tower.invert(o)

    def __rtruediv__(self, other):
        o = self._same(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("tower exponents must be integers")
        if n < 0:
            return self.tower.invert(self) ** (-n)
        acc = self.tower.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    # -- structure maps ---------------------------------------------------

    def derive(self):
        """d/ds, extended through w_i' = b_i' w_i/(d_i b_i)."""
        t = self.tower
        gf = t.gf
        pairs = []
        for e, c in self.coords.items():
            pairs.append((gf.diff_s(c), FieldElem(t, {e: gf.one})))
            pairs.append((t._deriv_factor(e), FieldElem(t, {e: c})))
        return t.dot(pairs)

    def galois(self, gen_name):
        t = self.tower
        g = t._galois.get(gen_name)
        if g is None:
            raise UndeclaredGenerator(
                f"Galois generator {gen_name!r} was not declared"
            )
        return t._apply_galois(g, self)
