"""Ground field  K0 = Q(alpha_1, ..., alpha_p, s).

Everything upstairs (radical towers, local expansions, the ODE solver) works
with elements of a single rational function field: the formal parameters
``alpha_i`` and the curve coordinate ``s`` over Q.  We host it on sympy's
sparse ``FracField`` over ZZ, the fractions of Z[alpha_1, ..., alpha_p, s],
which gives exact normalized arithmetic, and wrap it in :class:`GroundField`
to add the structure the rest of the package needs:

* the distinguished role of ``s`` (derivation d/ds, degrees in s,
  polynomial-in-s views with coefficients in the parameter subfield);
* factorization of denominators into monic-in-s irreducible factors,
  with a cache keyed on the polynomial;
* evaluation at rational parameter/curve values.

The field is a :class:`ScalarField` with :class:`Scalar` elements,
subclasses of sympy's ``FracField`` / ``FracElement`` that change one thing,
how ``+ - * /`` between two field elements reach the normal form.  sympy
takes a full gcd of the result's numerator against its denominator on every
operation; a :class:`Scalar` keeps its operands reduced and takes gcds of
denominators and of cross numerator/denominator pairs only (Henrici-Knuth).
A sum of three or more terms is one step, :func:`fraction_sum`: the terms go
over the lcm of their denominators, built from gcds of denominators only,
and one final gcd reduces the total, where a fold of ``+`` would reduce
every partial sum.  ``AlgebraicTower.sum`` and ``dot`` are the one kernel
that accumulates tower elements, every tower ``+`` and ``*`` included.  Per
coordinate, ``sum`` takes Henrici's ``+`` for two terms and ``dot``
Henrici's ``*`` for one product; more go through :func:`fraction_sum`.
What stays is sympy's canonical form: integer coefficients, numerator and
denominator coprime and jointly content-free, the denominator's leading
coefficient positive.  So equality, hashing, printing and every cache key
are those of plain ``FracElement`` objects, and a ``ScalarField`` compares and
hashes equal to the plain ``FracField`` over ZZ on the same generators.

That form is also the one the field over QQ prints, so hosting on ZZ changes
no printed result, only ``hash()`` values (the ground domain is part of
them).  What it saves is the move of every operand to integer coefficients
and back.  The ring over ZZ fails silently where a ring over QQ divides:
``quo_ground(c)``, ``monic()`` and ``p / c`` drop or floor the terms that c
does not divide, and ``p(*point)`` at a rational point raises
``CoercionFailed``.  So each ring-level step here is exact by construction
(a content divided out, an integer embedded, a factorization over Z), and
everything else is field-level, where sympy keeps a rational operand as a
fraction of integers; values at rational points are taken over Q
(``tower._value``).

Each of those gcds has one of three outcomes (Brown, J. ACM 18 (1971);
von zur Gathen and Gerhard, *Modern Computer Algebra*, 6.7).

* Proven coprime.  Most are an integer, the gcd of the two contents, and
  one image mod a prime per variable proves that far more cheaply than a
  gcd.  In every generator x_i where both polynomials have positive
  degree, a gate maps them to F_q[x_i] (q = 2^29 - 3, the other
  generators at fixed points) and runs Euclid there.  If both leading
  coefficients in x_i stay nonzero mod q, so does that of the gcd, which
  divides them; the gcd's image then keeps its degree in x_i and divides
  the gcd of the images.  So if that gcd is constant for every such x_i,
  the gcd has degree 0 in every generator and is the content gcd.  The
  argument holds for any prime q, so the proof does not depend on its
  size; a smaller q only fails to prove a coprime pair more often (a
  vanishing leading coefficient or a common root mod q, each about
  deg / q likely), and q below 2^30 keeps every residue one CPython digit.
* One shared generator, computed modularly.  When x_i is the only
  generator in which both have positive degree, the gcd lies in Z[x_i]:
  it is the gcd of their coefficients as polynomials in the other
  generators.  Those univariate gcds are taken mod a prime that divides
  neither leading coefficient, lifted, and accepted only when the lift
  divides both exactly; a failed check retries with a larger prime.  The
  lift reads the gcd's coefficients off symmetric residues, so its primes
  are 2^61 - 1 and larger, whatever the gate's q.
* Otherwise sympy's gcd decides: for two or more shared generators, or
  once the primes are used up.

Every gcd is the one sympy gives, up to a sign that the normal form fixes,
so every result is unchanged.

Each field decides a pair once: ``ScalarField.cofactors`` keeps a gcd memo
from a pair (a, b) of its polynomials, compared by content and in that
order, to the triple the gate gave.  Pairs repeat because the pipeline
checks its results on purpose, the check engine and the certificate
verifier deriving again what construction computed, and because a few
denominators (powers of alpha^2 - 1, 1 + s^2) meet again across cells.
The memo lives as long as its field, so as long as the ``GroundField``
that built it.  A pair with a constant operand takes the content gcd at
once, with no gate and no entry; a pair of more than ``_MEMO_TERMS`` terms
in all runs the gate every time, which bounds the memo on deep flows.  A
stored cofactor becomes the numerator or denominator of many elements, so
no polynomial here is changed in place after it is built, and each hashes
by its content: ``Scalar.__pow__`` copies sympy's powers, whose squares
are hashed before they are finished.  The gate relies on the same rule: a
polynomial's degrees and images mod q are computed once and stored on
the polynomial object, where every later pair that has it as an operand
finds them.  A product with a factor 1 is that other factor itself, with
no new polynomial.

A "scalar" below always means an element of the ground field; a "parameter
scalar" is one whose numerator and denominator are free of ``s``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy
from sympy import ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import HeuristicGCDFailed

__all__ = [
    "GroundField",
    "SPoly",
    "Scalar",
    "ScalarField",
    "fraction_sum",
]


def _fraction_nth_root(c, d):
    """Exact rational d-th root of a Fraction, or None."""
    if c < 0:
        if d % 2 == 0:
            return None
        r = _fraction_nth_root(-c, d)
        return None if r is None else -r
    pn, en = sympy.integer_nthroot(c.numerator, d)
    pd, ed = sympy.integer_nthroot(c.denominator, d)
    if not (en and ed):
        return None
    return Fraction(int(pn), int(pd))


class ScalarField(FracField):
    """sympy's rational function field over ZZ with :class:`Scalar` elements.

    Over ZZ it is still Q(x_1, ..., x_n): numerators and denominators lie in
    Z[x_1, ..., x_n] and a rational constant is a pair of integers.  Equal
    to the plain ``FracField`` over ZZ on the same generators, so it hashes
    like one too; only the element type differs, and each field carries
    its own gcd memo (:meth:`cofactors`).
    """

    def __new__(cls, symbols, domain, order=lex):
        obj = super().__new__(cls, symbols, domain, order)
        if not obj.domain.is_ZZ:
            raise ValueError("a ScalarField is a field over ZZ")
        obj._hash_tuple = (FracField.__name__,) + obj._hash_tuple[1:]
        obj._hash = hash(obj._hash_tuple)
        plain_gens = obj.gens
        obj.dtype = Scalar(obj, obj.ring.zero).raw_new
        obj.zero = obj.dtype(obj.ring.zero)
        obj.one = obj.dtype(obj.ring.one)
        obj.gens = obj._gens()
        for sym, plain, gen in zip(obj.symbols, plain_gens, obj.gens):
            name = getattr(sym, "name", None)
            if name is not None and getattr(obj, name, None) is plain:
                setattr(obj, name, gen)
        obj._gcd_memo = {}
        return obj

    def cofactors(self, a, b):
        """``_cofactors(a, b)`` for nonzero polynomials of the field's ring,
        each pair decided once per field.

        A constant operand needs no gate: the gcd is that of the contents,
        and (1, a, b) at once when either operand has constant term 1, an
        operand 1 included.  A pair of at most ``_MEMO_TERMS`` terms in all
        is looked up by the content of (a, b), in that order; a miss runs
        the gate and stores its triple, unless the gate raises
        ``HeuristicGCDFailed``.  Larger pairs run the gate every time.
        """
        zero = self.ring.zero_monom
        if len(a) == 1 and zero in a or len(b) == 1 and zero in b:
            if a.get(zero) == 1 or b.get(zero) == 1:
                return self.ring.one, a, b
            return _content_cofactors(a, b)
        if len(a) + len(b) > _MEMO_TERMS:
            return _cofactors(a, b)
        key = (a, b)
        got = self._gcd_memo.get(key)
        if got is None:
            got = self._gcd_memo[key] = _cofactors(a, b)
        return got


# The coprimality gate's prime and the points the other generators take, by
# generator index, nonzero and distinct mod _Q.  The gate's proof holds for
# any prime; only its speed depends on the size.  Below 2^30 every residue
# is one CPython digit.  An image loses a leading coefficient or gains a
# common root only by rare accident (about deg / _Q), and then the gate
# merely moves on to the exact gcd.
_Q = 2**29 - 3
_POINTS = tuple(pow(3, 64 + 7 * j, _Q) for j in range(16))

# _POWERS[j][e] is _POINTS[j]**e mod _Q, grown on demand by _gate_data.
_POWERS = [[1] for _ in _POINTS]

# The primes of the gcd in one shared generator, tried in turn ("big prime"
# gcd): each retry is for a prime dividing a leading coefficient, an image
# gcd of too high a degree, or gcd coefficients beyond half the prime.  The
# lift reads coefficients below half its prime, so it starts at 61 bits,
# where most gcds lift at the first prime, whatever the gate's prime.
_P = 2**61 - 1
_PRIMES = (_P, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1)

# The largest pair, in terms of both operands together, that a field's gcd
# memo stores.  An entry lives as long as its field, and a deep flow decides
# many large pairs that never repeat: one 1dw formal_flow at N = 12 stores
# 1415 pairs with no cap, and its process peaks 13 MB above the same flow
# with no memo; with this cap it stores 728 and peaks 3 MB above.  The
# repeats are small: every hit of the certify and lattice workloads is of
# at most 16 terms.
_MEMO_TERMS = 32


def _gate_data(p):
    """p's degree in each generator and its images so far, by generator
    index, computed once and stored on p (no polynomial changes after it
    is built).  Grows _POWERS to p's degrees."""
    try:
        return p._gate
    except AttributeError:
        pass
    degs = [max(e) for e in zip(*p)]
    for row, pt, d in zip(_POWERS, _POINTS, degs):
        while len(row) <= d:
            row.append(row[-1] * pt % _Q)
    p._gate = data = (degs, {})
    return data


def _image(p, i):
    """p mod _Q in F_q[x_i], the other generators at _POINTS; dense, entry
    k the coefficient of x_i^k, so the last entry is the image of
    lc_{x_i}(p).  Stored on p: callers that consume it must copy it."""
    degs, images = _gate_data(p)
    out = images.get(i)
    if out is None:
        out = [0] * (degs[i] + 1)
        for m, c in p.items():
            for j, e in enumerate(m):
                if e and j != i:
                    c = c * _POWERS[j][e] % _Q
            out[m[i]] += c
        out = images[i] = [c % _Q for c in out]
    return out


def _gcd_mod(f, g, p):
    """The monic gcd of dense f, g over F_p (nonzero leading entries), by
    Euclid; both lists are used up."""
    while len(g) > 1:
        inv = pow(g[-1], -1, p)
        n = len(g) - 1
        while len(f) > n:
            q = f.pop() * inv % p
            off = len(f) - n
            for k in range(n):
                f[off + k] = (f[off + k] - q * g[k]) % p
            while f and not f[-1]:
                f.pop()
        if not f:
            return [c * inv % p for c in g]
        f, g = g, f
    return [1]


def _primitive(f):
    """Dense f over Z divided by its content, with a positive leading entry."""
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return [x // c for x in f] if c != 1 else f


def _quo(f, g):
    """f / g for dense f, g over Z, or None when g does not divide f."""
    n = len(g) - 1
    if len(f) <= n:
        return None
    r = list(f)
    q = [0] * (len(f) - n)
    lc = g[-1]
    for k in range(len(q) - 1, -1, -1):
        t, rest = divmod(r[k + n], lc)
        if rest:
            return None
        if t:
            q[k] = t
            for j in range(n):
                r[k + j] -= t * g[j]
    return None if any(r[:n]) else q


def _gcd_z(f, g):
    """gcd(f, g) for primitive dense f, g over Z with positive leading
    entries, or None when every prime of _PRIMES fails.

    For a prime p dividing neither leading coefficient, the image of
    G = gcd(f, g) keeps its degree and divides both images, so the monic
    image gcd h has deg h >= deg G.  lc(G) divides l = gcd(lc f, lc g), so
    l h is the image of (l / lc G) G when the degrees agree; its symmetric
    residues give that multiple when its coefficients are below p/2, and
    H, their primitive part, is G.  H is accepted only when it divides f
    and g over Z: then H divides G, and deg H = deg h >= deg G makes H = G.
    A prime that divides a leading coefficient can lose degree in an image,
    and then a wrong H can still divide both, so such a prime is skipped.
    """
    l = math.gcd(f[-1], g[-1])
    for p in _PRIMES:
        if not (f[-1] % p and g[-1] % p):
            continue
        h = _gcd_mod([c % p for c in f], [c % p for c in g], p)
        if len(h) == 1:
            return h
        half = p // 2
        h = _primitive([c - p if c > half else c
                        for c in (l * c % p for c in h)])
        if _quo(f, h) is not None and _quo(g, h) is not None:
            return h
    return None


def _content_cofactors(a, b):
    """``a.cofactors(b)`` when the gcd is c, the gcd of the contents."""
    c = math.gcd(*a.values(), *b.values())
    if c == 1:
        return a.ring.one, a, b
    # exact: c divides every coefficient (over ZZ ``quo_ground`` drops a
    # term that it does not divide)
    return a.ring.ground_new(c), a.quo_ground(c), b.quo_ground(c)


def _rows(p, i):
    """p as {its monomials with x_i^0: dense coefficient lists in Z[x_i]}."""
    out = {}
    for m, c in p.items():
        k = m[i]
        key = m[:i] + (0,) + m[i + 1:]
        row = out.setdefault(key, [])
        if len(row) <= k:
            row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    return out


def _from_rows(ring, i, rows):
    """The polynomial of ``ring`` with the given ``_rows`` in x_i."""
    return ring.dtype({key[:i] + (k,) + key[i + 1:]: c
                       for key, row in rows.items()
                       for k, c in enumerate(row) if c})


def _one_generator_cofactors(a, b, i):
    """``a.cofactors(b)`` when x_i is the only generator in which both have
    positive degree, or None when the modular gcd gives up.

    G = gcd(a, b) then has degree 0 in every other generator, so it lies
    in Z[x_i]: it is the gcd of a's and b's coefficients as polynomials in
    the other generators, with coefficients in Z[x_i].  Its content is the
    gcd c of every integer coefficient, and its primitive part H the gcd of
    the primitive parts of those coefficient polynomials, folded by
    ``_gcd_z`` from the shortest and stopped once H is constant.  The
    cofactors are the exact quotients, each coefficient polynomial divided
    by c H.
    """
    ra, rb = _rows(a, i), _rows(b, i)
    polys = sorted((*ra.values(), *rb.values()), key=len)
    h = _primitive(polys[0])
    for f in polys[1:]:
        if len(h) == 1:
            break
        f = _primitive(f)
        if _quo(f, h) is None:
            h = _gcd_z(h, f)
            if h is None:
                return None
    if len(h) == 1:
        return _content_cofactors(a, b)
    ring = a.ring
    c = math.gcd(*a.values(), *b.values())
    g = [c * x for x in h]
    return (_from_rows(ring, i, {(0,) * ring.ngens: g}),
            *(_from_rows(ring, i, {key: _quo(row, g)
                                   for key, row in rows.items()})
              for rows in (ra, rb)))


def _cofactors(a, b):
    """``a.cofactors(b)`` for nonzero a, b over ZZ, up to a common sign.

    Let G = gcd(a, b).  In a generator x_i where a or b has degree 0 so has
    G.  There are three outcomes.

    * Proven coprime: in each generator x_i where both have positive
      degree, a and b go to F_q[x_i] (q = _Q), the other generators at
      fixed points.  If lc_{x_i} of a and of b stay nonzero there, so does
      lc_{x_i}(G), which divides them, so the image of G keeps its degree
      in x_i and divides the gcd of the images.  When that gcd is constant
      for every such x_i, G has degree 0 everywhere: G = c, the gcd of the
      contents.  Degrees and images are those ``_gate_data`` stores on
      each operand.
    * One shared generator: when x_i is the only generator in which both
      have positive degree and its image proves nothing (a vanishing
      leading coefficient or an image gcd of positive degree), G lies in
      Z[x_i] and ``_one_generator_cofactors`` computes it modularly and
      checks it by exact division.
    * Otherwise sympy decides: for two or more shared generators, after
      the prime list is used up, and in a field with more generators than
      there are points.
    """
    if a.ring.ngens > len(_POINTS):
        return a.cofactors(b)
    da = _gate_data(a)[0]
    db = _gate_data(b)[0]
    shared = [i for i, (x, y) in enumerate(zip(da, db)) if x and y]
    for i in shared:
        f = _image(a, i)
        g = _image(b, i)
        if not (f[-1] and g[-1] and len(_gcd_mod(f[:], g[:], _Q)) == 1):
            if len(shared) == 1:
                got = _one_generator_cofactors(a, b, i)
                if got is not None:
                    return got
            return a.cofactors(b)
    return _content_cofactors(a, b)


def _times(p, q):
    """p * q, or the other factor itself when p or q is 1."""
    zero = p.ring.zero_monom
    if len(q) == 1 and q.get(zero) == 1:
        return p
    if len(p) == 1 and p.get(zero) == 1:
        return q
    return p * q


def fraction_sum(pairs, zero):
    """The sum of (numerator, denominator) pairs of ``zero``'s ring, as an
    element of its field, with one final gcd.

    Each denominator must have a positive leading coefficient; a pair need
    not be reduced.  Numerators over equal denominators are added first.
    The others go over D, the lcm of the denominators, built with gcds of
    denominators only: N/D + n/d = (N d' + n D') / (D d') with D = g D',
    d = g d'.  Then N/D is the sum, and cancelling gcd(N, D) leaves the
    canonical form (``_reduced`` fixes the sign).  A zero sum takes no
    final gcd.  A failing heuristic gcd falls back to a fold of ``+``.
    """
    groups = []
    for num, den in pairs:
        for group in groups:
            if group[1] == den:
                group[0] = group[0] + num
                break
        else:
            groups.append([num, den])
    cofactors = zero.field.cofactors
    try:
        total = None
        for num, den in groups:
            if not num:
                continue
            if total is None:
                total, lcm = num, den
                continue
            _, d1, den1 = cofactors(lcm, den)
            total = _times(total, den1) + _times(num, d1)
            lcm = _times(lcm, den1)
        if not total:
            return zero
        _, num, den = cofactors(total, lcm)
        return zero._reduced(num, den)
    except HeuristicGCDFailed:
        new = zero.raw_new
        one = zero.field.ring.one
        out = zero
        for num, den in groups:
            out = out + new(num, one) / new(den, one)
        return out


class Scalar(FracElement):
    """Element of a :class:`ScalarField`, always in sympy's canonical form.

    Between two field elements, ``+ - * /`` use the Henrici-Knuth rules
    (Knuth, TAOCP vol. 2, 4.5.1), which rely on both operands being reduced:

    * a/b + c/d: with g = gcd(b, d), (a d' + c b') / (b' d' g) where
      b = g b', d = g d'; only gcd(a d' + c b', g) can still cancel, and
      nothing when g = 1.  Equal denominators cost one gcd of the summed
      numerator against the shared denominator.
    * (a/b)(c/d) = (a/gcd(a,d))(c/gcd(c,b)) / ((b/gcd(c,b))(d/gcd(a,d))).

    Each of these gcds goes through the field's gcd memo,
    :meth:`ScalarField.cofactors`, and on a miss through the gate
    ``_cofactors`` (see the module docstring): proven coprime from one image
    mod q per shared generator, computed modularly when the operands share
    one generator, and left to sympy's gcd otherwise.  The memo stores the
    gate's triple under the content of the pair, for the life of the field,
    when neither operand is constant and the two have at most
    ``_MEMO_TERMS`` terms; pairs repeat because the check engine and the
    verifier derive again what construction computed.  So a stored
    polynomial may be the numerator or denominator of many elements, and
    none is changed in place (see :meth:`__pow__`).  A pair of terms keeps
    these rules; a sum of more, taken by :func:`fraction_sum`, takes one
    final gcd instead of one per partial sum.

    Each result is the canonical form sympy's ``cancel`` would give, so it is
    equal, hashes and prints the same.  An int divided by a field element
    is that int's element divided by it, so ``1 / x`` is the inverse
    without a full gcd, and zero divided by a nonzero element is that zero,
    with no product.  Other mixed operations with ints, rationals or
    polynomials keep sympy's own operation, and so does the rare operation
    whose heuristic gcd fails (``HeuristicGCDFailed``): sympy then cancels
    the whole result, a different gcd problem.  Code that builds elements
    with ``raw_new`` must pass a reduced pair of the field's polynomials
    over ZZ, the denominator's leading coefficient positive.
    """

    def __add__(f, g):
        if f and (isinstance(g, Scalar) and g.field is f.field
                  or f.field.is_element(g)) and g:
            try:
                return f._add(g.numer, g.denom)
            except HeuristicGCDFailed:
                pass
        return super().__add__(g)

    def __sub__(f, g):
        if f and (isinstance(g, Scalar) and g.field is f.field
                  or f.field.is_element(g)) and g:
            try:
                return f._add(-g.numer, g.denom)
            except HeuristicGCDFailed:
                pass
        return super().__sub__(g)

    def __mul__(f, g):
        if f and (isinstance(g, Scalar) and g.field is f.field
                  or f.field.is_element(g)) and g:
            try:
                return f._mul(g.numer, g.denom)
            except HeuristicGCDFailed:
                pass
        return super().__mul__(g)

    def __truediv__(f, g):
        if (isinstance(g, Scalar) and g.field is f.field
                or f.field.is_element(g)) and g:
            if not f:
                return f
            try:
                return f._mul(g.denom, g.numer)
            except HeuristicGCDFailed:
                pass
        return super().__truediv__(g)

    def __rtruediv__(f, c):
        if f and isinstance(c, int):  # so ground_new(c) is exact
            ring = f.field.ring
            return f.raw_new(ring.ground_new(c), ring.one) / f
        return super().__rtruediv__(c)

    def __pow__(f, n):
        """f**n for an int n, in canonical form.

        sympy's own power leaves a negative power's sign in the denominator,
        and ``PolyElement.square`` hashes the square before it is finished
        (in ``imul_num``), so a square would hash unlike the equal product;
        the copies drop that hash.  A polynomial that hashes unlike its
        content would also be stored in the field's gcd memo under the
        wrong key.
        """
        num, den = f.numer, f.denom
        if n < 0:
            if not f:
                raise ZeroDivisionError
            num, den, n = den, num, -n
        return f._reduced((num**n).copy(), (den**n).copy())

    def _add(f, c, d):
        """f + c/d for a reduced, nonzero c/d."""
        a, b = f.numer, f.denom
        field = f.field
        if b == d:
            t = a + c
            if not t:
                return field.zero
            _, num, den = field.cofactors(t, b)
            return f._reduced(num, den)
        g, b1, d1 = field.cofactors(b, d)
        if len(g) == 1 and g.get(b.ring.zero_monom) == 1:
            return f._reduced(_times(a, d) + _times(c, b), _times(b, d))
        t = _times(a, d1) + _times(c, b1)
        if not t:
            return field.zero
        _, num, g1 = field.cofactors(t, g)
        return f._reduced(num, _times(_times(g1, b1), d1))

    def _mul(f, c, d):
        """f * (c/d) for coprime, nonzero c and d."""
        zero = c.ring.zero_monom
        if len(c) == len(d) == 1 and c.get(zero) == 1 and d.get(zero) == 1:
            return f
        cofactors = f.field.cofactors
        _, a1, d1 = cofactors(f.numer, d)
        _, c1, b1 = cofactors(c, f.denom)
        return f._reduced(_times(a1, c1), _times(b1, d1))

    def _reduced(f, num, den):
        """The element num/den from coprime integer polynomials."""
        if den.LC < 0:
            num, den = -num, -den
        return f.raw_new(num, den)


class GroundField:
    """Rational function field Q(alpha_1, ..., alpha_p, s).

    Parameters
    ----------
    params : sequence of str
        Names of the formal parameters (possibly empty).  They are transcendental
        and algebraically independent; nothing in the package ever specializes
        them except the explicit numeric evaluators.
    curve_var : str
        Name of the curve coordinate (defaults to ``"s"``).

    Its ``field`` is a :class:`ScalarField` built for this ground field
    alone, and so is the field's gcd memo: every gcd the arithmetic takes
    (``+ - * /``, :func:`fraction_sum`, :meth:`diff_s`) stores the gate's
    triple there, keyed by the content of the pair, unless an operand is
    constant or the pair has more than ``_MEMO_TERMS`` terms.  Pairs repeat
    because results are checked again by code independent of the code that
    built them.  The memo dies with the ground field; nothing else empties
    it.
    """

    def __init__(self, params=(), curve_var="s"):
        params = tuple(params)
        if curve_var in params:
            raise ValueError(f"curve variable {curve_var!r} duplicated in params")
        seen = set()
        for p in params:
            if p in seen:
                raise ValueError(f"duplicate parameter {p!r}")
            seen.add(p)
        self.param_names = params
        self.curve_var = curve_var
        self.field = ScalarField(list(params) + [curve_var], ZZ)
        self.ring = self.field.to_ring()
        gens = self.field.gens
        self.param_gens = gens[: len(params)]
        self.s = gens[-1]
        self.zero = self.field.zero
        self.one = self.field.one
        self._gen_by_name = {n: g for n, g in zip(params, self.param_gens)}
        self._gen_by_name[curve_var] = self.s
        self._s_index = len(params)
        self._factor_cache = {}

    # ---------------------------------------------------------------- basics

    def __repr__(self):
        names = ", ".join(self.param_names + (self.curve_var,))
        return f"GroundField(Q({names}))"

    def __eq__(self, other):
        return (
            isinstance(other, GroundField)
            and self.param_names == other.param_names
            and self.curve_var == other.curve_var
        )

    def __hash__(self):
        return hash((self.param_names, self.curve_var))

    def gen(self, name):
        try:
            return self._gen_by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def from_rational(self, value):
        """Embed an int / Fraction / sympy Rational / QQ element.  Each keeps
        its numerator and a positive denominator coprime, so the two integer
        constants are already the canonical pair and no gcd is taken."""
        ring = self.ring
        return self.field.raw_new(ring.ground_new(int(value.numerator)),
                                  ring.ground_new(int(value.denominator)))

    def from_expr(self, expr):
        """Convert a sympy expression in the declared generators, at field
        level: a rational coefficient stays a fraction of integers."""
        return self.field.from_expr(expr)

    def to_expr(self, f):
        return f.as_expr()

    # ------------------------------------------------------------ derivation

    def diff_s(self, f):
        """d/ds, the derivation every tower extends, by the quotient rule on
        the reduced pair a/b, its gcds taken by the field's gcd memo and
        gate: proven coprime, computed modularly when the two polynomials
        share one generator (say b free of s and in one parameter), or left
        to sympy's gcd.

        When b is free of s, (a/b)' = a'/b and only gcd(a', b) can cancel.
        Otherwise write b = g b1 and b' = g c with g = gcd(b, b'): then
        (a/b)' = t / (g b1^2) with t = a' b1 - a c.  A prime p dividing b1
        involves s; if p^e exactly divides b, then p^(e-1) exactly divides
        b' and g, so p divides neither c nor a (a/b is reduced), nor t.  So
        only gcd(t, g) can cancel.  A failing heuristic gcd falls back to
        sympy's ``diff``.
        """
        x = self.ring.gens[self._s_index]
        a, b = f.numer, f.denom
        da = a.diff(x)
        cofactors = self.field.cofactors
        try:
            if b.degree(x) <= 0:
                if not da:
                    return self.zero
                _, num, den = cofactors(da, b)
                return f._reduced(num, den)
            g, b1, c = cofactors(b, b.diff(x))
            _, num, g1 = cofactors(da * b1 - a * c, g)
            return f._reduced(num, g1 * b1**2)
        except HeuristicGCDFailed:
            return FracElement.diff(f, self.s)

    # --------------------------------------------------------------- queries

    def is_param_scalar(self, f):
        """True iff f is free of the curve variable."""
        i = self._s_index
        return f.numer.degree(i) <= 0 and f.denom.degree(i) <= 0

    def is_rational_const(self, f):
        """True iff f is a rational number (free of all generators)."""
        return f.numer.is_ground and f.denom.is_ground

    # ----------------------------------------------------- polynomial views

    def spoly(self, f):
        """View a *polynomial-in-s* element as an :class:`SPoly`.

        Raises ValueError if the denominator involves s.
        """
        i = self._s_index
        if f.denom.degree(i) > 0:
            raise ValueError(f"{f} has s in its denominator")
        one = self.ring.one
        den = self.field.raw_new(f.denom, one)
        groups = {}
        for mono, c in f.numer.terms():
            free = mono[:i] + (0,) + mono[i + 1:]
            groups.setdefault(mono[i], []).append((free, c))
        n = max(groups) if groups else -1
        dense = [self.field.raw_new(self.ring.from_terms(groups[k]), one) / den
                 if k in groups else self.zero for k in range(n + 1)]
        return SPoly(self, dense)

    def numer_spoly(self, f):
        """Numerator of f as a polynomial in s (parameter-scalar coefficients)."""
        return self.spoly(self.field.raw_new(f.numer, self.ring.one))

    def denom_spoly(self, f):
        return self.spoly(self.field.raw_new(f.denom, self.ring.one))

    def nth_root(self, f, d):
        """Exact d-th root of a field element, or None when not a d-th power.

        The root is normalized to the principal choice: positive rational
        content root for even d, the sign-preserving real root for odd d.
        """
        if d <= 0:
            raise ValueError("root index must be positive")
        if not f:
            return self.zero
        parts = []
        for poly in (f.numer, f.denom):
            content, facs = poly.factor_list()
            croot = _fraction_nth_root(Fraction(content), d)
            if croot is None or any(mult % d for _, mult in facs):
                return None
            acc = self.from_rational(croot)
            for base, mult in facs:
                acc = acc * self.field.raw_new(base ** (mult // d))
            parts.append(acc)
        return parts[0] / parts[1]

    def affine_parts(self, f):
        """Decompose a parameter scalar as  c0 + Σ c_i·alpha_i  (all rational).

        Returns ``(Fraction, {name: Fraction})`` or None when f is not affine
        with rational coefficients: :meth:`param_affine_parts`, kept only
        when every part is a rational number.
        """
        parts = self.param_affine_parts(f)
        if parts is None:
            return None
        const, lin = parts
        if not all(map(self.is_rational_const, (const, *lin.values()))):
            return None

        def frac(c):
            return Fraction(int(c.numer.LC), int(c.denom.LC))

        return frac(const), {name: frac(c) for name, c in lin.items()}

    def param_affine_parts(self, f):
        """Split f as  f0 + sum f_i*alpha_i  with parameter-free parts.

        Unlike :meth:`affine_parts` the parts may involve s.  Returns
        ``(f0, {name: f_i})`` of field elements, or None when a parameter
        occurs in the denominator or the numerator is not affine in the
        parameters.
        """
        si = self._s_index
        for mono, _ in f.denom.terms():
            if any(e and i != si for i, e in enumerate(mono)):
                return None
        groups = {}
        for mono, c in f.numer.terms():
            live = [i for i, e in enumerate(mono) if e and i != si]
            if not live:
                key = None
            elif len(live) == 1 and mono[live[0]] == 1:
                key = live[0]
            else:
                return None
            rest = tuple(0 if i != si else e for i, e in enumerate(mono))
            groups.setdefault(key, []).append((rest, c))
        den = self.field.raw_new(f.denom, self.ring.one)
        out = {}
        for key, terms in groups.items():
            num = self.field.raw_new(self.ring.from_terms(terms),
                                     self.ring.one)
            out[key] = num / den
        const = out.pop(None, self.zero)
        return const, {self.param_names[i]: v for i, v in out.items()}

    # -------------------------------------------------------- factorization

    def monic_s_factors(self, f):
        """Poles of a nonzero element, with its valuation at each.

        Returns ``[(SPoly factor, -order)]``: the irreducible factors of the
        denominator, each monic in s with parameter-scalar coefficients and
        irreducible over Q(alpha), paired with minus its multiplicity.
        Factors free of s are dropped (they are units of the local rings at
        finite places).  The numerator is not factored.
        """
        if not f:
            raise ValueError("zero has no factorization")
        return [(fac, -mult) for fac, mult in self._poly_factors(f.denom)]

    def _poly_factors(self, p):
        """The monic s-dependent irreducible factors of p, with multiplicity,
        cached by p; a polynomial free of s has none and is not factored."""
        if p.degree(self._s_index) <= 0:
            return []
        key = tuple(sorted(p.terms()))
        hit = self._factor_cache.get(key)
        if hit is not None:
            return hit
        _, facs = p.factor_list()
        i = self._s_index
        out = [(self.spoly(self.field.raw_new(base, self.ring.one)).monic(),
                mult)
               for base, mult in facs if base.degree(i) > 0]
        self._factor_cache[key] = out
        return out


class SPoly:
    """Dense univariate polynomial in s with parameter-scalar coefficients.

    A deliberately small helper: the solver needs exact division, gcd, and
    evaluation of polynomials *in s only*, with coefficients in Q(alpha).
    Coefficients are ground-field FracElements that happen to be s-free.
    ``coeffs[k]`` multiplies s^k; trailing zeros are stripped; the zero
    polynomial has an empty list.
    """

    __slots__ = ("gf", "coeffs")

    def __init__(self, gf, coeffs):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.gf = gf
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    def to_element(self):
        """Back to a FracElement of the ground field, the terms c_k s^k
        summed by one :func:`fraction_sum`."""
        gf = self.gf
        ngens, i = gf.ring.ngens, gf._s_index
        pairs = []
        for k, c in enumerate(self.coeffs):
            if c:
                shift = (0,) * i + (k,) + (0,) * (ngens - i - 1)
                pairs.append((c.numer.mul_monom(shift), c.denom))
        return fraction_sum(pairs, gf.zero)

    def key(self):
        """Hashable canonical key (for caches and dedup)."""
        return tuple((k, str(c)) for k, c in enumerate(self.coeffs))

    # -- basics --------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for zero

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "SPoly(0)"
        var = self.gf.curve_var
        bits = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            cs = str(c.as_expr())
            term = cs if k == 0 else (f"({cs})*{var}^{k}" if k > 1 else f"({cs})*{var}")
            bits.append(term)
        return "SPoly(" + " + ".join(bits) + ")"

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return SPoly(self.gf, [])
        z = self.gf.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return SPoly(self.gf, out)

    def scale(self, c):
        return SPoly(self.gf, [c * a for a in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return SPoly(self.gf, [c / lead if c else c for c in self.coeffs])

    def divmod(self, other):
        """Exact polynomial division with remainder over the coefficient field."""
        if not other.coeffs:
            raise ZeroDivisionError("SPoly division by zero")
        gf = self.gf
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return SPoly(gf, []), SPoly(gf, rem)
        quo = [gf.zero] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if not top:
                continue
            q = top / lead
            quo[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * b
        return SPoly(gf, quo), SPoly(gf, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def diff(self):
        gf = self.gf
        out = []
        for k in range(1, len(self.coeffs)):
            out.append(self.coeffs[k] * gf.from_rational(k))
        return SPoly(gf, out)

    def valuation_of(self, f_num):
        """Multiplicity of self in the polynomial-in-s element f_num (an SPoly)."""
        if not f_num:
            raise ValueError("valuation of zero")
        m = 0
        cur = f_num
        while True:
            q, r = cur.divmod(self)
            if r:
                return m
            m += 1
            cur = q
