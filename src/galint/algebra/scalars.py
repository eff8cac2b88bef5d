"""Ground field  K0 = Q(alpha_1, ..., alpha_p, s).

Everything upstairs (radical towers, local expansions, the ODE solver) works
with elements of a single rational function field: the formal parameters
``alpha_i`` and the curve coordinate ``s`` over Q.  That field is one
object, a :class:`GroundField`.  An element is a :class:`Scalar`, a reduced
pair of polynomials of Z[alpha_1, ..., alpha_p, s] held on the field's
packed-exponent kernel (:mod:`galint.algebra.packed`), and its ``field`` is
the ground field itself, which holds the arithmetic's gcd memo and adds the
structure the rest of the package needs:

* the distinguished role of ``s`` (derivation d/ds, degrees in s,
  polynomial-in-s views with coefficients in the parameter subfield);
* factorization of denominators into monic-in-s irreducible factors,
  with a cache keyed on the polynomial;
* evaluation at rational parameter/curve values.

The kernel's polynomial is a dict from one int per monomial to an int
coefficient.  The int packs the exponents into one field of 16 bits per
generator, the first parameter's the most significant and ``s``'s the
least, so a product of monomials is a sum of ints and the leading term in
lex order is the largest key.  The top bit of each field is a guard:
exponents stay at most 2^15 - 1, a sum of two fields never carries into
the next, and an operation whose result would exceed that raises
``OverflowError`` instead of wrapping.

``+ - * /`` between two field elements reach the normal form with gcds of
denominators and of cross numerator/denominator pairs only (Henrici-Knuth),
never a gcd of a whole result's numerator against its denominator; two
rational constants take the gcd of their integers.  A sum of three or more
terms is one step, :func:`fraction_sum`: the terms go over the lcm of their
denominators, built from gcds of denominators only, and one final gcd
reduces the total, where a fold of ``+`` would reduce every partial sum.
``AlgebraicTower.sum`` and ``dot`` are the one kernel that accumulates
tower elements, every tower ``+`` and ``*`` included.  Per coordinate,
``sum`` takes Henrici's ``+`` for two terms and ``dot`` Henrici's ``*`` for
one product; more go through :func:`fraction_sum`.  The normal form is
sympy's: integer coefficients, numerator and denominator coprime and
jointly content-free, the denominator's leading coefficient in lex order
positive.  So equal elements have equal pairs, and every printed result is
the one sympy's ``FracField`` over ZZ gives.

The kernel does the work sympy did: its printer writes a reduced pair byte
for byte as sympy's ``FracField`` over ZZ prints it, so the location keys
and ``SPoly.key`` strings that places are sorted by stay as they were; the
heuristic gcd below is sympy's ``heugcd`` on packed polynomials; a
polynomial in s alone is factored over Z by content, squarefree parts and
rational roots (:meth:`GroundField.monic_s_factors`) and tested for a d-th
power by its squarefree parts (:meth:`GroundField.nth_root`).  This module
imports no sympy.  :mod:`galint.algebra.bridge` imports it the first time
one of its remaining uses runs, none of which a pass of the benchmark
workloads reaches:

1. the subresultant PRS gcd, when the heuristic gcd fails;
2. ``factor_list``, for a polynomial that involves a parameter, and for one
   in s alone that leaves a factor of degree 4 or more with no rational
   root (or whose gcds give up, or whose leading or constant coefficient
   trial division cannot factor);
3. ``divisors``, for an integer that trial division up to ``_TRIAL``
   cannot factor;
4. the ``numer``/``denom`` views and ``as_expr``, through sympy's
   ``PolyRing`` and ``FracField`` over ZZ.

Each gcd has one of four outcomes (Brown, J. ACM 18 (1971); von zur
Gathen and Gerhard, *Modern Computer Algebra*, 6.7).

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
* One operand divides the other, proven by one exact division.  The same
  images tell when to try it: if a divides b, then a's degree in every
  generator is at most b's, lc(a) divides lc(b), and where both leading
  coefficients in a shared x_i stay nonzero mod q the image of a divides
  that of b, so the gcd of the images has a's degree in x_i.  A pair that
  passes these tests takes one exact division, and only a failed one goes
  on to the outcomes below.  Flow denominators are products of a few pivot
  factors, so this is most of the gcds that are not constant: 268 of 349
  in a seed-0 pass of the flow-deep workload.
* One generator left open, computed modularly.  When the images prove
  degree 0 in every shared generator but x_i (or x_i is the only shared
  one), the gcd lies in Z[x_i]: it is the gcd of their coefficients as
  polynomials in the other generators.  Those univariate gcds are taken
  mod a prime that divides neither leading coefficient, lifted, and
  accepted only when the lift divides both exactly; a failed check retries
  with a larger prime.  The lift reads the gcd's coefficients off symmetric
  residues, so its primes are 2^61 - 1 and larger, whatever the gate's q.
* Otherwise the heuristic gcd (Char, Geddes and Gonnet, JSC 7 (1989))
  decides: for two or more generators left open, or once the primes are
  used up.  It can fail; sympy's subresultant PRS gcd then decides, so
  every gcd has an answer.

Every gcd is the one sympy gives, up to a sign that the normal form fixes,
so every result is unchanged.

Each ground field decides a pair once: ``GroundField.cofactors`` keeps a
gcd memo from a pair (a, b) of its polynomials, compared by content and in
that order, to the triple the gate gave.  Pairs repeat because the pipeline
checks its results on purpose, the check engine and the certificate
verifier deriving again what construction computed, and because a few
denominators (powers of alpha^2 - 1, 1 + s^2) meet again across cells.
The memo lives as long as its ground field.  A pair with a constant
operand takes the content gcd at once, with no gate and no entry; a pair of
more than ``_MEMO_TERMS`` terms in all runs the gate every time, which
bounds the memo on deep flows.  A stored cofactor becomes the numerator or
denominator of many elements, so no polynomial here is changed in place
after it is built, and each hashes by its content.  The gate relies on the
same rule: a polynomial's degrees and images mod q are computed once and
stored on the polynomial object, where every later pair that has it as an
operand finds them.  Equal polynomials share those data: before the gate
runs, on a miss of the memo or for a pair above its cap, the field replaces
each operand of at most ``_MEMO_TERMS`` terms by the first polynomial of
equal content that it has gated (its intern table, which dies with the
field as the memo does).  A product with a factor 1 is that other factor
itself, with no new polynomial.

A "scalar" below always means an element of the ground field; a "parameter
scalar" is one whose numerator and denominator are free of ``s``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ..errors import InputError
from .packed import PackedRing

__all__ = [
    "GroundField",
    "SPoly",
    "Scalar",
    "fraction_sum",
]


def _integer_root(n, d):
    """The integer d-th root of an int n >= 0 when n is a d-th power, else
    None: Newton's iteration from above stops at the floor of the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // d)
    while True:
        y = ((d - 1) * x + n // x ** (d - 1)) // d
        if y >= x:
            return x if x**d == n else None
        x = y


def _fraction_nth_root(c, d):
    """Exact rational d-th root of a Fraction, or None."""
    if c < 0:
        if d % 2 == 0:
            return None
        r = _fraction_nth_root(-c, d)
        return None if r is None else -r
    pn = _integer_root(c.numerator, d)
    pd = _integer_root(c.denominator, d)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


# The largest trial divisor: an int whose prime factors all but the largest
# lie below it, and the largest below its square, is factored by trial
# division; any other is left to sympy.
_TRIAL = 2**16


def _trial_divisors(n):
    """The positive divisors of an int n, ascending (none for 0), from its
    factorization by trial division up to ``_TRIAL``; None when that leaves
    a cofactor that may be composite.  Meant for the small contents and
    leading coefficients of the polynomials this package meets."""
    n = abs(n)
    if not n:
        return []
    out = [1]
    d = 2
    while d * d <= n:
        if d > _TRIAL:
            return None
        k = len(out)
        while not n % d:
            n //= d
            out += [x * d for x in out[-k:]]
        d += 1 if d == 2 else 2
    if n > 1:
        out += [x * n for x in out]
    return sorted(out)


def divisors(n):
    """The positive divisors of an int n, ascending; none for 0.  By
    ``_trial_divisors``, and past its bound by sympy's ``divisors``
    (imported then, through ``bridge``)."""
    out = _trial_divisors(n)
    if out is None:
        from .bridge import divisors as sympy_divisors

        out = sympy_divisors(abs(n))
    return out


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
# memo stores, and the largest polynomial its intern table holds.  Entries
# live as long as their field, and a deep flow decides many large pairs that
# never repeat: one 1dw formal_flow at N = 12 stores 1311 pairs with no cap,
# and its process peaks 12-13 MB above the same flow with no memo; with this
# cap it stores 665 pairs and interns 834 polynomials, and peaks 3 MB above,
# of which the intern table is about 0.6 MB.  The repeats are small: every
# hit of the certify and lattice workloads is of at most 16 terms.
_MEMO_TERMS = 32


def _gate_data(p):
    """p's degree in each generator and its images so far, by generator
    index, computed once and stored on p (no polynomial changes after it
    is built).  Grows _POWERS to p's degrees."""
    try:
        return p._gate
    except AttributeError:
        pass
    degs = p.degrees()
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
        ring = p.ring
        mask, shifts = ring.mask, ring.shifts
        others = [(shifts[j], _POWERS[j]) for j, d in enumerate(degs)
                  if d and j != i]
        shi = shifts[i]
        out = [0] * (degs[i] + 1)
        for k, c in p.items():
            for sh, powers in others:
                e = (k >> sh) & mask
                if e:
                    c = c * powers[e] % _Q
            out[(k >> shi) & mask] += c
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


def _sqf_parts(f):
    """[(f_1, 1), (f_2, 2), ...] with f = f_1 f_2^2 ... for a primitive dense
    f over Z of positive degree and positive leading entry: the f_k
    squarefree, pairwise coprime, primitive with positive leading entries,
    and only the nonconstant ones listed (Musser's algorithm on ``_gcd_z``
    gcds, exact over Z by Gauss's lemma).  None when a gcd gives up."""
    c = _gcd_z(f, _primitive([k * x for k, x in enumerate(f)][1:]))
    if c is None:
        return None
    w = _quo(f, c)
    out, k = [], 1
    while len(w) > 1:
        y = _gcd_z(w, c)
        if y is None:
            return None
        if len(y) < len(w):
            out.append((_quo(w, y), k))
        w, c = y, _quo(c, y)
        k += 1
    return out


def _irreducible_factors(f):
    """The irreducible factors over Z of a squarefree f as ``_sqf_parts``
    gives it, or None when they are not found here.

    Each rational root r/q (r dividing the constant entry, q the leading
    one; 0 when the constant entry is 0) splits off the factor q x - r.
    What is left is irreducible when its degree is 0, 2 or 3, since a
    reducible polynomial of degree at most 3 has a linear factor; a
    cofactor of degree 4 or more is left open, and so is f when
    ``_trial_divisors`` cannot list the divisors of an end entry.
    """
    out = []
    if not f[0]:
        out.append([0, 1])
        f = f[1:]
    lead = _trial_divisors(f[-1])
    if lead is None:
        return None
    for q in lead:
        trail = _trial_divisors(f[0])
        if trail is None:
            return None
        for p in trail:
            if math.gcd(p, q) != 1:
                continue
            for r in (p, -p):
                n = len(f) - 1
                if n and not sum(c * r**k * q**(n - k)
                                 for k, c in enumerate(f)):
                    out.append([-r, q])
                    f = _quo(f, [-r, q])
    if len(f) > 4:
        return None
    return out + [f] if len(f) > 1 else out


def _s_sqf(p):
    """(c, ``_sqf_parts`` of p / c) for a kernel polynomial p of positive
    degree in the last generator alone, as dense lists, c its content with
    the sign of its leading coefficient; None for any other p and when a
    gcd gives up.  That generator's field is the least significant, so a
    key involves it alone exactly when it is at most the field mask."""
    top = max(p)
    if top > p.ring.mask:
        return None
    f = [0] * (top + 1)
    for k, x in p.items():
        f[k] = x
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    parts = _sqf_parts([x // c for x in f])
    return None if parts is None else (c, parts)


def _coprime_powers(p):
    """(c, [(f, k), ...]) with p = c * prod f^k for a nonzero kernel
    polynomial p: c an int, the f pairwise coprime with positive leading
    coefficients.  A constant is its own c; a polynomial in the last
    generator alone takes ``_s_sqf``; any other, or one whose gcds give up,
    takes sympy's ``factor_list``."""
    if p.is_ground():
        return p[0], []
    got = _s_sqf(p)
    if got is None:
        from .bridge import factor_list

        return factor_list(p)
    ring = p.ring
    return got[0], [(_from_rows(ring, ring.ngens - 1, {0: g}), k)
                    for g, k in got[1]]


def _s_factor_list(p):
    """sympy's ``factor_list(p)[1]`` for a kernel polynomial p of positive
    degree in the last generator alone: its irreducible factors over Z,
    primitive with positive leading coefficients, with multiplicities, in
    sympy's order.  None for any other p, and when a gcd gives up or
    ``_irreducible_factors`` leaves a factor open.

    sympy sorts the factors by their dense forms: by (degree, multiplicity,
    coefficients from the leading one) in a ring of one generator, and in
    more by (multiplicity, coefficients), each dense form being one entry
    long at every outer level.
    """
    got = _s_sqf(p)
    if got is None:
        return None
    facs = []
    for g, k in got[1]:
        irreducible = _irreducible_factors(g)
        if irreducible is None:
            return None
        facs.extend((h, k) for h in irreducible)
    ring = p.ring
    last = ring.ngens - 1
    if last:
        facs.sort(key=lambda hk: (hk[1], hk[0][::-1]))
    else:
        facs.sort(key=lambda hk: (len(hk[0]), hk[1], hk[0][::-1]))
    return [(_from_rows(ring, last, {0: h}), k) for h, k in facs]


def _content_cofactors(a, b):
    """``a.cofactors(b)`` when the gcd is c, the gcd of the contents."""
    c = math.gcd(*a.values(), *b.values())
    if c == 1:
        return a.ring.one, a, b
    return a.ring.ground(c), a.quo_ground(c), b.quo_ground(c)


# The evaluation points the heuristic gcd tries before it gives up, as in
# sympy's heugcd.
_HEU_GCD_MAX = 6


def _evaluate(p, i, x):
    """p at x_i = x, for p free of the generators before x_i: an int when
    x_i is the last generator, else a polynomial free of x_i too."""
    ring = p.ring
    if i == ring.ngens - 1:
        return sum(c * x**k for k, c in p.items())
    sh, mask = ring.shifts[i], ring.mask
    out = {}
    for k, c in p.items():
        e = (k >> sh) & mask
        k -= e << sh
        out[k] = out.get(k, 0) + c * x**e
    return ring.dtype({k: c for k, c in out.items() if c})


def _interpolate(h, x, i, ring):
    """The polynomial of ``ring`` whose coefficient of x_i^j in each
    monomial of h (a mapping from keys to ints) is the j-th digit of that
    coefficient in the symmetric base x, with a positive leading
    coefficient."""
    sh, half = ring.shifts[i], x // 2
    out = ring.dtype()
    for k, c in h.items():
        j = 0
        while c:
            d = c % x
            if d > half:
                d -= x
            c = (c - d) // x
            if d:
                out[k | (j << sh)] = d
            j += 1
    return -out if out.LC < 0 else out


def _heugcd(f, g, i=0):
    """``f.cofactors(g)`` for nonzero f, g free of the generators before
    x_i, or None when the heuristic gcd fails.

    The heuristic gcd of Char, Geddes and Gonnet (JSC 7 (1989)), as sympy's
    ``heugcd`` runs it on its sparse polynomials: take out the gcd c of
    every coefficient, evaluate x_i at an integer x larger than twice the
    coefficients, take the gcd and cofactors of the images (recursively in
    the generators after x_i, of two ints at the last one), and read
    candidates back from their symmetric base-x digits.  A candidate counts
    only when both operands divide exactly, so every answer is a true gcd
    and cofactors; after six points the gcd fails.
    """
    ring = f.ring
    c = math.gcd(*f.values(), *g.values())
    if c != 1:
        f, g = f.quo_ground(c), g.quo_ground(c)
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * math.isqrt(b)),
            2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _evaluate(f, i, x), _evaluate(g, i, x)
        if ff and gg:
            if i == ring.ngens - 1:
                h = math.gcd(ff, gg)
                h, cff, cfg = {0: h}, {0: ff // h}, {0: gg // h}
            else:
                got = _heugcd(ff, gg, i + 1)
                if got is None:
                    return None
                h, cff, cfg = got
            h = _interpolate(h, x, i, ring)
            got = _divides_both(h.quo_ground(math.gcd(*h.values())), f, g)
            if got is None:
                cff = _interpolate(cff, x, i, ring)
                got = _divides_both(f.quo_exact(cff), f, g)
            if got is None:
                cfg = _interpolate(cfg, x, i, ring)
                got = _divides_both(g.quo_exact(cfg), f, g)
            if got is not None:
                h, cff, cfg = got
                return (h if c == 1 else h * ring.ground(c)), cff, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def _divides_both(h, f, g):
    """(h, f / h, g / h) when h divides f and g exactly, else None (also
    for h None)."""
    if h is None:
        return None
    cff = f.quo_exact(h)
    cfg = None if cff is None else g.quo_exact(h)
    return None if cfg is None else (h, cff, cfg)


def _general_cofactors(a, b):
    """``a.cofactors(b)`` for any nonzero a, b: the heuristic gcd
    (``_heugcd``), and when that fails sympy's subresultant PRS gcd, which
    always has an answer (imported then, through ``bridge``)."""
    got = _heugcd(a, b)
    if got is None:
        from .bridge import prs_cofactors

        got = prs_cofactors(a, b)
    return got


def _rows(p, i):
    """p as {its monomials with x_i^0: dense coefficient lists in Z[x_i]}."""
    ring = p.ring
    sh, mask = ring.shifts[i], ring.mask
    clear = ~(mask << sh)
    out = {}
    for m, c in p.items():
        k = (m >> sh) & mask
        row = out.setdefault(m & clear, [])
        if len(row) <= k:
            row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    return out


def _from_rows(ring, i, rows):
    """The polynomial of ``ring`` with the given ``_rows`` in x_i."""
    sh = ring.shifts[i]
    return ring.dtype({key | (k << sh): c
                       for key, row in rows.items()
                       for k, c in enumerate(row) if c})


def _one_generator_cofactors(a, b, i):
    """``a.cofactors(b)`` when G = gcd(a, b) is known to have degree 0 in
    every generator but x_i, or None when the modular gcd gives up.

    The gate knows it when x_i is the only generator in which both have
    positive degree, or when its images prove degree 0 in every other
    shared generator.  G then lies in Z[x_i]: it is the gcd of a's and b's coefficients as polynomials in
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
    return (_from_rows(ring, i, {0: g}),
            *(_from_rows(ring, i, {key: _quo(row, g)
                                   for key, row in rows.items()})
              for rows in (ra, rb)))


def _cofactors(a, b):
    """``a.cofactors(b)`` for nonzero a, b over ZZ, up to a common sign.

    Let G = gcd(a, b).  In a generator x_i where a or b has degree 0 so has
    G.  There are four outcomes, in this order.

    * Proven coprime: in each generator x_i where both have positive
      degree, a and b go to F_q[x_i] (q = _Q), the other generators at
      fixed points.  If lc_{x_i} of a and of b stay nonzero there, so does
      lc_{x_i}(G), which divides them, so the image of G keeps its degree
      in x_i and divides the gcd of the images.  When that gcd is constant
      for every such x_i, G has degree 0 everywhere: G = c, the gcd of the
      contents.  Degrees and images are those ``_gate_data`` stores on
      each operand.
    * One operand divides the other: if a | b, a's degree in each
      generator is at most b's, lc(a) divides lc(b), and where lc_{x_i} of
      a and of b stay nonzero mod q, the image of a divides that of b, so
      the gcd of the images has a's degree in x_i.  A candidate that passes
      these tests takes one exact division (``_divisor_cofactors``); a
      failed one moves on.
    * One generator left open: when the images prove nothing (a vanishing
      leading coefficient or an image gcd of positive degree) in exactly
      one shared generator x_i, G has degree 0 in every other generator,
      so it lies in Z[x_i], and ``_one_generator_cofactors`` computes it
      modularly and checks it by exact division.
    * Otherwise ``_general_cofactors`` decides: when two or more shared
      generators are left open, after the prime list is used up, and in a
      field with more generators than there are points.

    ``GroundField.cofactors`` calls this on operands it has interned
    (``GroundField._interned``), so equal polynomials share the data
    ``_gate_data`` stores.
    """
    if a.ring.ngens > len(_POINTS):
        return _general_cofactors(a, b)
    da = _gate_data(a)[0]
    db = _gate_data(b)[0]
    a_divides = all(x <= y for x, y in zip(da, db))
    b_divides = all(y <= x for x, y in zip(da, db))
    unproven = []
    for i, (x, y) in enumerate(zip(da, db)):
        if x and y:
            f = _image(a, i)
            g = _image(b, i)
            if f[-1] and g[-1]:
                h = len(_gcd_mod(f[:], g[:], _Q)) - 1
                a_divides = a_divides and h == x
                b_divides = b_divides and h == y
                if not h:
                    continue
            unproven.append(i)
            if len(unproven) > 1 and not (a_divides or b_divides):
                return _general_cofactors(a, b)
    if not unproven:
        return _content_cofactors(a, b)
    got = None
    if a_divides:
        got = _divisor_cofactors(a, b)
    if got is None and b_divides:
        got = _divisor_cofactors(b, a)
        if got is not None:
            got = got[0], got[2], got[1]
    if got is None and len(unproven) == 1:
        got = _one_generator_cofactors(a, b, unproven[0])
    return _general_cofactors(a, b) if got is None else got


def _divisor_cofactors(a, b):
    """(g, +-1, b / g) with g = +-a, lc(g) > 0, when a divides b exactly,
    else None; only one exact division, after lc(a) divides lc(b)."""
    if b.LC % a.LC:
        return None
    q = b.quo_exact(a)
    if q is None:
        return None
    one = a.ring.one
    return (a, one, q) if a.LC > 0 else (-a, -one, -q)


def _times(p, q):
    """p * q, or the other factor itself when p or q is 1."""
    if len(q) == 1 and q.get(0) == 1:
        return p
    if len(p) == 1 and p.get(0) == 1:
        return q
    return p * q


def fraction_sum(pairs, zero):
    """The sum of (numerator, denominator) pairs of kernel polynomials of
    ``zero``'s field, as an element of that field, with one final gcd.

    Each denominator must have a positive leading coefficient; a pair need
    not be reduced.  Numerators over equal denominators are added first.
    The others go over D, the lcm of the denominators, built with gcds of
    denominators only: N/D + n/d = (N d' + n D') / (D d') with D = g D',
    d = g d'.  Then N/D is the sum, and cancelling gcd(N, D) leaves the
    canonical form (``_reduced`` fixes the sign).  A zero sum takes no
    final gcd.
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


class Scalar:
    """Element of a :class:`GroundField`, its ``field``: the reduced pair
    ``num``/``den`` of the field's kernel polynomials, in sympy's canonical
    form.

    Between two field elements, ``+ - * /`` use the Henrici-Knuth rules
    (Knuth, TAOCP vol. 2, 4.5.1), which rely on both operands being reduced:

    * a/b + c/d: with g = gcd(b, d), (a d' + c b') / (b' d' g) where
      b = g b', d = g d'; only gcd(a d' + c b', g) can still cancel, and
      nothing when g = 1.  Equal denominators cost one gcd of the summed
      numerator against the shared denominator.
    * (a/b)(c/d) = (a/gcd(a,d))(c/gcd(c,b)) / ((b/gcd(c,b))(d/gcd(a,d))).

    Two rational constants take the gcd of their integers instead.  Each
    other gcd goes through the field's gcd memo,
    :meth:`GroundField.cofactors`, and on a miss through the gate
    ``_cofactors`` (see the module docstring): proven coprime from one
    image mod q per shared generator, settled by one exact division when
    one operand divides the other, computed modularly when one generator
    is left open, and by the heuristic gcd otherwise.  A stored
    polynomial may be the numerator or denominator of many elements, so
    none is changed in place.  A pair of terms keeps these rules; a sum of
    more, taken by :func:`fraction_sum`, takes one final gcd instead of one
    per partial sum.

    An int, a ``Fraction`` or another exact rational operand is that
    rational's element; an int divided by a field element is that int's
    element divided by it, so ``1 / x`` is the inverse without a full gcd,
    and zero divided by a nonzero element is that zero, with no product.

    Equal elements have equal pairs and hash alike; a rational constant
    equals the int or ``Fraction`` of its value and hashes as it.  An
    element of an equal ground field, one built apart on the same names,
    counts as an element of this one.  Any other operand, an element of an
    unequal ground field or a tower element included, gets
    ``NotImplemented``, so that its own comparison or operator answers.

    ``num`` and ``den`` are polynomials of the field's packed kernel (one
    int key per monomial, 16 bits per generator, ``OverflowError`` for an
    exponent beyond 2^15 - 1).  ``str`` prints the pair on the kernel, as
    sympy's ``FracField`` over ZZ prints it.  Only the views build sympy
    objects, through :mod:`galint.algebra.bridge` on first use: ``numer``
    and ``denom``, the pair as ``PolyElement`` objects of the field's
    ``ring``, built on each read, and ``as_expr``.  ``sympify`` refuses a
    scalar (``SympifyError``), so a sympy operation with one returns
    ``NotImplemented`` and the scalar's reflected operator answers.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    # -- views -------------------------------------------------------------

    @property
    def numer(f):
        return f.field.kernel.to_sympy(f.num)

    @property
    def denom(f):
        return f.field.kernel.to_sympy(f.den)

    def as_expr(f):
        return f.field.plain(f).as_expr()

    def _sympy_(f):
        from .bridge import SympifyError

        raise SympifyError(f)

    def __str__(f):
        """num/den as sympy prints the ``FracField`` element: the numerator
        alone over 1; else the numerator in parentheses when it has two
        terms or more, and the denominator unless it is a constant or a
        generator."""
        num, den = f.num, f.den
        text = str(num)
        if len(den) == 1 and den.get(0) == 1:
            return text
        if len(num) > 1:
            text = f"({text})"
        if den.is_ground() or den in den.ring.gens:
            return f"{text}/{den}"
        return f"{text}/({den})"

    __repr__ = __str__

    # -- comparison --------------------------------------------------------

    def __bool__(f):
        return bool(f.num)

    def __eq__(f, g):
        if isinstance(g, Scalar):
            return f.num == g.num and f.den == g.den and (
                f.field is g.field or f.field == g.field)
        if isinstance(g, (int, Fraction)):
            num, den = f.num, f.den
            return (len(den) == 1 and den.get(0) == g.denominator
                    and num.get(0, 0) == g.numerator and num.is_ground())
        return NotImplemented

    def __hash__(f):
        num, den = f.num, f.den
        if len(den) == 1 and 0 in den and num.is_ground():
            n, d = num.get(0, 0), den[0]
            return hash(n) if d == 1 else hash(Fraction(n, d))
        return hash((num, den))

    # -- arithmetic --------------------------------------------------------

    def _operand(f, g):
        """g as an element of f's field, or NotImplemented."""
        if isinstance(g, Scalar):
            return g if g.field is f.field or g.field == f.field \
                else NotImplemented
        if isinstance(g, int) or (hasattr(g, "numerator")
                                  and hasattr(g, "denominator")):
            return f.field.from_rational(g)
        return NotImplemented

    def __pos__(f):
        return f

    def __neg__(f):
        return Scalar(f.field, -f.num, f.den)

    def __add__(f, g):
        g = f._operand(g)
        if g is NotImplemented or not f:
            return g
        if not g:
            return f
        return f._add(g.num, g.den)

    __radd__ = __add__

    def __sub__(f, g):
        g = f._operand(g)
        if g is NotImplemented:
            return g
        return f + (-g)

    def __rsub__(f, g):
        return (-f) + g

    def __mul__(f, g):
        g = f._operand(g)
        if g is NotImplemented:
            return g
        if not (f and g):
            return f.field.zero
        return f._mul(g.num, g.den)

    __rmul__ = __mul__

    def __truediv__(f, g):
        g = f._operand(g)
        if g is NotImplemented:
            return g
        if not g:
            raise ZeroDivisionError("division by zero in the ground field")
        if not f:
            return f
        return f._mul(g.den, g.num)

    def __rtruediv__(f, c):
        c = f._operand(c)
        if c is NotImplemented:
            return c
        return c / f

    def __pow__(f, n):
        """f**n for an int n, in canonical form: powers of a reduced pair
        stay coprime and jointly content-free, and ``_reduced`` moves a
        negative power's sign to the numerator."""
        num, den = f.num, f.den
        if n < 0:
            if not f:
                raise ZeroDivisionError("zero to a negative power")
            num, den, n = den, num, -n
        return f._reduced(num**n, den**n)

    def _add(f, c, d):
        """f + c/d for a nonzero f and a reduced, nonzero c/d."""
        a, b = f.num, f.den
        field = f.field
        if len(a) == len(b) == len(c) == len(d) == 1 and \
                0 in a and 0 in b and 0 in c and 0 in d:
            return field._rational(a[0] * d[0] + c[0] * b[0], b[0] * d[0])
        if b == d:
            t = a + c
            if not t:
                return field.zero
            _, num, den = field.cofactors(t, b)
            return f._reduced(num, den)
        g, b1, d1 = field.cofactors(b, d)
        if len(g) == 1 and g.get(0) == 1:
            return f._reduced(_times(a, d) + _times(c, b), _times(b, d))
        t = _times(a, d1) + _times(c, b1)
        if not t:
            return field.zero
        _, num, g1 = field.cofactors(t, g)
        return f._reduced(num, _times(_times(g1, b1), d1))

    def _mul(f, c, d):
        """f * (c/d) for a nonzero f and coprime, nonzero c and d."""
        a, b = f.num, f.den
        if len(c) == len(d) == 1 and 0 in c and 0 in d:
            cn, dn = c[0], d[0]
            if cn == dn == 1:
                return f
            if len(a) == len(b) == 1 and 0 in a and 0 in b:
                if dn < 0:
                    cn, dn = -cn, -dn
                return f.field._rational(a[0] * cn, b[0] * dn)
        cofactors = f.field.cofactors
        _, a1, d1 = cofactors(a, d)
        _, c1, b1 = cofactors(c, b)
        return f._reduced(_times(a1, c1), _times(b1, d1))

    def _reduced(f, num, den):
        """The element num/den from coprime integer polynomials."""
        if den.LC < 0:
            num, den = -num, -den
        return Scalar(f.field, num, den)


class GroundField:
    """Rational function field Q(alpha_1, ..., alpha_p, s), the one field
    object: every :class:`Scalar` of it has it as its ``field``.

    Parameters
    ----------
    params : sequence of str
        Names of the formal parameters (possibly empty).  They are transcendental
        and algebraically independent; nothing in the package ever specializes
        them except the explicit numeric evaluators.
    curve_var : str
        Name of the curve coordinate (defaults to ``"s"``).

    ``kernel`` is the packed ring on the parameters and then ``s`` that
    holds every numerator and denominator (see the module docstring).
    ``ring``, its sympy twin (the ``PolyRing`` over ZZ in lex order, which
    the ``numer``/``denom`` views convert to), and the ``FracField`` over ZZ
    behind :meth:`plain` and ``as_expr`` are built on first use, through
    :mod:`galint.algebra.bridge`; building a field imports no sympy.  Each
    ground field keeps its own gcd memo (:meth:`cofactors`),
    which every gcd of ``+ - * /``, :func:`fraction_sum` and :meth:`diff_s`
    goes through; it dies with the ground field, and nothing else empties
    it.  Two ground fields on the same names are equal, and their elements
    mix.
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
        self.kernel = K = PackedRing(params + (curve_var,))
        one = K.one
        self.zero = Scalar(self, K.zero, one)
        self.one = Scalar(self, one, one)
        gens = tuple(Scalar(self, g, one) for g in K.gens)
        self.param_gens, self.s = gens[:-1], gens[-1]
        self._gen_by_name = dict(zip(params, self.param_gens))
        self._gen_by_name[curve_var] = self.s
        self._s_index = len(params)
        self._gcd_memo = {}
        self._intern = {}
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

    # -------------------------------------------------------------- elements

    def new(self, num, den):
        """The element num/den from a reduced pair of kernel polynomials,
        den's leading coefficient positive."""
        return Scalar(self, num, den)

    def from_rational(self, value):
        """Embed an int / Fraction / sympy Rational / QQ element, with no
        gcd: each keeps its numerator and a positive denominator coprime,
        so the two integers are already the canonical pair.  Raises
        InputError for a value with no numerator and denominator."""
        try:
            n, d = value.numerator, value.denominator
        except AttributeError:
            raise InputError(f"{value!r} is not a rational number") from None
        K = self.kernel
        d = int(d)
        return Scalar(self, K.ground(int(n)), K.one if d == 1 else K.ground(d))

    def _rational(self, n, d):
        """n/d for integers n and d > 0, reduced by their gcd."""
        if not n:
            return self.zero
        g = math.gcd(n, d)
        K = self.kernel
        d //= g
        return Scalar(self, K.ground(n // g), K.one if d == 1 else K.ground(d))

    @cached_property
    def ring(self):
        """The kernel's sympy twin, built on first use."""
        return self.kernel.sympy

    @cached_property
    def _plain(self):
        from .bridge import frac_field

        return frac_field(self.kernel.names)

    def plain(self, f):
        """f as an element of sympy's ``FracField`` over ZZ."""
        return self._plain.dtype(f.numer, f.denom)

    def cofactors(self, a, b):
        """``_cofactors(a, b)`` for nonzero kernel polynomials, each pair
        decided once per ground field.

        A constant operand needs no gate: the gcd is that of the contents,
        and (1, a, b) at once when either operand has constant term 1, an
        operand 1 included.  A pair of at most ``_MEMO_TERMS`` terms in all
        is looked up by the content of (a, b), in that order; a miss runs
        the gate and stores its triple.  Larger pairs run the gate every
        time.  Each time the gate runs, never on a hit, its operands are
        interned first (``_interned``), so that the gate data of a content
        are computed once per field.
        """
        if len(a) == 1 and 0 in a or len(b) == 1 and 0 in b:
            if a.get(0) == 1 or b.get(0) == 1:
                return self.kernel.one, a, b
            return _content_cofactors(a, b)
        if len(a) + len(b) > _MEMO_TERMS:
            return _cofactors(self._interned(a), self._interned(b))
        key = (a, b)
        got = self._gcd_memo.get(key)
        if got is None:
            got = self._gcd_memo[key] = _cofactors(self._interned(a),
                                                   self._interned(b))
        return got

    def _interned(self, p):
        """The first polynomial of p's content that this field has gated,
        for p of at most ``_MEMO_TERMS`` terms; a larger p itself."""
        if len(p) > _MEMO_TERMS:
            return p
        return self._intern.setdefault(p, p)

    # ------------------------------------------------------------ derivation

    def diff_s(self, f):
        """d/ds, the derivation every tower extends, by the quotient rule on
        the reduced pair a/b, its gcds taken by the field's gcd memo and
        gate: proven coprime, settled by one exact division, computed
        modularly when one generator is left open (say b free of s and in
        one parameter), or by the heuristic gcd (sympy's subresultant PRS
        gcd when that fails).

        When b is free of s, (a/b)' = a'/b and only gcd(a', b) can cancel.
        Otherwise write b = g b1 and b' = g c with g = gcd(b, b'): then
        (a/b)' = t / (g b1^2) with t = a' b1 - a c.  A prime p dividing b1
        involves s; if p^e exactly divides b, then p^(e-1) exactly divides
        b' and g, so p divides neither c nor a (a/b is reduced), nor t.  So
        only gcd(t, g) can cancel.
        """
        i = self._s_index
        a, b = f.num, f.den
        da = a.diff(i)
        cofactors = self.cofactors
        if b.degree(i) <= 0:
            if not da:
                return self.zero
            _, num, den = cofactors(da, b)
            return f._reduced(num, den)
        g, b1, c = cofactors(b, b.diff(i))
        _, num, g1 = cofactors(da * b1 - a * c, g)
        return f._reduced(num, g1 * b1**2)

    # --------------------------------------------------------------- queries

    def is_param_scalar(self, f):
        """True iff f is free of the curve variable."""
        i = self._s_index
        return f.num.degree(i) <= 0 and f.den.degree(i) <= 0

    def is_rational_const(self, f):
        """True iff f is a rational number (free of all generators)."""
        return f.num.is_ground() and f.den.is_ground()

    # ----------------------------------------------------- polynomial views

    def spoly(self, f):
        """View a *polynomial-in-s* element as an :class:`SPoly`.

        Raises ValueError if the denominator involves s.
        """
        i = self._s_index
        if f.den.degree(i) > 0:
            raise ValueError(f"{f} has s in its denominator")
        K = self.kernel
        new, one = self.new, K.one
        den = new(f.den, one)
        sh, mask = K.shifts[i], K.mask
        groups = {}
        for m, c in f.num.items():
            k = (m >> sh) & mask
            groups.setdefault(k, K.dtype())[m - (k << sh)] = c
        n = max(groups) if groups else -1
        dense = [new(groups[k], one) / den if k in groups else self.zero
                 for k in range(n + 1)]
        return SPoly(self, dense)

    def numer_spoly(self, f):
        """Numerator of f as a polynomial in s (parameter-scalar coefficients)."""
        return self.spoly(self.new(f.num, self.kernel.one))

    def denom_spoly(self, f):
        return self.spoly(self.new(f.den, self.kernel.one))

    def nth_root(self, f, d):
        """Exact d-th root of a field element, or None when not a d-th power.

        The root is normalized to the principal choice: positive rational
        content root for even d, the sign-preserving real root for odd d.
        """
        if d <= 0:
            raise ValueError("root index must be positive")
        if not f:
            return self.zero
        K = self.kernel
        parts = []
        for poly in (f.num, f.den):
            content, facs = _coprime_powers(poly)
            croot = _fraction_nth_root(Fraction(content), d)
            if croot is None or any(mult % d for _, mult in facs):
                return None
            acc = self.from_rational(croot)
            for base, mult in facs:
                acc = acc * self.new(base ** (mult // d), K.one)
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
            return Fraction(c.num.get(0, 0), c.den[0])

        return frac(const), {name: frac(c) for name, c in lin.items()}

    def param_affine_parts(self, f):
        """Split f as  f0 + sum f_i*alpha_i  with parameter-free parts.

        Unlike :meth:`affine_parts` the parts may involve s.  Returns
        ``(f0, {name: f_i})`` of field elements, or None when a parameter
        occurs in the denominator or the numerator is not affine in the
        parameters.
        """
        K = self.kernel
        s_field = K.mask << K.shifts[self._s_index]
        if any(m & ~s_field for m in f.den):
            return None
        groups = {}
        for m in sorted(f.num, reverse=True):
            params = K.unpack(m & ~s_field)
            live = [i for i, e in enumerate(params) if e]
            if not live:
                key = None
            elif len(live) == 1 and params[live[0]] == 1:
                key = live[0]
            else:
                return None
            groups.setdefault(key, K.dtype())[m & s_field] = f.num[m]
        new, one = self.new, K.one
        den = new(f.den, one)
        out = {key: new(num, one) / den for key, num in groups.items()}
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
        return [(fac, -mult) for fac, mult in self._poly_factors(f.den)]

    def _poly_factors(self, p):
        """The monic s-dependent irreducible factors of the kernel
        polynomial p, with multiplicity, cached by p; a polynomial free of
        s has none and is not factored."""
        i = self._s_index
        if p.degree(i) <= 0:
            return []
        hit = self._factor_cache.get(p)
        if hit is not None:
            return hit
        facs = _s_factor_list(p)
        if facs is None:
            from .bridge import factor_list

            facs = factor_list(p)[1]
        one = self.kernel.one
        out = [(self.spoly(self.new(base, one)).monic(), mult)
               for base, mult in facs if base.degree(i) > 0]
        self._factor_cache[p] = out
        return out


class SPoly:
    """Dense univariate polynomial in s with parameter-scalar coefficients.

    A deliberately small helper: the solver needs exact division, gcd, and
    evaluation of polynomials *in s only*, with coefficients in Q(alpha).
    Coefficients are ground-field elements that happen to be s-free.
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
        """Back to an element of the ground field, the terms c_k s^k
        summed by one :func:`fraction_sum`."""
        gf = self.gf
        s_key = gf.kernel.gens[gf._s_index]
        pairs = []
        for k, c in enumerate(self.coeffs):
            if c:
                pairs.append((c.num * s_key**k, c.den))
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
            cs = str(c)
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
