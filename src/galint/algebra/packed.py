"""Sparse polynomials of Z[x_1, ..., x_n] on packed exponents.

A polynomial is a dict from one int per monomial to its nonzero int
coefficient.  The int packs the exponent vector into n fields of ``WIDTH``
bits each, x_1's field the most significant and x_n's the least
(Johnson, SIGSAM Bull. 8 (1974); Monagan and Pearce, CASC 2007).  Then

* the product of two monomials is the sum of their ints, and the quotient
  their difference;
* integer order on the ints is lex order on the exponent vectors, so the
  leading term in lex order is the one with the largest key.

The top bit of each field is a guard.  A polynomial holds exponents of at
most ``2**(WIDTH - 1) - 1`` (``PackedRing.limit``), so a field of a sum of
two keys stays below ``2**WIDTH`` and never carries into the next field.
Every operation that can raise an exponent checks its result's guard bits
and raises ``OverflowError`` when one is set, before the result escapes;
nothing wraps silently into a neighbouring field.  A monomial divides
another exactly when their difference is nonnegative with no guard bit set.

Each :class:`PackedRing` has its own subclass of :class:`Poly`, whose
``ring`` attribute names it.  A polynomial is not changed in place once it
is built: it hashes by its content, computed once, and may carry the gcd
gate's data (``_gate``, see ``scalars``).
"""

from __future__ import annotations

from functools import reduce
from operator import neg, or_

from sympy import ZZ
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import PolyRing

__all__ = ["WIDTH", "PackedRing", "Poly"]

# Bits per exponent field, the guard bit included: exponents up to 32767.
WIDTH = 16


class PackedRing:
    """Z[x_1, ..., x_n] on packed exponents, with its sympy twin ``sympy``
    (the ring over ZZ on the same symbols in lex order) for conversions."""

    def __init__(self, symbols):
        self.sympy = sympy_ring = PolyRing(symbols, ZZ, lex)
        self.symbols = sympy_ring.symbols
        n = self.ngens = sympy_ring.ngens
        self.shifts = tuple(WIDTH * (n - 1 - i) for i in range(n))
        self.mask = (1 << WIDTH) - 1
        self.limit = (1 << (WIDTH - 1)) - 1
        self.guard = sum(1 << (sh + WIDTH - 1) for sh in self.shifts)
        self.dtype = type("Poly", (Poly,), {"__slots__": (), "ring": self})
        self.zero = self.dtype()
        self.one = self.dtype({0: 1})
        self.gens = tuple(self.dtype({1 << sh: 1}) for sh in self.shifts)

    def pack(self, exps):
        """The key of an exponent vector; ``OverflowError`` beyond ``limit``."""
        key = 0
        for e in exps:
            if not 0 <= e <= self.limit:
                raise OverflowError(f"exponent {e} outside 0..{self.limit}")
            key = (key << WIDTH) | e
        return key

    def unpack(self, key):
        """The exponent vector of a key."""
        mask = self.mask
        return tuple((key >> sh) & mask for sh in self.shifts)

    def ground(self, c):
        """The constant polynomial c."""
        return self.dtype({0: c}) if c else self.dtype()

    def from_sympy(self, p):
        """A polynomial of the sympy twin (or any mapping from exponent
        tuples to integers) as a packed one."""
        pack = self.pack
        return self.dtype({pack(m): int(c) for m, c in p.items() if c})

    def to_sympy(self, p):
        """The packed polynomial p as an element of the sympy twin."""
        unpack = self.unpack
        return self.sympy.dtype({unpack(k): c for k, c in p.items()})


def _checked(r):
    """r, after ``OverflowError`` if a key of r sets a guard bit."""
    if r and reduce(or_, r) & r.ring.guard:
        raise OverflowError("exponent beyond the packed field width")
    return r


class Poly(dict):
    """A polynomial of a :class:`PackedRing`: {packed monomial: int}."""

    __slots__ = ("_hash", "_gate")
    ring = None

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.items()))
            return h

    def __repr__(self):
        return f"Poly({self.ring.to_sympy(self)})"

    # -- ring operations ---------------------------------------------------

    def __neg__(p):
        return type(p)(zip(p, map(neg, p.values())))

    def __add__(p, q):
        if len(p) < len(q):
            p, q = q, p
        r = type(p)(p)
        get = r.get
        for k, c in q.items():
            c += get(k, 0)
            if c:
                r[k] = c
            else:
                del r[k]
        return r

    def __sub__(p, q):
        if len(p) < len(q):
            return -q + p
        r = type(p)(p)
        get = r.get
        for k, c in q.items():
            c = get(k, 0) - c
            if c:
                r[k] = c
            else:
                del r[k]
        return r

    def __mul__(p, q):
        if len(p) > len(q):
            p, q = q, p
        R = type(p)
        if not p:
            return R()
        if len(p) == 1:
            (k1, c1), = p.items()
            return _checked(R(zip(map(k1.__add__, q),
                                  map(c1.__mul__, q.values()))))
        r = R()
        get = r.get
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                k = k1 + k2
                r[k] = get(k, 0) + c1 * c2
        if 0 in r.values():
            r = R({k: c for k, c in r.items() if c})
        return _checked(r)

    def __pow__(p, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not p and not n:
            raise ValueError("0**0")
        if len(p) == 1:
            (k, c), = p.items()
            if n and max(p.ring.unpack(k)) * n > p.ring.limit:
                raise OverflowError("exponent beyond the packed field width")
            return type(p)({k * n: c**n})
        out = p.ring.one
        while n:
            if n & 1:
                out = out * p
            n >>= 1
            if n:
                p = p * p
        return out

    def quo_ground(p, c):
        """p / c for an integer c that divides every coefficient."""
        return type(p)(zip(p, (v // c for v in p.values())))

    def exquo(p, q):
        """p / q when q divides p exactly, else ``ExactQuotientFailed``."""
        guard = p.ring.guard
        lk = max(q)
        lc = q[lk]
        rest = dict(p)
        out = type(p)()
        while rest:
            k = max(rest)
            d = k - lk
            t, r = divmod(rest[k], lc)
            if d < 0 or d & guard or r:
                raise ExactQuotientFailed(p, q)
            out[d] = t
            for kq, cq in q.items():
                kk = kq + d
                c = rest.get(kk, 0) - t * cq
                if c:
                    rest[kk] = c
                else:
                    del rest[kk]
        return out

    # -- structure ---------------------------------------------------------

    def degree(p, i):
        """The degree in generator i; -1 for zero."""
        if not p:
            return -1
        sh = p.ring.shifts[i]
        return max(map((p.ring.mask << sh).__and__, p)) >> sh

    def degrees(p):
        """The degree in every generator (p nonzero)."""
        mask = p.ring.mask
        return [max(map((mask << sh).__and__, p)) >> sh
                for sh in p.ring.shifts]

    def diff(p, i):
        """d/dx_i."""
        sh, mask = p.ring.shifts[i], p.ring.mask
        step = 1 << sh
        return type(p)({k - step: c * ((k >> sh) & mask)
                        for k, c in p.items() if (k >> sh) & mask})

    @property
    def LC(p):
        """The leading coefficient in lex order (p nonzero)."""
        return p[max(p)]

    def is_ground(p):
        """True for a constant, zero included."""
        return not p or len(p) == 1 and 0 in p

    def terms(p):
        """(exponent tuple, coefficient) pairs in descending lex order, as
        sympy's ``PolyElement.terms`` lists them."""
        unpack = p.ring.unpack
        return [(unpack(k), p[k]) for k in sorted(p, reverse=True)]
