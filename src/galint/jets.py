"""Formal flows checked by evaluation at random points mod p.

A coefficient of a flow lives in a radical tower K0(w_1, ..., w_r) over
K0 = Q(params)(s).  Take a prime p, values in F_p for the parameters and
for s, and a root of each radicand there, w_i^n = r_i with r_i read
through the roots before it.  Sending each coefficient to its value is
then a ring homomorphism.  Held as a 2-jet (value, d/ds), with s sent to
(s0, 1) and w_i to (w0, w1), w1 = r1*w0/(n*r0) by Newton's step on
w^n = r, it also commutes with d/ds, and no derivation rule of the tower
is read.  So a correct flow's defining equations hold at every point where
the data are defined, and :func:`flow_defect` never reports one.

The modulus is a prime uniform in [2^60, 2^61).  An odd root degree m
prime to p - 1 has a unique m-th root, one ``pow``; each factor 2 is a
square root (Tonelli-Shanks).  A point where a denominator or a radicand
vanishes, or where a root is missing or not unique that way, is drawn
again, and every ``_KEEP`` draws take a new prime.  A fixed modulus would
not do: a constant radicand such as -1 or 2, or c times a square, keeps
its square class mod p at every point, so with no root mod p every draw
would fail.  A radicand c with no square root in Q has one mod about half
of all primes.  A prime costs about twenty ``pow`` calls, so draws share
one.

Only the standard library and :mod:`galint.errors` are imported.  A tower
element is read through its attributes alone: ``coords`` maps exponent
tuples to ground scalars, whose ``num`` and ``den`` are packed
``{key: int}`` dicts over the field's ``kernel`` (its ``names``, ``shifts``
and ``mask``), and ``tower.gens`` gives each generator's ``degree`` and
``radicand``.  No arithmetic is shared with construction.
"""

import os
from math import gcd, prod

from .errors import VerificationFailed

__all__ = ["flow_defect"]

_POINTS = 2     # independent points per flow check
_DRAWS = 256    # draws for those points before the check gives up
_KEEP = 4       # draws on one prime
# Miller-Rabin on the first nine prime bases is exact below
# 3825123056546413051 > 2^61 (Jiang and Deng, Math. Comp. 83 (2014))
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_ODD_BASES = prod(_BASES[1:])


def _draw(n):
    """An integer uniform in [0, n), n <= 2^64, up to a bias below 2^-64."""
    return int.from_bytes(os.urandom(16), "big") % n


def _is_prime(n):
    """Whether the odd n, 23 < n < 3825123056546413051, is prime."""
    d, e = n - 1, 0
    while not d % 2:
        d, e = d // 2, e + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(e - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


def _prime():
    """A prime uniform in [2^60, 2^61): odd candidates until one is prime."""
    while True:
        n = (1 << 60) + _draw(1 << 60) | 1
        if gcd(n, _ODD_BASES) == 1 and _is_prime(n):
            return n


class _Redraw(Exception):
    """The point drawn is no good: a denominator or a radicand vanishes
    there, or a radicand's root is missing or not unique."""


def _mul(a, b, p):
    return a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p


class _Powers(dict):
    """x^e mod p by exponent e, x = self[1], each computed on first use."""

    def __init__(self, x, p):
        super().__init__({0: 1, 1: x})
        self.p = p

    def __missing__(self, e):
        v = self[e] = pow(self[1], e, self.p)
        return v


def _sqrt(x, p):
    """A square root of a nonzero x in F_p (Tonelli-Shanks); _Redraw when
    x is no square."""
    if pow(x, (p - 1) // 2, p) != 1:
        raise _Redraw
    q, e = p - 1, 0
    while not q % 2:
        q, e = q // 2, e + 1
    y, t = pow(x, (q + 1) // 2, p), pow(x, q, p)
    if t != 1:
        z = 2
        while pow(z, (p - 1) // 2, p) == 1:
            z += 1
        c = pow(z, q, p)
        while t != 1:
            i, u = 0, t
            while u != 1:
                u, i = u * u % p, i + 1
            b = pow(c, 1 << (e - i - 1), p)
            y, c, e = y * b % p, b * b % p, i
            t = t * c % p
    return y


def _root(r, n, p):
    """An n-th root of a nonzero r in F_p: the unique m-th root for the odd
    part m of n, then a square root for each factor 2.  _Redraw when m is
    not prime to p - 1 or a square root is missing."""
    m = n
    while not m % 2:
        m //= 2
    try:
        x = pow(r, pow(m, -1, p - 1), p)
    except ValueError:
        raise _Redraw from None
    while n > m:
        n //= 2
        x = _sqrt(x, p)
    return x


class _Point:
    """A point of F_p drawn at random for the tower ``tower``: a value for
    each kernel generator, in kernel order (parameters, then s), and a root
    of each radicand.  ``jet(x)`` is the 2-jet of a tower element x there.
    Raises _Redraw when a radicand vanishes or its root is missing or not
    unique."""

    def __init__(self, tower, p):
        gf = tower.gf
        K = gf.kernel
        si = K.names.index(gf.curve_var)
        self.p = p
        xs = [_draw(p) for _ in K.names]
        self._mask = K.mask
        self._s = K.shifts[si]
        self._spow = _Powers(xs[si], p)
        self._others = [(sh, _Powers(x, p)) for i, (sh, x)
                        in enumerate(zip(K.shifts, xs)) if i != si]
        self._roots = []
        self._monos = {}
        for g in tower.gens:
            r0, r1 = self.jet(g.radicand)
            if not r0:
                raise _Redraw
            w0 = _root(r0, g.degree, p)
            w = (w0, r1 * w0 * pow(g.degree * r0, -1, p) % p)
            pw = [(1, 0)]
            for _ in range(g.degree - 1):
                pw.append(_mul(pw[-1], w, p))
            self._roots.append(pw)

    def _poly(self, p):
        """The 2-jet of a kernel polynomial."""
        mask, ssh, spow, others = self._mask, self._s, self._spow, self._others
        v = d = 0
        for key, c in p.items():
            for sh, tab in others:
                e = (key >> sh) & mask
                if e:
                    c *= tab[e]
            e = (key >> ssh) & mask
            if e:
                v += c * spow[e]
                d += c * e * spow[e - 1]
            else:
                v += c
        return v % self.p, d % self.p

    def _scalar(self, c):
        """The 2-jet of a ground scalar num/den; _Redraw at a pole."""
        n0, n1 = self._poly(c.num)
        den = c.den
        if len(den) == 1 and den.get(0) == 1:
            return n0, n1
        d0, d1 = self._poly(den)
        if not d0:
            raise _Redraw
        p = self.p
        u = pow(d0, -1, p)
        return n0 * u % p, (n1 * d0 - n0 * d1) * u * u % p

    def jet(self, x):
        """The 2-jet (value, d/ds value) of the tower element x."""
        p = self.p
        v = d = 0
        for e, c in x.coords.items():
            a0, a1 = self._scalar(c)
            m = self._monos.get(e)
            if m is None:
                m = (1, 0)
                for pw, k in zip(self._roots, e):
                    if k:
                        m = _mul(m, pw[k], p)
                self._monos[e] = m
            v += a0 * m[0]
            d += a0 * m[1] + a1 * m[0]
        return v % p, d % p


def _at_random_points(tower, evaluate, count):
    """``evaluate(point)`` at the first ``count`` points drawn for
    ``tower`` where it raises no _Redraw, a new prime taken every ``_KEEP``
    draws; VerificationFailed after ``_DRAWS`` draws."""
    got = []
    for draw in range(_DRAWS):
        if not draw % _KEEP:
            p = _prime()
        try:
            got.append(evaluate(_Point(tower, p)))
        except _Redraw:
            continue
        if len(got) == count:
            return got
    raise VerificationFailed(
        f"no point mod p in {_DRAWS} draws where the data are defined")


def _equations(flow):
    """(name, system table, cells, logs) for each defining equation: the
    components, then the time series when the flow has one."""
    R = flow.system
    eqs = [(f"component {j + 1}", R.qdot_series(j), p.table, ())
           for j, p in enumerate(flow.components)]
    if flow.time is not None:
        eqs.append(("the time series", R.t, flow.time.table, flow.logs))
    return eqs


class _FlowAt:
    """A flow's defining equations at one point, in F_p values."""

    def __init__(self, flow, eqs, point):
        jet = point.jet
        self.p = point.p
        self.N = flow.N
        self.h = [jet(h)[0] for h in flow.system.lambdas]
        self.eqs = [
            ({i: jet(c)[0] for i, c in table.items()},
             {i: jet(c) for i, c in cells.items()},
             [(rec.index, rec.name, jet(rec.coeff), jet(rec.deriv)[0])
              for rec in logs])
            for _name, table, cells, logs in eqs]
        self.phi = [{i: c[0] for i, c in cells.items()}
                    for _table, cells, _logs in self.eqs[:flow.nq]]
        origin = (0,) * flow.nq
        self.powers = {origin: {origin: 1}}

    def power(self, i):
        """phi^i through total degree N, the cells reduced mod p."""
        got = self.powers.get(i)
        if got is None:
            j = next(j for j, e in enumerate(i) if e)
            rest = i[:j] + (i[j] - 1,) + i[j + 1:]
            got = {}
            for a, x in self.power(rest).items():
                for b, y in self.phi[j].items():
                    k = tuple(s + t for s, t in zip(a, b))
                    if sum(k) <= self.N:
                        got[k] = got.get(k, 0) + x * y
            p = self.p
            got = self.powers[i] = {k: v % p for k, v in got.items()}
        return got

    def bad_orders(self, q):
        """The total degrees of the cells where equation q's two sides
        differ: the image sum_i table_i phi^i against the cells' derivative
        c' + <i, h> c, a logarithmic cell c L adding c' + <i, h> c to its L
        part and c L' to its plain cell."""
        table, cells, logs = self.eqs[q]
        h = self.h
        image, deriv = {}, {}
        for i, c in table.items():
            if sum(i) <= self.N:
                for k, v in self.power(i).items():
                    image[k, None] = image.get((k, None), 0) + c * v

        def add(key, index, c):
            deriv[key] = (deriv.get(key, 0) + c[1]
                          + sum(e * x for e, x in zip(index, h)) * c[0])

        for i, c in cells.items():
            add((i, None), i, c)
        for index, name, c, dlog in logs:
            add((index, name), index, c)
            deriv[index, None] = deriv.get((index, None), 0) + c[0] * dlog
        return [sum(k[0]) for k in image.keys() | deriv.keys()
                if (image.get(k, 0) - deriv.get(k, 0)) % self.p]


def flow_defect(flow):
    """(equation, order) for the first defining equation of ``flow`` whose
    residual is nonzero at one of two random points, ``order`` the lowest
    total degree where it is; None when every residual vanishes at both.

    The equations are those of ``check.check_flow``, each component's, then
    the time series' when ``flow.time`` is not None.  The two points are
    drawn independently, mod a random prime p.  When the tower is a field,
    take a nonzero residual's norm cleared of denominators, of degree d
    with integer coefficients of at most b bits.  p divides all of them for
    at most b/60 of the about 2^54.6 primes in [2^60, 2^61); otherwise the
    residual vanishes at one point with probability at most d/p (Schwartz,
    JACM 27 (1980); Zippel, EUROSAM '79).  So a wrong flow passes with
    probability at most b/2^60 + (d/2^60)^2.
    """
    eqs = _equations(flow)
    points = _at_random_points(flow.system.tower,
                               lambda pt: _FlowAt(flow, eqs, pt), _POINTS)
    for q, (name, *_rest) in enumerate(eqs):
        bad = [k for at in points for k in at.bad_orders(q)]
        if bad:
            return name, min(bad)
    return None
