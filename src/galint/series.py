"""Truncated multivariate series with hyperexponential symbols.

A cell of a :class:`TruncSeries` is a variable multi-index i holding a
tower-element coefficient a(s); the alphabet fixes the cell's H-content:

    q-alphabet (plain coordinates):      a(s) * q^i
    u-alphabet (u_j = c_j*H_j(s)):       a(s) * u^i * H(s)^i

H_j are hyperexponential symbols known only through their logarithmic
derivatives h_j = H_j'/H_j, so d/ds of a u-cell picks up the weight
sum_j i_j h_j read off its index.  The logarithmic cells of a formal
flow's time series are not series cells: each lives on its
``flows.LogSymbol`` record.

Everything is immutable; operations return new series.  Truncation is by
total variable degree |i| <= N.

The :class:`TruncSeries` constructor is the one place where cells merge: it
takes a mapping or a stream of ``(i, c)`` contributions, gathers the
contributions to each cell and sums them once (``AlgebraicTower.sum``, one
reduction per coordinate), drops a cell whose total is zero, and drops cells
above N.  Every operation yields its contributions to it and keeps no
accumulator of its own.

These two classes are the one construction-side series engine: reduction
(transverse expansion, time normalisation, gauges), flows, integrals, frames
and descent all compute with :class:`TruncSeries` and :class:`RatioSeries`.
Plain ``{exponent: coeff}`` tables cross the boundary through
:func:`q_series` and :func:`q_table`; a rational function of the
coordinates is a :class:`RatioSeries` of q-series, which
``reduction.CoordRat`` builds from tables.
A :class:`RatioSeries` keeps a quotient exact by cross-multiplication.
This engine only builds: every residual (of a formal flow, a first
integral, a frame bracket or Lie derivative, a linearizing map) is
evaluated on the dense dictionaries of ``galint.check``, a deliberate
second, independent engine, so that a defect here cannot certify itself.

Composition works one total degree at a time.  A :class:`Powers` object
keeps the degree-k cells of each monomial of a substitution as
M_(i-e_j) * subst_j restricted to degree k; they read the substitution only
below degree k, so the flow construction, which adds its order-k cells
after reading the order-k defect, keeps one such object across all its
orders (the relaxed multiplication of van der Hoeven, "Relax, but don't be
too lazy", JSC 34 (2002)).  Each of those cells is one dot product of
lower-degree cells (``AlgebraicTower.dot``), reduced once.
:meth:`TruncSeries.compose` sums its cells over the degrees k <= N.
"""

from __future__ import annotations

from .errors import (
    AlphabetMismatch,
    DivisionByZero,
    NonzeroConstantTerm,
    NotTangentToIdentity,
)

__all__ = [
    "HyperexpBasis",
    "Powers",
    "TruncSeries",
    "RatioSeries",
    "linear_subst",
    "q_series",
    "q_table",
    "ts_invert_map",
]


class HyperexpBasis:
    """The symbol dictionary: n-1 hyperexponential symbols.

    ``hs[j]`` is the logarithmic derivative of H_{j+1} (a tower element).
    """

    __slots__ = ("hs",)

    def __init__(self, hs):
        self.hs = tuple(hs)
        towers = {id(h.tower) for h in self.hs}
        if len(towers) > 1:
            raise ValueError("hyperexponential symbols must share one tower")

    @property
    def n(self):
        return len(self.hs)

    def __eq__(self, other):
        if not isinstance(other, HyperexpBasis):
            return NotImplemented
        return self.hs == other.hs

    def __hash__(self):
        return hash(len(self.hs))

    def __repr__(self):
        return f"HyperexpBasis(n={self.n})"


def _powers(pairs):
    """``name`` or ``name^k`` for each (name, k) with k nonzero."""
    return [name if k == 1 else f"{name}^{k}" for name, k in pairs if k]


class TruncSeries:
    """Sparse truncated series; see the module docstring for cell semantics."""

    __slots__ = ("basis", "alphabet", "N", "table")

    def __init__(self, basis, alphabet, N, table=()):
        """``table`` is a mapping ``{i: c}`` or an iterable of ``(i, c)``
        pairs.  The contributions to one cell are gathered and summed once,
        by the coefficient tower's ``sum`` (one reduction per coordinate);
        zero contributions are skipped, a cell whose total is zero is
        dropped, and so are cells above total degree N.  Every index is
        validated."""
        if alphabet not in ("q", "u"):
            raise ValueError("alphabet must be 'q' or 'u'")
        self.basis = basis
        self.alphabet = alphabet
        self.N = int(N)
        if hasattr(table, "items"):
            table = table.items()
        cols = {}
        for i, c in table or ():
            i = tuple(int(x) for x in i)
            if len(i) != basis.n:
                raise ValueError("variable multi-index length mismatch")
            if any(x < 0 for x in i):
                raise ValueError("negative variable exponent")
            if sum(i) > self.N or not c:
                continue
            cols.setdefault(i, []).append(c)
        clean = {}
        for i, cs in cols.items():
            c = cs[0] if len(cs) == 1 else cs[0].tower.sum(cs)
            if c:
                clean[i] = c
        self.table = clean

    # ------------------------------------------------------------ factories

    @classmethod
    def zero(cls, basis, alphabet, N):
        return cls(basis, alphabet, N, {})

    @classmethod
    def constant(cls, basis, alphabet, N, c):
        return cls(basis, alphabet, N, {(0,) * basis.n: c})

    @classmethod
    def variable(cls, basis, alphabet, N, j, coeff):
        """The coordinate x_{j+1} (in the u-alphabet it carries H_{j+1})."""
        i = tuple(1 if k == j else 0 for k in range(basis.n))
        return cls(basis, alphabet, N, {i: coeff})

    # ------------------------------------------------------------- basics

    def is_zero(self):
        return not self.table

    def cells(self):
        """Deterministically ordered (i, coeff) pairs."""
        return [(i, self.table[i])
                for i in sorted(self.table, key=lambda i: (sum(i), i))]

    def coeff(self, i):
        return self.table.get(tuple(i))

    def valuation(self):
        """Least total variable degree of a nonzero cell; None for zero."""
        return min((sum(i) for i in self.table), default=None)

    def truncate(self, M):
        return TruncSeries(self.basis, self.alphabet, M, self.table)

    def _check_mate(self, other):
        if self.basis != other.basis or self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                "series do not share an alphabet and symbol basis"
            )

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other):
        self._check_mate(other)
        N = min(self.N, other.N)
        return TruncSeries(self.basis, self.alphabet, N,
                           [*self.table.items(), *other.table.items()])

    def __neg__(self):
        return TruncSeries(
            self.basis, self.alphabet, self.N,
            {i: -c for i, c in self.table.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_mate(other)
        N = min(self.N, other.N)

        def cells():
            for ia, ca in self.table.items():
                if sum(ia) > N:
                    continue
                for ib, cb in other.table.items():
                    i = tuple(a + b for a, b in zip(ia, ib))
                    if sum(i) <= N:
                        yield i, ca * cb

        return TruncSeries(self.basis, self.alphabet, N, cells())

    def scale(self, c):
        """Multiply every coefficient by a tower element (or leave zero)."""
        if not c:
            return TruncSeries.zero(self.basis, self.alphabet, self.N)
        return TruncSeries(
            self.basis, self.alphabet, self.N,
            {i: v * c for i, v in self.table.items()},
        )

    def inverse(self):
        """The multiplicative inverse through order N.

        The constant cell must be a unit c; with u = 1/c and w = 1 - u * self
        the inverse is u * sum_k w^k, a finite sum because w has no cell of
        degree 0.
        """
        zero_i = (0,) * self.basis.n
        c0 = self.table.get(zero_i)
        if c0 is None:
            raise DivisionByZero("series constant term vanishes; cannot invert")
        u = c0.tower.one / c0
        w = TruncSeries(
            self.basis, self.alphabet, self.N,
            {i: -(c * u) for i, c in self.table.items() if i != zero_i},
        )
        out = TruncSeries.constant(self.basis, self.alphabet, self.N, u)
        power = w
        while not power.is_zero():
            out = out + power.scale(u)
            power = power * w
        return out

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.alphabet == other.alphabet
            and self.N == other.N
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.alphabet, self.N, frozenset(self.table)))

    # ------------------------------------------------------------- compose

    def compose(self, subst):
        """Substitute x_j -> subst[j] (series without constant term).

        In the u-alphabet the substituted variable takes its H-content
        along.  The result lives in the substituted series' alphabet.  It is
        the sum over the degrees k <= N of :meth:`Powers.cells_at`.
        """
        basis = self.basis
        if len(subst) != basis.n:
            raise ValueError("one substitution per variable required")
        tgt = subst[0]
        for g in subst:
            if g.basis != basis or g.alphabet != tgt.alphabet:
                raise AlphabetMismatch(
                    "substituted series disagree on alphabet or basis"
                )
            if any(not any(i) for i in g.table):
                raise NonzeroConstantTerm(
                    "substituted series must vanish at the origin"
                )
        N = min([self.N] + [g.N for g in subst])
        return Powers(subst).compose(self, N)

    # -------------------------------------------------------------- output

    def render(self):
        """Canonical text form (deterministic ordering)."""
        if not self.table:
            return "0"
        letters = ("u", "H") if self.alphabet == "u" else ("q",)
        parts = []
        for i, c in self.cells():
            bits = [f"({c})"]
            for letter in letters:
                bits += _powers((f"{letter}{j + 1}", k) for j, k in enumerate(i))
            parts.append("*".join(bits))
        return " + ".join(parts)

    def __repr__(self):
        return f"<TruncSeries {self.alphabet}, N={self.N}: {self.render()}>"


class Powers:
    """The monomials of a substitution, kept one total degree at a time.

    ``subst`` is a list of series without constant term, one per variable;
    it is read afresh on every call, so a caller may extend it.  The
    degree-k cells of a monomial M_i = prod_j subst_j^(i_j) with |i| >= 2
    are M_(i-e_j) * subst_j restricted to degree k, j the first variable
    of i, each cell one ``AlgebraicTower.dot`` of the factors' cells.  They
    read subst only below degree k and are kept once computed, so a
    substitution that gains its degree-k cells only after
    ``cells_at(., k)`` (the flow construction's pattern, one order at a
    time) never makes them stale.  Degree-1 monomials are subst itself.
    """

    __slots__ = ("subst", "_memo")

    def __init__(self, subst):
        self.subst = subst
        self._memo = {}

    def cells_at(self, series, k):
        """The degree-k cells of series∘subst, as a series through order k
        (see :meth:`TruncSeries.compose`)."""

        def cells():
            for i, c in series.table.items():
                if sum(i) > k:
                    continue
                if not any(i):  # the constant cell of series
                    if not k:
                        yield i, c
                    continue
                for it, ct in self._at(i, k):
                    yield it, ct * c

        return TruncSeries(series.basis, self.subst[0].alphabet, k, cells())

    def compose(self, series, N):
        """series∘subst through order N: the cells of every degree k <= N."""
        return TruncSeries(series.basis, self.subst[0].alphabet, N, (
            cell for k in range(N + 1)
            for cell in self.cells_at(series, k).table.items()))

    def _at(self, i, k):
        """The degree-k (index, coeff) cells of M_i, |i| >= 1."""
        j = next(j for j, e in enumerate(i) if e)
        n = sum(i)
        if n == 1:
            return [(it, c) for it, c in self.subst[j].table.items()
                    if sum(it) == k]
        hit = self._memo.get((i, k))
        if hit is not None:
            return hit
        rest = tuple(e - (l == j) for l, e in enumerate(i))
        unit = tuple(int(l == j) for l in range(len(i)))
        cols = {}
        for d in range(n - 1, k):
            low = self._at(unit, k - d)
            if not low:
                continue
            for ia, ca in self._at(rest, d):
                for ib, cb in low:
                    it = tuple(a + b for a, b in zip(ia, ib))
                    cols.setdefault(it, []).append((ca, cb))
        out = []
        for it, pairs in cols.items():
            c = pairs[0][0].tower.dot(pairs)
            if c:
                out.append((it, c))
        self._memo[(i, k)] = out
        return out


class RatioSeries:
    """A formal quotient num/den of truncated series.

    Equality and arithmetic use cross-multiplication, so every identity
    checked on a RatioSeries itself is an exact statement about polynomial
    cells; ``+ - * /`` and :meth:`compose` return trimmed quotients (see
    :meth:`trim`).  Either operand of ``+ - * /`` may be a constant the
    coefficient tower coerces (an int, a Fraction, a ground element or a
    tower element); dividing by a zero quotient raises ``DivisionByZero``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("RatioSeries with zero denominator")
        self.num = num
        self.den = den

    def trim(self):
        """Cancel the common monomial content of numerator and denominator.

        Cross-multiplied arithmetic piles valuation onto denominators until
        truncation would annihilate them; the common q-monomial factor is
        exact and cancels losslessly.  Cells that would shift in from above
        the window were never computed, so the window shrinks by the content
        degree — the result is a smaller exact object instead of a dying
        denominator.
        """
        num, den = self.num, self.den
        if num.alphabet != "q" or den.alphabet != "q":
            return self
        m = None
        for tab in (num.table, den.table):
            for i in tab:
                m = list(i) if m is None else [min(a, b) for a, b in zip(m, i)]
        if m is None or not any(m):
            return self
        drop = sum(m)

        def shift(s):
            return TruncSeries(
                s.basis, "q", s.N - drop,
                {tuple(a - b for a, b in zip(i, m)): c
                 for i, c in s.table.items()},
            )

        return RatioSeries(shift(num), shift(den))

    def _mate(self, other):
        """``other`` as a quotient: a RatioSeries as it is, anything else as
        a constant of the coefficient tower over 1 (the basis's hs are
        elements of that tower)."""
        if isinstance(other, RatioSeries):
            return other
        num = self.num
        c = num.basis.hs[0].tower.coerce(other)
        N = max(num.N, self.den.N)
        return RatioSeries(TruncSeries.constant(num.basis, num.alphabet, N, c),
                           TruncSeries.constant(num.basis, num.alphabet, N,
                                                c.tower.one))

    def __add__(self, other):
        other = self._mate(other)
        return RatioSeries(
            self.num * other.den + other.num * self.den, self.den * other.den
        ).trim()

    __radd__ = __add__

    def __sub__(self, other):
        other = self._mate(other)
        return RatioSeries(
            self.num * other.den - other.num * self.den, self.den * other.den
        ).trim()

    def __rsub__(self, other):
        return self._mate(other) - self

    def __mul__(self, other):
        other = self._mate(other)
        return RatioSeries(self.num * other.num, self.den * other.den).trim()

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._mate(other)
        if other.is_zero():
            raise DivisionByZero("division by a zero quotient")
        return RatioSeries(self.num * other.den, self.den * other.num).trim()

    def __rtruediv__(self, other):
        return self._mate(other) / self

    def __neg__(self):
        return RatioSeries(-self.num, self.den)

    def scale(self, c):
        """Multiply by a tower element (the numerator carries it)."""
        return RatioSeries(self.num.scale(c), self.den)

    def compose(self, subst):
        """Substitute into numerator and denominator (see
        :meth:`TruncSeries.compose`); the quotient is trimmed."""
        return RatioSeries(self.num.compose(subst),
                           self.den.compose(subst)).trim()

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def eq(self, other):
        return (self.num * other.den - other.num * self.den).is_zero()

    def __repr__(self):
        return f"RatioSeries({self.num.render()}) / ({self.den.render()})"


# ---------------------------------------------------------------------------
# plain coefficient tables and linear substitutions
# ---------------------------------------------------------------------------

def q_series(basis, N, tab):
    """A plain table ``{exponent: coeff}`` as a q-alphabet series."""
    return TruncSeries(basis, "q", N, tab)


def q_table(series):
    """The plain table ``{exponent: coeff}`` of a q-alphabet series."""
    if series.alphabet != "q":
        raise ValueError("only q-alphabet series have a plain table")
    return dict(series.table)


def linear_subst(basis, M, N):
    """Substitution rows  q_j -> sum_l M[j][l] q_l  for :meth:`compose`."""
    return [
        TruncSeries(
            basis, "q", N,
            {tuple(int(k == l) for k in range(len(row))): c
             for l, c in enumerate(row) if c},
        )
        for row in M
    ]


# ---------------------------------------------------------------------------
# the operation layer
# ---------------------------------------------------------------------------

def ts_invert_map(phi):
    """Invert a tangent-to-identity map u -> phi(u), returning q-series.

    Each phi_j must be u_j plus terms of variable order >= 2; the result
    Phi satisfies Phi(phi) = id and phi(Phi) = id modulo the truncation.
    Fixed-point iteration u <- q - R(u) with R = phi - id gains one exact
    order per step, so N-1 steps suffice at truncation N.
    """
    if not phi:
        return []
    basis = phi[0].basis
    n = basis.n
    if len(phi) != n:
        raise ValueError("need one component per variable")
    N = min(p.N for p in phi)
    one = _one_of_list(phi)

    R = []
    for j, p in enumerate(phi):
        if p.alphabet != "u" or p.basis != basis:
            raise AlphabetMismatch("inversion expects u-alphabet series")
        lead = TruncSeries.variable(basis, "u", N, j, one)
        rest = p.truncate(N) - lead
        for i in rest.table:
            if sum(i) <= 1:
                raise NotTangentToIdentity(
                    f"component {j + 1} is not u_{j + 1} + O(order 2)"
                )
        R.append(rest)

    q_id = [TruncSeries.variable(basis, "q", N, j, one) for j in range(n)]
    cur = list(q_id)
    for _ in range(max(0, N - 1)):
        cur = [q_id[j] - R[j].compose(cur) for j in range(n)]
    return cur


def _one_of_list(series_list):
    for p in series_list:
        for c in p.table.values():
            return c.tower.one
    raise ValueError("cannot infer the coefficient tower")
