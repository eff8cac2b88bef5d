"""Dense exact linear algebra over any field-like scalar type.

The same routines run over ground-field fractions *and* over tower elements:
the only requirements on the scalars are ``+ - * /``, ``bool()`` as a nonzero
test, and the caller supplying the ``zero``/``one`` constants.  ``rref``,
``solve``, ``nullspace``, ``det`` and ``mat_inv`` eliminate with exact
division: scalars are already normalized field elements, and the reduced
form is what solving needs.  ``rref`` runs forward elimination below each
pivot, then back substitution from the last pivot up; both go through
``_eliminate``, which reads only the pivot row's nonzero entries and
touches only the rows with a nonzero entry in the pivot column, so the
sparse, banded systems of the ODE solver cost what their nonzero entries
cost.  ``rank`` answers the rank alone and is division-free (it needs only
``- *`` and ``bool()``), so over a radical tower it never inverts an
element.  Pivoting is "first nonzero" everywhere, which keeps results
deterministic (a requirement for byte-stable golden output).  A pivot
row is scaled by one inverse, ``1 / pivot``.
"""

__all__ = ["rref", "rank", "solve", "nullspace", "det", "mat_mul", "mat_inv"]


def _eliminate(rows, r, c, targets):
    """Clear column c of each target row with row r, whose entry there is one.

    The pivot row's nonzero entries from column c on are read once, and only
    the target rows with a nonzero entry in column c change, in those
    columns alone; entries the pivot row has zero stay as they are.
    """
    pivot = rows[r]
    live = [(j, pivot[j]) for j in range(c, len(pivot)) if pivot[j]]
    for i in targets:
        row = rows[i]
        f = row[c]
        if f:
            for j, b in live:
                row[j] = row[j] - f * b


def _normalise(row, pv):
    """``row`` divided by its pivot entry ``pv``, zero entries kept.

    ``pv`` is inverted once and each entry multiplied by the inverse: over a
    tower each ``/`` would invert the divisor again.  A pivot that is a zero
    divisor raises from that inversion.
    """
    inv = 1 / pv
    return [x * inv if x else x for x in row]


def rref(M, *, pivot_values=None):
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` where ``pivots`` is a list of ``(row, col)``
    pairs in order.  When ``pivot_values`` is a list, the raw entry chosen as
    each pivot (before normalisation) is appended to it — callers use this
    to track scalars that were divided by, e.g. to report exceptional
    parameter values.  The input is not modified.

    Forward elimination normalises each pivot row when it is chosen and
    clears the column below it; back substitution then clears each pivot
    column above, last pivot first.  The reduced form is unique, so this is
    the form Gauss-Jordan elimination gives, with the same pivots divided
    by in the same order.
    """
    rows = [list(r) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        p = None
        for i in range(r, m):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        if pivot_values is not None:
            pivot_values.append(pv)
        rows[r] = _normalise(rows[r], pv)
        _eliminate(rows, r, c, range(r + 1, m))
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for r, c in reversed(pivots):
        _eliminate(rows, r, c, range(r))
    return rows, pivots


def rank(M, *, pivot_values=None):
    """Rank by division-free forward elimination.

    Each step replaces a lower row by ``pv*row - f*pivot_row``, with no
    back-substitution and no division.  Every row stays :func:`rref`'s row
    times a product of earlier pivots, so when those pivots are units (always
    over a field) the rank and the pivot positions are rref's, and each pivot
    is rref's times a unit.  When ``pivot_values`` is a list, each pivot
    entry is appended to it, as :func:`rref` does.  The input is not
    modified.
    """
    rows = [list(r) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        p = None
        for i in range(r, m):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r]
        pv = pivot[c]
        if pivot_values is not None:
            pivot_values.append(pv)
        # columns up to c are never read again, so only later ones are updated
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            if f:
                for j in range(c + 1, n):
                    row[j] = pv * row[j] - f * pivot[j]
        r += 1
        if r == m:
            break
    return r


def solve(M, rhs, zero, one, *, pivot_values=None):
    """Solve ``M x = rhs`` (m×n, possibly under/overdetermined).

    Returns ``(particular, nullspace_basis)`` or ``None`` when inconsistent.
    The particular solution sets all free variables to zero; the nullspace
    basis has one vector per free column.  Deterministic.
    """
    if not M:
        if any(rhs):
            return None
        return [], []
    n = len(M[0])
    aug = [list(row) + [b] for row, b in zip(M, rhs)]
    R, pivots = rref(aug, pivot_values=pivot_values)
    for _, c in pivots:
        if c == n:
            return None
    x = [zero] * n
    for r, c in pivots:
        x[c] = R[r][n]
    piv_cols = {c for _, c in pivots}
    null = []
    for j in range(n):
        if j in piv_cols:
            continue
        v = [zero] * n
        v[j] = one
        for r, c in pivots:
            v[c] = zero - R[r][j]
        null.append(v)
    return x, null


def nullspace(M, zero, one):
    """Basis of the right kernel of M (m×n)."""
    if not M:
        return []
    sol = solve(M, [zero] * len(M), zero, one)
    return sol[1]


def det(M, zero, one):
    """Determinant by exact forward elimination with row swaps."""
    rows = [list(r) for r in M]
    n = len(rows)
    if n == 0:
        return one
    sign = 1
    acc = one
    for c in range(n):
        p = None
        for i in range(c, n):
            if rows[i][c]:
                p = i
                break
        if p is None:
            return zero
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        pv = rows[c][c]
        acc = acc * pv
        rows[c] = _normalise(rows[c], pv)
        _eliminate(rows, c, c, range(c + 1, n))
    if sign < 0:
        return zero - acc
    return acc


def mat_mul(A, B, zero):
    """A B.  Over a tower (``zero`` a tower element) each entry is one
    ``AlgebraicTower.dot``, reduced once per coordinate; other scalars
    fold ``+``."""
    from .tower import FieldElem

    dot = zero.tower.dot if isinstance(zero, FieldElem) else None
    n = len(B[0]) if B else 0
    out = []
    for a_row in A:
        row = []
        for j in range(n):
            pairs = [(a, b) for a, b in zip(a_row, (r[j] for r in B))
                     if a and b]
            if dot is not None:
                acc = dot(pairs)
            else:
                acc = zero
                for a, b in pairs:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def mat_inv(M, zero, one):
    """Invert a square matrix.

    Returns ``(inverse, None)`` on success, ``(None, kernel_vector)`` when
    singular — the kernel vector is a zero-divisor / singularity witness.
    """
    n = len(M)
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(M)]
    R, pivots = rref(aug)
    if sum(c < n for _, c in pivots) < n:
        ker = nullspace(M, zero, one)
        return None, ker[0]
    inv = [row[n:] for row in R]
    return inv, None
