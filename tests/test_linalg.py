"""Exact linear algebra: ``rref`` against Gauss-Jordan elimination, and the
solver and determinant on the shapes the rest of the package feeds them.

``rref`` eliminates forward and then back-substitutes, touching only nonzero
entries.  The reduced row echelon form is unique and every scalar type here
is canonical, so its rows, pivots and pivot values must equal those of the
textbook Gauss-Jordan loop kept below as the reference, over Q, over
Q(alpha, s) and over the tower w^2 = 1 + s^2.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galint.algebra import AlgebraicTower, GroundField
from galint.algebra.linalg import det, mat_mul, nullspace, rref, solve
from galint.errors import ZeroDivisor

GF = GroundField(params=("alpha",))
S, ALPHA = GF.s, GF.gen("alpha")
BASE = AlgebraicTower(GF)
W_TOWER = BASE.extend("w", 2, BASE.from_ground(1 + S**2))
W = W_TOWER.gen("w")

PROPS = settings(max_examples=30, deadline=None, database=None,
                 derandomize=True)


def gauss_jordan(M, *, pivot_values=None):
    """Reference: clear each pivot column in every other row at once."""
    rows = [list(r) for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        if pivot_values is not None:
            pivot_values.append(pv)
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return rows, pivots


small = st.integers(-3, 3)


def fractions(draw):
    return Fraction(draw(small), draw(st.integers(1, 3)))


def ground(draw):
    a, b, c, d = (draw(small) for _ in range(4))
    return (a + b * S + c * ALPHA) / (1 + abs(d) * S**2)


def tower(draw):
    return W_TOWER.from_ground(ground(draw)) + W_TOWER.from_ground(
        ground(draw)) * W


SCALARS = {
    "Q": (fractions, Fraction(0)),
    "Q(alpha, s)": (ground, GF.zero),
    "w^2 = 1 + s^2": (tower, W_TOWER.zero),
}


@st.composite
def sparse_matrices(draw, kind, m=None, n=None):
    """m x n (drawn when not given, up to 5 x 6), about two thirds of the
    entries zero, with up to two rows planted as combinations of the rows
    above them."""
    entry, zero = SCALARS[kind]
    m = m or draw(st.integers(1, 5))
    n = n or draw(st.integers(1, 6))
    rows = [[entry(draw) if draw(st.integers(0, 2)) == 0 else zero
             for _ in range(n)] for _ in range(m)]
    planted = draw(st.lists(st.integers(1, m - 1), max_size=2)) if m > 1 else []
    for i in planted:
        a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        ca, cb = entry(draw), entry(draw)
        rows[i] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    return rows


def assert_rref_matches_gauss_jordan(M):
    got_pv, ref_pv = [], []
    got = rref(M, pivot_values=got_pv)
    ref = gauss_jordan(M, pivot_values=ref_pv)
    assert got == ref
    assert got_pv == ref_pv
    assert [list(map(str, r)) for r in got[0]] == \
        [list(map(str, r)) for r in ref[0]]


@PROPS
@given(sparse_matrices("Q"))
def test_rref_matches_gauss_jordan_over_q(M):
    assert_rref_matches_gauss_jordan(M)


@PROPS
@given(sparse_matrices("Q(alpha, s)"))
def test_rref_matches_gauss_jordan_over_the_ground_field(M):
    assert_rref_matches_gauss_jordan(M)


@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 3).flatmap(
    lambda m: sparse_matrices("w^2 = 1 + s^2", m, 4)))
def test_rref_matches_gauss_jordan_over_a_tower(M):
    assert_rref_matches_gauss_jordan(M)


def test_rref_leaves_its_input_alone():
    M = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    copy = [list(r) for r in M]
    rows, pivots = rref(M)
    assert M == copy
    assert rows == [[1, 0], [0, 1]] and pivots == [(0, 0), (1, 1)]


def test_a_tower_pivot_is_inverted_once_per_row(monkeypatch):
    pv = W + S
    M = [[pv, W, W_TOWER.one], [W_TOWER.zero, pv, W]]
    want = gauss_jordan(M)
    real = AlgebraicTower.invert
    inverted = []

    def spy(tower, a):
        inverted.append(a)
        return real(tower, a)

    monkeypatch.setattr(AlgebraicTower, "invert", spy)
    assert rref(M) == want
    assert inverted == [pv, pv]


def test_a_zero_divisor_pivot_raises_at_its_step():
    # v^2 = s^2 splits: v - s is a zero divisor, met as the second pivot
    t = BASE.extend("v", 2, BASE.from_ground(S**2))
    zd = t.gen("v") - t.from_ground(S)
    M = [[t.one, t.gen("v")], [t.zero, zd]]
    pvs = []
    with pytest.raises(ZeroDivisor):
        rref(M, pivot_values=pvs)
    assert pvs == [t.one, zd]


def banded_system():
    """A 14x10 system shaped like the ODE solver's ansatz: row t meets the
    unknowns t-4..t with parameter-scalar entries, the last column is
    alpha times the first plus the second, and the right side is M x0 for
    an x0 of large fractions."""
    rows = []
    for t in range(14):
        row = [GF.zero] * 10
        for j in range(max(0, t - 4), min(9, t + 1)):
            row[j] = GF.from_rational(t - j + 1) + (j % 3) * ALPHA
        rows.append(row)
    for row in rows:
        row[9] = ALPHA * row[0] + row[1]
    x0 = [((ALPHA + k) ** 3 + k * ALPHA) / ((ALPHA**2 - k - 2) * (2 * ALPHA + 1))
          for k in range(10)]
    rhs = [r[0] for r in mat_mul(rows, [[x] for x in x0], GF.zero)]
    return rows, rhs


def test_solve_on_a_banded_ansatz_system():
    M, rhs = banded_system()
    sol = solve(M, rhs, GF.zero, GF.one)
    assert sol is not None
    x, null = sol
    assert [r[0] for r in mat_mul(M, [[v] for v in x], GF.zero)] == rhs
    assert len(null) == 1
    for v in null:
        assert any(v)
        assert all(not r[0] for r in mat_mul(M, [[c] for c in v], GF.zero))
    assert nullspace(M, GF.zero, GF.one) == null
    bad = list(rhs)
    bad[0] = bad[0] + GF.one
    assert solve(M, bad, GF.zero, GF.one) is None


def assert_pivots_multiply_to_det(M, zero, one):
    pvs = []
    rows, pivots = rref(M, pivot_values=pvs)
    d = det(M, zero, one)
    assume(d)
    assert len(pivots) == len(M)
    prod = one
    for pv in pvs:
        prod = prod * pv
    assert prod == d or prod == zero - d


@PROPS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3).map(Fraction),
                                min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_pivot_values_multiply_to_det_over_q(M):
    assert_pivots_multiply_to_det(M, Fraction(0), Fraction(1))


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 3).flatmap(
    lambda n: sparse_matrices("Q(alpha, s)", n, n)))
def test_pivot_values_multiply_to_det_over_the_ground_field(M):
    assert_pivots_multiply_to_det(M, GF.zero, GF.one)
