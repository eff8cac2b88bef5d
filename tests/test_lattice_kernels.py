"""The two kernels of the relation-lattice sweep against today's references.

``linode._integer_eigs`` takes the characteristic polynomial of a residue
matrix as the product of those of its diagonal blocks (the strongly
connected components of its nonzero pattern), and finds its integer roots
in Python ints.  Its integer eigenvalues must equal those of
Faddeev-LeVerrier on the whole matrix, kept below as the reference, over
Q(alpha), over the residue field Q(alpha)(xi), xi^2 = -1, and over the
split xi^2 = 1, which has zero divisors.  The reference keeps its own root
step in sympy (a gcd of ``Poly`` components and ``ground_roots``), so it
stays an independent oracle for the integer one.

``resonance._residue_admissible`` reads integer rows that
``_integer_rows`` converts once; its verdict must equal the exact
``Exponent`` arithmetic kept below as the reference on every candidate.
"""

import functools
import itertools
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from galint.algebra import AlgebraicTower, GroundField, linalg, linode
from galint.algebra.places import Exponent
from galint.algebra.scalars import Scalar
from galint.galois import relation_lattice
from galint.galois.resonance import _integer_rows, _residue_admissible

GF = GroundField(params=("alpha",))
ALPHA = GF.gen("alpha")
Q_ALPHA = AlgebraicTower(GF)
TOWERS = {
    "Q(alpha)": Q_ALPHA,
    "xi^2 = -1": Q_ALPHA.extend_monic("xi", 2, {(0,): -GF.one}),
    "xi^2 = 1": Q_ALPHA.extend_monic("xi", 2, {(0,): GF.one}),
}

PROPS = settings(max_examples=25, deadline=None, database=None,
                 derandomize=True)


# --------------------------------------------------------------------------
# integer eigenvalues of a residue matrix


def reference_integer_eigs(R):
    """Faddeev-LeVerrier on the whole matrix, then the integer roots."""
    ct = R[0][0].tower
    D = len(R)
    N = [[ct.one if i == j else ct.zero for j in range(D)] for i in range(D)]
    chi = [ct.one]
    for k in range(1, D + 1):
        AN = linalg.mat_mul(R, N, ct.zero)
        tr = ct.zero
        for i in range(D):
            tr = tr + AN[i][i]
        ck = tr * ct.from_ground(Fraction(-1, k))
        chi.append(ck)
        N = [[AN[i][j] + ck if i == j else AN[i][j] for j in range(D)]
             for i in range(D)]
    gf = ct.gf
    by_coord = {}
    for k, c in enumerate(chi):
        for e, ce in c.coords.items():
            by_coord.setdefault(e, []).append((D - k, ce))
    T = sympy.Symbol("T")
    comps = []
    for terms in by_coord.values():
        common = gf.ring.one
        for _, ce in terms:
            common = common * ce.denom
        commel = gf.new(gf.kernel.from_sympy(common), gf.kernel.one)
        grouped = {}
        for td, ce in terms:
            scaled = ce * commel
            for mono, q in scaled.numer.terms():
                bucket = grouped.setdefault(mono, {})
                bucket[td] = bucket.get(td, 0) + q
        for tp in grouped.values():
            expr = sympy.Add(*(c * T**d for d, c in tp.items()))
            comps.append(sympy.Poly(expr, T))
    if not comps:
        return []
    g = functools.reduce(lambda a, b: a.gcd(b), comps)
    if g.degree() <= 0:
        return []
    return sorted(int(r) for r in g.ground_roots()
                  if getattr(r, "is_integer", False))


small = st.integers(-2, 2)


@st.composite
def entries(draw, tower):
    """An integer half the time, else (a + b alpha + (c + d alpha) xi) over
    a small denominator; xi is dropped over Q(alpha)."""
    if draw(st.booleans()):
        return tower.from_ground(GF.from_rational(draw(small)))
    a, b, c, d = (draw(small) for _ in range(4))
    den = draw(st.sampled_from([GF.one, ALPHA + 2, GF.from_rational(3)]))
    out = tower.from_ground((a + b * ALPHA) / den)
    if tower.gens:
        out = out + tower.from_ground((c + d * ALPHA) / den) * tower.gen("xi")
    return out


@st.composite
def block_triangular(draw, tower):
    """Diagonal blocks of sizes 1-3 (a 2x2 block may carry a planted integer
    eigenvalue r: with b an integer, c = (r - a)(r - d)/b), sparse entries
    above them, and then a random simultaneous permutation of rows and
    columns."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    D = sum(sizes)
    R = [[tower.zero] * D for _ in range(D)]
    start = 0
    for size in sizes:
        block = range(start, start + size)
        for i in block:
            for j in block:
                if i == j or draw(st.integers(0, 3)):
                    R[i][j] = draw(entries(tower))
        if size == 2 and draw(st.booleans()):
            r = tower.from_ground(GF.from_rational(draw(small)))
            b = draw(st.sampled_from([-2, -1, 1, 3]))
            a, d = R[start][start], R[start + 1][start + 1]
            R[start][start + 1] = tower.from_ground(GF.from_rational(b))
            R[start + 1][start] = (r - a) * (r - d) * tower.from_ground(
                GF.from_rational(Fraction(1, b)))
        start += size
        for i in block:
            for j in range(start, D):
                if not draw(st.integers(0, 2)):
                    R[i][j] = draw(entries(tower))
    perm = draw(st.permutations(range(D)))
    return [[R[perm[i]][perm[j]] for j in range(D)] for i in range(D)]


@PROPS
@given(block_triangular(TOWERS["Q(alpha)"]))
def test_integer_eigs_match_the_reference_over_q_alpha(R):
    assert linode._integer_eigs(R) == reference_integer_eigs(R)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(["xi^2 = -1", "xi^2 = 1"]).flatmap(
    lambda name: block_triangular(TOWERS[name])))
def test_integer_eigs_match_the_reference_over_a_residue_tower(R):
    assert linode._integer_eigs(R) == reference_integer_eigs(R)


def matrix(tower, rows):
    return [[tower.from_ground(x) for x in row] for row in rows]


def test_integer_eig_only_inside_a_two_by_two_block():
    # [[0, 2], [1, 1]] has eigenvalues 2 and -1, neither on its diagonal;
    # the 1x1 block alpha reaches it through one edge
    for tower in TOWERS.values():
        R = matrix(tower, [[0, 0, 2], [1, ALPHA, 0], [1, 0, 1]])
        assert linode._blocks(R) == [[0, 2], [1]]
        assert linode._integer_eigs(R) == reference_integer_eigs(R) == [-1, 2]


def test_integer_eigs_of_triangular_zero_and_irreducible_matrices():
    for name in ("xi^2 = -1", "xi^2 = 1"):
        tower = TOWERS[name]
        xi = tower.gen("xi")
        T = matrix(tower, [[1, ALPHA, ALPHA + 3, 0], [0, ALPHA, 1, 0],
                           [0, 0, 2, 3], [0, 0, 0, -1]])
        T[0][3] = xi
        Z = matrix(tower, [[0] * 3] * 3)
        # one 3-cycle: eigenvalues the cube roots of unity times alpha + 1
        C = matrix(tower, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        C[2][0] = tower.from_ground(ALPHA + 1) ** 3
        # (1 -+ xi)/2 are orthogonal idempotents over xi^2 = 1, so the
        # product (T - (1 - xi)/2)(T - (1 + xi)/2) = T^2 - T has the roots
        # 0 and 1, while neither 1x1 block has an integer root alone
        half = tower.from_ground(Fraction(1, 2))
        E = matrix(tower, [[0, 0], [0, 0]])
        E[0][0], E[1][1] = half - half * xi, half + half * xi
        for R, blocks, eigs in (
                (T, [[3], [2], [1], [0]], [-1, 1, 2]),
                (Z, [[0], [1], [2]], [0]),
                (C, [[0, 1, 2]], []),
                (E, [[0], [1]], [0, 1] if name == "xi^2 = 1" else []),
                ([[E[0][0]]], [[0]], []),
                ([[E[1][1]]], [[0]], []),
                ([[half]], [[0]], []),
                (matrix(tower, [[-12]]), [[0]], [-12])):
            assert linode._blocks(R) == blocks
            assert linode._integer_eigs(R) == reference_integer_eigs(R) \
                == eigs, (name, eigs)


def nested_tower_h():
    """The four log-derivatives of the nested-tower lattice."""
    s = GF.s
    T1 = AlgebraicTower(GF).extend("w1", 2, s)
    T2 = T1.extend("w2", 2, 2 + 2 * T1.gen("w1") + s)
    T = T2.extend("w3", 2, 2 - 2 * T2.gen("w1") + s)
    w1, w2, w3 = T.gen("w1"), T.gen("w2"), T.gen("w3")
    one = T.one
    n1, n2 = one + w1 + w2, one + w1 - w2
    n3, n4 = one - w1 + w3, one - w1 - w3
    a = T.from_ground(ALPHA)
    u2, u3 = w2 * w2, w3 * w3
    base2 = u2.derive() / (4 * u2)
    base3 = u3.derive() / (4 * u3)
    return (base2 + a * n1.derive() / n1, base2 + a * n2.derive() / n2,
            base3 + a * n3.derive() / n3, base3 + a * n4.derive() / n4)


def test_nested_tower_eigenvalues_take_few_additions(monkeypatch):
    # the six 8x8 residue matrices split into blocks of size <= 2;
    # Faddeev-LeVerrier on the whole matrices took 412 additions
    seen = []
    real = linode._integer_eigs

    def spy(R):
        seen.append(R)
        return real(R)

    monkeypatch.setattr(linode, "_integer_eigs", spy)
    rep = relation_lattice(nested_tower_h(), 2)
    monkeypatch.undo()
    assert rep.basis == [(1, 1, 0, 0), (0, 0, 1, 1)]
    assert len(seen) == 6 and all(len(R) == 8 for R in seen)
    adds = [0]
    add = Scalar.__add__

    def counted(f, g):
        adds[0] += 1
        return add(f, g)

    monkeypatch.setattr(Scalar, "__add__", counted)
    got = [real(R) for R in seen]
    monkeypatch.undo()
    assert adds[0] <= 250
    assert got == [reference_integer_eigs(R) for R in seen]


# --------------------------------------------------------------------------
# residue pruning


def reference_admissible(rows, k):
    """Exact Exponent arithmetic on the rows of ``_residue_rows``."""
    for m, exps in rows:
        total = Exponent(0)
        for c, e in zip(k, exps):
            if c:
                total = total + e.scale(c)
        if total.param:
            return False
        if (total.rational * m).denominator != 1:
            return False
    return True


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
param_parts = st.dictionaries(
    st.sampled_from(["alpha", "beta"]),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                     Fraction(-1, 2), Fraction(2, 3)]),
    max_size=2)


@st.composite
def residue_rows(draw):
    d = draw(st.integers(1, 4))
    exps = st.builds(Exponent, rationals,
                     st.one_of(st.just({}), param_parts))
    rows = draw(st.lists(st.tuples(st.sampled_from([1, 2, 3]),
                                   st.lists(exps, min_size=d, max_size=d)),
                         max_size=3))
    return d, rows


@PROPS
@given(residue_rows())
def test_residue_pruning_matches_exponent_arithmetic(drawn):
    d, rows = drawn
    irows = _integer_rows(rows)
    for k in itertools.product(range(-2, 3), repeat=d):
        assert _residue_admissible(irows, k) == reference_admissible(rows, k)


def test_residue_pruning_reads_m_and_the_parameter_parts():
    half = Exponent(Fraction(1, 2), {"alpha": Fraction(1, 3)})
    other = Exponent(Fraction(-3, 4), {"alpha": Fraction(-2, 3)})
    for m in (1, 2, 3, 4):
        rows = [(m, [half, other])]
        irows = _integer_rows(rows)
        for k, want in (((2, 1), m % 4 == 0), ((1, 0), False),
                        ((4, 2), m % 2 == 0), ((0, 0), True)):
            assert _residue_admissible(irows, k) == want
            assert reference_admissible(rows, k) == want
