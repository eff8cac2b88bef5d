"""Resonance tests, relation lattices, and the small-divisor sweep."""

import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from galint.algebra import AlgebraicTower, Exponent, GroundField
from galint.algebra.places import INF, SingularPlace
from galint.errors import (
    DegreeBoundExceeded,
    InputError,
    PrecisionLoss,
    VerificationFailed,
)
from galint.galois import (
    NonResonant,
    Resonant,
    angles_from_places,
    diophantine_eval,
    relation_lattice,
    resonance_test,
)
from galint.galois.diophantine import _compositions
from galint.galois.resonance import _hnf_with_transform, _residue_rows


@pytest.fixture(scope="module")
def gf():
    return GroundField(params=("alpha",))


# ---------------------------------------------------------------------------
# resonance_test
# ---------------------------------------------------------------------------

class TestResonanceTest:
    def test_cancelling_pair_has_constant_witness(self, gf):
        T = AlgebraicTower(gf)
        h1 = T.from_ground(gf.gen("alpha") / gf.s)
        v = resonance_test((h1, -h1), 1, (2, 1))
        assert v and isinstance(v, Resonant)
        assert v.witness.derive().is_zero()
        assert not v.witness.is_zero()

    def test_generic_parameter_blocks_witness(self, gf):
        T = AlgebraicTower(gf)
        h1 = T.from_ground(gf.gen("alpha") / gf.s)
        v = resonance_test((h1,), 1, (2,))
        assert not v and isinstance(v, NonResonant)

    def test_half_exponent_witness_is_power_of_s(self, gf):
        T = AlgebraicTower(gf)
        h = T.from_ground(1 / (2 * gf.s))
        v = resonance_test((h,), 1, (3,))  # combination 3h - h = 1/s
        assert v
        y = v.witness
        assert (y.derive() - T.from_ground(1 / gf.s) * y).is_zero()

    def test_solver_proves_a_square_root_is_missing(self):
        # over Q(s) the parameter shortcut has nothing to split off, so the
        # solver decides: 2h - h = 1/(2s) would need sqrt(s) as a witness,
        # while 3h - h = 1/s has the witness s
        gf = GroundField()
        T = AlgebraicTower(gf)
        h = (T.from_ground(1 / (2 * gf.s)),)
        v = resonance_test(h, 1, (2,))
        assert isinstance(v, NonResonant) and v.detail == ""
        v = resonance_test(h, 1, (3,))
        assert isinstance(v, Resonant) and v.witness == T.from_ground(gf.s)

    def test_square_root_pair(self, gf):
        s, alpha = gf.s, gf.gen("alpha")
        T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
        w = T.gen("w")
        # (s + w)(s - w) = -1, so the pair of log-derivatives cancels
        assert ((s + w) * (s - w) + 1).is_zero()
        num = s + w
        assert (num.derive() * w - num).is_zero()  # (s+w)'/(s+w) = 1/w
        h1 = T.from_ground(alpha) / w
        v = resonance_test((h1, -h1), 1, (2, 1))
        assert v and v.witness.derive().is_zero()

    def test_preconditions(self, gf):
        T = AlgebraicTower(gf)
        h = (T.from_ground(gf.gen("alpha") / gf.s),) * 2
        with pytest.raises(InputError):
            resonance_test(h, 1, (1, 0))  # |k| < 2
        with pytest.raises(InputError):
            resonance_test(h, 1, (3, -1))  # negative entry
        with pytest.raises(InputError):
            resonance_test(h, 3, (1, 1))  # j out of range
        with pytest.raises(InputError):
            resonance_test(h, 0, (1, 1))
        with pytest.raises(InputError):
            resonance_test(h, 1, (2,))  # length mismatch
        with pytest.raises(InputError):
            resonance_test((), 1, ())

    def test_out_of_reach_is_never_nonresonant(self, gf):
        # y'/y = w/s^2 exponentiates to exp(-w/s)(s+w): no tower witness,
        # but the double pole also defeats the solver's complete bounds.
        s = gf.s
        T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
        h = (T.gen("w") / T.from_ground(s**2),)
        with pytest.raises(DegreeBoundExceeded):
            resonance_test(h, 1, (2,))


# ---------------------------------------------------------------------------
# relation_lattice
# ---------------------------------------------------------------------------

class TestRelationLattice:
    def test_cancelling_pair_lattice(self, gf):
        T = AlgebraicTower(gf)
        h1 = T.from_ground(gf.gen("alpha") / gf.s)
        rep = relation_lattice((h1, -h1), 4)
        assert rep.basis == [(1, 1)]
        assert rep.rank == 1 and rep.l_candidate == 2
        y = rep.witnesses[(1, 1)]
        assert y.derive().is_zero() and not y.is_zero()
        assert rep.res == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert rep.inconclusive == []
        # lattice closure: negation, addition, scaling beyond the bound
        assert rep.member((2, 2)) and rep.member((-3, -3))
        assert rep.member((5, 5))
        assert not rep.member((1, 2)) and not rep.member((1, 0))
        v = rep.query(1, (2, 1))
        assert v and v.witness.derive().is_zero()
        assert rep.query(1, (2, 1)) is v  # memoized
        assert not rep.query(1, (3, 1))  # swept without a witness

    def test_parameter_direction_alone_is_empty(self, gf):
        T = AlgebraicTower(gf)
        rep = relation_lattice((T.from_ground(gf.gen("alpha") / gf.s),), 4)
        assert rep.basis == [] and rep.rank == 0
        assert rep.res == [] and rep.inconclusive == []

    def test_mixed_rational_exponents(self, gf):
        T = AlgebraicTower(gf)
        s = gf.s
        h = (T.from_ground(1 / (2 * s)), T.from_ground(1 / (3 * s)))
        rep = relation_lattice(h, 3)
        assert rep.basis == [(2, 0), (0, 3)]
        assert rep.rank == 2 and rep.l_candidate == 1
        s_el = T.from_ground(s)
        for row in rep.basis:
            y = rep.witnesses[row]
            # both witnesses solve y'/y = 1/s, i.e. are multiples of s
            assert (y.derive() * s_el - y).is_zero()
        assert rep.res == [(2, 0), (0, 3), (2, 3)]
        assert rep.member((2, -3)) and rep.member((4, 3))
        assert not rep.member((1, 0)) and not rep.member((1, 1))
        # combined witness for a member that was never swept directly
        y = rep.witness((4, 3))
        comb = T.from_ground((2 + 1) / s)  # 4/2 + 3/3 = 3
        assert (y.derive() - comb * y).is_zero()

    def test_a_planted_recombination_defect_is_caught(self, gf,
                                                      monkeypatch):
        # doubled transform rows recombine the raw witnesses into y^2 for
        # each basis row y, which the log-derivative check refuses
        def doubled(rows, width):
            basis, transform = _hnf_with_transform(rows, width)
            return basis, [[2 * c for c in row] for row in transform]

        monkeypatch.setattr("galint.galois.resonance._hnf_with_transform",
                            doubled)
        T = AlgebraicTower(gf)
        h = (T.from_ground(1 / (2 * gf.s)), T.from_ground(1 / (3 * gf.s)))
        with pytest.raises(VerificationFailed,
                           match="recombined lattice witness failed"):
            relation_lattice(h, 3)

    def test_square_root_pair_lattice(self, gf):
        s, alpha = gf.s, gf.gen("alpha")
        T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
        h1 = T.from_ground(alpha) / T.gen("w")
        rep = relation_lattice((h1, -h1), 3)
        assert rep.basis == [(1, 1)]
        assert rep.witnesses[(1, 1)].derive().is_zero()

    def test_unsound_candidates_land_inconclusive(self, gf):
        s = gf.s
        T = AlgebraicTower(gf).extend("w", 2, 1 + s**2)
        h = (T.gen("w") / T.from_ground(s**2),)
        rep = relation_lattice(h, 2)
        assert rep.basis == []
        assert rep.inconclusive == [(1,), (2,)]
        with pytest.raises(DegreeBoundExceeded):
            rep.query(1, (2,))

    def test_nested_tower_rank_two(self, gf):
        s, alpha = gf.s, gf.gen("alpha")
        T1 = AlgebraicTower(gf).extend("w1", 2, s)
        T2 = T1.extend("w2", 2, 2 + 2 * T1.gen("w1") + s)
        T = T2.extend("w3", 2, 2 - 2 * T2.gen("w1") + s)
        w1, w2, w3 = T.gen("w1"), T.gen("w2"), T.gen("w3")
        one = T.one
        n1, n2 = one + w1 + w2, one + w1 - w2
        n3, n4 = one - w1 + w3, one - w1 - w3
        # the conjugate node products are units
        assert (n1 * n2 + 1).is_zero() and (n3 * n4 + 1).is_zero()
        a = T.from_ground(alpha)
        u2, u3 = w2 * w2, w3 * w3
        base2 = u2.derive() / (4 * u2)
        base3 = u3.derive() / (4 * u3)
        h = (base2 + a * n1.derive() / n1,
             base2 + a * n2.derive() / n2,
             base3 + a * n3.derive() / n3,
             base3 + a * n4.derive() / n4)
        rep = relation_lattice(h, 1)
        assert rep.basis == [(1, 1, 0, 0), (0, 0, 1, 1)]
        assert rep.rank == 2
        assert len(h) - rep.rank == 2
        assert rep.inconclusive == []
        # the paired witnesses are constant multiples of w2 resp. w3
        y12 = rep.witnesses[(1, 1, 0, 0)]
        y34 = rep.witnesses[(0, 0, 1, 1)]
        assert (y12.derive() * w2 - y12 * w2.derive()).is_zero()
        assert (y34.derive() * w3 - y34 * w3.derive()).is_zero()
        assert rep.res == [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)]
        assert not rep.query(2, (1, 1, 0, 0))  # H^k/H_2 = H_1, not in field
        v = rep.query(2, (1, 2, 0, 0))
        assert v and (v.witness.derive() * w2 - v.witness * w2.derive()).is_zero()

    def test_residue_rows_drop_non_affine_places(self, gf):
        # h1 = alpha^2/s + 1/(s-1) has a non-affine residue at 0 and at
        # infinity, so only the place 1 constrains the sweep
        s, alpha = gf.s, gf.gen("alpha")
        T = AlgebraicTower(gf)
        h = [T.from_ground(alpha**2 / s + 1 / (s - 1)),
             T.from_ground(alpha / (s - 1))]
        assert _residue_rows(T, h) == [
            (1, [Exponent(1), Exponent(0, {"alpha": 1})])]

    def test_k_max_validation(self, gf):
        T = AlgebraicTower(gf)
        h = (T.from_ground(1 / gf.s),)
        with pytest.raises(InputError):
            relation_lattice(h, 0)
        with pytest.raises(InputError):
            relation_lattice((), 2)


def test_hnf_transform_consistency():
    rows = [(2, 4), (3, 6)]
    basis, tr = _hnf_with_transform(rows, 2)
    assert basis == [(1, 2)]
    for brow, urow in zip(basis, tr):
        acc = [0, 0]
        for c, r in zip(urow, rows):
            acc = [x + c * y for x, y in zip(acc, r)]
        assert tuple(acc) == brow
    basis2, _ = _hnf_with_transform([(2, 0), (3, 3)], 2)
    assert basis2 == [(1, 3), (0, 6)]
    basis3, _ = _hnf_with_transform([], 3)
    assert basis3 == []


# ---------------------------------------------------------------------------
# diophantine_eval
# ---------------------------------------------------------------------------

class TestDiophantine:
    def test_golden_angle_stays_diophantine(self):
        theta = 0.6180339887498949
        rep = diophantine_eval(angles=[theta], nu_max=18)
        assert rep.verdict == "diophantine-up-to-nu_max"
        assert rep.nu_reached == 18 and len(rep.shells) == 18
        assert rep.hit is None and rep.notes == []
        # independent brute-force oracle: the quantity swept is
        # dist(k*theta - theta) = ||(k-1) theta||, k <= 2^18
        qs = np.arange(1, 2**18, dtype=np.float64)
        fr = qs * theta % 1.0
        dd = np.minimum(fr, 1.0 - fr)
        q0 = int(qs[dd.argmin()])
        assert q0 == 196418  # a Fibonacci number
        assert rep.shells[-1].arg_k == (q0 + 1,) and rep.shells[-1].arg_j == 1
        dist = min((q0 * Fraction(theta)) % 1, 1 - (q0 * Fraction(theta)) % 1)
        assert rep.shells[-1].eps_min == pytest.approx(
            2 * math.sin(math.pi * float(dist)), rel=1e-12)
        sums = rep.partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert all(row.ratio < 2.0 for row in rep.shells)

    def test_exact_rational_hit(self):
        rep = diophantine_eval(angles=[(0.1, 0.2)], nu_max=6)
        assert rep.verdict == "resonant-hit"
        j, k, eps = rep.hit
        assert j == 2 and k == (2, 0) and eps == 0.0
        assert rep.nu_reached == 1
        assert rep.shells[-1].partial == float("inf")
        # a larger horizon can never flip a hit
        rep2 = diophantine_eval(angles=[(0.1, 0.2)], nu_max=12)
        assert rep2.verdict == "resonant-hit"
        assert rep2.hit[:2] == (2, (2, 0))

    def test_eigenvalue_inputs(self):
        lam = [cmath.exp(2j * math.pi * 0.15), cmath.exp(2j * math.pi * 0.30)]
        rep = diophantine_eval(lam, nu_max=4)
        assert rep.verdict == "resonant-hit"
        j, k, eps = rep.hit
        assert j == 2 and k == (2, 0)
        assert 0 <= eps < 1e-9
        assert rep.hit_tol == pytest.approx(1e-9)

    def test_liouville_number_flags_divergence(self):
        th = Fraction(110001000000000000000001, 10**24)
        assert th == sum(Fraction(1, 10)**math.factorial(m)
                         for m in range(1, 5))
        rep = diophantine_eval(angles=[th], nu_max=20)
        assert rep.verdict == "divergence-suspected"
        last = rep.shells[-1]
        assert last.nu == 20 and last.arg_k == (10**6 + 1,)
        # dist((10^6+1) th - th) = || 10^6 th || = 10^-18 exactly
        assert last.eps_min == pytest.approx(2 * math.pi * 1e-18, rel=1e-6)
        assert last.ratio >= 2.0
        assert all(row.ratio < 2.0 for row in rep.shells[:-1])
        sums = rep.partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_unimodular_change_keeps_category(self):
        base = [(Fraction(3, 7), Fraction(2, 7))]
        assert diophantine_eval(angles=base, nu_max=5).verdict == "resonant-hit"
        for U in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 0], [-3, 1]]):
            img = [tuple(sum(U[a][b] * row[b] for b in range(2))
                         for a in range(2))
                   for row in base]
            rep = diophantine_eval(angles=img, nu_max=5)
            assert rep.verdict == "resonant-hit"

    def test_work_limit_truncates_gracefully(self):
        rep = diophantine_eval(angles=[0.6180339887498949], nu_max=12,
                               work_limit=100)
        assert rep.nu_reached < 12
        assert any("truncated" in n for n in rep.notes)
        assert rep.verdict == "diophantine-up-to-nu_max"

    def test_compositions_match_the_filtered_product(self):
        for d in (2, 3, 4):
            for t in range(11):
                want = [k for k in itertools.product(range(t + 1), repeat=d)
                        if sum(k) == t]
                got = [tuple(int(x) for x in row)
                       for row in _compositions(t, d)]
                assert got == want, (d, t)

    def test_three_angle_shells(self):
        # three columns: each shell is enumerated as compositions of t,
        # so nu_max = 8 is quick; the rows through 6 are pinned from the
        # sweep over the filtered product
        th = [[Fraction(1, 7) + Fraction(1, 1000003),
               Fraction(2, 11) + Fraction(1, 999983),
               Fraction(3, 13) + Fraction(1, 1000033)]]
        rep = diophantine_eval(angles=th, nu_max=6)
        assert rep.verdict == "divergence-suspected"
        assert rep.hit is None and rep.notes == []
        far = 4.3982165200216476e-05
        assert [tuple(r) for r in rep.shells] == [
            (1, 2, 0.34352429615879637, 3, (2, 0, 0), 0.5342487193227647,
             0.5342487193227647, 1.5415159559364648),
            (2, 4, 0.34352429615879637, 3, (2, 0, 0), 0.26712435966138237,
             0.8013730789841471, 0.7707579779682324),
            (3, 8, far, 1, (8, 0, 0), 1.2539657928219645,
             2.0553388718061116, 4.824240615329722),
            (4, 16, far, 1, (8, 0, 0), 0.6269828964109823,
             2.682321768217094, 3.6181804614972912),
            (5, 32, far, 1, (8, 0, 0), 0.31349144820549113,
             2.995813216422585, 2.894544369197833),
            (6, 64, far, 1, (8, 0, 0), 0.15674572410274556,
             3.1525589405253305, 2.412120307664861),
        ]
        assert diophantine_eval(angles=th, nu_max=8).nu_reached == 8

    def test_places_mode_substitutes_params(self):
        pl = SingularPlace(Fraction(0), 1,
                           (Exponent(0, {"alpha": 1}),
                            Exponent(0, {"alpha": 2})))
        rep = diophantine_eval(places=[pl], params={"alpha": Fraction(1, 3)})
        assert rep.verdict == "resonant-hit"
        assert rep.hit == (1, (0, 2), 0.0)
        assert rep.params == {"alpha": Fraction(1, 3)}
        with pytest.raises(InputError):
            diophantine_eval(places=[pl], params={})

    def test_angles_from_places(self):
        pl1 = SingularPlace(Fraction(0), 1,
                            (Exponent(Fraction(1, 4)),
                             Exponent(0, {"alpha": 1})))
        pl2 = SingularPlace(INF, 2,
                            (Exponent(Fraction(1, 2)),
                             Exponent(Fraction(1, 3), {"alpha": -1})))
        rows = angles_from_places([pl1, pl2], {"alpha": Fraction(5, 4)})
        assert rows == [(Fraction(1, 4), Fraction(1, 4)),
                        (Fraction(1, 2), Fraction(1, 12))]
        ragged = [pl1, SingularPlace(Fraction(1), 1, (Exponent(0),))]
        with pytest.raises(InputError):
            angles_from_places(ragged, {"alpha": 0})

    def test_input_validation(self):
        with pytest.raises(InputError):
            diophantine_eval()
        with pytest.raises(InputError):
            diophantine_eval([1.0], angles=[0.5])
        with pytest.raises(InputError):
            diophantine_eval([complex(2, 0)])  # off the unit circle
        with pytest.raises(InputError):
            diophantine_eval(angles=[0.5], nu_max=0)
        with pytest.raises(InputError):
            diophantine_eval(angles=[])
        with pytest.raises(InputError):
            diophantine_eval(angles=[(0.1, 0.2), (0.3,)])

    def test_precision_loss_guard(self):
        lam = [cmath.exp(2j * math.pi * 0.3),
               cmath.exp(2j * math.pi * (0.6 - 1e-15))]
        with pytest.raises(PrecisionLoss):
            diophantine_eval(lam, nu_max=2, hit_tol=1e-20)
        # the default tolerance treats the same data as a hit
        rep = diophantine_eval(lam, nu_max=2)
        assert rep.verdict == "resonant-hit"

    def test_json_round_trip(self):
        rep = diophantine_eval(angles=[(0.1, 0.2)], nu_max=3)
        blob = json.dumps(rep.to_json_dict(), sort_keys=True)
        data = json.loads(blob)
        assert data["verdict"] == "resonant-hit"
        assert data["hit"]["j"] == 2 and data["hit"]["k"] == [2, 0]
        assert data["shells"][-1]["partial_sum"] == "inf"
        assert data["nu_max"] == 3
