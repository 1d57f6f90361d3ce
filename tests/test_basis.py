"""Basis quality scores and generating-subset selection."""

import math

import numpy as np
import pytest

from evospace import MutationSet, basis_quality, rng_for, select_bstar
from evospace.errors import ModelError


class TestQuality:
    def test_orthonormal_is_perfect(self):
        q = basis_quality(np.eye(3))
        assert q.b_h == pytest.approx(1.0)
        assert q.b_bar == pytest.approx(1.0)
        assert q.kappa_n == pytest.approx(0.0)
        assert q.kappa_a == pytest.approx(0.0)
        assert q.theta == pytest.approx(math.pi / 2)
        assert q.geo_mean_sq == pytest.approx(1.0)
        assert q.ari_mean_sq == pytest.approx(1.0)

    def test_scaling_leaves_b_bar_alone(self):
        B = rng_for(60).standard_normal((4, 4))
        q1 = basis_quality(B)
        q5 = basis_quality(5.0 * B)
        assert q5.b_bar == pytest.approx(q1.b_bar, rel=1e-10)
        assert q5.b_h == pytest.approx(5.0 * q1.b_h, rel=1e-10)

    def test_near_collinear_angle_discount(self):
        # second vector 1 degree away from the first
        eps = math.radians(1.0)
        B = np.array([[1.0, math.cos(eps)], [0.0, math.sin(eps)]])
        q = basis_quality(B)
        assert q.theta == pytest.approx(eps, rel=1e-6)
        assert q.kappa_a > 0.99
        assert q.b_bar < 0.01

    def test_norm_imbalance_discount(self):
        B = np.diag([1.0, 100.0])
        q = basis_quality(B)
        assert q.kappa_a == pytest.approx(0.0)
        assert q.kappa_n > 0.9
        assert q.geo_mean_sq == pytest.approx(100.0)
        assert q.ari_mean_sq == pytest.approx(5000.5)

    def test_single_vector(self):
        q = basis_quality(np.array([[3.0], [4.0]]))
        assert q.b_h == pytest.approx(5.0)
        assert q.b_bar == pytest.approx(1.0)
        assert q.kappa_a == 0.0 and q.theta == pytest.approx(math.pi / 2)

    def test_axis_pair_hand_values(self):
        # e1 and 2 e2: squared norms 1, 4 -> G=2, A=2.5, kappa_n = 0.2;
        # right angle -> kappa_a = 0; B_H = 0.8 * (1+2)/2 = 1.2
        q = basis_quality(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert q.kappa_n == pytest.approx(0.2, rel=1e-12)
        assert q.kappa_a == 0.0
        assert q.b_h == pytest.approx(1.2, rel=1e-12)
        assert q.b_bar == pytest.approx(0.6, rel=1e-12)

    def test_random_bases_invariants(self):
        rng = rng_for(61)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            B = rng.standard_normal((d, d))
            try:
                q = basis_quality(B)
            except ModelError:
                continue  # a draw can be numerically rank deficient
            assert q.b_h > 0.0
            assert 0.0 < q.b_bar <= 1.0
            assert 0.0 <= q.kappa_n < 1.0
            assert 0.0 <= q.kappa_a < 1.0
            assert 0.0 < q.theta <= math.pi / 2 + 1e-12
            assert q.geo_mean_sq <= q.ari_mean_sq + 1e-12

    def test_volume_dominates_quality_for_pairs(self):
        # with two vectors the normalised Gram volume provably dominates
        # the corrected mean norm; for three or more it need not (see below)
        rng = rng_for(65)
        for _ in range(1000):
            B = rng.standard_normal((2, 2))
            try:
                q = basis_quality(B)
            except ModelError:
                continue
            assert q.tilde_volume >= q.b_h - 1e-12

    def test_volume_can_undershoot_quality_for_triples(self):
        # pairwise angles do not control the Gram volume of three vectors:
        # a near-coplanar triple keeps moderate pairwise angles (so a
        # moderate corrected mean norm) while its volume collapses
        v3 = np.array([1.0, 1.0, 0.05 * math.sqrt(2.0)]) / math.sqrt(2.0)
        B = np.column_stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             v3 / np.linalg.norm(v3)])
        q = basis_quality(B)
        assert q.tilde_volume < q.b_h

    def test_rejects_degenerate(self):
        with pytest.raises(ModelError):
            basis_quality(np.array([[1.0, 2.0], [2.0, 4.0]]))  # collinear
        with pytest.raises(ModelError):
            basis_quality(np.array([[1.0, 0.0], [0.0, 0.0]]))  # zero column
        with pytest.raises(ModelError):
            basis_quality(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSelection:
    def test_picks_orthonormal_pair(self):
        # two orthonormal columns plus a nearly-collinear spoiler
        B = np.array([[1.0, 0.0, 0.999], [0.0, 1.0, 0.04]])
        sel = select_bstar(MutationSet(B / 1.0))
        assert sel.indices == (0, 1)
        assert sel.exhaustive
        assert sel.quality.b_bar == pytest.approx(1.0, rel=1e-6)

    def test_agnostic_uses_rank(self):
        B = np.array([[1.0, 2.0], [0.0, 0.0]])  # rank 1 in 2-dim gene space
        sel = select_bstar(MutationSet(B), agnostic=True)
        assert len(sel.indices) == 1
        with pytest.raises(ModelError):
            select_bstar(MutationSet(B))  # standard mode needs full rank

    def test_exhaustive_beats_heuristic(self):
        rng = rng_for(62)
        for _ in range(10):
            B = rng.standard_normal((3, 7))
            ex = select_bstar(MutationSet(B))
            he = select_bstar(MutationSet(B), force_heuristic=True, restarts=5)
            assert ex.exhaustive and not he.exhaustive
            assert ex.quality.b_bar >= he.quality.b_bar - 1e-12

    def test_heuristic_deterministic(self):
        B = rng_for(63).standard_normal((4, 12))
        a = select_bstar(MutationSet(B), force_heuristic=True)
        b = select_bstar(MutationSet(B), force_heuristic=True)
        assert a.indices == b.indices
        assert a.quality.b_bar == b.quality.b_bar

    def test_selection_quality_matches_direct(self):
        B = rng_for(64).standard_normal((3, 6))
        sel = select_bstar(MutationSet(B))
        direct = basis_quality(B[:, list(sel.indices)])
        assert sel.quality.b_bar == pytest.approx(direct.b_bar, rel=1e-12)
