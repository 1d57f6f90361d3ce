"""Diagnostics and exact combinatorial oracles."""

from fractions import Fraction

import numpy as np
import pytest

from evospace import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                      IdentityPanel, MutationSet, agnostic_projection_oracle,
                      derangement_sign_det, empirical_performance, exen_ratio,
                      pdg_bruteforce, pdg_closed, projection_from_moments,
                      return_and_premium, rng_for)
from evospace.errors import ModelError
from evospace.model import Sample


def quartic_gen():
    # phi'' = 12u^2 + 2 stays within [2, 50] for |u| <= 2
    return BregmanGenerator.custom(
        value=lambda u: float(np.sum(u ** 4 + u ** 2)),
        gradient=lambda u: 4.0 * u ** 3 + 2.0 * u,
        h_min=2.0, h_max=50.0)


def uniform_sample(rng, n, dim, lo=-1.0, hi=1.0):
    pts = rng.uniform(lo, hi, (n, dim))
    return Sample(points=pts, weights=np.full(n, 1.0 / n), size=n)


class TestExenRatio:
    def test_identity_panel_is_norm(self):
        panel = IdentityPanel(3)
        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, 3)), seed=0)
        f = np.array([0.3, -0.4, 1.2])
        rep = exen_ratio(f, panel, sampler)
        assert rep.rho == pytest.approx(float(np.linalg.norm(f)), rel=1e-12)
        assert rep.var_expression == pytest.approx(0.0, abs=1e-18)
        assert rep.encoding_norm == pytest.approx(float(np.linalg.norm(f)))

    def test_constant_expression_half(self):
        # expressed norm 1 everywhere while the encoding norm is 2: the
        # genome reads only the first column, which is 0.5 on every condition
        panel = DataColumnPanel(2)
        sampler = ConditionSampler.from_callable(
            lambda rng, m: np.column_stack([np.full(m, 0.5),
                                            rng.standard_normal(m)]), seed=1)
        rep = exen_ratio(np.array([2.0, 0.0]), panel, sampler)
        assert rep.rho == pytest.approx(0.5, rel=1e-12)
        assert rep.mean_expression == pytest.approx(1.0, rel=1e-12)

    def test_positive_scaling(self):
        panel = DataColumnPanel(2)
        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.uniform(-1, 1, (m, 2)), seed=3)
        f = np.array([0.4, 0.9])
        base = exen_ratio(f, panel, sampler)
        for c in (0.5, 2.0, 7.3):
            scaled = exen_ratio(c * f, panel, sampler)
            assert scaled.rho == pytest.approx(c * base.rho, rel=1e-10)

    def test_zero_encoding_rejected(self):
        panel = IdentityPanel(2)
        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, 2)), seed=4)
        with pytest.raises(ModelError):
            exen_ratio(np.zeros(2), panel, sampler)


class TestReturnPremium:
    KINDS = {
        "squared_euclidean": BregmanGenerator.squared_euclidean,
        "mahalanobis": lambda: BregmanGenerator.mahalanobis(
            np.array([[2.0, 0.3], [0.3, 1.0]])),
        "quartic": quartic_gen,
    }

    def gain_identity_case(self, gen, rng, panel, out_dim):
        B = MutationSet(rng.uniform(-0.5, 0.5, (2, 3)))
        f = rng.uniform(-0.5, 0.5, 2)
        alpha = float(rng.uniform(0.01, 0.4))
        sample = uniform_sample(rng, 10, 2)
        targets = rng.uniform(-0.8, 0.8, (10, out_dim))
        i = int(rng.integers(0, 3))
        pol = 1 if rng.uniform() < 0.5 else -1
        r, p = return_and_premium(f, i, pol, alpha, B, panel, sample,
                                  targets, gen)
        mutant = f + alpha * pol * B.column(i)
        gain = empirical_performance(mutant, targets, panel, sample, gen) - \
            empirical_performance(f, targets, panel, sample, gen)
        assert gain == pytest.approx(alpha * (r - p), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_gain_decomposition_identity(self, kind):
        # performance gain of any mutant = alpha * (return - premium)
        gen = self.KINDS[kind]()
        rng = rng_for(("gain", kind))
        out_dim = 1 if kind == "quartic" else 2
        panel = DataColumnPanel(2) if kind == "quartic" else IdentityPanel(2)
        for _ in range(1000):
            self.gain_identity_case(gen, rng, panel, out_dim)

    def test_return_vanishes_at_target(self):
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        rng = rng_for(70)
        f = np.array([0.3, -0.6])
        sample = uniform_sample(rng, 12, 2)
        targets = np.tile(f, (12, 1))  # organism already matches the target
        B = MutationSet.orthonormal(2)
        for i in range(2):
            for pol in (1, -1):
                r, _ = return_and_premium(f, i, pol, 0.1, B, panel, sample,
                                          targets, gen)
                assert r == pytest.approx(0.0, abs=1e-14)

    def test_premium_closed_form_squared_euclidean(self):
        gen = BregmanGenerator.squared_euclidean()
        panel = DataColumnPanel(2)
        rng = rng_for(71)
        sample = uniform_sample(rng, 20, 2)
        B = MutationSet(rng.uniform(-1, 1, (2, 2)))
        f = rng.uniform(-1, 1, 2)
        targets = rng.uniform(-1, 1, (20, 1))
        alpha = 0.07
        for i in range(2):
            b_out = panel.express(sample.points, B.column(i))
            want = alpha * float(sample.weights @
                                 np.einsum("ij,ij->i", b_out, b_out))
            for pol in (1, -1):
                _, p = return_and_premium(f, i, pol, alpha, B, panel, sample,
                                          targets, gen)
                assert p == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        sample = uniform_sample(rng_for(72), 5, 2)
        B = MutationSet.orthonormal(2)
        t = np.zeros((5, 2))
        with pytest.raises(ModelError):
            return_and_premium(np.zeros(2), 0, 2, 0.1, B, panel, sample, t, gen)
        with pytest.raises(ModelError):
            return_and_premium(np.zeros(2), 0, 1, 0.0, B, panel, sample, t, gen)


class TestProjection:
    def test_moments_hand_case(self):
        c, perf = projection_from_moments(np.diag([2.0, 1.0]),
                                          np.array([2.0, 1.0]), 5.0)
        assert np.allclose(c, [1.0, 1.0])
        assert perf == pytest.approx(-2.0)

    def test_moments_singular_rejected(self):
        with pytest.raises(ModelError):
            projection_from_moments(np.zeros((2, 2)), np.zeros(2), 1.0)

    def test_target_in_span_recovered(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        t = S @ np.array([0.4, -0.2])
        t_in, opt = agnostic_projection_oracle(t, S, np.eye(3))
        assert np.allclose(t_in, t, atol=1e-12)
        assert opt == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_axis_case(self):
        t_in, opt = agnostic_projection_oracle(
            np.array([1.0, 1.0]), np.array([[1.0], [0.0]]), np.eye(2))
        assert np.allclose(t_in, [1.0, 0.0])
        assert opt == pytest.approx(-1.0)

    def test_weighted_axis_case(self):
        # metric diag(1,4): projection onto e1 unchanged, cost of the
        # dropped coordinate quadruples
        t_in, opt = agnostic_projection_oracle(
            np.array([1.0, 1.0]), np.array([[1.0], [0.0]]),
            np.diag([1.0, 4.0]))
        assert np.allclose(t_in, [1.0, 0.0])
        assert opt == pytest.approx(-4.0)

    def test_pythagoras_residual(self):
        # for f in the span, q(f-t) = q(f-t_in) + q(t_in-t) holds in the
        # metric since the residual is metric-orthogonal to the span
        rng = rng_for(73)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, d))
            R = rng.standard_normal((d, d))
            G = R @ R.T + 0.5 * np.eye(d)
            S = rng.standard_normal((d, k))
            t = rng.standard_normal(d)
            t_in, opt = agnostic_projection_oracle(t, S, G)

            def q(v):
                return float(v @ G @ v)

            assert opt == pytest.approx(-q(t_in - t), rel=1e-9, abs=1e-12)
            for _ in range(100):
                f = S @ rng.standard_normal(k)
                resid = q(f - t) - q(f - t_in) - q(t_in - t)
                assert abs(resid) <= 1e-8 * max(1.0, q(f - t))

    def test_shape_and_definiteness_checks(self):
        with pytest.raises(ModelError):
            agnostic_projection_oracle(np.ones(2), np.ones((3, 1)), np.eye(2))
        with pytest.raises(ModelError):
            agnostic_projection_oracle(np.ones(2), np.ones((2, 1)),
                                       -np.eye(2))


class TestPdgOracle:
    def test_exact_rational_agreement(self):
        rng = rng_for(74)
        for dG in range(1, 8):
            for _ in range(20):
                z = Fraction(int(rng.integers(-20, 21)),
                             int(rng.integers(1, 21)))
                assert pdg_closed(dG, z) == pdg_bruteforce(dG, z)

    def test_degree_eight_exact(self):
        z = Fraction(3, 7)
        assert pdg_closed(8, z) == pdg_bruteforce(8, z)

    def test_small_closed_forms(self):
        assert pdg_closed(1, Fraction(5, 3)) == 1
        z = Fraction(1, 4)
        assert pdg_closed(2, z) == z * (2 - z)
        assert pdg_bruteforce(2, z) == 1 - (1 - z) ** 2

    def test_float_agreement(self):
        assert pdg_closed(5, 0.3) == pytest.approx(pdg_bruteforce(5, 0.3),
                                                   rel=1e-12)

    def test_size_limit(self):
        with pytest.raises(ModelError):
            pdg_bruteforce(9, Fraction(1, 2))
        with pytest.raises(ModelError):
            pdg_closed(0, 1.0)


class TestDerangementOracle:
    def test_closed_form_one_to_nine(self):
        for j in range(1, 10):
            assert derangement_sign_det(j) == (-1) ** (j - 1) * (j - 1)

    def test_hand_values(self):
        assert derangement_sign_det(2) == -1
        assert derangement_sign_det(3) == 2
        assert derangement_sign_det(5) == 4

    def test_size_limit(self):
        with pytest.raises(ModelError):
            derangement_sign_det(10)
        with pytest.raises(ModelError):
            derangement_sign_det(0)
