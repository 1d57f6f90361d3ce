"""Return-premium frontier closed form against the KKT oracle."""

import math

import numpy as np
import pytest

from evospace import FrontierProblem, efficient_frontier, kkt_oracle, rng_for
from evospace.errors import ConfigError, ModelError


def random_spd(rng, d):
    R = rng.standard_normal((d, d))
    return R @ R.T + 0.5 * np.eye(d)


def stationarity_residual(problem, point):
    """|alpha Gamma b - lambda_r Gamma delta - lambda_n 1| of a KKT point."""
    p = problem
    res = p.alpha * (p.gamma @ point.b) - point.lambda_r * (p.gamma @ p.delta) \
        - point.lambda_n * np.ones(p.delta.shape[0])
    return float(np.linalg.norm(res))


class TestHandInstance:
    def test_zero_sum_pair(self):
        # identity metric, delta = (1,-1), n = alpha = premium = 1:
        # s=2, xi_b=4, returns = +-(1/2) sqrt(2*2*3) = +-sqrt(3)
        prob = FrontierProblem(np.eye(2), np.array([1.0, -1.0]), 1.0, 1.0)
        hi, lo = efficient_frontier(prob, 1.0)
        assert hi.r == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert lo.r == pytest.approx(-math.sqrt(3.0), rel=1e-12)
        for pt in (hi, lo):
            assert pt.premium == pytest.approx(1.0, rel=1e-10)
            assert float(np.sum(pt.b)) == pytest.approx(1.0, rel=1e-10)
            assert float(pt.b @ prob.gamma @ prob.delta) == \
                pytest.approx(pt.r, rel=1e-10)
            assert stationarity_residual(prob, pt) < 1e-10

    def test_min_premium_collapse(self):
        prob = FrontierProblem(np.eye(2), np.array([1.0, -1.0]), 1.0, 1.0)
        assert prob.min_premium == pytest.approx(0.25)
        hi, lo = efficient_frontier(prob, prob.min_premium)
        assert hi.r == pytest.approx(lo.r, abs=1e-12)
        # the budget-only minimiser (n/s) Gamma^{-1} 1
        assert np.allclose(hi.b, [0.5, 0.5], atol=1e-12)
        assert hi.premium == pytest.approx(0.25, rel=1e-12)


class TestBranches:
    def test_generic_instances(self):
        rng = rng_for(80)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            G = random_spd(rng, d)
            delta = rng.standard_normal(d)
            n = float(rng.uniform(0.2, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            alpha = float(rng.uniform(0.05, 1.5))
            prob = FrontierProblem(G, delta, n, alpha)
            if prob.is_degenerate:
                continue
            level = prob.min_premium * float(rng.uniform(1.0, 5.0))
            hi, lo = efficient_frontier(prob, level)
            assert hi.r >= lo.r
            for pt in (hi, lo):
                assert pt.premium == pytest.approx(level, rel=1e-8)
                assert float(np.sum(pt.b)) == pytest.approx(n, rel=1e-8)
                assert stationarity_residual(prob, pt) < 1e-8 * max(
                    1.0, abs(pt.lambda_r), abs(pt.lambda_n))

    def test_interior_returns_cost_less(self):
        rng = rng_for(81)
        G = random_spd(rng, 3)
        prob = FrontierProblem(G, rng.standard_normal(3), 1.0, 0.5)
        level = prob.min_premium * 3.0
        hi, lo = efficient_frontier(prob, level)
        for lam in (0.25, 0.5, 0.75):
            r_mid = lo.r + lam * (hi.r - lo.r)
            assert kkt_oracle(prob, r_mid).premium <= level * (1 + 1e-10)
        for r_out in (hi.r + 0.5 * (hi.r - lo.r) + 1e-6,
                      lo.r - 0.5 * (hi.r - lo.r) - 1e-6):
            assert kkt_oracle(prob, r_out).premium > level

    def test_zero_sum_branch_symmetric(self):
        rng = rng_for(82)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            G = random_spd(rng, d)
            # residual direction orthogonal to the budget vector
            raw = rng.standard_normal(d)
            q = np.linalg.solve(G, np.ones(d))
            delta = raw - (np.sum(raw) / np.sum(q)) * q
            if np.linalg.norm(delta) < 1e-8:
                continue
            prob = FrontierProblem(G, delta, 1.0, 1.0)
            assert abs(prob.cap_delta) < 1e-8
            level = prob.min_premium * 2.5
            hi, lo = efficient_frontier(prob, level)
            assert hi.r == pytest.approx(-lo.r, rel=1e-8)
            assert hi.premium == pytest.approx(level, rel=1e-8)

    def test_degenerate_branch_forced_return(self):
        rng = rng_for(83)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            G = random_spd(rng, d)
            c = float(rng.uniform(0.3, 3.0))
            delta = c * np.linalg.solve(G, np.ones(d))
            prob = FrontierProblem(G, delta, 1.0, 1.0)
            assert prob.is_degenerate
            forced = prob.cap_delta * prob.n / prob.s
            hi, lo = efficient_frontier(prob, 10.0)
            assert hi.r == pytest.approx(forced, rel=1e-9)
            assert lo.r == pytest.approx(forced, rel=1e-9)
            pt = kkt_oracle(prob, forced)
            assert pt.lambda_r == 0.0
            with pytest.raises(ModelError):
                kkt_oracle(prob, forced + max(1.0, abs(forced)) * 1e-3)


class TestValidation:
    def test_problem_checks(self):
        with pytest.raises(ModelError):
            FrontierProblem(np.array([[1.0, 0.5], [0.0, 1.0]]),
                            np.ones(2), 1.0, 1.0)  # not symmetric
        with pytest.raises(ModelError):
            FrontierProblem(-np.eye(2), np.ones(2), 1.0, 1.0)
        with pytest.raises(ConfigError):
            FrontierProblem(np.eye(2), np.ones(2), 1.0, 0.0)
        with pytest.raises(ModelError):
            FrontierProblem(np.eye(2), np.ones(3), 1.0, 1.0)

    def test_frontier_checks(self):
        prob = FrontierProblem(np.eye(2), np.array([1.0, -1.0]), 1.0, 1.0)
        with pytest.raises(ConfigError):
            efficient_frontier(prob, prob.min_premium * 0.5)
        zero_n = FrontierProblem(np.eye(2), np.array([1.0, -1.0]), 0.0, 1.0)
        with pytest.raises(ConfigError):
            efficient_frontier(zero_n, 1.0)

    def test_nonfinite_frontier_rejected(self):
        # the closed form overflows at this premium; no point may carry
        # an infinite return or a NaN premium or budget
        prob = FrontierProblem(np.array([[2.0, 0.3], [0.3, 1.0]]),
                               np.array([1.0, -0.5]), 1.0, 0.1)
        with pytest.raises(ModelError, match="return inf is not finite"):
            efficient_frontier(prob, 1e308)
        with pytest.raises(ModelError, match="return -inf is not finite"):
            kkt_oracle(prob, -np.inf)

    def test_degeneracy_gap_nonnegative(self):
        rng = rng_for(86)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            prob = FrontierProblem(random_spd(rng, d),
                                   rng.standard_normal(d), 1.0, 1.0)
            assert prob.degeneracy_gap >= -1e-9
