"""Schedule derivation: knob regions, scale constants, run parameters, drift."""

import math

import numpy as np
import pytest

from evospace import (DEFAULT_KNOBS, BregmanGenerator, ConditionSampler,
                      IdentityPanel, KnobTriple, ModelConstants, MutationSet,
                      compute_schedule, conditioning_scale, drift_bound,
                      estimate_model_constants, knob_region_check,
                      make_drift_plan, rng_for, stable_knob_example)
from evospace.errors import ConfigError


def identity_constants():
    """Exact constants for the 2-dim identity panel with squared-euclidean
    divergence and orthonormal mutations; no estimation noise involved."""
    return ModelConstants(h_min=2.0, h_max=2.0, mu_min=1.0, mu_max=1.0,
                          dG=2, dF=2, b_bar=1.0, b_quality=1.0,
                          max_b_norm=1.0, e_b_out_sq=np.array([1.0, 1.0]),
                          sup_single=3.0, bstar_indices=(0, 1))


def region_flags(knobs):
    """Straight-line recheck of the admissible region inequalities."""
    zt, za, zl = knobs.z_tau, knobs.z_alpha, knobs.z_tol
    pos = zt > 0 and za > 0 and zl > 0
    gap = zl - zt * za > 0
    quad = za * za - za * (1.0 - zt) + zl <= 0
    return pos and gap and quad


class TestKnobRegion:
    def test_default_triple_admissible(self):
        assert tuple(DEFAULT_KNOBS) == (1 / 9, 1 / 3, 2 / 27)
        assert knob_region_check(DEFAULT_KNOBS)

    def test_rejected_triple(self):
        # quadratic condition evaluates to 1 - 1 (1 - 1/3) + 1 = 4/3 > 0
        bad = KnobTriple(z_tau=1 / 3, z_alpha=1.0, z_tol=1.0)
        assert not knob_region_check(bad)
        za, zt, zl = 1.0, 1 / 3, 1.0
        assert za * za - za * (1 - zt) + zl == pytest.approx(4 / 3)

    def test_random_triples_match_recheck(self):
        rng = rng_for(50)
        hits = 0
        for _ in range(1000):
            knobs = KnobTriple(*(rng.uniform(0.0, 0.6, 3)))
            got = knob_region_check(knobs)
            assert got == region_flags(knobs)
            hits += got
        assert hits > 0  # the sampler does land inside sometimes

    def test_margin_positive_inside_region(self):
        rng = rng_for(51)
        found = 0
        while found < 50:
            knobs = KnobTriple(*(rng.uniform(0.0, 0.5, 3)))
            if knob_region_check(knobs):
                assert knobs.z_tol - knobs.z_tau * knobs.z_alpha > 0
                found += 1

    def test_stable_example_in_both_regions(self):
        u = conditioning_scale(identity_constants(), 1)
        knobs = stable_knob_example(50, u, 2.0, 2.0)
        assert knob_region_check(knobs, stable=True, dwell=50, u=u,
                                 h_min=2.0, h_max=2.0)
        assert knob_region_check(knobs)

    def test_stable_example_frozen_values(self):
        # dwell 50, u = 2 sqrt(2e): a = 50/u, b = 2
        u = 2.0 * math.sqrt(2.0 * math.e)
        knobs = stable_knob_example(50, u, 2.0, 2.0)
        a, b = 50.0 / u, 2.0
        assert knobs.z_tau == pytest.approx(1 / (4 * b), rel=1e-12)
        assert knobs.z_alpha == pytest.approx(1 / (32 * (a + b)), rel=1e-12)
        assert knobs.z_tol == pytest.approx(1 / (64 * b * (a + b)), rel=1e-12)
        assert knobs.z_tau == pytest.approx(0.125, rel=1e-12)
        assert knobs.z_alpha == pytest.approx(2.4563654074800643e-3, rel=1e-9)
        assert knobs.z_tol == pytest.approx(6.140913518700161e-4, rel=1e-9)

    def test_default_not_stable_for_long_dwell(self):
        u = conditioning_scale(identity_constants(), 1)
        assert not knob_region_check(DEFAULT_KNOBS, stable=True, dwell=50,
                                     u=u, h_min=2.0, h_max=2.0)

    def test_stable_needs_parameters(self):
        with pytest.raises(ConfigError):
            knob_region_check(DEFAULT_KNOBS, stable=True)

    def test_stable_acceptance_implies_standard(self):
        rng = rng_for(52)
        checked = 0
        for _ in range(3000):
            knobs = KnobTriple(*(rng.uniform(0.0, 0.3, 3)))
            if knob_region_check(knobs, stable=True, dwell=5, u=10.0,
                                 h_min=1.0, h_max=2.0):
                assert knob_region_check(knobs)
                checked += 1
        assert checked > 0


class TestScheduleFrozen:
    """Straight-line recheck of every schedule formula on exact constants."""

    def straight_line(self, eps, horizon, c_t, c_m, m_cap):
        zt, za, zl = 1 / 9, 1 / 3, 2 / 27
        u = (2.0 ** 1.5 / 2.0 ** 1.5) * (2.0 * math.sqrt(math.e * 2)) * horizon
        v = 2.0 * 1.0
        mv = max(1.0, v)
        tol = zl * eps ** 2 / (u * u * mv)
        alpha = za * eps / (u * mv)
        tau = zt * eps / u
        margin = tol - alpha * tau
        t_exact = (2.0 * 1.0 / 2.0) * 1.0 * horizon ** 2 / margin
        t_steps = max(1, math.ceil(c_t * t_exact))
        m_exact = (4.0 * 9.0 / tau ** 2) * \
            (1.0 * horizon ** 2 + alpha ** 2) * math.log(2 * t_steps / eps)
        m = int(min(m_cap, max(1, math.ceil(c_m * m_exact))))
        return u, v, tol, alpha, tau, margin, t_exact, t_steps, m_exact, m

    def test_horizon_one(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=1, c_t=0.02)
        u, v, tol, alpha, tau, margin, t_exact, t_steps, m_exact, m = \
            self.straight_line(0.1, 1, 0.02, 1.0, 50000)
        assert s.u == pytest.approx(u, rel=1e-12)
        assert s.v == pytest.approx(v, rel=1e-12)
        assert s.tol == pytest.approx(tol, rel=1e-12)
        assert s.alpha == pytest.approx(alpha, rel=1e-12)
        assert s.tau == pytest.approx(tau, rel=1e-12)
        assert s.margin == pytest.approx(margin, rel=1e-12)
        assert s.t_exact == pytest.approx(t_exact, rel=1e-12)
        assert s.t_steps == t_steps
        assert s.m_exact == pytest.approx(m_exact, rel=1e-12)
        assert s.m == m
        # frozen values
        assert s.u == pytest.approx(4.663287963194248, rel=1e-10)
        assert s.tol == pytest.approx(1.7031455609788998e-05, rel=1e-10)
        assert s.alpha == pytest.approx(0.003574016187336278, rel=1e-10)
        assert s.tau == pytest.approx(0.0023826774582241857, rel=1e-10)
        assert s.margin == pytest.approx(8.515727804894499e-06, rel=1e-10)
        assert s.t_steps == 2349
        assert s.m == 50000

    def test_horizon_four(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=4)
        u, v, tol, alpha, tau, margin, t_exact, t_steps, m_exact, m = \
            self.straight_line(0.1, 4, 1.0, 1.0, 50000)
        assert s.u == pytest.approx(u, rel=1e-12)
        assert s.tol == pytest.approx(tol, rel=1e-12)
        assert s.alpha == pytest.approx(alpha, rel=1e-12)
        assert s.tau == pytest.approx(tau, rel=1e-12)
        assert s.t_exact == pytest.approx(t_exact, rel=1e-12)
        assert s.m_exact == pytest.approx(m_exact, rel=1e-12)
        # frozen values
        assert s.u == pytest.approx(18.653151852776993, rel=1e-10)
        assert s.tol == pytest.approx(1.0644659756118124e-06, rel=1e-10)
        assert s.alpha == pytest.approx(0.0008935040468340695, rel=1e-10)
        assert s.tau == pytest.approx(0.0005956693645560464, rel=1e-10)
        assert s.margin == pytest.approx(5.322329878059062e-07, rel=1e-10)
        assert s.t_exact == pytest.approx(30062022.397294268, rel=1e-10)
        assert s.m == 50000

    def test_default_margin_is_half_tol(self):
        # z_tol - z_tau z_alpha = 2/27 - 1/27, exactly half of z_tol
        s = compute_schedule(0.25, DEFAULT_KNOBS, identity_constants(),
                             horizon=3)
        assert s.margin == pytest.approx(s.tol / 2.0, rel=1e-12)


class TestScheduleBehavior:
    def test_horizon_from_coordinates(self):
        c = identity_constants()
        s = compute_schedule(0.1, DEFAULT_KNOBS, c,
                             f0=np.zeros(2), t_coords=np.array([3.5, 0.0]),
                             c_t=0.001)
        assert s.horizon == 4
        s2 = compute_schedule(0.1, DEFAULT_KNOBS, c,
                              f0=np.zeros(2), t_coords=np.array([0.1, 0.0]),
                              c_t=0.001)
        assert s2.horizon == 1

    def test_validation(self):
        c = identity_constants()
        with pytest.raises(ConfigError):
            compute_schedule(0.0, DEFAULT_KNOBS, c, horizon=1)
        with pytest.raises(ConfigError):
            compute_schedule(1.5, DEFAULT_KNOBS, c, horizon=1)
        with pytest.raises(ConfigError):
            compute_schedule(0.1, KnobTriple(1 / 3, 1.0, 1.0), c, horizon=1)
        with pytest.raises(ConfigError):
            compute_schedule(0.1, DEFAULT_KNOBS, c)  # no horizon, no coords
        with pytest.raises(ConfigError):
            compute_schedule(0.1, DEFAULT_KNOBS, c, horizon=0)

    @pytest.mark.parametrize("constant", ["c_t", "c_m"])
    def test_non_finite_sizing_names_its_constant(self, constant):
        with pytest.raises(ConfigError, match=f"{constant} \\* "):
            compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=1, **{constant: 1e308})

    def test_non_finite_horizon_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             f0=np.zeros(2), t_coords=np.array([1e308, 1e308]))

    def test_m_cap_binds(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=1, m_cap=123)
        assert s.m == 123

    def test_c_t_scaling(self):
        c = identity_constants()
        full = compute_schedule(0.1, DEFAULT_KNOBS, c, horizon=1)
        frac = compute_schedule(0.1, DEFAULT_KNOBS, c, horizon=1, c_t=0.5)
        assert frac.t_steps == math.ceil(0.5 * full.t_exact)
        assert frac.t_exact == full.t_exact

    def test_stable_dwell_gate(self):
        c = identity_constants()
        with pytest.raises(ConfigError):
            compute_schedule(0.1, DEFAULT_KNOBS, c, horizon=1, stable_dwell=50)
        u = conditioning_scale(c, 1)
        knobs = stable_knob_example(50, u, c.h_min, c.h_max)
        s = compute_schedule(0.1, knobs, c, horizon=1, stable_dwell=50)
        assert s.margin > 0

    def test_to_dict_round_trip_fields(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=2)
        d = s.to_dict()
        assert d["alpha"] == s.alpha and d["m"] == s.m
        assert d["knobs"]["z_tol"] == 2 / 27
        assert d["constants"]["dG"] == 2


class TestEstimatedConstants:
    def test_identity_panel_exact(self):
        panel = IdentityPanel(2)
        B = MutationSet.orthonormal(2)
        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, 2)), seed=0)
        gen = BregmanGenerator.squared_euclidean()
        c = estimate_model_constants(panel, B, sampler, gen)
        assert c.h_min == 2.0 and c.h_max == 2.0
        assert c.mu_min == pytest.approx(1.0, abs=1e-12)
        assert c.mu_max == pytest.approx(1.0, abs=1e-12)
        assert c.dG == 2 and c.dF == 2
        assert c.b_bar == pytest.approx(1.0)
        assert np.allclose(c.e_b_out_sq, 1.0)
        assert c.sup_single == pytest.approx(3.0)  # 2 x safety 1.5
        assert c.max_b_norm == pytest.approx(1.0)

    def test_agnostic_restricts_to_span(self):
        panel = IdentityPanel(2)
        B = MutationSet(np.array([[1.0], [0.0]]))
        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, 2)), seed=1)
        gen = BregmanGenerator.squared_euclidean()
        c = estimate_model_constants(panel, B, sampler, gen, agnostic=True)
        assert c.dG == 1 and c.dF == 1
        assert c.mu_min == pytest.approx(1.0, abs=1e-12)
        assert c.mu_max == pytest.approx(1.0, abs=1e-12)
        assert c.sup_single == pytest.approx(1.5)


class TestDrift:
    def test_bound_straight_line(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=1, c_t=0.02)
        want = (2 / 27 - (1 / 9) * (1 / 3)) * 0.1 ** 4 / \
            (2.0 * s.u ** 2 * s.v * (2.0 + 1.0))
        got = drift_bound(s)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1.4192879674824166e-08, rel=1e-10)

    def test_bound_horizon_four(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=4)
        want = (1 / 27) * 1e-4 / (2.0 * s.u ** 2 * 2.0 * (2.0 + 16.0))
        assert drift_bound(s) == pytest.approx(want, rel=1e-12)
        assert drift_bound(s) == pytest.approx(1.4784249661275174e-10, rel=1e-10)

    def test_plan_compliance_flag(self):
        s = compute_schedule(0.1, DEFAULT_KNOBS, identity_constants(),
                             horizon=1, c_t=0.02)
        plan = make_drift_plan(s)
        assert plan["nu"] == plan["bound"] == drift_bound(s)
        assert plan["paper_compliant"] is True
