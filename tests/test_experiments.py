"""Scenario-level tests: datasets, drift mechanics, dwell stats, reports."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from evospace import experiments
from evospace.engine import EvolutionConfig, run_evolution
from evospace.errors import ConfigError, ModelError
from evospace.experiments import (
    _UNSUP,
    MeanEstimationModel,
    ScenarioConfig,
    _dwell_stats,
    _hulls_overlap,
    _mean_problem,
    _mean_window,
    _mixture_for,
    _perceptron_separable,
    gen_gaussian_mixture,
    run_frontier_scaling,
    run_scenario,
    run_seed,
)
from evospace.kernels import dot, dot_floats
from evospace.model import ConditionSampler, MutationSet, rng_for

SEED_TABLE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "seed_table.json")


def dumps(report) -> str:
    return json.dumps(report, sort_keys=True)


def raw_perceptron(X, y, max_updates=4000) -> bool:
    """The perceptron loop of _perceptron_separable, without the hull certificate."""
    Xa = np.column_stack([X, np.ones(X.shape[0])])
    w = np.zeros(Xa.shape[1])
    for _ in range(max_updates):
        bad = np.nonzero((Xa @ w) * y <= 0)[0]
        if bad.size == 0:
            return True
        w += y[bad[0]] * Xa[bad[0]]
    return False


def lp_strictly_separable(X, y) -> bool:
    """Whether some (w, b) has y_i (w.x_i + b) >= 1 for every i, by linear programming."""
    A = -y[:, None] * np.column_stack([X, np.ones(X.shape[0])])
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=-np.ones(X.shape[0]),
                  bounds=[(None, None)] * A.shape[1], method="highs")
    assert res.status in (0, 2), res.message   # feasible or infeasible
    return res.status == 0


XOR_CORNER = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
XOR_X = np.vstack([XOR_CORNER + c for c in ([1, 1], [-1, -1], [1, -1], [-1, 1])])
XOR_Y = np.repeat([1.0, 1.0, -1.0, -1.0], 3)


class TestScenarioConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            ScenarioConfig("quantum_mean", seeds=[0])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig("drift", seeds=[])

    def test_seeds_coerced_to_int(self):
        cfg = ScenarioConfig("drift", seeds=[np.int64(3), "4"])
        assert cfg.seeds == [3, 4]
        assert all(type(s) is int for s in cfg.seeds)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match=r"duplicate seeds \[3, 5\]"):
            ScenarioConfig("drift", seeds=[5, 3, "5", 1, 3])

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(ConfigError, match="epsilon"):
            ScenarioConfig("drift", seeds=[0], epsilon=eps)

    def test_epsilon_one_is_allowed(self):
        assert ScenarioConfig("drift", seeds=[0], epsilon=1.0).epsilon == 1.0

    def test_overrides_must_be_mapping(self):
        with pytest.raises(ConfigError, match="overrides"):
            ScenarioConfig("drift", seeds=[0], overrides="m_override=5")

    def test_unknown_override_key_lists_allowed(self):
        cfg = ScenarioConfig("unsupervised_mean", seeds=[0],
                             overrides={"bogus_knob": 1})
        with pytest.raises(ConfigError, match="bogus_knob"):
            run_scenario(cfg)

    def test_zero_overrides_do_not_fall_back_to_the_schedule(self):
        cfg = ScenarioConfig("unsupervised_mean", seeds=[0], epsilon=0.25)
        opts = {key: spec[1] for key, spec in _UNSUP.items()}
        opts.update(m_override=0, t_override=0)
        data, schedule, m, t_steps = _mean_problem(cfg, opts)
        assert (m, t_steps) == (0, 0)
        pts = data[0][0]
        model = MeanEstimationModel(ConditionSampler.empirical(pts, seed=0),
                                    pts.mean(axis=0))
        for override in ({"m_override": 0}, {"t_override": 0}):
            with pytest.raises(ConfigError, match="m and t_steps must be >= 1"):
                run_seed(model, MutationSet.orthonormal(2), schedule, 0,
                         **override)

    def test_dispatch_uses_scenario_name(self):
        cfg = ScenarioConfig("unsupervised_mean", seeds=[0],
                             overrides={"m_override": 10, "t_override": 40})
        assert run_scenario(cfg)["scenario"] == "unsupervised_mean"


class TestMixtureData:
    def test_points_inside_unit_disk_with_both_labels(self):
        pts, labels = gen_gaussian_mixture(rng_for(("mix", 0)), 4)
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12
        assert set(np.unique(labels)) == {-1.0, 1.0}
        assert pts.shape[0] == labels.shape[0]
        assert pts.shape[1] == 2

    def test_deterministic_given_stream(self):
        a_pts, a_labs = gen_gaussian_mixture(rng_for(("mix", 7)), 3)
        b_pts, b_labs = gen_gaussian_mixture(rng_for(("mix", 7)), 3)
        assert np.array_equal(a_pts, b_pts)
        assert np.array_equal(a_labs, b_labs)

    def test_needs_two_clusters(self):
        with pytest.raises(ConfigError, match="cluster"):
            gen_gaussian_mixture(rng_for(0), 1)

    def test_perceptron_accepts_separable(self):
        X = np.array([[0.0, 1.0], [0.1, 2.0], [0.0, -1.0], [-0.1, -2.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert _perceptron_separable(X, y)

    def test_perceptron_rejects_xor(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        assert not _perceptron_separable(X, y)

    def test_certificate_claims_xor_clusters(self):
        assert _hulls_overlap(XOR_X, XOR_Y)
        assert not _perceptron_separable(XOR_X, XOR_Y)

    @pytest.mark.parametrize("X, y", [
        # the classes share one boundary point: no strict separator, but no
        # overlap beyond the tolerance either
        (np.array([[0.0, 0.0], [-1.0, 1.0], [-1.0, -1.0],
                   [0.0, 0.0], [1.0, 1.0], [1.0, -1.0]]),
         np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])),
        # a collinear class crossing the other class's hull
        (np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0],
                   [-1.0, 1.0], [1.0, -1.0], [0.0, 0.5], [0.5, 0.0]]),
         np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])),
        # a class of two points
        (np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [2.0, 0.0]]),
         np.array([1.0, 1.0, -1.0, -1.0, -1.0])),
        # one class only
        (XOR_X, np.ones(XOR_X.shape[0])),
        # 3-D input, non-separable and separable
        (np.column_stack([XOR_X, np.zeros(XOR_X.shape[0])]), XOR_Y),
        (np.column_stack([XOR_X, XOR_Y]), XOR_Y),
    ], ids=["touching", "collinear", "two_points", "one_class", "3d_xor",
            "3d_separable"])
    def test_certificate_falls_through_to_perceptron(self, X, y):
        assert not _hulls_overlap(X, y)
        assert _perceptron_separable(X, y) == raw_perceptron(X, y)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 50),
           gap=st.floats(-1.0, 0.3), decimals=st.sampled_from([0, 1, 2, None]))
    def test_certificate_claims_only_non_separable(self, seed, n, gap, decimals):
        # labels by a random line, then the classes are pulled apart (gap > 0)
        # or pushed into each other (gap < 0) along its normal
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (n, 2))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        y = np.where(X @ u >= 0.0, 1.0, -1.0)
        X[y < 0] -= gap * u
        if decimals is not None:
            # coarse grids make duplicates, collinear runs and touching hulls
            X = np.round(X, decimals)
        if _hulls_overlap(X, y):
            assert not lp_strictly_separable(X, y)
            assert not raw_perceptron(X, y)

    def test_drift_data_tries_match_seed_table(self):
        # the certificate only skips perceptron runs whose answer it knows,
        # so every seed still needs the draws the benchmark's table lists
        with open(SEED_TABLE) as fh:
            table = json.load(fh)["drift"]
        assert [_mixture_for(s, _mean_window)[2] for s in range(50)] == table[:50]

    def test_mixture_for_respects_accept_window(self):
        pts, labels, tries = _mixture_for(11, _mean_window)
        mu = pts.mean(axis=0)
        r = float(np.linalg.norm(mu))
        assert 0.4 <= r <= 0.8
        assert abs(abs(mu[0]) - abs(mu[1])) <= 0.25
        assert tries >= 0

    def test_mixture_for_deterministic(self):
        a = _mixture_for(5)
        b = _mixture_for(5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2] == 0

    def test_mixture_for_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "_MIXTURE_TRIES", 3)
        with pytest.raises(ModelError, match="admissible dataset for seed 0 in 3 draws"):
            _mixture_for(0, lambda pts, labels: False)


class TestMeanEstimationModel:
    def make(self, mu0, **kw):
        data = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, 0.1], [0.2, -0.1]])
        sampler = ConditionSampler.empirical(data, seed=0)
        return MeanEstimationModel(sampler, np.asarray(mu0, float), **kw)

    def test_negative_drift_rejected(self):
        with pytest.raises(ConfigError, match="nonneg"):
            self.make([0.0, 0.0], nu=-0.01)

    def test_zero_drift_holds_target(self):
        model = self.make([0.5, 0.2])
        for step in range(5):
            model.draw(step, 3, np.zeros(2))
        assert np.array_equal(model.t_cur, np.array([0.5, 0.2]))
        assert model.drift_steps == 0

    def test_adversarial_drift_moves_away_from_coords(self):
        model = self.make([1.0, 0.0], nu=0.25)
        model.draw(0, 3, np.zeros(2))  # first evaluation: no move
        assert np.array_equal(model.t_cur, np.array([1.0, 0.0]))
        model.draw(1, 3, np.zeros(2))
        assert np.allclose(model.t_cur, [1.25, 0.0], atol=1e-15)
        model.draw(2, 3, np.array([1.25, -1.0]))
        # unit step along t_cur - coords
        assert np.allclose(model.t_cur, [1.25, 0.25], atol=1e-15)
        assert model.drift_steps == 2

    def test_adversarial_fallback_when_on_target(self):
        model = self.make([0.3, 0.3], nu=0.1)
        model.draw(1, 3, np.array([0.3, 0.3]))
        assert np.allclose(model.t_cur, [0.4, 0.3], atol=1e-15)

    @pytest.mark.parametrize("nu", [0.01, 0.0], ids=["adversarial", "stationary"])
    def test_reused_instance_repeats_its_run(self, nu):
        model = self.make([0.5, 0.2], nu=nu)
        config = EvolutionConfig(
            mutations=MutationSet.orthonormal(2), alpha=0.05, tol=0.01, m=3,
            t_steps=40, seed=1, failure_policy="forced_uniform", epsilon=0.1)
        first = run_evolution(model, config)
        t_first = model.t_cur.copy()
        second = run_evolution(model, config)
        assert second.trace.rows() == first.trace.rows()
        assert second.initial_true_perf == first.initial_true_perf
        assert second.final_true_perf == first.final_true_perf
        assert np.array_equal(second.organism.coords, first.organism.coords)
        assert np.array_equal(model.t_cur, t_first)
        assert model.drift_steps == (39 if nu else 0)

    def test_true_perf_is_negative_squared_distance(self):
        model = self.make([0.5, -0.2], nu=0.3)
        model.draw(1, 3, np.zeros(2))
        c = np.array([0.1, 0.4])
        expect = -float((c - model.t_cur) @ (c - model.t_cur))
        assert model.true_perf(c, step=3) == pytest.approx(expect, rel=1e-12)

    def test_draw_center_tracks_drift_offset(self):
        model = self.make([0.5, 0.2], nu=0.0)
        data = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, 0.1], [0.2, -0.1]])
        twin = ConditionSampler.empirical(data, seed=0)
        A, center, const = model.draw(1, 3, np.zeros(2))
        # the center comes as a list of Python floats, which score reads as is
        assert isinstance(center, list)
        center = np.array(center)
        assert np.array_equal(A, np.eye(2))
        assert np.allclose(center, twin.draw(1, 3).points.mean(axis=0),
                           atol=1e-15)
        assert const == pytest.approx(float(center @ center), rel=1e-12)

        drifted = self.make([0.5, 0.2], nu=0.2)
        _, center2, _ = drifted.draw(1, 3, np.zeros(2))
        offset = drifted.t_cur - drifted.mu0
        assert np.allclose(center2, center + offset, atol=1e-14)


class FixedMean:
    """A sampler stand-in whose every step has the sample mean ``mean``."""

    def __init__(self, mean):
        self.mean = np.asarray(mean, dtype=float)

    def reduce(self, step, m, fn):
        return (self.mean.copy(),)


def numpy_draw(t_cur, mu0, nu, coords, mean):
    """The target and (center, const) of a drift step, formed on numpy
    2-vectors: the reference for MeanEstimationModel.draw's float form."""
    if nu != 0.0:
        d = t_cur - np.asarray(coords, dtype=float)
        nrm = float(np.sqrt(dot(d, d)))
        d = np.eye(len(mu0))[0] if nrm < 1e-15 else d / nrm
        t_cur = t_cur + nu * d
    center = (mean + (t_cur - mu0)).tolist()
    return t_cur, center, dot_floats(center, center)


def hexes(values) -> list:
    return [float.hex(float(v)) for v in values]


_BELOW, _ABOVE = math.nextafter(1e-15, 0.0), math.nextafter(1e-15, 1.0)
_coord = st.floats(-1e3, 1e3)


class TestFloatDrift:
    """The float drift and center against the numpy reference, byte for byte
    (float.hex tells -0.0 from +0.0)."""

    @settings(max_examples=200, deadline=None)
    @given(mu0=st.tuples(_coord, _coord),
           mean=st.tuples(_coord | st.just(-0.0), _coord | st.just(-0.0)),
           nu=st.just(0.0) | st.floats(1e-12, 10.0),
           moves=st.lists(st.none() | st.tuples(_coord, _coord),
                          min_size=1, max_size=6),
           as_array=st.booleans())
    # coords on the target: the unit fallback
    @example(mu0=(0.3, -0.2), mean=(0.1, 0.1), nu=0.1, moves=[None, None],
             as_array=False)
    # the norm just below and just above 1e-15: the fallback moves along the
    # first axis, the normal step along the second
    @example(mu0=(0.0, 0.0), mean=(0.1, 0.1), nu=0.1, moves=[(0.0, -_BELOW)],
             as_array=False)
    @example(mu0=(0.0, 0.0), mean=(0.1, 0.1), nu=0.1, moves=[(0.0, -_ABOVE)],
             as_array=True)
    # a squared norm that overflows to inf, and a NaN coordinate
    @example(mu0=(1e154, 1.5e154), mean=(0.1, 0.1), nu=0.1,
             moves=[(-1e154, -1.5e154), (0.0, 1.0)], as_array=False)
    @example(mu0=(0.3, -0.2), mean=(0.1, 0.1), nu=0.1,
             moves=[(math.nan, 0.0)], as_array=True)
    # a -0.0 mean component comes out +0.0, with and without drift
    @example(mu0=(0.3, -0.2), mean=(-0.0, 0.1), nu=0.0, moves=[(0.0, 0.0)],
             as_array=False)
    @example(mu0=(0.3, -0.2), mean=(-0.0, -0.0), nu=0.1, moves=[(0.0, 0.0)],
             as_array=True)
    def test_draw_matches_numpy_reference(self, mu0, mean, nu, moves, as_array):
        mu0, mean = np.array(mu0), np.array(mean)
        with np.errstate(over="ignore"):   # mu0 . mu0 of the starting triple
            model = MeanEstimationModel(FixedMean(mean), mu0, nu=nu)
        t_ref = mu0
        for step, move in enumerate([(0.0, 0.0), *moves]):
            coords = t_ref.tolist() if move is None else list(move)
            if as_array:
                coords = np.array(coords)
            _, center, const = model.draw(step, 5, coords)
            with np.errstate(over="ignore", invalid="ignore"):
                # step 0 starts the target over and does not move it
                t_ref, want, want_const = numpy_draw(
                    mu0 if step == 0 else t_ref, mu0, nu if step else 0.0,
                    coords, mean)
            assert hexes(model.t_cur) == hexes(t_ref)
            assert hexes(center) == hexes(want)
            assert float.hex(float(const)) == float.hex(want_const)
        assert model.drift_steps == (len(moves) if nu else 0)


class PerStepSampler(ConditionSampler):
    """Reference sampler: each step's rows from its own rng_for(seed, step)."""

    def _step_block(self, index, m):
        return None

    def _stream(self, index):
        return rng_for(self.seed, index)


class TestMeanBlocks:
    """Block means against a model whose every step draws through rng_for."""

    def models(self, rows=30, dim=2, seed=6):
        data = rng_for(("block-means", rows)).standard_normal((rows, dim))
        mu0 = data.mean(axis=0)
        return (MeanEstimationModel(ConditionSampler.empirical(data, seed=seed), mu0),
                MeanEstimationModel(PerStepSampler.empirical(data, seed=seed), mu0))

    @staticmethod
    def run(model, m, t_steps):
        return run_evolution(model, EvolutionConfig(
            mutations=MutationSet.orthonormal(model.mu0.shape[0]), alpha=0.05,
            tol=0.01, m=m, t_steps=t_steps, seed=3,
            failure_policy="forced_uniform", epsilon=0.1))

    def test_runs_across_block_edges_match_per_step_draws(self):
        # m = 40: blocks of 1,638 steps, so the run crosses two block edges
        model, reference = self.models()
        want = self.run(reference, 40, 3400).trace.rows()
        assert self.run(model, 40, 3400).trace.rows() == want

    def test_reused_model_and_another_m_on_the_same_sampler(self):
        model, reference = self.models()
        for m in (40, 40, 7, 40):
            want = self.run(reference, m, 1700).trace.rows()
            assert self.run(model, m, 1700).trace.rows() == want

    def test_large_samples_are_drawn_per_step(self):
        # m = 256 is served from a block of 256 steps; m = 257 and 40,000
        # (<= 4n) draw per step
        model, reference = self.models(rows=10_000, dim=3)
        coords = np.zeros(3)
        for step, m in ((0, 256), (1, 257), (2, 40_000), (255, 256), (1, 40_000)):
            assert np.array_equal(model.draw(step, m, coords)[1],
                                  reference.draw(step, m, coords)[1])


class TestDwellStats:
    def result(self, flags):
        return np.array(flags, dtype=bool)

    def test_never_hits(self):
        stats = _dwell_stats(self.result([False, False, False]), 2)
        assert stats == {"hit_step": None, "dwell": 0, "dwell_ok": False,
                         "window_complete": False}

    def test_full_window_held(self):
        stats = _dwell_stats(self.result([False, True, True, True, False]), 2)
        assert stats == {"hit_step": 1, "dwell": 2, "dwell_ok": True,
                         "window_complete": True}

    def test_window_broken(self):
        stats = _dwell_stats(
            self.result([False, True, True, False, True]), 3)
        assert stats["hit_step"] == 1
        assert stats["dwell"] == 1
        assert not stats["dwell_ok"]
        assert stats["window_complete"]

    def test_incomplete_window_not_ok(self):
        stats = _dwell_stats(self.result([False, False, True, True]), 3)
        assert stats["hit_step"] == 2
        assert stats["dwell"] == 1
        assert not stats["dwell_ok"]
        assert not stats["window_complete"]

    def test_hit_on_last_step(self):
        stats = _dwell_stats(self.result([False, True]), 1)
        assert stats["hit_step"] == 1
        assert not stats["window_complete"]
        assert not stats["dwell_ok"]

    def test_exact_fit(self):
        stats = _dwell_stats(self.result([True, True, True]), 2)
        assert stats == {"hit_step": 0, "dwell": 2, "dwell_ok": True,
                         "window_complete": True}

    @settings(max_examples=300, deadline=None)
    @given(flags=st.lists(st.booleans(), min_size=1, max_size=40),
           dwell=st.integers(1, 10))
    def test_matches_the_per_row_loop(self, flags, dwell):
        # the per-row loop the column version replaced, kept as the reference
        hit = next((i for i, f in enumerate(flags) if f), None)
        if hit is None:
            expected = {"hit_step": None, "dwell": 0, "dwell_ok": False,
                        "window_complete": False}
        else:
            window = flags[hit + 1: hit + 1 + dwell]
            run_len = 0
            for f in window:
                if not f:
                    break
                run_len += 1
            expected = {"hit_step": hit, "dwell": run_len,
                        "dwell_ok": len(window) >= dwell and run_len == dwell,
                        "window_complete": len(window) >= dwell}
        assert _dwell_stats(self.result(flags), dwell) == expected


SMALL_UNSUP = {"m_override": 40, "t_override": 250}


class TestUnsupervisedScenario:
    def test_report_shape_and_determinism(self):
        cfg = lambda: ScenarioConfig("unsupervised_mean", seeds=[0, 1],
                                     overrides=dict(SMALL_UNSUP))
        first = run_scenario(cfg())
        second = run_scenario(cfg())
        assert dumps(first) == dumps(second)

        assert first["m"] == 40 and first["t_steps"] == 250
        assert set(first) >= {"schedule", "margin", "per_seed",
                              "success_fraction", "far_bene_steps",
                              "monotonic_fraction", "mu_hat_variance_m5_mean"}
        assert len(first["per_seed"]) == 2
        row = first["per_seed"][0]
        assert set(row) >= {"seed", "data_tries", "mu", "success",
                            "initial_true_perf", "final_true_perf", "failed",
                            "bene_steps", "neut_steps", "far_bene_steps",
                            "far_bene_margin_ok", "mu_hat_variance_m5"}
        assert row["initial_true_perf"] <= 0.0
        assert 0.4 <= np.linalg.norm(row["mu"]) <= 0.8

    def test_output_files(self, tmp_path):
        # trace_limit counts seeds by their position in the list
        for kept, dropped in ((0, 1), (1, 0)):
            out = tmp_path / f"unsup-{kept}"
            cfg = ScenarioConfig("unsupervised_mean", seeds=[kept, dropped],
                                 overrides={**SMALL_UNSUP, "trace_limit": 1},
                                 out_dir=str(out))
            report = run_scenario(cfg)
            assert (out / "report.json").exists()
            assert (out / f"trace-{kept}.jsonl").exists()
            assert (out / f"perf-{kept}.csv").exists()
            assert (out / f"path-{kept}.csv").exists()   # kept seeds record the path
            assert not (out / f"trace-{dropped}.jsonl").exists()
            on_disk = json.loads((out / "report.json").read_text())
            assert dumps(on_disk) == dumps(json.loads(dumps(report)))


    def test_far_beneficial_counts_match_the_trace_rows(self, tmp_path):
        # the per-row loop the column version replaced, run over the written
        # trace, kept as the reference
        report = run_scenario(ScenarioConfig(
            "unsupervised_mean", seeds=[0, 1], overrides=dict(SMALL_UNSUP),
            out_dir=str(tmp_path)))
        for row in report["per_seed"]:
            far_bene = far_ok = 0
            prev = row["initial_true_perf"]
            with open(tmp_path / f"trace-{row['seed']}.jsonl") as fh:
                for rec in map(json.loads, fh):
                    if rec["failed"]:
                        break
                    if rec["bene_size"] > 0 and not rec["forced"] and prev < -0.1:
                        far_bene += 1
                        if rec["perf_true"] - prev >= report["margin"]:
                            far_ok += 1
                    prev = rec["perf_true"]
            assert far_bene > 0
            assert (row["far_bene_steps"], row["far_bene_margin_ok"]) == \
                (far_bene, far_ok)


class TestDriftScenario:
    def test_zero_drift_arm_matches_stationary_run_bytewise(self, tmp_path):
        seeds = [11]
        unsup_dir = tmp_path / "unsup"
        drift_dir = tmp_path / "drift"
        unsup = run_scenario(ScenarioConfig(
            "unsupervised_mean", seeds=seeds,
            overrides={"m_override": 5, "trace_limit": 1},
            out_dir=str(unsup_dir)))
        drift = run_scenario(ScenarioConfig(
            "drift", seeds=seeds,
            overrides={"multipliers": (0.0,), "extended_multipliers": (),
                       "trace_limit": 1},
            out_dir=str(drift_dir)))

        a = (unsup_dir / "trace-11.jsonl").read_bytes()
        b = (drift_dir / "trace-x0-11.jsonl").read_bytes()
        assert a == b and len(a) > 0

        arm = drift["arms"][0]
        assert arm["multiplier"] == 0.0 and arm["nu"] == 0.0
        row = arm["rows"][0]
        assert row["drift_steps"] == 0
        assert row["target_displacement"] == 0.0
        assert row["final_true_perf"] == \
            unsup["per_seed"][0]["final_true_perf"]
        assert drift["m"] == unsup["m"] == 5
        assert drift["t_steps"] == unsup["t_steps"]
        assert drift["extended_arms"] == []
        assert drift["drift_bound"] > 0.0
        assert drift["drift_plan"]["paper_compliant"] is True

    def test_displacement_scales_with_multiplier(self):
        report = run_scenario(ScenarioConfig(
            "drift", seeds=[3],
            overrides={"multipliers": (1.0, 4.0), "extended_multipliers": (),
                       "t_override": 200}))
        one, four = report["arms"]
        assert one["nu"] == pytest.approx(report["drift_bound"], rel=1e-12)
        assert four["nu"] == pytest.approx(4.0 * one["nu"], rel=1e-12)
        # adversarial steps have unit length, so displacement after T steps
        # is capped at (T-1) * nu; flips when the organism overshoots keep it
        # strictly below but nowhere near zero
        r1, r4 = one["rows"][0], four["rows"][0]
        assert r1["drift_steps"] == r4["drift_steps"] == 199
        for row, arm in ((r1, one), (r4, four)):
            cap = 199 * arm["nu"]
            assert 0.5 * cap < row["target_displacement"] <= cap * (1 + 1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_but_finite_drift_still_runs(self):
        # 1e150 times the bound moves the target about 1e143 in 20 steps,
        # whose square is still a float; 1e308 is rejected (tests/test_cli.py)
        report = run_scenario(ScenarioConfig(
            "drift", seeds=[0],
            overrides={"multipliers": (1e150,), "extended_multipliers": (),
                       "m_override": 5, "t_override": 20}))
        [row] = report["arms"][0]["rows"]
        assert row["drift_steps"] == 19
        assert math.isfinite(row["final_true_perf"])
        assert 0.0 < row["target_displacement"] < math.inf


class TestStabilityScenario:
    def test_dwell_validated(self):
        with pytest.raises(ConfigError, match="dwell"):
            run_scenario(ScenarioConfig("stability", seeds=[0],
                                         overrides={"dwell": 0}))

    def test_start_must_be_outside_target_set(self):
        # the start sits 0.36 from the target, inside the target set (of
        # radius sqrt(epsilon)) from epsilon = 0.1296 on
        for eps in (0.1296, 0.2):
            with pytest.raises(ConfigError,
                               match=rf"epsilon must be < 0\.1296, got {eps}"):
                run_scenario(ScenarioConfig("stability", seeds=[0], epsilon=eps))

    def test_two_arm_report(self):
        report = run_scenario(ScenarioConfig(
            "stability", seeds=[0, 1], epsilon=0.1,
            overrides={"dwell": 5, "t_override": 400,
                       "comparison_t_override": 200}))
        assert report["dwell"] == 5
        assert report["stable_knobs_pass_sharpened_region"] is True
        stable, default = report["stable_arm"], report["default_arm"]
        assert stable["knobs"] != default["knobs"]
        for arm in (stable, default):
            assert len(arm["rows"]) == 2
            assert 0.0 <= arm["dwell_fraction"] <= arm["hit_fraction"] <= 1.0
            for row in arm["rows"]:
                assert set(row) >= {"hit_step", "dwell", "dwell_ok",
                                    "window_complete", "alpha", "tol"}
        assert report["dwell_fraction_gap"] == pytest.approx(
            stable["dwell_fraction"] - default["dwell_fraction"])
        # dwell-aware arm uses a smaller step knob, hence a smaller alpha
        assert stable["rows"][0]["alpha"] < default["rows"][0]["alpha"]


class TestAgnosticScenario:
    def test_projection_decomposition_in_report(self):
        report = run_scenario(ScenarioConfig(
            "agnostic", seeds=[5],
            overrides={"m_override": 200, "t_override": 150,
                       "check_samples": 4000}))
        assert set(report) >= {"sigma", "t_in_norm", "t_out_dist", "per_seed",
                               "success_fraction",
                               "max_abs_pythagoras_residual"}
        # cross term of the orthogonal split shrinks with the check sample
        assert report["max_abs_pythagoras_residual"] < 0.05
        row = report["per_seed"][0]
        assert row["span_optimum"] <= 0.0
        assert row["relative_perf"] <= 0.0
        assert row["schedule"]["m"] == 200

    def test_deterministic(self):
        cfg = lambda: ScenarioConfig(
            "agnostic", seeds=[5],
            overrides={"m_override": 200, "t_override": 60,
                       "check_samples": 1000})
        assert dumps(run_scenario(cfg())) == dumps(run_scenario(cfg()))


class TestSupervisedScenario:
    def test_report_cross_references_drops(self):
        report = run_scenario(ScenarioConfig(
            "supervised_linear", seeds=[3],
            overrides={"t_override": 400}))
        assert report["knobs"] == [0.02, 0.94, 0.02]
        row = report["per_seed"][0]
        assert row["baseline_perf"] <= 0.0
        assert row["w_star_norm"] <= 1.0 + 1e-9
        assert row["drops"] == row["drops_forced_or_neutral"] + \
            row["drops_on_beneficial"]
        assert report["drops_total"] == row["drops"]
        if report["drops_total"]:
            assert 0.0 <= report["drops_forced_or_neutral_fraction"] <= 1.0
        else:
            assert report["drops_forced_or_neutral_fraction"] is None
        assert report["seeds_with_failures"] == \
            (1 if row["forced_steps"] > 0 else 0)
        total = row["bene_steps"] + row["neut_steps"] + row["forced_steps"]
        assert total == row["schedule"]["t_steps"] == 400


class TestFrontierScaling:
    def test_slopes_are_linear_in_epsilon(self):
        report = run_frontier_scaling(eps_list=(0.2, 0.1, 0.05), seed=2,
                                      dim=3)
        for branch in ("generic", "zero_sum"):
            sweep = report[branch]
            assert abs(sweep["slope_max_abs"] - 1.0) < 1e-8
            assert abs(sweep["slope_span"] - 1.0) < 1e-8
            for point in sweep["points"]:
                assert point["r_high"] > point["r_low"]
        # zero-sum residual directions give symmetric extreme returns
        for point in report["zero_sum"]["points"]:
            assert point["r_high"] == pytest.approx(-point["r_low"],
                                                    rel=1e-9)

    def test_deterministic(self):
        a = run_frontier_scaling(eps_list=(0.2, 0.1), seed=4)
        b = run_frontier_scaling(eps_list=(0.2, 0.1), seed=4)
        assert dumps(a) == dumps(b)

    def test_validation(self):
        with pytest.raises(ConfigError, match="two epsilon"):
            run_frontier_scaling(eps_list=(0.1,))
