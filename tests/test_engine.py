"""Mutator loop: neighborhoods, scoring, classification, selection, renewal."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from evospace import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                      EvolutionConfig, IdentityPanel, MutationSet,
                      QuadraticPerfModel, quadratic_stats_for, rng_for,
                      run_evolution)
from evospace import engine
from evospace.engine import MAX_STEPS, _classify, _signed_steps
from evospace.experiments import MeanEstimationModel
from evospace.errors import ConfigError, ModelError
from evospace.model import Sample, empirical_performance


def constant_stats_model(dim, cross=None, const=0.0):
    """perf(c) = -(|c|^2 - 2 c.cross + const), independent of the sample."""
    sampler = ConditionSampler.from_callable(
        lambda rng, m: rng.standard_normal((m, dim)), seed=0)
    cross = np.zeros(dim) if cross is None else np.asarray(cross, float)
    stats = (np.eye(dim), cross, const)
    return QuadraticPerfModel(sampler, lambda points, weights: stats,
                              true_stats=stats)


class LinearModel(QuadraticPerfModel):
    """perf(c) = sum(c), stats (0, 1/2, 0); every +1 mutant beneficial,
    every -1 harmful."""

    def __init__(self, dim):
        stats = (np.zeros((dim, dim)), np.full(dim, 0.5), 0.0)
        super().__init__(ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, dim)), seed=0),
            lambda points, weights: stats, stats)


class UncachedQuadratic(QuadraticPerfModel):
    """Recomputes the premiums on every call."""

    def score(self, stats, coords, steps, tol):
        self._premium_key = (None, None)
        return super().score(stats, coords, steps, tol)


class TestNeighborhood:
    def test_count_and_order(self):
        B = MutationSet(rng_for(40).standard_normal((3, 5)))
        steps = _signed_steps(B, alpha=0.05)
        assert steps.shape == (2 * B.dF, B.dG)
        for i in range(B.dF):
            assert np.allclose(steps[2 * i], 0.05 * B.column(i))
            assert np.allclose(steps[2 * i + 1], -0.05 * B.column(i))

    def test_gains_follow_the_order(self):
        model = constant_stats_model(3, cross=np.array([0.3, -0.1, 0.2]))
        stats = model.draw(0, 1, None)
        B = MutationSet(rng_for(45).standard_normal((3, 4)))
        c = np.array([0.1, -0.2, 0.3])
        perf_f, gains, _, _ = model.score(stats, c, _signed_steps(B, 0.05), 0.01)
        for i in range(B.dF):
            for row, sign in ((2 * i, 1.0), (2 * i + 1, -1.0)):
                mutant = c + sign * 0.05 * B.column(i)
                assert gains[row] == pytest.approx(
                    float(model._eval(stats, mutant)) - perf_f, abs=1e-14)

    def test_not_reflexive(self):
        steps = _signed_steps(MutationSet.orthonormal(3), alpha=0.01)
        assert np.all(np.linalg.norm(steps, axis=1) > 0)

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, -0.1):
            with pytest.raises(ConfigError):
                EvolutionConfig(mutations=MutationSet.orthonormal(2),
                                alpha=alpha, tol=0.1, m=1,
                                t_steps=1, epsilon=0.1)


class TestClassify:
    def test_tie_semantics(self):
        tol = 0.5
        base = 1.0
        # gains: +tol (bene, inclusive), -tol (neither), inside, above, below
        perfs = [1.5, 0.5, 1.2, 3.0, 0.0]
        bene, neut = _classify(np.asarray(perfs) - base, tol)
        assert list(bene) == [0, 3]
        assert list(neut) == [2]
        # index 1 (gain exactly -tol) and 4 (gain -1.0) are in neither class
        assert 1 not in set(bene) | set(neut)
        assert 4 not in set(bene) | set(neut)

    @settings(max_examples=300, deadline=None)
    @given(gains=st.lists(st.floats(-10.0, 10.0), max_size=20),
           tol=st.floats(1e-300, 5.0))
    def test_classes_disjoint_with_documented_ties(self, gains, tol):
        ties = [tol, -tol, np.nextafter(tol, 0.0), -np.nextafter(tol, 0.0),
                float("nan")]
        g = np.array(gains + ties)
        bene, neut = _classify(g, tol)
        assert not set(bene) & set(neut)
        assert bene == [i for i, v in enumerate(g) if v >= tol]
        assert neut == [i for i, v in enumerate(g) if abs(v) < tol]
        at_tol, at_minus_tol, below, above_minus, nan = range(len(gains), len(g))
        assert at_tol in bene                             # beneficial
        assert at_minus_tol not in np.r_[bene, neut]      # neither
        assert below in neut and above_minus in neut      # neutral
        assert nan not in np.r_[bene, neut]               # neither

    def test_tol_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.0, m=1, t_steps=1, epsilon=0.1)

    def test_scored_gains_classify_like_direct_divergences(self):
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        pts = rng_for(41).standard_normal((16, 2))
        sample = Sample(points=pts, weights=np.full(16, 1 / 16), size=16)
        # the oracle of standard normal points: -E|c - x|^2 = -(|c|^2 + 2)
        model = QuadraticPerfModel(None, quadratic_stats_for(panel, gen,
                                                             lambda P: P),
                                   (np.eye(2), np.zeros(2), 2.0))
        c = np.array([0.2, -0.4])
        steps = _signed_steps(MutationSet.orthonormal(2), alpha=0.3)
        perf_f, gains, b2, n2 = model.score(model.stats_fn(pts, sample.weights),
                                            c, steps, 0.01)

        def perf(coords):
            return empirical_performance(coords, sample.points, panel, sample, gen)

        direct = [perf(c + s) for s in steps]
        assert perf_f == pytest.approx(perf(c), rel=1e-12)
        assert gains == pytest.approx(np.asarray(direct) - perf(c), abs=1e-12)
        bene, neut = _classify(np.asarray(direct) - perf(c), 0.01)
        assert np.array_equal(bene, b2) and np.array_equal(neut, n2)

    @pytest.mark.parametrize("tol", [0.5, 1e-3, 3.0])
    @pytest.mark.parametrize("case", ["at_tol", "zero", "nan"])
    def test_scorer_classifies_ties_like_the_reference(self, tol, case):
        # one gene, quad = 0: the steps +1 and -1 gain 2 (s * cross) - 0.0,
        # which is exactly +-tol, +0.0 and -0.0, or NaN
        cross = {"at_tol": tol / 2, "zero": 0.0, "nan": float("nan")}[case]
        stats = (np.zeros((1, 1)), np.array([cross]), 0.0)
        model = QuadraticPerfModel(None, None, stats)
        _, gains, bene, neut = model.score(stats, [0.25], [[1.0], [-1.0]], tol)
        want = {"at_tol": [tol, -tol], "zero": [0.0, -0.0],
                "nan": [float("nan")] * 2}[case]
        assert np.array_equal(gains, want, equal_nan=True)
        assert [np.signbit(g) for g in gains] == [np.signbit(g) for g in want]
        assert (bene, neut) == _classify(gains, tol)
        assert (bene, neut) == {"at_tol": ([0], []), "zero": ([], [0, 1]),
                                "nan": ([], [])}[case]


class TestScore:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dG=st.integers(1, 5),
           dF=st.integers(1, 6), alpha=st.floats(1e-3, 1.0),
           tol=st.floats(1e-6, 1.0))
    def test_gain_identity_matches_direct_evaluation(self, seed, dG, dF,
                                                     alpha, tol):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1.0, 1.0, (dG, dG))
        stats = (A @ A.T, rng.uniform(-1.0, 1.0, dG), float(rng.uniform(0.0, 2.0)))
        f = rng.uniform(-1.0, 1.0, dG)
        B = MutationSet(rng.uniform(-1.0, 1.0, (dG, dF)) + 0.1)
        steps = _signed_steps(B, alpha)
        model = QuadraticPerfModel(None, None, stats)
        perf_f, gains, bene, neut = model.score(stats, f, steps, tol)
        assert (bene, neut) == _classify(gains, tol)

        def bound(expected):
            return np.maximum(1e-9 * np.abs(expected), 1e-12)

        direct_f = float(model._eval(stats, f))
        direct = model._eval(stats, f + steps) - direct_f
        assert abs(perf_f - direct_f) <= bound(direct_f)
        assert np.all(np.abs(gains - direct) <= bound(direct))
        clear = ((np.abs(direct - tol) > bound(direct))
                 & (np.abs(direct + tol) > bound(direct)))
        for got, want in zip(_classify(gains, tol), _classify(direct, tol)):
            assert np.array_equal(np.isin(np.nonzero(clear)[0], got),
                                  np.isin(np.nonzero(clear)[0], want))

    def test_premiums_recomputed_on_renewal_and_new_quad(self):
        quads = [np.array([[2.0, 0.3], [0.3, 0.5]]),
                 np.array([[0.7, -0.2], [-0.2, 1.5]])]
        cross = np.array([0.4, -0.3])

        def stats_fn():
            # the same quad object for three steps, then the other one; a
            # callable sampler reduces each step's sample in step order
            steps = itertools.count()
            return lambda points, weights: (quads[(next(steps) // 3) % 2],
                                            cross, 0.5)

        def renew(rng, step):
            return MutationSet(rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2))

        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, 2)), seed=0)
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.05,
                              tol=1e-4, m=1, t_steps=40, epsilon=0.1, seed=9,
                              failure_policy="forced_uniform",
                              renewal_period=4, renewal_fn=renew)
        true_stats = (quads[0], cross, 0.5)
        cached = run_evolution(QuadraticPerfModel(sampler, stats_fn(), true_stats),
                               cfg)
        fresh = run_evolution(UncachedQuadratic(sampler, stats_fn(), true_stats),
                              cfg)
        assert cached.trace.rows() == fresh.trace.rows()
        assert np.array_equal(cached.organism.coords, fresh.organism.coords)


class TestSelection:
    def test_uniform_over_beneficial(self):
        # all four +1 mutants beneficial every step; chi-square on the choice
        dim, steps = 4, 2000
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(dim),
                              alpha=0.1, tol=0.05, m=1, t_steps=steps, epsilon=0.1,
                              seed=3)
        res = run_evolution(LinearModel(dim), cfg)
        assert res.bene_steps == steps
        rows = res.trace.rows()
        counts = np.bincount([r["chosen_index"] for r in rows], minlength=dim)
        assert all(r["chosen_polarity"] == 1 for r in rows)
        assert sps.chisquare(counts).pvalue > 1e-3

    def test_neutral_fallback(self):
        # no mutant clears tol but all sit strictly inside it
        dim = 3
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(dim),
                              alpha=0.01, tol=10.0, m=1, t_steps=50, epsilon=0.1,
                              seed=4)
        res = run_evolution(LinearModel(dim), cfg)
        assert res.neut_steps == 50 and res.bene_steps == 0
        assert not res.failed


class TestSelectionDraw:
    """The raw-word reader against ``Generator.integers(0, k)`` call by call."""

    # k = 2**31 + 1 rejects about half of its draws, and 2**32 reads the
    # half as it is
    NEAR_2_32 = (2**31 + 1, 2**31 + 3, 3 * 2**30 + 7, 2**32 - 1, 2**32)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ks=st.lists(st.one_of(st.integers(1, 9),
                                 st.sampled_from(NEAR_2_32),
                                 st.integers(2**31, 2**32)),
                       min_size=1, max_size=60),
           words=st.integers(1, 3))
    def test_reader_equals_integers(self, seed, ks, words):
        # one to three raw words a refill, so most sequences span several
        want = rng_for((seed, "select"))
        select = engine._selections(rng_for((seed, "select")), words)
        assert [select(k) for k in ks] == [int(want.integers(0, k)) for k in ks]

    def test_long_runs_across_refills(self):
        # 3,000 draws of small pools span several refills of the default size
        ks = [int(k) for k in rng_for(("pools", 0)).integers(1, 10, 3000)]
        ks[::500] = [2**31 + 1] * 6
        want = rng_for((7, "select"))
        select = engine._selections(rng_for((7, "select")))
        assert [select(k) for k in ks] == [int(want.integers(0, k)) for k in ks]


class TestFailurePolicies:
    def test_strict_halts(self):
        # from the origin of perf = -|c|^2 every mutant loses alpha^2 >= tol
        model = constant_stats_model(2)
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2),
                              alpha=0.5, tol=0.1, m=1, t_steps=100, epsilon=0.1,
                              seed=5, record_path=True)
        res = run_evolution(model, cfg)
        assert res.failed and len(res.trace) == 1
        [row] = res.trace.rows()
        assert row["failed"] and row["chosen_index"] is None
        assert row["bene_size"] == 0 and row["neut_size"] == 0
        assert res.trace.moves == 0 and len(res.path) == 1
        assert np.allclose(res.organism.coords, 0.0)

    def test_forced_uniform_continues(self):
        model = constant_stats_model(2)
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2),
                              alpha=0.5, tol=0.1, m=1, t_steps=100, epsilon=0.1,
                              seed=5, failure_policy="forced_uniform")
        res = run_evolution(model, cfg)
        assert not res.failed
        assert len(res.trace) == 100
        assert res.forced_steps >= 1
        assert any(r["forced"] for r in res.trace.rows())
        assert res.forced_steps + res.bene_steps + res.neut_steps == 100

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=1, epsilon=0.1,
                            failure_policy="retry")

    @pytest.mark.parametrize("name", ["alpha", "tol", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_step_and_tolerance_must_be_finite(self, name, value):
        # a NaN alpha ran to the end with NaN coordinates, an infinite tol
        # made every mutant neutral, and a NaN epsilon flagged no row as in
        # target; zero and negative alpha and tol are rejected in
        # test_alpha_must_be_positive and test_tol_validation
        sizes = {"alpha": 0.1, "tol": 0.1, "epsilon": 0.1, name: value}
        with pytest.raises(ConfigError, match=f"^{name} must be positive and finite"):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), m=1,
                            t_steps=1, **sizes)

    def test_epsilon_is_required(self):
        # every run flags each row in or out of the epsilon target set
        with pytest.raises(TypeError, match="epsilon"):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=1)


class TestRenewal:
    def test_called_at_zero_and_period(self):
        calls = []

        def renew(rng, step):
            calls.append(step)
            return MutationSet.orthonormal(2)

        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2),
                              alpha=0.1, tol=0.05, m=1, t_steps=5, epsilon=0.1,
                              seed=6, renewal_period=2, renewal_fn=renew)
        run_evolution(LinearModel(2), cfg)
        assert calls == [0, 2, 4]

    def test_counts_stay_small_after_renewal(self):
        def renew(rng, step):
            return MutationSet.orthonormal(3)

        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(3),
                              alpha=0.1, tol=0.05, m=1, t_steps=10, epsilon=0.1,
                              seed=7, renewal_period=5, renewal_fn=renew)
        res = run_evolution(LinearModel(3), cfg)
        # last renewal at t=5, so at most 5 steps of counts accumulate
        assert np.abs(res.organism.counts).sum() <= 5

    @pytest.mark.parametrize("period", [0, -3])
    def test_period_below_one_rejected(self, period):
        with pytest.raises(ConfigError, match="renewal_period must be >= 1"):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=1, epsilon=0.1,
                            renewal_period=period,
                            renewal_fn=lambda rng, step: MutationSet.orthonormal(2))

    def test_period_without_fn_rejected(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=1, epsilon=0.1,
                            renewal_period=3)
        with pytest.raises(ConfigError):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=1, epsilon=0.1,
                            renewal_fn=lambda rng, step: MutationSet.orthonormal(2))


class TestBlockOracle:
    """The oracle column scored a block of steps at once against one scored
    a step at a time (blocks of one)."""

    @staticmethod
    def run_pair(monkeypatch, make, **config):
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2), **config)
        block = run_evolution(make(), cfg)
        monkeypatch.setattr(engine, "ORACLE_BLOCK", 1)
        step = run_evolution(make(), cfg)
        assert np.array_equal(block.trace.perf_true, step.trace.perf_true,
                              equal_nan=True)
        assert block.trace.rows() == step.trace.rows()
        assert block.final_true_perf == step.final_true_perf
        return block

    @pytest.mark.parametrize("t_steps", [1, 4095, 4096, 8192, 9001])
    def test_drifting_target_across_block_edges(self, monkeypatch, t_steps):
        data = rng_for(("oracle-blocks", 0)).standard_normal((50, 2)) * 0.2
        res = self.run_pair(
            monkeypatch, lambda: MeanEstimationModel(
                ConditionSampler.empirical(data, seed=4), data.mean(axis=0),
                nu=0.002),
            alpha=0.05, tol=1e-3, m=5, t_steps=t_steps, seed=4,
            failure_policy="forced_uniform", epsilon=0.1,
            f0=np.array([0.3, -0.2]))
        assert len(res.trace) == t_steps

    def test_halted_run(self, monkeypatch):
        data = rng_for(("golden-null", 0)).normal(0.0, 0.3, (40, 2)) + [0.3, -0.2]
        mu = data.mean(axis=0)

        def make():
            return QuadraticPerfModel(
                ConditionSampler.empirical(data, seed=2),
                quadratic_stats_for(IdentityPanel(2),
                                    BregmanGenerator.squared_euclidean(),
                                    lambda pts: pts),
                true_stats=(np.eye(2), mu, float(mu @ mu)))

        res = self.run_pair(monkeypatch, make, alpha=0.1, tol=0.005, m=20, t_steps=5000,
                            seed=2, epsilon=0.02, f0=np.array([-0.2, 0.3]))
        assert res.failed and np.isnan(res.trace.perf_true[-1])

    def test_longest_run_is_bounded(self):
        with pytest.raises(ConfigError, match="t_steps must be <="):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=MAX_STEPS + 1, epsilon=0.1)


class TestBlockFormedState:
    """Coordinates, counts, path and oracle column, formed a block at a time,
    against a step-by-step replay of the trace's chosen indices."""

    PERIOD = 700   # does not divide ORACLE_BLOCK

    @pytest.mark.parametrize("block", [1, engine.ORACLE_BLOCK])
    @pytest.mark.parametrize("alpha, tol, steps", [(0.02, 1e-4, 5404),
                                                   (0.01, 5e-5, 9000)],
                             ids=["strict-halt", "full-run"])
    def test_equals_a_step_by_step_replay(self, monkeypatch, block, alpha,
                                          tol, steps):
        monkeypatch.setattr(engine, "ORACLE_BLOCK", block)
        data = rng_for(("golden-null", 0)).normal(0.0, 0.3, (40, 2)) + [0.3, -0.2]
        mu = data.mean(axis=0)
        bases = []

        def renew(rng, step):
            bases.append(MutationSet(rng.uniform(-1.0, 1.0, (2, 2)) + np.eye(2)))
            return bases[-1]

        model = QuadraticPerfModel(
            ConditionSampler.empirical(data, seed=0),
            quadratic_stats_for(IdentityPanel(2),
                                BregmanGenerator.squared_euclidean(),
                                lambda pts: pts),
            true_stats=(np.eye(2), mu, float(mu @ mu)))
        cfg = EvolutionConfig(
            mutations=MutationSet.orthonormal(2), alpha=alpha, tol=tol, m=20,
            t_steps=9000, seed=0, epsilon=0.02, f0=np.array([-60.0, 50.0]),
            renewal_period=self.PERIOD, renewal_fn=renew, record_path=True)
        res = run_evolution(model, cfg)
        trace = res.trace
        # the strict run halts inside an oracle block and a renewal period
        assert len(trace) == steps and res.failed == (steps < 9000)
        assert trace.moves % 4096 and trace.moves % self.PERIOD

        coords, path, perf_true = cfg.f0, [cfg.f0], []
        for t, j in enumerate(trace.j[:trace.moves].tolist()):
            if t % self.PERIOD == 0:
                base, counts = coords, np.zeros(2, np.int64)
                steps_matrix = _signed_steps(bases[t // self.PERIOD], alpha)
            counts[j // 2] += 1 - 2 * (j % 2)
            coords = coords + steps_matrix[j]
            path.append(coords)
            perf_true.append(model.true_perf_rows(coords[None])[0])
        assert res.organism.basis is bases[-1]
        assert res.organism.base.tobytes() == base.tobytes()
        assert np.array_equal(res.organism.coords, coords)
        assert res.organism.counts.dtype == np.int64
        assert np.array_equal(res.organism.counts, counts)
        assert np.array_equal(res.path, np.array(path))
        assert np.array_equal(trace.perf_true[:trace.moves], perf_true)
        assert res.final_true_perf == model.true_perf(coords, len(trace))


class TestQuadraticModel:
    def test_stats_reduction_matches_direct_scoring(self):
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        data = rng_for(42).standard_normal((60, 2)) * 0.3
        sampler = ConditionSampler.empirical(data, seed=8)
        stats_fn = quadratic_stats_for(panel, gen, lambda pts: pts)
        model = QuadraticPerfModel(sampler, stats_fn,
                                   stats_fn(data, np.full(60, 1 / 60)))
        sample = sampler.draw(0, 40)
        stats = stats_fn(sample.points, sample.weights)
        for coords in (np.zeros(2), np.array([0.3, -0.1])):
            direct = empirical_performance(coords, sample.points, panel,
                                           sample, gen)
            assert float(model._eval(stats, coords)) == pytest.approx(
                direct, rel=1e-10)

    def test_perf_batch_matches_scalar(self):
        model = constant_stats_model(3, cross=np.array([0.1, 0.2, -0.3]),
                                     const=0.7)
        stats = model.draw(0, 1, None)
        C = rng_for(43).standard_normal((6, 3))
        batch = model._eval(stats, C)
        for i in range(6):
            assert batch[i] == pytest.approx(float(model._eval(stats, C[i])))

    @pytest.mark.parametrize("target_fn", [lambda P: P[:, 2:3],
                                           lambda P: P[:, 2]])
    def test_target_fn_must_keep_the_batch_axes(self, target_fn):
        # written for one (n, k) batch: index rows (m = 20 <= 4n) reduce a
        # (K, m, k) stack of them, multinomial weights (m = 200) the data,
        # which P[:, 2:3] fits and P[:, 2], without the output axis, does not
        data = rng_for(46).standard_normal((40, 3))
        panel = DataColumnPanel(2)
        gen = BregmanGenerator.squared_euclidean()
        sampler = ConditionSampler.empirical(data, seed=3)
        stats_fn = quadratic_stats_for(panel, gen, target_fn)
        message = r"\(\.\.\., n, k\) points"
        with pytest.raises(ModelError, match=message):
            sampler.reduce(0, 20, stats_fn)
        if target_fn(data).ndim == 1:
            with pytest.raises(ModelError, match=message):
                sampler.reduce(0, 200, stats_fn)
        else:
            want = sampler.reduce(0, 200, quadratic_stats_for(
                panel, gen, lambda P: P[..., 2:]))
            got = sampler.reduce(0, 200, stats_fn)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_loop_rejects_a_model_of_another_type(self):
        class DuckModel:
            def draw(self, step, m, coords):
                return None

            def score(self, stats, coords, steps, tol):
                return 0.0, [1.0] * len(steps), list(range(len(steps))), []

            def true_perf(self, coords, step):
                return 0.0

        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                              tol=0.05, m=1, t_steps=3, epsilon=0.1)
        with pytest.raises(ConfigError, match="got DuckModel"):
            run_evolution(DuckModel(), cfg)

    def test_loop_rejects_a_model_of_another_size(self):
        data = rng_for(45).standard_normal((20, 3))
        model = MeanEstimationModel(ConditionSampler.empirical(data, seed=0),
                                    data.mean(axis=0), nu=0.01)
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                              tol=0.05, m=1, t_steps=3, epsilon=0.1)
        with pytest.raises(ConfigError, match=r"quad is 3 x 3 .* dG=2"):
            run_evolution(model, cfg)

    def test_every_model_has_an_oracle(self):
        # a run without true_stats has no perf_true column to fill
        with pytest.raises(TypeError, match="true_stats"):
            QuadraticPerfModel(None, lambda points, weights: None)

    def test_requires_quadratic_generator(self):
        gen = BregmanGenerator.custom(
            value=lambda u: float(np.sum(u ** 4)),
            gradient=lambda u: 4.0 * u ** 3, h_min=0.1, h_max=48.0)
        with pytest.raises(ConfigError):
            quadratic_stats_for(IdentityPanel(2), gen, lambda pts: pts)


class TestRunDeterminism:
    def _run(self, seed):
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        data = rng_for(44).standard_normal((80, 2)) * 0.2 + np.array([0.4, 0.1])
        sampler = ConditionSampler.empirical(data, seed=seed)
        stats_fn = quadratic_stats_for(panel, gen, lambda pts: pts)
        model = QuadraticPerfModel(sampler, stats_fn,
                                   true_stats=(np.eye(2), data.mean(axis=0),
                                               float((data ** 2).sum(1).mean())))
        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.02,
                              tol=1e-5, m=200, t_steps=60, seed=seed,
                              epsilon=0.5, record_path=True,
                              failure_policy="forced_uniform")
        return run_evolution(model, cfg)

    def test_repeat_identical(self):
        a, b = self._run(11), self._run(11)
        assert np.array_equal(a.path, b.path)
        assert a.trace.rows() == b.trace.rows()
        assert a.final_true_perf == b.final_true_perf

    def test_seed_changes_run(self):
        a, b = self._run(11), self._run(12)
        assert not np.array_equal(a.path, b.path)

    def test_trace_annotations(self):
        res = self._run(11)
        assert isinstance(res.initial_true_perf, float)
        assert len(res.path) == len(res.trace) + 1
        for r in res.trace.rows():
            assert r["perf_true"] is not None
            assert r["in_target_set"] is not None
        # improvement recorded by the oracle over the run
        assert res.final_true_perf > res.initial_true_perf


class TestPreStepHook:
    """Each step's draw gets the coordinates from before the step."""

    def test_hook_runs_each_step_in_order(self):
        seen = []

        class Hooked(LinearModel):
            def draw(self, step, m, coords):
                seen.append((step, coords.copy()))
                return super().draw(step, m, coords)

        cfg = EvolutionConfig(mutations=MutationSet.orthonormal(2),
                              alpha=0.1, tol=0.05, m=1, t_steps=8, epsilon=0.1,
                              seed=13)
        res = run_evolution(Hooked(2), cfg)
        assert [s for s, _ in seen] == list(range(8))
        # draw sees pre-move coordinates: step k+1 sees the step-k offspring
        assert np.allclose(seen[0][1], 0.0)
        assert not np.allclose(seen[1][1], 0.0)
        assert len(res.trace) == 8
