"""Core model layer: generators, panels, samplers, organisms."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evospace import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                      EvolutionConfig, IdentityPanel, MutationSet, Organism,
                      QuadraticPerfModel, Sample, empirical_performance,
                      quadratic_stats_for, rng_for, run_evolution)
from evospace.errors import ConfigError, ModelError
from evospace.kernels import weighted_rows


def quartic_gen():
    # phi(u) = sum(u^4 + u^2); second derivative 12u^2 + 2 lies in [2, 50]
    # for |u| <= 2
    return BregmanGenerator.custom(
        value=lambda u: float(np.sum(u ** 4 + u ** 2)),
        gradient=lambda u: 4.0 * u ** 3 + 2.0 * u,
        h_min=2.0, h_max=50.0)


class TestRngFor:
    def test_deterministic(self):
        a = rng_for(7, 3).standard_normal(5)
        b = rng_for(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        base = rng_for(7, 0).standard_normal(4)
        assert not np.array_equal(base, rng_for(7, 1).standard_normal(4))
        assert not np.array_equal(base, rng_for(8, 0).standard_normal(4))

    def test_string_and_tuple_seeds(self):
        a = rng_for((3, "select")).standard_normal(4)
        b = rng_for((3, "select")).standard_normal(4)
        c = rng_for((3, "renew")).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_index_allowed(self):
        a = rng_for(5, -1).standard_normal(3)
        b = rng_for(5, -2).standard_normal(3)
        assert not np.array_equal(a, b)

    def test_rejects_junk(self):
        with pytest.raises(ConfigError):
            rng_for(object())


class TestGenerators:
    def test_squared_euclidean_value(self):
        gen = BregmanGenerator.squared_euclidean()
        assert gen.divergence([2.0], [1.0]) == pytest.approx(1.0)
        u, v = np.array([1.0, 3.0]), np.array([-1.0, 0.5])
        assert gen.divergence(u, v) == pytest.approx(
            float(np.sum((u - v) ** 2)))

    def test_mahalanobis_value(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        gen = BregmanGenerator.mahalanobis(M)
        u, v = np.array([1.0, -1.0]), np.array([0.0, 2.0])
        d = u - v
        assert gen.divergence(u, v) == pytest.approx(float(d @ M @ d))

    def test_custom_quartic_value(self):
        # D(2||1) = phi(2) - phi(1) - phi'(1) * 1 with phi(u)=u^4:
        # 16 - 1 - 4 = 11; the u^2 part adds (4 - 1 - 2) = 1
        gen = quartic_gen()
        assert gen.divergence([2.0], [1.0]) == pytest.approx(12.0)

    def test_nonnegative_zero_iff_equal(self):
        rng = rng_for(11)
        for gen in (BregmanGenerator.squared_euclidean(), quartic_gen()):
            for _ in range(20):
                u = rng.uniform(-1.5, 1.5, 3)
                v = rng.uniform(-1.5, 1.5, 3)
                assert gen.divergence(u, v) >= 0.0
                assert gen.divergence(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_divergence_rows_matches_scalar(self):
        gen = quartic_gen()
        rng = rng_for(12)
        U = rng.uniform(-1.5, 1.5, (8, 2))
        V = rng.uniform(-1.5, 1.5, (8, 2))
        rows = gen.divergence_rows(U, V)
        for i in range(8):
            assert rows[i] == pytest.approx(gen.divergence(U[i], V[i]))

    def test_quadratic_matrix(self):
        gen = BregmanGenerator.squared_euclidean()
        assert gen.is_quadratic
        assert np.allclose(gen.quadratic_matrix(3), np.eye(3))
        M = np.array([[2.0, 0.0], [0.0, 5.0]])
        gen2 = BregmanGenerator.mahalanobis(M)
        assert np.allclose(gen2.quadratic_matrix(2), M)
        assert not quartic_gen().is_quadratic
        with pytest.raises(ConfigError, match="no constant divergence matrix"):
            quartic_gen().quadratic_matrix(1)
        # an identity Mahalanobis matrix scores as squared Euclidean, bit for
        # bit, on the path the two quadratic kinds share
        eye = BregmanGenerator.mahalanobis(np.eye(3))
        U, V = rng_for(13).uniform(-1.5, 1.5, (2, 8, 3))
        for a, b in ((eye.gradient(U), gen.gradient(U)),
                     (eye.divergence_rows(U, V), gen.divergence_rows(U, V)),
                     (eye.quadratic_matrix(3), gen.quadratic_matrix(3))):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPanels:
    def test_identity_expression(self):
        panel = IdentityPanel(3)
        X = rng_for(1).standard_normal((5, 3))
        coords = np.array([1.0, -2.0, 0.5])
        out = panel.express(X, coords)
        assert out.shape == (5, 3)
        assert np.allclose(out, np.tile(coords, (5, 1)))

    def test_identity_second_moment_exact(self):
        panel = IdentityPanel(2)
        X = rng_for(2).standard_normal((7, 2))
        assert np.array_equal(panel.second_moment(X), np.eye(2))
        M = np.array([[2.0, 1.0], [1.0, 4.0]])
        assert np.array_equal(panel.second_moment(X, M=M), M)

    def test_data_column_expression(self):
        panel = DataColumnPanel(2)
        X = rng_for(3).standard_normal((6, 2))
        coords = np.array([0.5, -1.5])
        assert np.allclose(panel.express(X, coords), (X @ coords)[:, None])

    def test_data_column_selection(self):
        # the genes read the first dG columns, and the ones after them not
        panel = DataColumnPanel(2)
        X3 = rng_for(4).standard_normal((6, 3))
        coords = np.array([2.0, 1.0])
        assert np.allclose(panel.express(X3, coords),
                           (X3[:, :2] @ coords)[:, None])

    def test_weighted_moments_match_expansion(self):
        panel = DataColumnPanel(2)
        X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
        w = np.array([0.5, 0.25, 0.25])
        expanded = np.vstack([X[0], X[0], X[1], X[2]])
        got = panel.second_moment(X, weights=w)
        want = panel.second_moment(expanded)
        assert np.allclose(got, want)


class TestSampler:
    def test_empirical_rows_path(self):
        data = rng_for(5).standard_normal((50, 2))
        sampler = ConditionSampler.empirical(data, seed=9)
        s = sampler.draw(0, 30)  # m <= 4n: explicit row draws
        assert s.size == 30
        assert s.weights.sum() == pytest.approx(1.0)
        again = sampler.draw(0, 30)
        assert np.array_equal(s.points, again.points)
        assert np.array_equal(s.weights, again.weights)

    def test_empirical_weighted_path(self):
        data = rng_for(6).standard_normal((10, 2))
        sampler = ConditionSampler.empirical(data, seed=9)
        s = sampler.draw(0, 100)  # m > 4n: multinomial weights over rows
        assert s.size == 100
        assert s.points.shape[0] <= 10
        assert s.weights.sum() == pytest.approx(1.0)
        # weights are multiples of 1/m
        assert np.allclose(np.round(s.weights * 100) / 100, s.weights)

    def test_weighted_sample_agrees_with_expansion(self):
        # a hand-built weighted sample must score like its expanded twin
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        weighted = Sample(points=pts, weights=np.array([0.25, 0.75]), size=4)
        expanded = Sample(points=np.vstack([pts[0], pts[1], pts[1], pts[1]]),
                          weights=np.full(4, 0.25), size=4)
        coords = np.array([0.3, -0.2])
        targets_w = pts
        targets_e = expanded.points
        pw = empirical_performance(coords, targets_w, panel, weighted, gen)
        pe = empirical_performance(coords, targets_e, panel, expanded, gen)
        assert pw == pytest.approx(pe, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"data": np.zeros((2, 1)), "fn": lambda rng, m: np.zeros((m, 1))},
        {},
    ], ids=["both", "neither"])
    def test_needs_exactly_one_of_data_and_fn(self, kwargs):
        with pytest.raises(ConfigError, match="exactly one of data"):
            ConditionSampler(**kwargs)

    def test_generator_kind(self):
        sampler = ConditionSampler.from_callable(
            lambda rng, m: rng.standard_normal((m, 2)), seed=3)
        s = sampler.draw(4, 25)
        assert s.points.shape == (25, 2)
        assert np.array_equal(s.points, sampler.draw(4, 25).points)
        assert not np.array_equal(s.points, sampler.draw(5, 25).points)

    @pytest.mark.parametrize("fn", [
        lambda rng, m: np.full((m + 1, 2), np.nan),   # one row too many
        lambda rng, m: np.zeros(m),                   # not 2-d
        lambda rng, m: np.zeros((m - 1, 3)),          # one row too few
    ])
    def test_generator_output_shape_checked(self, fn):
        sampler = ConditionSampler.from_callable(fn, seed=0)
        with pytest.raises(ModelError, match=r"expected \(4, k\)"):
            sampler.draw(0, 4)

    def test_generator_output_must_be_finite(self):
        def fn(rng, m):
            pts = rng.standard_normal((m, 2))
            pts[1, 0] = np.inf
            return pts

        with pytest.raises(ModelError, match="non-finite"):
            ConditionSampler.from_callable(fn, seed=0).draw(0, 4)

    def test_draws_carry_uniform_weights(self):
        data = rng_for(7).standard_normal((10, 2))
        for sampler in (ConditionSampler.empirical(data, seed=1),
                        ConditionSampler.from_callable(
                            lambda rng, m: rng.standard_normal((m, 2)), seed=1)):
            assert np.array_equal(sampler.draw(0, 30).weights,
                                  np.full(30, 1.0 / 30))
            assert sampler.draw(2, 20).weights.shape == (20,)

    @pytest.mark.parametrize("seed", [1.5, None, b"seed", (1, 2.0)])
    def test_a_seed_of_the_wrong_type_fails_at_construction(self, seed):
        data = rng_for(7).standard_normal((10, 2))
        with pytest.raises(ConfigError, match="seed components must be"):
            ConditionSampler(data=data, seed=seed)


class RngForSampler(ConditionSampler):
    """The reference sampler: every draw on its own rng_for(seed, index)."""

    def _step_block(self, index, m):
        return None

    def _stream(self, index):
        return rng_for(self.seed, index)


_SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
    st.just(2**64 - 1), st.text(max_size=6),
    st.tuples(st.integers(0, 2**40), st.text(max_size=3), st.integers(0, 9)))
_INDICES = st.one_of(
    st.sampled_from([0, 4095, 4096, 8191, 8192, 2**32 - 4097, 2**32 - 1,
                     -1, -2, -3, 2**32, 2**40]),
    st.integers(0, 20_000), st.integers(-5, 2**34))


class TestSamplerStreams:
    @settings(max_examples=150, deadline=None)
    @given(seed=_SEEDS, indices=st.lists(_INDICES, min_size=1, max_size=6))
    def test_draw_equals_a_fresh_rng_for_draw(self, seed, indices):
        data = rng_for(("stream-data", 0)).standard_normal((7, 2))

        def fn(rng, m):
            # an odd count of 32-bit draws leaves a buffered half word behind
            return np.column_stack([rng.standard_normal(m),
                                    rng.integers(0, 9, size=m)])

        pairs = [(ConditionSampler.empirical(data, seed=seed),
                  RngForSampler.empirical(data, seed=seed)),
                 (ConditionSampler.from_callable(fn, seed=seed),
                  RngForSampler.from_callable(fn, seed=seed))]

        def check(index, m):
            for sampler, reference in pairs:
                got, want = sampler.draw(index, m), reference.draw(index, m)
                assert np.array_equal(got.points, want.points)
                assert np.array_equal(got.weights, want.weights)
                assert got.size == want.size == m

        # out of order and repeated indices on one sampler: index rows
        # (m <= 4n = 28), then multinomial counts
        draws = indices + indices[::-1]
        for m in (3, 28, 40):
            for index in draws:
                check(index, m)
        # a short interleaved pass, m changing between draws of one index
        for index in draws[:2]:
            for m in (3, 28, 40, 3):
                check(index, m)

    def test_a_kept_callback_rng_continues_its_stream(self):
        # each draw's rng is its own generator, so one that a callback keeps
        # is not moved by later draws
        kept = []

        def fn(rng, m):
            kept.append(rng)
            return rng.standard_normal((m, 2))

        sampler = ConditionSampler.from_callable(fn, seed=4)
        sampler.draw(0, 3)
        sampler.draw(1, 3)
        want = rng_for(4, 0)
        want.standard_normal((3, 2))
        values = want.standard_normal(5)
        # a pickled copy continues it too
        for rng in (pickle.loads(pickle.dumps(kept[0])), kept[0]):
            assert np.array_equal(rng.standard_normal(5), values)

    def test_draw_builds_no_block(self, monkeypatch):
        def no_block(self, index, m):
            raise AssertionError("draw built a block")

        data = rng_for(("stream-data", 1)).standard_normal((7, 2))
        sampler = ConditionSampler.empirical(data, seed=5)
        reference = RngForSampler.empirical(data, seed=5)
        monkeypatch.setattr(ConditionSampler, "_step_block", no_block)
        # index rows of at most 256 conditions, then multinomial counts
        for index, m in ((0, 20), (5000, 3), (9, 29), (2**32 - 1, 40)):
            got, want = sampler.draw(index, m), reference.draw(index, m)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)


def index_sampler(seed, n):
    """An empirical sampler of n rows that stores one: ``_index_rows`` reads only n."""
    sampler = ConditionSampler.empirical(np.zeros((1, 1)), seed=seed)
    sampler.data = np.broadcast_to(sampler.data, (n, 1))
    return sampler


def reference_rows(seed, n, first, count, m):
    return [rng_for(seed, first + k).integers(0, n, size=m) for k in range(count)]


# n = 1 draws nothing; n = 2**31 + 1 rejects about half of all 32-bit
# halves, so every step is drawn again through rng_for; 641 and 6700417
# divide 2**32 + 1, so their rejection threshold (2**32 - n) % n is n - 1,
# the largest it can be (at n = 6700417 and m = 256 about one step in three
# rejects a half)
_ROW_COUNTS = st.one_of(st.just(1), st.integers(2, 1000),
                        st.sampled_from([641, 6700417, 2**31 + 1]))


@st.composite
def _blocks(draw):
    """(first, count): a run of steps, often across a 4,096-step seed block edge."""
    count = draw(st.integers(1, 6))
    edge = draw(st.sampled_from([4096, 8192, 3 * 4096, 2**32]))
    first = draw(st.one_of(st.integers(edge - count, edge - 1),
                           st.integers(0, 2**32 - count)))
    return first, min(count, 2**32 - first)


class TestIndexRows:
    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, n=_ROW_COUNTS, block=_blocks(), m=st.integers(1, 256))
    def test_rows_equal_fresh_rng_for_draws(self, seed, n, block, m):
        first, count = block
        rows = index_sampler(seed, n)._index_rows(first, count, m)
        assert rows.shape == (count, m) and rows.dtype == np.int64
        for got, want in zip(rows, reference_rows(seed, n, first, count, m)):
            assert np.array_equal(got, want)

    def test_steps_that_reject_a_half_are_redrawn(self):
        # at n = 6700417 and m = 256 about a third of the steps reject a half
        rows = index_sampler(11, 6700417)._index_rows(100, 30, 256)
        want = reference_rows(11, 6700417, 100, 30, 256)
        assert all(np.array_equal(a, b) for a, b in zip(rows, want))

    def test_half_one_below_the_threshold_is_rejected(self):
        # choose n so that a step's first half h has low word
        # (h * n) % 2**32 == (2**32 - n) % n - 1, i.e. n * (h + 1) == -1
        # mod 2**32 with n > 2**31: a threshold one too low accepts h
        for index in range(100):
            h = int(rng_for(4, index).bit_generator.random_raw()) & 0xFFFFFFFF
            n = -pow(h + 1, -1, 2**32) % 2**32 if h % 2 == 0 else 0
            if n > 2**31:
                break
        assert (h * n) % 2**32 == (2**32 - n) % n - 1
        got = index_sampler(4, n)._index_rows(index, 1, 1)
        want = rng_for(4, index).integers(0, n, size=1)
        assert got[0, 0] == want[0] != (h * n) >> 32

    def test_draw_past_the_cached_block_then_back(self):
        data = rng_for(("rows-data", 0)).standard_normal((40, 2))
        sampler = ConditionSampler.empirical(data, seed=5)
        reference = RngForSampler.empirical(data, seed=5)
        m = 20   # blocks of 65536 // 20 = 3,276 steps
        for index in (0, 3275, 3276, 10_000, 1, 3276, 0, 2**32 - 1, 5):
            got, want = sampler.draw(index, m), reference.draw(index, m)
            assert np.array_equal(got.points, want.points)
            first, rows = sampler._step_block(index, m)
            assert first == index - index % 3276
            # the last block stops at 2**32
            assert len(rows) == min(3276, 2**32 - first)

    def test_samples_above_256_conditions_are_drawn_per_step(self):
        # blocks serve m <= 256 (256 steps of 256); larger samples, up to
        # 4n, draw their rows per step
        data = rng_for(("rows-data", 1)).standard_normal((10_000, 1))
        sampler = ConditionSampler.empirical(data, seed=2)
        reference = RngForSampler.empirical(data, seed=2)
        for index, m in ((300, 256), (1, 257), (7, 40_000), (300, 256)):
            block = sampler._step_block(index, m)
            if m == 256:
                assert block[0] == 256 and block[1].shape == (256, 256)
            else:
                assert block is None
            assert np.array_equal(sampler.draw(index, m).points,
                                  reference.draw(index, m).points)


@st.composite
def _weight_steps(draw):
    """(n, m, indices): m > 4n, and steps at and around weight-block edges.

    A block holds K = 2**14 // n steps; the last block before 2**32 is cut
    short, and negative or larger indices take the per-step path.
    """
    n = draw(st.integers(1, 80))
    m = 4 * n + draw(st.integers(1, 300))
    K = max(1, 2**14 // n)
    edge = draw(st.sampled_from([K, 2 * K, 5 * K, 2**32 - 2**32 % K]))
    near = st.integers(edge - 2, edge + 1).filter(lambda i: i < 2**32)
    indices = draw(st.lists(st.one_of(
        near, st.integers(0, 20_000),
        st.sampled_from([0, 2**32 - 1, 2**32 - 2, -1, -7, 2**32, 2**40])),
        min_size=1, max_size=5))
    return n, m, indices


def pairwise_sum(values):
    """Sum in ``kernels.fold``'s order: term i + half onto term i, then an
    odd last term onto term 0, until one is left."""
    while len(values) > 1:
        half, odd = divmod(len(values), 2)
        out = [values[i] + values[i + half] for i in range(half)]
        if odd:
            out[0] += values[-1]
        values = out
    return values[0]


def labels_data(n, dG):
    return rng_for(("weight-data", n, dG)).standard_normal((n, dG + 1))


class TestWeightBlocks:
    """Multinomial weights (m > 4n) from blocks against per-stream draws."""

    @settings(max_examples=80, deadline=None)
    @given(seed=_SEEDS, steps=_weight_steps())
    def test_weights_equal_fresh_rng_for_draws(self, seed, steps):
        n, m, indices = steps
        sampler = ConditionSampler.empirical(labels_data(n, 1), seed=seed)
        K = max(1, 2**14 // n)
        for index in indices + indices[::-1]:
            want = rng_for(seed, index).multinomial(m, [1.0 / n] * n) / m
            got = sampler.draw(index, m)
            assert np.array_equal(got.weights, want) and got.size == m
            assert got.points is sampler.data
            assert not got.weights.flags.writeable
            block = sampler._step_block(index, m)
            if 0 <= index < 2**32:
                first, weights = block
                assert first == index - index % K
                assert weights.shape == (min(K, 2**32 - first), n)
                assert not weights.flags.writeable
                assert np.array_equal(weights[index - first], want)
            else:
                assert block is None

    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, steps=_weight_steps(), dG=st.integers(1, 3),
           scale=st.sampled_from([None, 0.5, 3.0, 0.7]))
    def test_block_stats_and_means_equal_per_sample_ones(self, seed, steps,
                                                         dG, scale):
        n, m, indices = steps
        data = labels_data(n, dG)
        gen = (BregmanGenerator.squared_euclidean() if scale is None
               else BregmanGenerator.mahalanobis([[scale]]))
        stats_fn = quadratic_stats_for(DataColumnPanel(dG), gen,
                                       lambda P: P[:, dG:])
        model = QuadraticPerfModel(ConditionSampler.empirical(data, seed=seed),
                                   stats_fn, stats_fn(data, np.full(n, 1 / n)))
        reference = RngForSampler.empirical(data, seed=seed)
        # the one-sample reduction written out on Python floats, each sum
        # over the rows in the kernels' pairwise order
        X, t = data[:, :dG].tolist(), data[:, dG].tolist()
        s = float(gen.quadratic_matrix(1).reshape(()))
        for index in indices + indices[::-1]:
            sample = reference.draw(index, m)
            w = sample.weights.tolist()
            quad, cross, const = model.draw(index, m, np.zeros(dG))
            want = stats_fn(sample.points, sample.weights)
            assert np.array_equal(quad, want[0])
            assert quad.tolist() == [
                [s * pairwise_sum([wk * (x[a] * x[b]) for wk, x in zip(w, X)])
                 for b in range(dG)] for a in range(dG)]
            assert np.array_equal(cross, want[1])
            assert cross.tolist() == [
                s * pairwise_sum([wk * (x[a] * tk) for wk, x, tk in zip(w, X, t)])
                for a in range(dG)]
            assert type(const) is float
            assert const == want[2] == pairwise_sum(
                [wk * (tk * (s * tk)) for wk, tk in zip(w, t)])
        # the same sampler serves another function's block rows too, in a
        # pass of its own: each switch of function rebuilds the block
        for index in indices + indices[::-1]:
            w = reference.draw(index, m).weights.tolist()
            (mean,) = model.sampler.reduce(index, m, sample_mean)
            assert mean.tolist() == [
                pairwise_sum([wk * x[a] for wk, x in zip(w, data.tolist())])
                for a in range(dG + 1)]

    def test_numpy_integer_steps_read_the_cached_block(self):
        data = labels_data(30, 1)
        sampler = ConditionSampler.empirical(data, seed=3)
        reference = RngForSampler.empirical(data, seed=3)
        for m in (20, 500):   # index rows, then multinomial weights
            sampler.reduce(0, m, sample_mean)
            rows = sampler._steps[3]
            for index in (np.int64(5), np.uint32(7), np.int64(0)):
                (got,) = sampler.reduce(index, m, sample_mean)
                want = reference.draw(int(index), m)
                assert got.tobytes() == sample_mean(want.points,
                                                    want.weights)[0].tobytes()
                assert got is rows[int(index)][0]
                assert sampler._steps[3] is rows

    def test_alternating_functions_each_equal_fn_of_the_draw(self):
        # each switch of function rebuilds the block's rows for the other one
        data = labels_data(30, 1)
        sampler = ConditionSampler.empirical(data, seed=4)
        stats = quadratic_stats_for(DataColumnPanel(1),
                                    BregmanGenerator.squared_euclidean(),
                                    lambda P: P[..., 1:])
        for m in (20, 500):   # index rows, then multinomial weights
            for index in (3, 3, 4, 0, 4):
                sample = sampler.draw(index, m)
                for fn in (sample_mean, stats):
                    got = sampler.reduce(index, m, fn)
                    want = fn(sample.points, sample.weights)
                    assert [np.asarray(a).tobytes() for a in got] == \
                        [np.asarray(a).tobytes() for a in want]
                    assert sampler._steps[2] is fn

    def test_stats_are_reduced_once_per_block(self):
        # both panels' stats, on index rows (m <= 256) and on multinomial
        # weights (m > 4n), reduce a whole block at once; rows of more than
        # 256 conditions reduce each step's sample
        gen = BregmanGenerator.squared_euclidean()
        data = labels_data(70, 1)
        for panel, target in ((IdentityPanel(2), lambda P: P),
                              (DataColumnPanel(1),
                               lambda P: P[..., 1:])):
            moments = quadratic_stats_for(panel, gen, target)
            calls = []

            def stats_fn(points, weights):
                calls.append(points.shape)
                return moments(points, weights)

            sampler = ConditionSampler.empirical(data, seed=2)
            for m, blocked in ((20, True), (281, True), (257, False)):
                sampler.reduce(0, m, stats_fn)
                before = len(calls)
                for index in range(1, 10):
                    sampler.reduce(index, m, stats_fn)
                assert len(calls) - before == (0 if blocked else 9)

    @pytest.mark.parametrize("m", [20, 121])   # index rows, then weights
    def test_a_reduction_without_a_row_per_step_is_rejected(self, m):
        # written for one sample: the quad and const have no step axis
        sampler = ConditionSampler.empirical(labels_data(30, 1), seed=2)
        for fn in (lambda P, w: (np.eye(2), weighted_rows(w, P)),
                   lambda P, w: (weighted_rows(w, P), 0.5)):
            with pytest.raises(ModelError, match="reduce each stacked batch"):
                sampler.reduce(0, m, fn)


def sample_mean(points, weights):
    return (weighted_rows(weights, points),)


_REDUCE_KINDS = ("rows", "per_step", "weights", "callable")


@st.composite
def _reduce_runs(draw):
    """(kinds, n, k, steps): (index, m) steps of two sample sizes, interleaved.

    The first size draws index rows from a block (m <= 256), rows per step
    (256 < m <= 4n), multinomial weights from a block (m > 4n) or a
    callable sampler's points (then the second does too); the second size
    is any kind on the same sampler.  Indices sit around the first size's
    block edges, below 20,000, near 2**32 or outside [0, 2**32), out of
    order, and the second size comes in between.
    """
    n, k = draw(st.integers(65, 80)), draw(st.integers(2, 3))
    first = draw(st.sampled_from(_REDUCE_KINDS))
    second = "callable" if first == "callable" else \
        draw(st.sampled_from(_REDUCE_KINDS[:3]))

    def size(kind):
        return draw({"rows": st.integers(1, 256),
                     "per_step": st.integers(257, 4 * n),
                     "weights": st.integers(4 * n + 1, 4 * n + 300),
                     "callable": st.integers(1, 300)}[kind])

    m1, m2 = size(first), size(second)
    K = {"rows": min(4096, 2**16 // m1), "weights": 2**14 // n}.get(first, 4096)
    edge = draw(st.sampled_from([K, 2 * K, 2**32 - 2**32 % K]))
    indices = draw(st.lists(st.one_of(
        st.integers(edge - 2, edge + 1).filter(lambda i: i < 2**32),
        st.integers(0, 20_000),
        st.sampled_from([2**32 - 1, -1, -7, 2**32, 2**40])),
        min_size=1, max_size=4))
    steps = ([(i, m1) for i in indices] + [(indices[0], m2)]
             + [(i, m1) for i in indices[::-1]])
    return (first, second), n, k, steps


class TestReduce:
    """``ConditionSampler.reduce`` against ``fn(points, weights)`` of the draw."""

    def test_sample_sizes_below_one_are_rejected(self):
        for sampler in (ConditionSampler.empirical(labels_data(30, 1), seed=2),
                        ConditionSampler.from_callable(
                            lambda rng, m: rng.standard_normal((m, 2)), seed=2)):
            for m in (0, -3):
                with pytest.raises(ConfigError, match="sample size"):
                    sampler.reduce(0, m, sample_mean)

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, run=_reduce_runs(), mahalanobis=st.booleans())
    def test_reduce_equals_fn_of_the_draw(self, seed, run, mahalanobis):
        kinds, n, k, steps = run
        if kinds[0] == "callable":
            sampler = ConditionSampler.from_callable(
                lambda rng, m: rng.standard_normal((m, k)), seed=seed)
        else:
            sampler = ConditionSampler.empirical(
                rng_for(("reduce-data", n, k)).standard_normal((n, k)), seed=seed)
        if mahalanobis:
            gen_k = BregmanGenerator.mahalanobis(np.eye(k) + 0.3)
            gen_1 = BregmanGenerator.mahalanobis([[0.7]])
        else:
            gen_k = gen_1 = BregmanGenerator.squared_euclidean()
        fns = [sample_mean,
               quadratic_stats_for(IdentityPanel(k), gen_k, lambda P: P),
               quadratic_stats_for(DataColumnPanel(k - 1), gen_1,
                                   lambda P: P[..., k - 1:])]
        for fn in fns:
            for index, m in steps:
                got = sampler.reduce(index, m, fn)
                sample = sampler.draw(index, m)
                want = fn(sample.points, sample.weights)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    g, w = np.asarray(g), np.asarray(w)
                    assert g.shape == w.shape and g.dtype == w.dtype
                    assert g.tobytes() == w.tobytes()
                blocked = (kinds[0] != "callable" and 0 <= index < 2**32
                           and (m <= 256 or m > 4 * n))
                assert (sampler._steps[2] is fn) == blocked
                if blocked:
                    assert not any(a.flags.writeable for a in got)


class TestMutationSet:
    def test_orthonormal(self):
        B = MutationSet.orthonormal(3)
        assert B.dG == 3 and B.dF == 3
        assert np.allclose(B.vectors, np.eye(3))
        assert np.allclose(B.norms, 1.0)
        assert B.max_norm == pytest.approx(1.0)

    def test_columns_and_norms(self):
        vecs = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        B = MutationSet(vecs)
        assert B.dG == 3 and B.dF == 2
        assert np.allclose(B.column(1), [0.0, 2.0, 0.0])
        assert B.max_norm == pytest.approx(2.0)


class FlatModel(QuadraticPerfModel):
    """perf = 0 everywhere: every mutant is neutral, so a run walks at random."""

    def __init__(self, dG):
        self.stats = (np.zeros((dG, dG)), np.zeros(dG), 0.0)
        super().__init__(None, None, self.stats)

    def draw(self, step, m, coords):
        return self.stats


def walk(basis, base, alpha, steps, seed, **config):
    """A run of ``steps`` uniform random moves over ``basis``'s signed steps."""
    return run_evolution(FlatModel(basis.dG), EvolutionConfig(
        mutations=basis, alpha=alpha, tol=1.0, m=1, t_steps=steps,
        epsilon=1.0, seed=seed, f0=base, **config))


class TestOrganism:
    def test_grid_invariance_many_steps(self):
        B = MutationSet(rng_for(21).standard_normal((3, 4)))
        org = walk(B, np.array([0.5, -0.2, 1.0]), 0.01, 10_000, seed=22).organism
        assert np.abs(org.counts).sum() > 0
        assert np.allclose(org.coords, org.recompute_coords(),
                           rtol=0, atol=1e-10)

    def test_rebase_keeps_position(self):
        org = walk(MutationSet.orthonormal(2), np.zeros(2), 0.5, 3, seed=1).organism
        pos = org.coords.copy()
        assert np.abs(org.counts).sum() > 0
        org.rebase(MutationSet(np.array([[1.0, 1.0], [1.0, -1.0]])))
        assert np.allclose(org.coords, pos)
        assert np.array_equal(org.coords, org.recompute_coords())
        assert np.all(org.counts == 0)
        assert np.allclose(org.base, pos)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dG=st.integers(1, 4),
           dF=st.integers(1, 5), alpha=st.floats(1e-4, 2.0),
           steps=st.integers(1, 3000), period=st.integers(1, 3000))
    def test_coords_stay_within_ulps_of_the_grid(self, seed, dG, dF, alpha,
                                                steps, period):
        rng = np.random.default_rng(seed)

        def basis():
            return MutationSet(rng.uniform(-1.0, 1.0, (dG, dF)) + 1e-3)

        res = walk(basis(), rng.uniform(-1.0, 1.0, dG), alpha, steps, seed,
                   renewal_period=period,
                   renewal_fn=lambda renewal_rng, step: basis(),
                   record_path=True)
        org = res.organism
        # each step since the last renewal and each term of the
        # recomputation rounds once, at no more than the largest magnitude
        # on the path
        since = steps - (steps - 1) // period * period
        B = np.abs(org.basis.vectors)
        grid = np.abs(org.base).max() + alpha * (B @ np.abs(org.counts)).max()
        mag = max(np.abs(res.path[1:]).max(), grid) + alpha * B.max()
        err = np.abs(org.coords - org.recompute_coords()).max()
        assert err <= (since + dF + 2) * np.spacing(mag)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            Organism(basis=MutationSet.orthonormal(2),
                     base=np.zeros(3), alpha=0.1)


class TestPerformance:
    def test_binary_correlation_identity(self):
        # organisms and targets valued in {-1,1}: Perf = 2(E[f t] - 1)
        gen = BregmanGenerator.squared_euclidean()
        panel = DataColumnPanel(1)
        rng = rng_for(31)
        for _ in range(25):
            x = rng.choice([-1.0, 1.0], size=(12, 1))
            t = rng.choice([-1.0, 1.0], size=(12, 1))
            sample = Sample(points=x, weights=np.full(12, 1 / 12), size=12)
            perf = empirical_performance(np.array([1.0]), t, panel, sample, gen)
            f_out = x[:, 0]
            assert perf == pytest.approx(2.0 * (np.mean(f_out * t[:, 0]) - 1.0))

    def test_perfect_match_is_zero(self):
        gen = BregmanGenerator.squared_euclidean()
        panel = IdentityPanel(2)
        pts = rng_for(32).standard_normal((6, 2))
        sample = Sample(points=pts, weights=np.full(6, 1 / 6), size=6)
        coords = np.array([0.4, 0.7])
        targets = np.tile(coords, (6, 1))
        assert empirical_performance(coords, targets, panel, sample, gen) == \
            pytest.approx(0.0, abs=1e-15)
