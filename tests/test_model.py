"""Core model layer: generators, panels, samplers, organisms."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evospace import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                      EvolutionConfig, IdentityPanel, MutationSet, Organism,
                      QuadraticPerfModel, Sample, empirical_performance,
                      quadratic_stats_for, rng_for, run_evolution)
from evospace import kernels, model as model_module
from evospace.errors import ConfigError, ModelError
from evospace.kernels import matvec, quad_form, weighted_rows


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


def separate_moments(panel, points, targets, M, weights):
    """The three moments as three weighted_rows reductions of their own.

    Every product and fold the fused reduction must reproduce bit for bit:
    vec(x x^T), x t and t^T M t scaled after the sum for a data-column
    panel, M and M times the mean target for an identity panel.
    """
    X, t = np.asarray(points, dtype=float), np.asarray(targets, dtype=float)
    if isinstance(panel, IdentityPanel):
        stack = X.shape[:-2] + np.shape(weights)[:-1]
        quad = np.broadcast_to(np.eye(panel.d) if M is None else M,
                               stack + (panel.d, panel.d))
        tbar = weighted_rows(weights, t)
        cross = tbar if M is None else matvec(M, tbar)
    else:
        X, scale = X[..., :panel.dG], 1.0 if M is None else float(M.reshape(()))
        outer = (X[..., :, None] * X[..., None, :]).reshape(X.shape[:-1] + (-1,))
        sums = weighted_rows(weights, outer)
        quad = (scale * sums).reshape(sums.shape[:-1] + (panel.dG, panel.dG))
        cross = scale * weighted_rows(weights, X * t.reshape(X.shape[:-1])[..., None])
    M = np.eye(panel.d) if M is None else M
    const = weighted_rows(weights, quad_form(t, M)[..., None])[..., 0]
    return quad, cross, const


class TestFusedMoments:
    """One weighted_rows call gives each moment of the separate reductions."""

    @pytest.mark.parametrize("panel, scale", [
        (DataColumnPanel(1), None), (DataColumnPanel(1), 0.7),
        (DataColumnPanel(2), None), (DataColumnPanel(2), 3.0),
        (DataColumnPanel(5), None), (DataColumnPanel(5), 0.5),
        (IdentityPanel(1), 0.7), (IdentityPanel(3), None)])
    # the kernels' slice, which cuts the 54 weight rows for dG = 2 and 5,
    # and one that cuts them into slices of 1 to 15 rows for every panel
    @pytest.mark.parametrize("chunk", [kernels._CHUNK_VALUES, 9_000])
    def test_one_call_equals_the_separate_reductions(self, panel, scale, chunk,
                                                     monkeypatch):
        gen = (BregmanGenerator.squared_euclidean() if scale is None
               else BregmanGenerator.mahalanobis([[scale]]))
        M = gen.quadratic_matrix(panel.d)
        n = 300
        identity = isinstance(panel, IdentityPanel)
        data = rng_for(("fused", panel.dG)).standard_normal(
            (n, panel.dG + (0 if identity else 1)))
        data[::7, 0] = -0.0
        data[3::11, -1] = 5e-324
        rng = rng_for(("fused-draws", panel.dG))
        W = rng.multinomial(50_000, np.full(n, 1 / n), size=54) / 50_000
        rows = rng.integers(0, n, size=(6, 20))
        target = (lambda P: P) if identity else lambda P: P[..., panel.dG:]
        stats_fn = quadratic_stats_for(panel, gen, target)
        calls = []

        def counted(*args):
            calls.append(args)
            return weighted_rows(*args)

        monkeypatch.setattr(kernels, "_CHUNK_VALUES", chunk)
        monkeypatch.setattr(model_module, "weighted_rows", counted)
        # (K, n) weight rows over the data, then a (K', m, k) stack of
        # index batches with uniform weights
        for points, weights in ((data, W), (data[rows], np.full(20, 1 / 20))):
            del calls[:]
            got = stats_fn(points, weights)
            assert len(calls) == 1
            want = separate_moments(panel, points, target(points), M, weights)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            stack = len(weights) if points is data else len(rows)
            assert got[0].shape == (stack, panel.dG, panel.dG)

    @pytest.mark.parametrize("panel", [DataColumnPanel(3), IdentityPanel(2)])
    @pytest.mark.parametrize("M", [None, 1.5])
    def test_moments_without_a_stack_and_the_second_alone(self, panel, M):
        X = rng_for(("moments", panel.dG)).standard_normal((40, panel.dG))
        y = rng_for(("targets", panel.dG)).standard_normal((40, panel.d))
        y[:, 0] = -0.0   # a mean of -0.0, which M = I times it would make +0.0
        w = rng_for(("weights", panel.dG)).random(40)
        M = None if M is None else np.eye(panel.d) * M
        second, cross, const = panel.moments(X, y, M=M, weights=w)
        assert panel.second_moment(X, M=M, weights=w).tobytes() == second.tobytes()
        want = separate_moments(panel, X, y, M, w)
        for a, b in zip((second, cross, const), want):
            assert a.tobytes() == b.tobytes()
        assert panel.moments(X, weights=w)[1:] == (None, None)


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


class BlockReference(ConditionSampler):
    """The reference sampler: a step's sample read from its whole block.

    The block is drawn as the stream contract states, with none of the
    sampler's drawing code: a step in [0, 2**32) is row ``index - first``
    of the draws of its block of K steps on ``rng_for((seed, "block", m),
    first)``, the last block cut at 2**32, and any other step draws alone
    on ``rng_for(seed, index)``.  It keeps the last block's draws.
    """

    _key = None

    def block(self, index, m):
        """(draws, row): the draws of step ``index``'s block and its row in them."""
        n = None if self.data is None else self.data.shape[0]
        weighted = n is not None and m > 4 * n
        if 0 <= index < 2**32:
            K = max(1, 2**14 // n) if weighted else min(4096, max(1, 2**16 // m))
            first = index - index % K
            count = min(K, 2**32 - first)
        else:
            first, count = index, 1
        if self._key != (first, m):
            self._key = (first, m)
            rng = (rng_for((self.seed, "block", m), first) if 0 <= index < 2**32
                   else rng_for(self.seed, index))
            if self.fn is not None:
                self._draws = [self.fn(rng, m) for _ in range(count)]
            elif weighted:
                self._draws = rng.multinomial(m, [1.0 / n] * n, size=count) / m
            else:
                self._draws = rng.integers(0, n, size=(count, m))
        return self._draws, index - first

    def draw(self, index, m):
        draws, row = self.block(index, m)
        uniform = np.full(m, 1.0 / m)
        if self.fn is not None:
            return Sample(np.asarray(draws[row], dtype=float), uniform, m)
        if m > 4 * self.data.shape[0]:
            return Sample(self.data, draws[row], m)
        return Sample(self.data[draws[row]], uniform, m)

    def reduce(self, index, m, fn):
        sample = self.draw(index, m)
        return fn(sample.points, sample.weights)


_SEEDS = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
    st.just(2**64 - 1), st.text(max_size=6),
    st.tuples(st.integers(0, 2**40), st.text(max_size=3), st.integers(0, 9)))
# 4n = 280: index rows up to 280 conditions, multinomial weights above
_STREAM_ROWS = 70


@st.composite
def _stream_steps(draw):
    """(callable, m, indices): a sample size and steps around its block edges.

    An empirical sampler's m lies on either side of 256 and of 4n = 280, a
    callable's on either side of 256.  The indices sit at the edges of
    m's blocks, at the 2**32 cut, below 20,000 and outside [0, 2**32).
    """
    callable_ = draw(st.booleans())
    sizes = [st.integers(200, 320)]
    if not callable_:
        sizes += [st.integers(1, 40), st.sampled_from([256, 257, 280, 281]),
                  st.integers(281, 2000)]
    m = draw(st.one_of(*sizes))
    K = (max(1, 2**14 // _STREAM_ROWS) if not callable_ and m > 4 * _STREAM_ROWS
         else min(4096, 2**16 // m))
    edge = draw(st.sampled_from([K, 2 * K, 2**32 - 2**32 % K]))
    indices = draw(st.lists(st.one_of(
        st.integers(edge - 2, edge + 1).filter(lambda i: i < 2**32),
        st.integers(0, 20_000),
        st.sampled_from([0, 2**32 - 1, -1, -2, -3, 2**32, 2**40])),
        min_size=1, max_size=5))
    return callable_, m, indices


def stream_fn(rng, m):
    # an odd count of 32-bit draws leaves a buffered half word behind
    return np.column_stack([rng.standard_normal(m), rng.integers(0, 9, size=m)])


class TestSamplerStreams:
    @settings(max_examples=120, deadline=None)
    @given(seed=_SEEDS, steps=_stream_steps())
    def test_draw_equals_a_fresh_rng_for_draw(self, seed, steps):
        # a step in [0, 2**32) reads its row of its block's draws on a fresh
        # rng_for((seed, "block", m), first), and any other step draws alone
        # on a fresh rng_for(seed, index): draw in any order, reduce's rows
        # and a callable's samples alike
        callable_, m, indices = steps
        data = rng_for(("stream-data", 0)).standard_normal((_STREAM_ROWS, 2))
        n = _STREAM_ROWS
        if callable_:
            sampler = ConditionSampler.from_callable(stream_fn, seed=seed)
            reference = BlockReference.from_callable(stream_fn, seed=seed)
        else:
            sampler = ConditionSampler.empirical(data, seed=seed)
            reference = BlockReference.empirical(data, seed=seed)
        for index in indices + indices[::-1]:
            got, want = sampler.draw(index, m), reference.draw(index, m)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)
            assert got.size == want.size == m
            (mean,) = sampler.reduce(index, m, sample_mean)
            assert mean.tobytes() == sample_mean(want.points,
                                                 want.weights)[0].tobytes()
            if not 0 <= index < 2**32:
                rng = rng_for(seed, index)
                if callable_:
                    assert np.array_equal(got.points, stream_fn(rng, m))
                elif m > 4 * n:
                    assert np.array_equal(
                        got.weights, rng.multinomial(m, [1.0 / n] * n) / m)
                else:
                    assert np.array_equal(got.points,
                                          data[rng.integers(0, n, size=m)])

    def test_a_kept_callback_rng_is_the_block_generator(self):
        # the steps of a block share one generator in step order, so a kept
        # rng goes on from the block's last sample, and drawing on it moves
        # no sample
        kept = []

        def fn(rng, m):
            kept.append(rng)
            return rng.standard_normal((m, 2))

        m = 2**14   # blocks of 2**16 // m = 4 steps
        sampler = ConditionSampler.from_callable(fn, seed=4)
        sampler.reduce(0, m, sample_mean)
        assert len(kept) == 4 and all(rng is kept[0] for rng in kept)
        want = rng_for((4, "block", m), 0)
        samples = [want.standard_normal((m, 2)) for _ in range(4)]
        values = want.standard_normal(5)
        # a pickled copy goes on from the same place
        for rng in (pickle.loads(pickle.dumps(kept[0])), kept[0]):
            assert np.array_equal(rng.standard_normal(5), values)
        for index in (3, 1):
            assert np.array_equal(sampler.draw(index, m).points, samples[index])
        # each draw replays its block on a generator of its own
        assert len({id(rng) for rng in kept[4:]}) == 2
        assert all(rng is not kept[0] for rng in kept[4:])

    def test_draw_builds_no_block(self):
        # draw replays its block's prefix and leaves the rows that reduce
        # keeps as they were
        data = rng_for(("stream-data", 1)).standard_normal((_STREAM_ROWS, 2))
        sampler = ConditionSampler.empirical(data, seed=5)
        reference = BlockReference.empirical(data, seed=5)
        sampler.reduce(0, 20, sample_mean)
        kept = sampler._steps
        # index rows of at most 256 conditions and of more, then
        # multinomial counts
        for index, m in ((0, 20), (5000, 3), (9, 270), (2**32 - 1, 300), (-1, 20)):
            got, want = sampler.draw(index, m), reference.draw(index, m)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)
            assert sampler._steps is kept


class RowIndex:
    """A stand-in dataset of n one-column rows, row i holding i: it stores none."""

    def __init__(self, n):
        self.shape = (n, 1)

    def __getitem__(self, rows):
        return np.asarray(rows, dtype=float)[..., None]


def index_sampler(seed, n):
    """An empirical sampler over ``RowIndex(n)``: its points are its index rows."""
    sampler = ConditionSampler.empirical(np.zeros((1, 1)), seed=seed)
    sampler.data = RowIndex(n)
    return sampler


def index_rows(points, weights):
    return (points[..., 0],)


# n = 1 draws nothing; 641 and 6700417 divide 2**32 + 1, so numpy's
# rejection threshold (2**32 - n) % n is n - 1, the largest it can be;
# n = 2**31 + 1 rejects about half of all 32-bit halves; and n above 2**32
# draws from 64-bit words
_ROW_COUNTS = st.one_of(st.just(1), st.integers(2, 1000),
                        st.sampled_from([641, 6700417, 2**31 + 1, 2**33 + 5]))


class TestIndexRows:
    @settings(max_examples=150, deadline=None)
    @given(seed=_SEEDS, n=_ROW_COUNTS, m=st.integers(1, 600), data=st.data())
    def test_rows_equal_fresh_rng_for_draws(self, seed, n, m, data):
        # a run of steps, often across a block edge or at the 2**32 cut,
        # drawn in reverse: each is its row of a fresh generator's
        # integers(0, n, size=(K, m)), by draw and by reduce
        m = min(m, 4 * n)
        K = min(4096, 2**16 // m)
        count = data.draw(st.integers(1, 6))
        edge = data.draw(st.sampled_from([K, 3 * K, 2**32 - 2**32 % K, 2**32]))
        first = data.draw(st.one_of(st.integers(edge - count, edge - 1),
                                    st.integers(0, 2**32 - count)))
        sampler = index_sampler(seed, n)
        for index in reversed(range(max(first, 0), min(first + count, 2**32))):
            start = index - index % K
            want = rng_for((seed, "block", m), start).integers(
                0, n, size=(min(K, 2**32 - start), m))[index - start]
            assert sampler.draw(index, m).points[:, 0].tolist() == want.tolist()
            (rows,) = sampler.reduce(index, m, index_rows)
            assert rows.tolist() == want.tolist()

    def test_draw_past_the_cached_block_then_back(self):
        data = rng_for(("rows-data", 0)).standard_normal((40, 2))
        sampler = ConditionSampler.empirical(data, seed=5)
        reference = BlockReference.empirical(data, seed=5)
        m = 20   # blocks of 65536 // 20 = 3,276 steps
        for index in (0, 3275, 3276, 10_000, 1, 3276, 0, 2**32 - 1, 5):
            got, want = sampler.draw(index, m), reference.draw(index, m)
            assert np.array_equal(got.points, want.points)
            sampler.reduce(index, m, sample_mean)
            first, _, _, rows, samples = sampler._steps
            assert first == index - index % 3276
            # the last block stops at 2**32
            assert len(samples) == min(3276, 2**32 - first)
            # reduced up to the slice of 2**14 // (20 * 2) = 409 steps that
            # holds the step
            assert index - first < len(rows) <= index - first + 409

    def test_samples_above_256_conditions_are_drawn_from_blocks(self):
        # rows of up to 4n conditions come from blocks of
        # min(4096, 2**16 // m) steps: 256 steps of 256 conditions, 255 of
        # 257 and one of 40,000
        data = rng_for(("rows-data", 1)).standard_normal((10_000, 1))
        sampler = ConditionSampler.empirical(data, seed=2)
        reference = BlockReference.empirical(data, seed=2)
        for index, m, K in ((300, 256, 256), (1, 257, 255), (7, 40_000, 1),
                            (300, 256, 256)):
            (mean,) = sampler.reduce(index, m, sample_mean)
            first, _, _, _, samples = sampler._steps
            assert first == index - index % K and len(samples) == K
            want = reference.draw(index, m)
            assert np.array_equal(sampler.draw(index, m).points, want.points)
            assert mean.tobytes() == sample_mean(want.points,
                                                 want.weights)[0].tobytes()

    def test_index_rows_are_reduced_as_the_steps_reach_them(self):
        # m = 20 and k = 2: a block of 3,276 steps, reduced 409 steps at a
        # time, so a run of 500 steps reduces two slices, not the block
        calls = []

        def counting_mean(points, weights):
            calls.append(len(points))
            return sample_mean(points, weights)

        data = labels_data(30, 1)
        sampler = ConditionSampler.empirical(data, seed=6)
        reference = BlockReference.empirical(data, seed=6)
        for index in range(500):
            (got,) = sampler.reduce(index, 20, counting_mean)
            want = reference.draw(index, 20)
            assert got.tobytes() == sample_mean(want.points,
                                                want.weights)[0].tobytes()
        assert calls == [409, 409] and len(sampler._steps[3]) == 818
        # a step past the reduced slices reduces the ones up to its own
        sampler.reduce(3275, 20, counting_mean)
        assert calls == [409] * 8 + [4] and len(sampler._steps[3]) == 3276
        assert sampler._steps[0] == 0


@st.composite
def _weight_steps(draw):
    """(n, m, indices): m > 4n, and steps at and around weight-block edges.

    A block holds K = 2**14 // n steps; the last block before 2**32 is cut
    short, and a negative or larger index draws alone.
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
    """Multinomial weights (m > 4n) from blocks against the block generator's draws."""

    @settings(max_examples=80, deadline=None)
    @given(seed=_SEEDS, steps=_weight_steps())
    def test_weights_equal_fresh_rng_for_draws(self, seed, steps):
        n, m, indices = steps
        sampler = ConditionSampler.empirical(labels_data(n, 1), seed=seed)
        K = max(1, 2**14 // n)
        pvals = [1.0 / n] * n
        for index in indices + indices[::-1]:
            if 0 <= index < 2**32:
                first = index - index % K
                count = min(K, 2**32 - first)
                want = rng_for((seed, "block", m), first).multinomial(
                    m, pvals, size=count)[index - first] / m
            else:
                first, count = index, 1
                want = rng_for(seed, index).multinomial(m, pvals) / m
            got = sampler.draw(index, m)
            assert np.array_equal(got.weights, want) and got.size == m
            assert got.points is sampler.data
            assert not got.weights.flags.writeable
            (mean,) = sampler.reduce(index, m, sample_mean)
            assert not mean.flags.writeable
            assert sampler._steps[0] == first and len(sampler._steps[3]) == count

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
        reference = BlockReference.empirical(data, seed=seed)
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
        reference = BlockReference.empirical(data, seed=3)
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
        # both panels' stats, on index rows of at most 256 conditions and of
        # more (m <= 4n) and on multinomial weights (m > 4n), reduce steps
        # 0 to 9 in one call
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
            for m in (20, 281, 257):
                sampler.reduce(0, m, stats_fn)
                before = len(calls)
                for index in range(1, 10):
                    sampler.reduce(index, m, stats_fn)
                assert len(calls) == before

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


_REDUCE_KINDS = ("rows", "wide_rows", "weights", "callable")


@st.composite
def _reduce_runs(draw):
    """(kinds, n, k, steps): (index, m) steps of two sample sizes, interleaved.

    The first size draws index rows of at most 256 conditions or of more
    (256 < m <= 4n), multinomial weights (m > 4n) or a callable sampler's
    points (then the second does too); the second size is any kind on the
    same sampler.  Every kind comes from blocks.  Indices sit around the
    first size's block edges, below 20,000, near 2**32 or outside
    [0, 2**32), out of order, and the second size comes in between.
    """
    n, k = draw(st.integers(65, 80)), draw(st.integers(2, 3))
    first = draw(st.sampled_from(_REDUCE_KINDS))
    second = "callable" if first == "callable" else \
        draw(st.sampled_from(_REDUCE_KINDS[:3]))

    def size(kind):
        return draw({"rows": st.integers(1, 256),
                     "wide_rows": st.integers(257, 4 * n),
                     "weights": st.integers(4 * n + 1, 4 * n + 300),
                     "callable": st.integers(1000, 3000)}[kind])

    m1, m2 = size(first), size(second)
    K = 2**14 // n if first == "weights" else min(4096, 2**16 // m1)
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
                # a callable's rows are fn's own results, one per sample
                assert sampler._steps[2] is fn
                if kinds[0] != "callable":
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


def grid_point(org):
    """``base + alpha * (B @ counts)``, the organism's point on its grid."""
    return org.base + org.alpha * matvec(org.basis.vectors, org.counts.astype(float))


class TestOrganism:
    def test_grid_invariance_many_steps(self):
        B = MutationSet(rng_for(21).standard_normal((3, 4)))
        org = walk(B, np.array([0.5, -0.2, 1.0]), 0.01, 10_000, seed=22).organism
        assert np.abs(org.counts).sum() > 0
        assert np.allclose(org.coords, grid_point(org), rtol=0, atol=1e-10)

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
        # each step since the last renewal and each term of the grid point
        # rounds once, at no more than the largest magnitude on the path
        since = steps - (steps - 1) // period * period
        B = np.abs(org.basis.vectors)
        grid = np.abs(org.base).max() + alpha * (B @ np.abs(org.counts)).max()
        mag = max(np.abs(res.path[1:]).max(), grid) + alpha * B.max()
        err = np.abs(org.coords - grid_point(org)).max()
        assert err <= (since + dF + 2) * np.spacing(mag)

    def test_a_renewal_rebases_at_the_recorded_path_row(self):
        # the new grid starts at the coordinates the loop reached, bit for
        # bit, not at the old grid point
        rng = np.random.default_rng(8)

        def basis():
            return MutationSet(rng.uniform(-1.0, 1.0, (3, 4)) + 1e-3)

        res = walk(basis(), rng.uniform(-1.0, 1.0, 3), 0.037, 2500, seed=9,
                   renewal_period=700,
                   renewal_fn=lambda renewal_rng, step: basis(),
                   record_path=True)
        # renewals at steps 0, 700, 1,400 and 2,100
        assert res.organism.base.tobytes() == res.path[2100].tobytes()

    def test_the_start_is_the_grid_point_of_zero_counts(self):
        # f0 + alpha * (B @ 0) turns a -0.0 in f0 into +0.0
        f0 = np.array([-0.0, 0.25])
        res = walk(MutationSet.orthonormal(2), f0, 0.5, 1, seed=3,
                   record_path=True)
        assert res.path[0].tobytes() == np.array([0.0, 0.25]).tobytes()

    @pytest.mark.parametrize("f0", [np.zeros(3), np.zeros(1), np.zeros((1, 2)),
                                    0.0, [0.0, np.nan], [np.inf, 0.0]],
                             ids=["long", "short", "matrix", "scalar", "nan", "inf"])
    def test_f0_must_hold_dG_finite_coordinates(self, f0):
        with pytest.raises(ConfigError, match="f0 must hold 2 finite coordinates"):
            EvolutionConfig(mutations=MutationSet.orthonormal(2), alpha=0.1,
                            tol=0.1, m=1, t_steps=1, epsilon=0.1, f0=f0)

    def test_the_config_owns_its_f0(self):
        def config(**f0):
            return EvolutionConfig(mutations=MutationSet.orthonormal(3),
                                   alpha=0.1, tol=0.1, m=1, t_steps=1,
                                   epsilon=0.1, **f0)

        assert np.array_equal(config().f0, np.zeros(3))
        f0 = np.array([0.5, -0.2, 1.0])
        cfg = config(f0=f0)
        f0[0] = 7.0   # the caller's array is not the run's start
        assert cfg.f0.tolist() == [0.5, -0.2, 1.0]
        assert config(f0=[1, 2, 3]).f0.dtype == float

    @pytest.mark.parametrize("renewal, message", [
        (MutationSet.orthonormal(3), "replacement basis has a different gene dimension"),
        (np.eye(2), "renewal callback must return a MutationSet")])
    def test_a_renewal_must_return_a_mutation_set_of_the_same_dG(self, renewal,
                                                                 message):
        first = MutationSet.orthonormal(2)
        with pytest.raises(ModelError, match=message):
            walk(first, np.zeros(2), 0.1, 20, seed=4, renewal_period=5,
                 renewal_fn=lambda rng, step: first if step == 0 else renewal)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Organism)])
    def test_the_record_is_frozen(self, name):
        org = walk(MutationSet.orthonormal(2), np.zeros(2), 0.5, 3, seed=1).organism
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(org, name, getattr(org, name))


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
