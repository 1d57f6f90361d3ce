"""Core model: divergence generators, gene panels, condition samplers, organisms.

An organism is a vector in a finite-dimensional inner-product space H spanned
by a fixed panel of gene functions g_1..g_dG.  On a condition x the panel
evaluates to a d x dG matrix G_x whose columns are the gene outputs, and the
organism with gene coordinates ``f`` expresses the output ``G_x @ f``.
Performance against target outputs is the negated mean Bregman divergence
between expressed and target outputs.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ModelError
from .kernels import dot, matvec, quad_form, weighted_rows

# Sample sizes above this multiple of the dataset size are drawn as
# multinomial counts instead of explicit index lists.  The empirical mean of
# any per-condition statistic is identical in distribution either way; the
# counts form just avoids materialising huge index arrays.
_WEIGHTED_DRAW_FACTOR = 4


def _as_vector(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ModelError(f"{name} must be a 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ModelError(f"{name} has non-finite entries")
    return a


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ModelError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ModelError(f"{name} has non-finite entries")
    return a


def _seed_words(entry) -> list:
    # SeedSequence entropy takes integers only; strings are hashed with a
    # stable digest (builtin hash() is salted per process) and sequences are
    # flattened.
    if isinstance(entry, (int, np.integer)):
        return [int(entry) & 0xFFFFFFFFFFFFFFFF]
    if isinstance(entry, str):
        digest = hashlib.sha256(entry.encode()).digest()
        return [int.from_bytes(digest[:8], "little")]
    if isinstance(entry, (tuple, list)):
        out = []
        for e in entry:
            out.extend(_seed_words(e))
        return out
    raise ConfigError(f"seed components must be ints, strings, or sequences, "
                      f"got {type(entry).__name__}")


def rng_for(seed, index: int = 0) -> np.random.Generator:
    """Deterministic generator for (seed, draw index) pairs.

    ``seed`` may be an int, a string label, or a nested sequence of them;
    the derived streams are independent across distinct (seed, index) pairs.
    Every random stream in the package is one of these; a
    ``ConditionSampler`` draws each block of steps on
    ``rng_for((seed, "block", m), first)``.
    """
    words = _seed_words(seed) + _seed_words(index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


# A block of steps draws on one generator.  Index rows and a callable's
# samples come min(4,096, 2**16 // m) steps at a time, at most about 2**16
# indices (512 KB of int64), and index rows are reduced 2**14 gathered values
# at a time so the temporaries stay small.  Multinomial weights come
# max(1, 2**14 // n) steps at a time, about 2**14 float64 weights (128 KB):
# a block of 2**17 weights was no faster and raised the peak RSS of a
# supervised sweep by about 4 MB.
_BLOCK_STEPS = 4096
_BLOCK_INDICES = 1 << 16
_CHUNK_INDICES = 1 << 14
_BLOCK_WEIGHTS = 1 << 14


# ---------------------------------------------------------------------------
# divergence generators


class BregmanGenerator:
    """Divergence generator D(u || v) = phi(u) - phi(v) - <grad phi(v), u - v>.

    Build one with a classmethod; each checks its inputs:

    * ``squared_euclidean()``: phi(u) = <u, u>, so D(u || v) = ||u - v||^2 and
      the Hessian of phi is the constant 2 I; its ``matrix`` None stands for I.
    * ``mahalanobis(M)``: phi(u) = <u, M u> for symmetric positive definite M,
      so D(u || v) = <u - v, M (u - v)> with constant Hessian 2 M.
    * ``custom(value, gradient, h_min, h_max)``: caller supplies value and
      gradient callbacks together with declared Hessian eigenvalue bounds.
    """

    def __init__(self, h_min: float, h_max: float, *, matrix=None,
                 value: Callable = None, gradient: Callable = None):
        self.h_min, self.h_max = h_min, h_max
        self.matrix = matrix
        self._value = value
        self._gradient = gradient

    # constructors ---------------------------------------------------------

    @classmethod
    def squared_euclidean(cls) -> "BregmanGenerator":
        return cls(2.0, 2.0)

    @classmethod
    def mahalanobis(cls, matrix) -> "BregmanGenerator":
        m = _as_matrix(matrix, "mahalanobis matrix")
        if m.shape[0] != m.shape[1] or not np.allclose(m, m.T, atol=1e-12):
            raise ModelError("mahalanobis matrix must be symmetric square")
        eig = np.linalg.eigvalsh(m)
        if eig[0] <= 0:
            raise ModelError("mahalanobis matrix must be positive definite")
        h_min, h_max = 2.0 * float(eig[0]), 2.0 * float(eig[-1])
        if h_max == math.inf:
            raise ModelError(f"the mahalanobis matrix overflows the float "
                             f"range: its curvature 2 * {eig[-1]} is not finite")
        return cls(h_min, h_max, matrix=0.5 * (m + m.T))

    @classmethod
    def custom(cls, value: Callable, gradient: Callable, h_min: float,
               h_max: float) -> "BregmanGenerator":
        if value is None or gradient is None:
            raise ConfigError("custom generator needs value and gradient callbacks")
        if h_min is None or h_max is None or not (0 < h_min <= h_max):
            raise ConfigError("custom generator needs bounds 0 < h_min <= h_max")
        return cls(float(h_min), float(h_max), value=value, gradient=gradient)

    # properties -----------------------------------------------------------

    @property
    def is_quadratic(self) -> bool:
        return self._gradient is None

    def quadratic_matrix(self, d: int) -> np.ndarray:
        """M such that D(u || v) = <u - v, M (u - v)>; quadratic kinds only."""
        if not self.is_quadratic:
            raise ConfigError("custom generators have no constant divergence matrix")
        if self.matrix is None:
            return np.eye(d)
        if self.matrix.shape[0] != d:
            k = self.matrix.shape[0]
            raise ModelError(f"the mahalanobis matrix is {k} x {k}, but the "
                             f"outputs it scores have dimension {d}")
        return self.matrix

    # evaluation -----------------------------------------------------------

    def gradient(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if not self.is_quadratic:
            return np.asarray(self._gradient(u), dtype=float)
        return 2.0 * (u if self.matrix is None else matvec(self.matrix, u))

    def divergence(self, u, v) -> float:
        u = _as_vector(np.atleast_1d(u), "u")
        v = _as_vector(np.atleast_1d(v), "v")
        if u.shape != v.shape:
            raise ModelError("divergence arguments must share a shape")
        if self.is_quadratic:
            return float(self.divergence_rows(u, v))
        out = (float(self._value(u)) - float(self._value(v))
               - float(dot(self.gradient(v), u - v)))
        if not math.isfinite(out):
            raise ModelError("custom divergence evaluated to a non-finite value")
        return out

    def divergence_rows(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise divergences for (n, d) stacks of outputs."""
        W = np.subtract(U, V)
        if not self.is_quadratic:
            return np.array([self.divergence(u, v) for u, v in zip(U, V)])
        return dot(W, W) if self.matrix is None else quad_form(W, self.matrix)


# ---------------------------------------------------------------------------
# gene panels


class GenePanel:
    """Gene panel mapping a condition x to the d x dG output matrix G_x.

    Subclasses define, in closed form over a stack X of n conditions,
    ``express(X, coords)``, the (n, d) organism outputs;
    ``_columns(X, targets, M)``, the per-condition columns whose weighted
    means are the moments, as the rows of a (..., c, n) array: the entries
    of G_x^T M G_x, then, given target outputs t(x), those of G_x^T M t(x)
    and t(x)^T M t(x) (M = I if None); and ``_split``, which cuts the
    weighted means into the moments.

    ``moments(X, targets=None, M=None, weights=None)`` reduces all the
    columns in one ``kernels.weighted_rows`` call and returns (second,
    cross, const), the last two None without targets; ``second_moment``
    reads the first.  The moments also take a stack of K batches, as
    (K, n, k) conditions with n weights or as (n, k) conditions with (K, n)
    weight rows, and return the K moments stacked, each bit for bit the
    moment of its batch alone: every column is summed by ``fold`` on its
    own.
    """

    d: int
    dG: int

    def moments(self, X, targets=None, M=None, weights=None) -> tuple:
        X = np.asarray(X, dtype=float)
        n = X.shape[-2]
        w = np.full(n, 1.0 / n) if weights is None else weights
        t = None if targets is None else np.asarray(targets, dtype=float)
        # _columns gives the columns as the rows of a (..., c, n) array, so
        # that weighted_rows reads each one contiguously
        columns = np.swapaxes(self._columns(X, t, M), -1, -2)
        return self._split(weighted_rows(w, columns), M, t is not None)

    def second_moment(self, X, M=None, weights=None):
        return self.moments(X, M=M, weights=weights)[0]


class IdentityPanel(GenePanel):
    """dG = d genes; G_x = I for every condition.

    G_x^T M G_x is M itself, so the only columns are t(x) and t(x)^T M t(x).
    """

    def __init__(self, d: int):
        if d < 1:
            raise ConfigError("identity panel needs d >= 1")
        self.d = self.dG = int(d)

    def express(self, X, coords):
        out = np.broadcast_to(np.asarray(coords, dtype=float),
                              (np.asarray(X).shape[0], self.d))
        return np.array(out)

    def _columns(self, X, targets, M):
        out = np.empty(X.shape[:-2] + (0 if targets is None else self.d + 1,
                                       X.shape[-2]))
        if targets is not None:
            out[..., :-1, :] = np.swapaxes(targets, -1, -2)
            out[..., -1, :] = quad_form(targets, np.eye(self.d) if M is None else M)
        return out

    def _split(self, sums, M, targeted):
        base = np.eye(self.d) if M is None else np.asarray(M, dtype=float)
        # the same second moment for each batch of a stack
        second = np.broadcast_to(base, sums.shape[:-1] + base.shape)
        if not targeted:
            return second, None, None
        tbar = sums[..., :self.d]
        return (second, tbar if M is None else matvec(M, tbar), sums[..., self.d])


class DataColumnPanel(GenePanel):
    """Scalar outputs (d = 1); gene j reads one coordinate of the condition.

    G_x is a 1 x dG row of condition entries, so an organism is a linear
    functional of the condition.  The genes read the first dG entries
    (conditions may carry extra columns after them, e.g. labels).  The
    columns of a condition x are vec(x x^T), x t(x) and t(x)^T M t(x); M is
    1 x 1, and its scale multiplies the first two means.
    """

    def __init__(self, dG: int):
        if dG < 1:
            raise ConfigError("data-column panel needs dG >= 1")
        self.d = 1
        self.dG = int(dG)

    def express(self, X, coords):
        X = np.asarray(X, dtype=float)[..., :self.dG]
        return matvec(X, coords).reshape(-1, 1)

    def _columns(self, X, targets, M):
        XT, q = np.swapaxes(X[..., :self.dG], -1, -2), self.dG * self.dG
        stack, n = XT.shape[:-2], XT.shape[-1]
        out = np.empty(stack + (q if targets is None else q + self.dG + 1, n))
        out[..., :q, :] = (XT[..., :, None, :] * XT[..., None, :, :]).reshape(
            stack + (q, n))
        if targets is not None:
            t = targets.reshape(stack + (n, 1))
            np.multiply(XT, np.swapaxes(t, -1, -2), out=out[..., q:-1, :])
            out[..., -1, :] = quad_form(t, np.eye(1) if M is None else M)
        return out

    def _split(self, sums, M, targeted):
        scale = 1.0 if M is None else float(np.asarray(M).reshape(()))
        q = self.dG * self.dG
        second = (scale * sums[..., :q]).reshape(sums.shape[:-1] + (self.dG, self.dG))
        if not targeted:
            return second, None, None
        return second, scale * sums[..., q:-1], sums[..., -1]


# ---------------------------------------------------------------------------
# condition samplers


@dataclass
class Sample:
    """A drawn batch of conditions with relative weights summing to one.

    Plain draws carry one row per draw with uniform weights; large draws from
    an empirical sampler carry the dataset rows with multinomial weights.
    ``size`` is always the nominal number of draws.
    """

    points: np.ndarray
    weights: np.ndarray
    size: int


class ConditionSampler:
    """Draws per-step condition samples, deterministically in (seed, index, m).

    It draws from exactly one of ``data``, an (n, k) dataset, and ``fn``, a
    callback ``rng, m -> (m, k)``.  The steps in [0, 2**32) come in blocks,
    cut at 2**32, and a block of K steps draws on one generator,
    ``rng_for((seed, "block", m), first)`` for its first step:

    * index rows (m <= 4n) as one ``integers(0, n, size=(K, m))`` call and a
      callable's samples as K calls of ``fn`` in step order, with
      K = min(4096, max(1, 2**16 // m));
    * multinomial weights (m > 4n) as one ``multinomial(m, [1/n] * n,
      size=K)`` call, divided by m, with K = max(1, 2**14 // n).

    Any other index draws its one sample on ``rng_for(seed, index)``.
    ``draw(index, m)`` draws the block's steps up to ``index`` on a fresh
    generator, so a sample is the same whatever the order of the draws.  A
    callback's ``rng`` is its block's generator: one that it keeps goes on
    from the block's last sample, and drawing on it moves no sample.

    ``reduce(index, m, fn)`` gives a step the statistics ``fn`` computes
    from its sample; the sampler keeps the step's block and the rows it has
    reduced so far.  A sampler must not be shared between threads.
    """

    def __init__(self, *, data=None, fn=None, seed=0):
        if (data is None) == (fn is None):
            raise ConfigError("a sampler needs exactly one of data, an (n, k) "
                              "dataset, and fn, a callback rng, m -> (m, k)")
        self.data = None if data is None else _as_matrix(data, "dataset")
        if self.data is not None and self.data.shape[0] == 0:
            raise ModelError("empirical sampler needs a nonempty dataset")
        self.fn = fn
        self.seed = seed
        _seed_words(seed)   # a seed of the wrong type fails here
        self._steps = (0, 0, None, [], ())

    @classmethod
    def empirical(cls, data, seed=0) -> "ConditionSampler":
        return cls(data=data, seed=seed)

    @classmethod
    def from_callable(cls, fn, seed=0) -> "ConditionSampler":
        return cls(fn=fn, seed=seed)

    def _weighted(self, m: int) -> bool:
        return (self.data is not None
                and m > _WEIGHTED_DRAW_FACTOR * self.data.shape[0])

    def _block(self, index: int, m: int) -> tuple:
        """(first, count, rng): the ``count`` steps from ``first`` on that
        share step ``index``'s generator ``rng``."""
        if m < 1:
            raise ConfigError("sample size must be >= 1")
        if not 0 <= index < 1 << 32:
            return index, 1, rng_for(self.seed, index)
        if self._weighted(m):
            count = max(1, _BLOCK_WEIGHTS // self.data.shape[0])
        else:
            count = min(_BLOCK_STEPS, max(1, _BLOCK_INDICES // m))
        first = index - index % count
        return (first, min(count, (1 << 32) - first),
                rng_for((self.seed, "block", m), first))

    def _samples(self, rng: np.random.Generator, count: int, m: int):
        """The next ``count`` steps' samples on ``rng``.

        A list of a callable's (m, k) points, a (count, m) int64 array of
        index rows, or a read-only (count, n) float array of multinomial
        weights.
        """
        if self.fn is not None:
            return [self._call(rng, m) for _ in range(count)]
        n = self.data.shape[0]
        if not self._weighted(m):
            return rng.integers(0, n, size=(count, m))
        weights = rng.multinomial(m, np.full(n, 1.0 / n), size=count) / m
        weights.flags.writeable = False
        return weights

    def _call(self, rng: np.random.Generator, m: int) -> np.ndarray:
        pts = np.asarray(self.fn(rng, m), dtype=float)
        if pts.ndim != 2 or pts.shape[0] != m:
            raise ModelError(f"sampler callback returned shape {pts.shape}, "
                             f"expected ({m}, k)")
        if not np.all(np.isfinite(pts)):
            raise ModelError("sampler callback returned non-finite entries")
        return pts

    def reduce(self, index, m: int, fn: Callable) -> tuple:
        """``fn(points, weights)`` of the sample ``draw(index, m)``: a tuple of arrays.

        The sampler draws the step's whole block and keeps it, for one
        ``fn`` and m, with the rows of the steps reduced so far; the step
        reads its row of each array, read-only.  ``fn(data, W)`` runs once
        on the block's (K, n) multinomial weight rows W.  Index rows are
        reduced as the steps reach them, by ``fn(data[rows], uniform)`` on
        the (K', m, k) points of K' index rows at a time, slices of about
        2**14 gathered values: a run reduces no slice past its last step.
        So ``fn`` must reduce each weight row or stacked batch alone, as the
        gene panels' moments and the ``kernels`` do, into arrays with one
        row per step (a ``ModelError`` otherwise).  A callable's samples
        are reduced one at a time, as ``fn(points, uniform)``, all at the
        block's first reduction.  ``fn`` must depend on nothing else.
        """
        first, size, kept, rows, samples = self._steps
        same = kept is fn and size == m and isinstance(index, (int, np.integer))
        if same and 0 <= index - first < len(rows):
            return rows[index - first]
        if not (same and 0 <= index - first < len(samples)):
            self._steps = (0, 0, None, [], ())   # free the old block first
            index = operator.index(index)
            first, count, rng = self._block(index, m)
            samples, rows = self._samples(rng, count, m), []
            self._steps = (first, m, fn, rows, samples)
        weighted = self._weighted(m)
        # a weight block needs no uniform weights: at m = 50,000 building
        # them (400 KB) at each block made a supervised sweep 15% slower
        uniform = None if weighted else np.full(m, 1.0 / m)
        if self.fn is not None:
            rows += [fn(points, uniform) for points in samples]
        # a tuple per step, so that a step reads its row by one list index
        while index - first >= len(rows):
            step = len(samples) if weighted else \
                max(1, _CHUNK_INDICES // (m * max(self.data.shape[1], 1)))
            steps = samples[len(rows):len(rows) + step]
            part = (fn(self.data, steps) if weighted
                    else fn(self.data[steps], uniform))
            for a in part:
                if np.shape(a)[:1] != (len(steps),):
                    raise ModelError(
                        f"a block of {len(steps)} steps reduced to shape "
                        f"{np.shape(a)}: the function must reduce each "
                        f"stacked batch or weight row alone")
                a.flags.writeable = False
            rows += zip(*part)
        return rows[index - first]

    def draw(self, index: int, m: int) -> Sample:
        """Sample m conditions i.i.d. (with replacement for empirical data)."""
        index = operator.index(index)
        first, _, rng = self._block(index, m)
        sample = self._samples(rng, index - first + 1, m)[-1]
        if self._weighted(m):
            return Sample(self.data, sample, m)
        points = sample if self.data is None else self.data[sample]
        return Sample(points, np.full(m, 1.0 / m), m)


# ---------------------------------------------------------------------------
# mutation sets and organisms


class MutationSet:
    """The available mutation vectors, columns of a dG x dF matrix.

    Each step perturbs the organism by +/- alpha times one column; offspring
    are drawn uniformly from whichever candidate class applies.
    """

    def __init__(self, vectors):
        B = _as_matrix(vectors, "mutation vectors")
        self.vectors = B
        self.dG, self.dF = B.shape
        with np.errstate(over="ignore"):   # reported as a ModelError below
            norms = np.sqrt(dot(B.T, B.T))
        if not np.isfinite(norms).all():
            raise ModelError("the mutation vectors overflow the float range: "
                             "a squared norm is not finite")
        if np.any(norms == 0.0):
            raise ModelError("mutation vectors must be nonzero")
        self.norms = norms

    @classmethod
    def orthonormal(cls, dG: int) -> "MutationSet":
        return cls(np.eye(dG))

    def column(self, i: int) -> np.ndarray:
        return self.vectors[:, i]

    @property
    def max_norm(self) -> float:
        return float(self.norms.max())


@dataclass(frozen=True)
class Organism:
    """The genome a run ends on, built once: integer mutation counts over a base point.

    ``base`` is where the run last adopted ``basis``: ``f0``, or the
    coordinates at its last renewal.  ``counts`` are the net signed steps
    along each column since then, and ``coords`` the coordinates after the
    last step, one rounding a step, so they lie within rounding of
    ``base + alpha * (B @ counts)``.
    """

    basis: MutationSet
    base: np.ndarray
    alpha: float
    counts: np.ndarray
    coords: np.ndarray


# ---------------------------------------------------------------------------
# performance


def empirical_performance(coords, target_outputs, panel: GenePanel,
                          sample: Sample, gen: BregmanGenerator) -> float:
    """Negated weighted mean divergence between expressed and target outputs.

    ``target_outputs`` must align row-for-row with ``sample.points``.  The
    result is <= 0, with equality iff expression matches the target on every
    sampled condition.
    """
    coords = _as_vector(coords, "organism coordinates")
    t = np.asarray(target_outputs, dtype=float)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    if t.shape != (sample.points.shape[0], panel.d):
        raise ModelError(f"target outputs shape {t.shape} does not match "
                         f"{(sample.points.shape[0], panel.d)}")
    if not np.all(np.isfinite(t)):
        raise ModelError("target outputs have non-finite entries")
    outputs = panel.express(sample.points, coords)
    divs = gen.divergence_rows(outputs, t)
    return float(-dot(sample.weights, divs))
