"""Core model: divergence generators, gene panels, condition samplers, organisms.

An organism is a vector in a finite-dimensional inner-product space H spanned
by a fixed panel of gene functions g_1..g_dG.  On a condition x the panel
evaluates to a d x dG matrix G_x whose columns are the gene outputs, and the
organism with gene coordinates ``f`` expresses the output ``G_x @ f``.
Performance against target outputs is the negated mean Bregman divergence
between expressed and target outputs.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ModelError
from .kernels import dot, matvec, quad_form, weighted_rows

# Sample sizes above this multiple of the dataset size are drawn as
# multinomial counts instead of explicit index lists.  The empirical mean of
# any per-condition statistic is identical in distribution either way; the
# counts form just avoids materialising huge index arrays, and its weights
# are drawn a block of steps at a time (``ConditionSampler._weight_rows``).
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
    This is the definition of every random stream in the package:
    ``ConditionSampler.draw`` reaches the same streams without calling it.
    """
    words = _seed_words(seed) + _seed_words(index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words filled by hashmix and mix with these constants and a 16-bit
# xorshift.  The constants follow a fixed sequence whatever the data, so the
# hash of many entropy lists that differ in one word runs as array arithmetic.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# the multiplier of PCG64's 128-bit linear congruential step
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# Step streams are seeded a block at a time: 4,096 x 4 uint64 = 128 KB.
_SEED_BLOCK = 4096
# Index rows of samples of at most 256 conditions are drawn a block of up to
# 4,096 steps at a time.  Above 256, numpy's own bounded draw per step is the
# faster: at m = 50,000 the block draw took 2.3 to 2.6 times as long on a
# 2-core x86-64 VM.  A block holds at most about 2**16 indices (512 KB of
# int64), computed 2**14 values at a time so the temporaries stay small.
_BLOCK_MAX_M = 256
_BLOCK_INDICES = 1 << 16
_CHUNK_INDICES = 1 << 14
# Multinomial weights are drawn a block of max(1, 2**14 // n) steps at a
# time, about 2**14 float64 weights (128 KB).  A block of 2**17 weights was
# no faster and raised the peak RSS of a supervised sweep by about 4 MB.
_BLOCK_WEIGHTS = 1 << 14


def _uint32_words(words) -> list:
    # SeedSequence splits each entropy int into little-endian 32-bit words,
    # with 0 -> [0].
    out = []
    for w in words:
        out.append(w & _MASK32)
        while w > _MASK32:
            w >>= 32
            out.append(w & _MASK32)
    return out


def _stream_seeds(prefix: list, first: int, count: int) -> np.ndarray:
    """PCG64 seeds of the streams ``rng_for(seed, i)``, i in [first, first + count).

    ``prefix`` is ``_uint32_words(_seed_words(seed))`` and every index must be
    below 2**32.  Row ``i - first`` equals
    ``SeedSequence(_seed_words(seed) + [i]).generate_state(4, np.uint64)``.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> np.uint32(16))

    entropy = [np.full(count, w, np.uint32) for w in prefix]
    entropy.append(np.arange(first, first + count, dtype=np.uint32))
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))
    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))

    # generate_state(4, np.uint64) reads 8 words as little-endian word pairs
    seeds = np.empty((count, 4), dtype="<u8")
    halves = seeds.view("<u4")
    hash_const = _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        halves[:, k] = value ^ (value >> np.uint32(16))
    return seeds


@functools.cache
def _seed_row_type() -> type:
    """``_SeedRow``, defined on first use: importing evospace loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    @dataclass
    class _SeedRow(ISeedSequence):
        # a _stream_seeds row: the four uint64 words SeedSequence gives the stream
        row: np.ndarray

        def generate_state(self, n_words, dtype) -> np.ndarray:
            return self.row

        def __reduce__(self):   # a local class: pickle rebuilds it by _seed_row
            return _seed_row, (self.row,)

    return _SeedRow


def _seed_row(row: np.ndarray):
    return _seed_row_type()(row)


def _seeded(row: np.ndarray) -> np.random.Generator:
    """The generator ``rng_for`` builds for the stream of a seed row."""
    return np.random.Generator(np.random.PCG64(_seed_row(row)))


def _jump_limbs(outputs: int) -> np.ndarray:
    """(8, outputs) jump-ahead constants for the first ``outputs`` PCG64 outputs.

    A PCG64 seeded from ``initstate`` and ``inc`` steps to MULT*x + inc with
    x = initstate + inc, and steps again before each output, so output j is
    the XSL-RR of MULT**(j+2)*x + B_(j+2)*inc mod 2**128, where
    B_k = MULT**(k-1) + ... + MULT + 1 (Brown's jump-ahead).  Rows 0-3 hold
    MULT**(j+2) and rows 4-7 B_(j+2), each as its two low 32-bit limbs then
    its low and high 64-bit words.
    """
    power, total = _PCG64_MULT, 1
    cols = []
    for _ in range(outputs):
        total = (total + power) & _MASK128
        power = (power * _PCG64_MULT) & _MASK128
        cols.append([w for c in (power, total) for w in
                     (c & _MASK32, (c >> 32) & _MASK32, c & _MASK64, c >> 64)])
    return np.array(cols, dtype=np.uint64).T.copy()


# the constants for every block's sample size, m <= _BLOCK_MAX_M
_JUMP_LIMBS = _jump_limbs((_BLOCK_MAX_M + 1) // 2)


def _pcg64_outputs(seeds: np.ndarray, outputs: int) -> np.ndarray:
    """(lanes, outputs) first outputs of the PCG64s seeded from the seed rows.

    Row (s0, s1, s2, s3) seeds initstate = s0:s1 and inc = 2*(s2:s3) + 1
    (high:low 64-bit words), as ``PCG64(SeedSequence)`` does.  Of a 128-bit
    product mod 2**128 the low words multiply in full, from 32-bit limbs,
    and the cross words only mod 2**64.
    """
    s0, s1, s2, s3 = (seeds[:, k:k + 1] for k in range(4))
    inc_lo = (s3 << 1) | 1
    inc_hi = (s2 << 1) | (s3 >> 63)
    x_lo = s1 + inc_lo
    x_hi = s0 + inc_hi + (x_lo < s1)
    jump = _JUMP_LIMBS[:, :outputs]
    low = mid = hi = 0
    for lane_lo, lane_hi, (c0, c1, c_lo, c_hi) in ((x_lo, x_hi, jump[:4]),
                                                   (inc_lo, inc_hi, jump[4:])):
        l0, l1 = lane_lo & _MASK32, lane_lo >> 32
        p00, p01, p10 = c0 * l0, c0 * l1, c1 * l0
        low = low + (p00 & _MASK32)
        mid = mid + (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        hi = (hi + c1 * l1 + (p01 >> 32) + (p10 >> 32)
              + c_lo * lane_hi + c_hi * lane_lo)
    mid = mid + (low >> 32)
    lo = (low & _MASK32) | (mid << 32)
    hi = hi + (mid >> 32)
    # XSL-RR: rotate hi ^ lo right by the top 6 bits of the state
    rot = hi >> 58
    value = hi ^ lo
    return (value >> rot) | (value << ((64 - rot) & 63))


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
    """Draws per-step condition batches, deterministically in (seed, index).

    It draws from exactly one of ``data``, an (n, k) dataset, and ``fn``, a
    callback ``rng, m -> (m, k)``.  ``draw(index, m)`` draws the one step
    ``index`` on the stream ``rng_for(seed, index)``.  For indices in
    [0, 2**32) the sampler gets there without ``SeedSequence``: it hashes
    the seeds of a block of indices at once and builds each draw's generator
    from its index's row (``_seeded``).

    ``reduce(index, m, fn)`` gives a step the statistics ``fn`` computes
    from its sample.  An empirical sampler computes and keeps them for one
    block of steps at a time (``_step_block``), of one of two kinds:

    * index rows (m <= 4n) of at most 256 conditions, drawn at once by
      jumping each step's PCG64 ahead in numpy lanes (``_index_rows``);
    * multinomial weights (m > 4n), each step's counts drawn on its own
      seeded stream (``_weight_rows``).

    Block rows equal ``draw``'s samples bit for bit.  A sampler must not be
    shared between threads.
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
        self._words = _uint32_words(_seed_words(seed))
        self._seeds = (-1, None)
        self._steps = (0, 0, None, [])

    @classmethod
    def empirical(cls, data, seed=0) -> "ConditionSampler":
        return cls(data=data, seed=seed)

    @classmethod
    def from_callable(cls, fn, seed=0) -> "ConditionSampler":
        return cls(fn=fn, seed=seed)

    def _stream(self, index) -> np.random.Generator:
        # rng_for(self.seed, index), from the index's row of the block's seeds
        if not (isinstance(index, (int, np.integer)) and 0 <= index < 1 << 32):
            return rng_for(self.seed, index)
        start = index - index % _SEED_BLOCK
        if start != self._seeds[0]:
            self._seeds = (start, _stream_seeds(self._words, start, _SEED_BLOCK))
        return _seeded(self._seeds[1][index - start])

    def _index_rows(self, first: int, count: int, m: int) -> np.ndarray:
        """(count, m) matrix whose row k is ``rng_for(seed, first + k).integers(0, n, size=m)``.

        n is the dataset size, at most 2**32, and first + count <= 2**32.
        ``integers`` splits each PCG64 output into two 32-bit halves, low
        first, and maps a half h to (h * n) >> 32 (Lemire), rejecting it
        when the low word of h * n is below (2**32 - n) % n.  A step whose
        first m halves include a rejected one is drawn again by ``integers``
        on its seeded stream, a share of at most about n * m / 2**32 of the
        steps.
        """
        n = self.data.shape[0]
        seeds = _stream_seeds(self._words, first, count)
        threshold = ((1 << 32) - n) % n
        rows = np.empty((count, m), dtype=np.int64)
        lanes = max(1, _CHUNK_INDICES // m)
        for start in range(0, count, lanes):
            words = _pcg64_outputs(seeds[start:start + lanes], (m + 1) // 2)
            halves = words.astype("<u8", copy=False).view("<u4")[:, :m]
            # widened first: NumPy 1 keeps uint32 * uint64(n) in uint32
            scaled = halves.astype(np.uint64) * np.uint64(n)
            rows[start:start + lanes] = scaled >> 32
            if threshold:
                redo = ((scaled & _MASK32) < threshold).any(axis=1)
                for k in np.flatnonzero(redo) + start:
                    rows[k] = _seeded(seeds[k]).integers(0, n, size=m)
        return rows

    def _weight_rows(self, indices, m: int) -> np.ndarray:
        """Read-only (len(indices), n) matrix of the steps' multinomial weights.

        Row k is ``rng_for(seed, indices[k]).multinomial(m, [1/n] * n) / m``,
        each step on its own seeded stream.
        """
        n = self.data.shape[0]
        pvals = np.full(n, 1.0 / n)
        weights = np.empty((len(indices), n))
        for k, index in enumerate(indices):
            weights[k] = self._stream(index).multinomial(m, pvals)
        weights /= m
        weights.flags.writeable = False
        return weights

    def _step_block(self, index, m: int) -> Optional[tuple]:
        """(first, block): a new block of steps holding step ``index``.

        Row ``index - first`` of the block is the step's draw: for m > 4n a
        ``_weight_rows`` block of max(1, 2**14 // n) steps, else an
        ``_index_rows`` block of min(4096, 2**16 // m) steps.  None when the
        step is not reduced from a block: a callable sampler, index rows of
        more than 256 conditions, an index outside [0, 2**32), or m < 1
        (for which ``reduce`` falls back to ``draw``, which rejects it).
        """
        integer = isinstance(index, (int, np.integer))
        if self.data is None or m < 1 or not (integer and 0 <= index < 1 << 32):
            return None
        n = self.data.shape[0]
        weighted = m > _WEIGHTED_DRAW_FACTOR * n
        if not weighted and (m > _BLOCK_MAX_M or n > 1 << 32):
            return None
        count = (max(1, _BLOCK_WEIGHTS // n) if weighted
                 else min(_SEED_BLOCK, _BLOCK_INDICES // m))
        first = int(index) - int(index) % count
        count = min(count, (1 << 32) - first)
        return first, (self._weight_rows(range(first, first + count), m)
                       if weighted else self._index_rows(first, count, m))

    def reduce(self, index, m: int, fn: Callable) -> tuple:
        """``fn(points, weights)`` of the sample ``draw(index, m)``: a tuple of arrays.

        When the step comes from a block, ``fn`` runs once for the whole
        block and the step reads its row of each array, read-only:
        ``fn(data, W)`` on the (K, n) multinomial weight rows W, and
        ``fn(data[rows], uniform)`` on the (K', m, k) points of K' index
        rows at a time, in slices of about 2**14 gathered values.  So ``fn``
        must reduce each weight row or stacked batch alone, as the gene
        panels' moments and the ``kernels`` do, into arrays with one row per
        step (a ``ModelError`` otherwise), and must depend on nothing else:
        the sampler keeps the rows of one block, for one ``fn`` and m.
        """
        first, size, kept, rows = self._steps
        if (kept is fn and size == m and isinstance(index, (int, np.integer))
                and 0 <= index - first < len(rows)):
            return rows[index - first]
        self._steps = (0, 0, None, [])   # free the old rows first
        block = self._step_block(index, m)
        if block is None:
            sample = self.draw(index, m)
            return fn(sample.points, sample.weights)
        first, block = block
        weighted = block.dtype != np.int64
        step = len(block) if weighted else \
            max(1, _CHUNK_INDICES // (m * max(self.data.shape[1], 1)))
        # a tuple per step, so that a step reads its row by one list index
        rows = []
        for k in range(0, len(block), step):
            steps = block[k:k + step]
            part = (fn(self.data, steps) if weighted
                    else fn(self.data[steps], np.full(m, 1.0 / m)))
            for a in part:
                if np.shape(a)[:1] != (len(steps),):
                    raise ModelError(
                        f"a block of {len(steps)} steps reduced to shape "
                        f"{np.shape(a)}: the function must reduce each "
                        f"stacked batch or weight row alone")
                a.flags.writeable = False
            rows += zip(*part)
        self._steps = (first, m, fn, rows)
        return rows[index - first]

    def draw(self, index: int, m: int) -> Sample:
        """Sample m conditions i.i.d. (with replacement for empirical data)."""
        if m < 1:
            raise ConfigError("sample size must be >= 1")
        if self.fn is not None:
            pts = np.asarray(self.fn(self._stream(index), m), dtype=float)
            if pts.ndim != 2 or pts.shape[0] != m:
                raise ModelError(f"sampler callback returned shape {pts.shape}, "
                                 f"expected ({m}, k)")
            if not np.all(np.isfinite(pts)):
                raise ModelError("sampler callback returned non-finite entries")
            return Sample(pts, np.full(m, 1.0 / m), m)
        n = self.data.shape[0]
        if m > _WEIGHTED_DRAW_FACTOR * n:
            return Sample(self.data, self._weight_rows([index], m)[0], m)
        rows = self._stream(index).integers(0, n, size=m)
        return Sample(self.data[rows], np.full(m, 1.0 / m), m)


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


@dataclass
class Organism:
    """Current genome: integer mutation counts over a base point.

    Gene coordinates are ``base + alpha * (B @ counts)``.  The mutator loop
    moves the float coordinates one rounded step at a time and settles
    ``counts`` and ``coords`` before each ``rebase`` and at the end of a run,
    so ``coords`` may differ from ``recompute_coords()`` by rounding;
    ``rebase`` restarts it from the grid point, ``recompute_coords()``.
    """

    basis: MutationSet
    base: np.ndarray
    alpha: float

    def __post_init__(self):
        self.base = _as_vector(self.base, "base coordinates")
        if self.base.shape[0] != self.basis.dG:
            raise ModelError("base coordinate dimension does not match the basis")
        self.counts = np.zeros(self.basis.dF, dtype=np.int64)
        self.coords = self.recompute_coords()

    def recompute_coords(self) -> np.ndarray:
        return self.base + self.alpha * matvec(self.basis.vectors,
                                               self.counts.astype(float))

    def rebase(self, basis: MutationSet) -> None:
        """Adopt a new mutation set, zeroing counts at the current position."""
        if basis.dG != self.basis.dG:
            raise ModelError("replacement basis has a different gene dimension")
        self.base = self.recompute_coords()
        self.basis = basis
        self.counts = np.zeros(basis.dF, dtype=np.int64)
        self.coords = self.base.copy()


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
