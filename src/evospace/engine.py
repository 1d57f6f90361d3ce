"""Mutator loop: tolerance-gated selection over a signed step neighborhood.

Each step draws a fresh condition sample, scores the current organism and all
2 dF single-step mutants on it, and splits the mutants into a beneficial set
(gain at least tol, inclusive) and a neutral set (absolute gain strictly
below tol).  Offspring are drawn uniformly from the beneficial set when it is
nonempty, else from the neutral set, else the run either halts (strict
policy) or picks uniformly from the whole neighborhood (forced policy).
The model is a ``QuadraticPerfModel``, which gives each step's statistics,
the gains and the oracle scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfigError, ModelError
from .kernels import compile_floats, dot, fold_source, matvec, quad_form
from .model import (BregmanGenerator, ConditionSampler, GenePanel,
                    MutationSet, Organism, rng_for)

FAILURE_POLICIES = ("strict", "forced_uniform")
# The longest run a trace records.  Its columns take 37 bytes a step, about
# 80 GB at this bound; numpy refuses a column of 2**62 rows outright.
MAX_STEPS = 2**31 - 1
# Oracle scores are computed for up to this many steps at once.
ORACLE_BLOCK = 4096


def _signed_steps(mutations: MutationSet, alpha: float) -> np.ndarray:
    """(2 dF, dG) matrix of signed steps in neighborhood order."""
    steps = np.empty((2 * mutations.dF, mutations.dG))
    steps[0::2] = alpha * mutations.vectors.T
    steps[1::2] = -alpha * mutations.vectors.T
    return steps


def _classify(gains, tol: float) -> tuple:
    """Positional indices of the beneficial and neutral mutants, as two lists.

    Beneficial: gain >= tol (inclusive).  Neutral: |gain| < tol (strict).
    A gain of exactly -tol lands in neither class, nor does a NaN gain.
    """
    bene, neut = [], []
    for j, g in enumerate(gains):
        if g >= tol:
            bene.append(j)
        elif g > -tol:
            neut.append(j)
    return bene, neut


@lru_cache(maxsize=None)
def _gain_scorer(d: int) -> tuple:
    """``QuadraticPerfModel.score`` for d genes, as straight-line Python.

    Two functions on lists of Python floats, every sum in ``kernels.fold``'s
    order: ``premiums(quad_rows, step_rows)``, the list of
    ``quad_form(s, quad)`` over the steps s, and ``scorer(quad_rows,
    step_rows, premiums, f, cross, const, tol)``, which returns (perf of f,
    list of gains, beneficial, neutral), perf bit for bit
    ``QuadraticPerfModel._eval`` of f, gain k ``2 dot(s_k, cross -
    matvec(quad, f)) - premium_k``, and the two classes as ``_classify``
    splits the gains.  The source grows linearly in d.
    """
    def dot_source(a, b):
        terms = [f"{a.format(i)} * {b.format(i)}" for i in range(d)]
        return f"({fold_source(terms)})"

    def names(stem):
        return "".join(f"{stem}{i}, " for i in range(d))

    source = "\n".join([
        "def premiums(quad_rows, step_rows):",
        "    out = []",
        "    for s in step_rows:",
        f"        {names('qs')}= [{dot_source('r[{}]', 's[{}]')} for r in quad_rows]",
        f"        out.append({dot_source('s[{}]', 'qs{}')})",
        "    return out",
        "",
        "def scorer(quad_rows, step_rows, premiums, f, cross, const, tol):",
        f"    {names('f')}= f",
        f"    {names('c')}= cross",
        f"    {names('qf')}= [{dot_source('r[{}]', 'f{}')} for r in quad_rows]",
        f"    perf = -({dot_source('f{}', 'qf{}')} - 2.0 * {dot_source('f{}', 'c{}')} + const)",
        *(f"    g{i} = c{i} - qf{i}" for i in range(d)),
        "    gains, bene, neut = [], [], []",
        "    k = 0",
        f"    for ({names('s')}), p in zip(step_rows, premiums):",
        f"        v = 2.0 * {dot_source('s{}', 'g{}')} - p",
        "        gains.append(v)",
        "        if v >= tol:",
        "            bene.append(k)",
        "        elif v > -tol:",
        "            neut.append(k)",
        "        k += 1",
        "    return perf, gains, bene, neut", ""])
    compiled = compile_floats("scorer", source)
    return compiled["premiums"], compiled["scorer"]


def _selections(rng: np.random.Generator, words: int = 256) -> Callable:
    """``select(k)``: the next ``rng.integers(0, k)`` for 1 <= k <= 2**32.

    numpy draws such an index from the next 32-bit half of the generator's
    output, low half first, and maps a half h to (h * k) >> 32 (Lemire),
    drawing again while the low word of h * k is below (2**32 - k) % k; for
    k = 1 it draws nothing.  ``select`` does the same on Python ints, reading
    the raw outputs ``words`` at a time, so a run of calls returns what the
    same run of ``integers`` calls would.  ``rng`` must not be drawn from
    otherwise meanwhile.
    """
    raw = rng.bit_generator.random_raw

    def halves():
        while True:
            yield from raw(words).astype("<u8", copy=False).view("<u4").tolist()

    half = halves().__next__

    def select(k: int) -> int:
        if k == 1:
            return 0
        m = half() * k
        if m & 0xFFFFFFFF < k:   # k bounds the threshold, so this is rare
            threshold = ((1 << 32) - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = half() * k
        return m >> 32

    return select


# ---------------------------------------------------------------------------
# performance models


class QuadraticPerfModel:
    """The loop's model: empirical performance exact quadratic in the genome.

    Each step the loop calls ``draw(step, m, coords)`` for the step's
    statistics, with the coordinates before the step as a list of Python
    floats, and then ``score(stats, coords, steps, tol)``.
    ``true_perf(coords, step)`` is the oracle perf of the organism after
    ``step`` steps; the loop calls it before the first step and after the
    last.  Between them it forms the coordinates after each step and calls
    ``true_perf_rows(C)`` on a block of up to ``ORACLE_BLOCK`` of them, C[k]
    the organism after the k-th step since the last call.

    ``stats_fn(points, weights)`` maps a condition sample to a triple
    (quad, cross, const) with performance -(c^T quad c - 2 c . cross + const);
    the required ``true_stats`` is the distribution counterpart that the
    oracle scores.
    Each step's triple is ``sampler.reduce(step, m, stats_fn)``, so from a
    cached block of steps stats_fn reduces the whole block at once, and it
    must reduce each stacked batch or weight row alone
    (``ConditionSampler.reduce``).  Every product is a ``kernels`` one, so
    the oracle (``_eval``) and ``score`` agree bit for bit on the same
    coordinates, whatever the CPU.  ``score`` uses the gain identity: the
    step s from f gains 2 s . (cross - quad f) - s^T quad s, a return less a
    premium, in plain Python floats.  Premiums are reused while ``quad`` and
    ``steps`` are the same objects, so a stats_fn must return a new ``quad``
    array rather than edit one in place.
    """

    def __init__(self, sampler: ConditionSampler, stats_fn: Callable,
                 true_stats):
        self.sampler = sampler
        self.stats_fn = stats_fn
        self.true_stats = true_stats
        self._premium_key = (None, None)

    def draw(self, step: int, m: int, coords):
        quad, cross, const = self.sampler.reduce(step, m, self.stats_fn)
        return quad, cross, float(const)

    @staticmethod
    def _eval(stats, C: np.ndarray) -> np.ndarray:
        """Perf of each row of C; ``cross`` and ``const`` may be per-row too."""
        quad, cross, const = stats
        return -(quad_form(C, quad) - 2.0 * dot(C, cross) + const)

    def score(self, stats, coords, steps, tol: float) -> tuple:
        """(perf of ``coords``, gains of the rows of ``steps``, beneficial, neutral).

        The gains are a list, and the beneficial and neutral mutants two
        lists of row positions, split as ``_classify(gains, tol)`` splits
        them.  ``coords``, ``steps`` and the stats' ``cross`` may be numpy
        arrays or lists of Python floats; lists are read as they are.
        """
        quad, cross, const = stats
        if self._premium_key[0] is not quad or self._premium_key[1] is not steps:
            # the key holds both objects, so neither id can be reused meanwhile
            self._premium_key = (quad, steps)
            quad_rows = np.asarray(quad, dtype=float).tolist()
            step_rows = steps if isinstance(steps, list) else steps.tolist()
            premiums, self._scorer = _gain_scorer(len(quad_rows))
            self._rows = (quad_rows, step_rows, premiums(quad_rows, step_rows))
        if not isinstance(coords, list):
            coords = np.asarray(coords, dtype=float).tolist()
        if not isinstance(cross, list):
            cross = np.asarray(cross, dtype=float).tolist()
        return self._scorer(*self._rows, coords, cross, const, tol)

    def true_perf(self, coords, step: int) -> float:
        return float(self._eval(self.true_stats, np.asarray(coords, float)))

    def true_perf_rows(self, C: np.ndarray) -> np.ndarray:
        # scores against the fixed true_stats: a subclass whose true_perf
        # reads per-step state overrides this too
        return self._eval(self.true_stats, C)


def quadratic_stats_for(panel: GenePanel, gen: BregmanGenerator,
                        target_fn: Callable) -> Callable:
    """stats_fn for a quadratic generator and per-condition target outputs.

    ``target_fn(points)`` supplies the (..., n, d) target outputs of a batch
    of conditions or of a stack of them.  The returned ``moments(points,
    weights)`` reduces a sample, or a stack of batches or of weight rows, to
    the quadratic moments of the empirical performance in one stacked
    kernel call (``GenePanel.moments``); each batch's moments are bit for
    bit its moments alone.
    """
    M = gen.quadratic_matrix(panel.d)

    def moments(points: np.ndarray, weights: np.ndarray) -> tuple:
        t = np.asarray(target_fn(points), dtype=float)
        if t.shape[:-1] != np.shape(points)[:-1]:
            raise ModelError(
                f"target_fn mapped points of shape {np.shape(points)} to "
                f"shape {t.shape}: it must map (..., n, k) points to "
                f"(..., n, d) targets, keeping the batch axes")
        return panel.moments(points, t, M=M, weights=weights)

    return moments


# ---------------------------------------------------------------------------
# the loop


@dataclass
class EvolutionConfig:
    mutations: MutationSet
    alpha: float
    tol: float
    m: int
    t_steps: int
    epsilon: float                        # for in-target trace flags
    seed: int = 0
    failure_policy: str = "strict"
    renewal_period: Optional[int] = None  # draw a new mutation set every k steps
    renewal_fn: Optional[Callable] = None  # (rng, step) -> MutationSet
    f0: Optional[np.ndarray] = None       # the zero vector when None
    record_path: bool = False

    def __post_init__(self):
        dG = self.mutations.dG
        self.f0 = np.zeros(dG) if self.f0 is None else np.array(self.f0, float)
        if self.f0.shape != (dG,) or not np.isfinite(self.f0).all():
            raise ConfigError(f"f0 must hold {dG} finite coordinates, got {self.f0.tolist()}")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigError(f"failure policy must be one of {FAILURE_POLICIES}")
        for name, value in (("alpha", self.alpha), ("tol", self.tol),
                            ("epsilon", self.epsilon)):
            if not 0 < value < np.inf:   # NaN fails both comparisons
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.m < 1 or self.t_steps < 1:
            raise ConfigError("m and t_steps must be >= 1")
        if self.t_steps > MAX_STEPS:
            raise ConfigError(f"t_steps must be <= {MAX_STEPS}, the longest "
                              f"run a trace records, got {self.t_steps}")
        if (self.renewal_period is None) != (self.renewal_fn is None):
            raise ConfigError("renewal needs both a period and a callback")
        if self.renewal_period is not None and self.renewal_period < 1:
            raise ConfigError("renewal_period must be >= 1")


class Trace:
    """Per-step record of one run: a numpy column per stored field, row t for step t.

    ``j`` is the chosen index in the signed neighborhood (2 i for +b_i,
    2 i + 1 for -b_i); the loop fills ``perf_true`` a block at a time.
    ``columns`` derives the written FIELDS from these, a list per field,
    which the writers format and ``rows`` zips into dicts; a halted run ends
    on its failed step, written with null choice and oracle fields.
    """

    FIELDS = ("step", "perf_before", "perf_after", "bene_size", "neut_size",
              "chosen_index", "chosen_polarity", "forced", "failed",
              "perf_true", "in_target_set")

    def __init__(self, t_steps: int, epsilon: float):
        # np.empty pages that are never written cost no memory
        self.perf_before = np.empty(t_steps)
        self.perf_after = np.empty(t_steps)
        self.bene_size = np.empty(t_steps, np.int32)
        self.neut_size = np.empty(t_steps, np.int32)
        self.j = np.empty(t_steps, np.int32)
        self.forced = np.empty(t_steps, bool)
        self.perf_true = np.empty(t_steps)
        self.epsilon = epsilon
        self.failed = False

    def __len__(self) -> int:
        return self.perf_before.shape[0]

    @property
    def moves(self) -> int:
        """Rows whose step moved the organism: all but a halted last row."""
        return len(self) - self.failed

    def record(self, t: int, perf_before: float, perf_after: float, bene_size: int,
               neut_size: int, j: int, forced: bool) -> None:
        """Store row ``t`` of every column but ``perf_true``."""
        self.perf_before[t] = perf_before
        self.perf_after[t] = perf_after
        self.bene_size[t] = bene_size
        self.neut_size[t] = neut_size
        self.j[t] = j
        self.forced[t] = forced

    def halt(self, t: int, perf: float) -> None:
        """Record the failed step ``t`` and cut every column after it."""
        self.record(t, perf, perf, 0, 0, -1, False)
        self.perf_true[t] = np.nan
        self.failed = True
        for name, column in list(vars(self).items()):
            if isinstance(column, np.ndarray):
                setattr(self, name, column[:t + 1])

    def in_target(self, rows: slice = slice(None)) -> np.ndarray:
        """Whether the oracle perf of each row is at least -epsilon."""
        return self.perf_true[rows] >= -self.epsilon

    def columns(self, start: int = 0, stop: Optional[int] = None,
                tokens: tuple = (False, True, None)) -> dict:
        """The written FIELDS of rows ``start``..``stop``-1: a list per field, in order.

        Numbers are Python ints and floats.  ``tokens`` are what a False, a
        True and a missing value are written as: every flag is one of the
        first two, and a halted last row holds the third in ``chosen_index``,
        ``chosen_polarity``, ``perf_true`` and ``in_target_set``.
        """
        steps = range(len(self))[start:stop]
        cut = slice(steps.start, steps.stop)
        j = self.j[cut]
        flag = tokens[:2].__getitem__
        out = dict(
            step=steps, perf_before=self.perf_before[cut].tolist(),
            perf_after=self.perf_after[cut].tolist(),
            bene_size=self.bene_size[cut].tolist(),
            neut_size=self.neut_size[cut].tolist(),
            chosen_index=(j // 2).tolist(), chosen_polarity=(1 - 2 * (j % 2)).tolist(),
            forced=list(map(flag, self.forced[cut].tolist())),
            failed=[tokens[0]] * len(steps), perf_true=self.perf_true[cut].tolist(),
            in_target_set=list(map(flag, self.in_target(cut).tolist())))
        if self.failed and steps and steps[-1] == len(self) - 1:
            for name in ("chosen_index", "chosen_polarity", "perf_true", "in_target_set"):
                out[name][-1] = tokens[2]
            out["failed"][-1] = tokens[1]
        return out

    def rows(self, start: int = 0, stop: Optional[int] = None) -> List[dict]:
        """Rows ``start``..``stop``-1 as written: dicts keyed by FIELDS."""
        columns = self.columns(start, stop)
        return [dict(zip(columns, values)) for values in zip(*columns.values())]


@dataclass
class EvolutionResult:
    organism: Organism
    trace: Trace
    failed: bool
    forced_steps: int
    bene_steps: int
    neut_steps: int
    initial_true_perf: float
    final_true_perf: float
    path: Optional[np.ndarray] = None


def mutator_step(model: QuadraticPerfModel, f: list, config: EvolutionConfig,
                 step: int, select: Callable, step_rows: list,
                 trace: Trace) -> Optional[list]:
    """One selection round from the coordinates ``f``, recorded as row ``step`` of ``trace``.

    ``step_rows`` are the signed steps as lists of Python floats and
    ``select(k)`` draws a position in a pool of k mutants.  Returns the
    coordinates after the step, ``f`` plus the chosen row, or None when a
    strict run halts.
    """
    stats = model.draw(step, config.m, f)
    perf_f, gains, bene, neut = model.score(stats, f, step_rows, config.tol)
    pool = bene or neut
    forced = not pool
    if forced:
        if config.failure_policy == "strict":
            trace.halt(step, perf_f)
            return None
        pool = range(len(gains))
    j = pool[select(len(pool))]
    trace.record(step, perf_f, perf_f + gains[j], len(bene), len(neut), j,
                 forced)
    return list(map(add, f, step_rows[j]))


def run_evolution(model: QuadraticPerfModel, config: EvolutionConfig) -> EvolutionResult:
    """Run the full mutator loop for the configured number of steps.

    Randomness is split into independent per-purpose streams derived from the
    run seed: mutant selection and basis renewal here, condition sampling
    inside the model's sampler (conventionally seeded with the same run seed
    by the caller).

    A step runs on Python floats: the coordinates are a list, moved by one
    rounded add per gene.  The numpy state is formed from the trace's chosen
    indices a block at a time: the oracle rows and the path at every
    ``ORACLE_BLOCK`` steps, at each renewal and at the end.  The
    ``Organism`` record is built once, at the end, its counts tallied from
    the chosen indices since the last renewal.
    """
    if not isinstance(model, QuadraticPerfModel):
        raise ConfigError(f"the model must be a QuadraticPerfModel, got "
                          f"{type(model).__name__}")
    select = _selections(rng_for((config.seed, "select")))
    renewal_rng = rng_for((config.seed, "renew"))
    period = config.renewal_period

    mutations = config.mutations
    size = np.shape(model.true_stats[0])
    if size != (mutations.dG, mutations.dG):
        raise ConfigError(f"the model's quad is {' x '.join(map(str, size))} but "
                          f"the mutation set has dG={mutations.dG}")
    steps_matrix = _signed_steps(mutations, config.alpha)
    step_rows = steps_matrix.tolist()
    base = config.f0
    # the grid point of zero counts: f0 up to the sign of a zero
    start = base + config.alpha * matvec(mutations.vectors, np.zeros(mutations.dF))
    f = start.tolist()

    initial_tp = model.true_perf(start, 0)
    trace = Trace(config.t_steps, config.epsilon)
    path = None
    if config.record_path:
        path = np.empty((config.t_steps + 1, mutations.dG))
        path[0] = start
    # the steps before `scored` are formed and scored, and `start` is the
    # organism after step scored - 1; `base` is where it stood at step
    # `renewed`, when it adopted `mutations`
    scored = renewed = 0

    def form(stop: int) -> None:
        # np.add.accumulate adds the chosen step rows in order, each add
        # rounded once, so its rows are bit for bit the loop's float sums
        nonlocal scored, start
        if stop > scored:
            C = np.empty((stop - scored + 1, len(start)))
            C[0] = start
            C[1:] = steps_matrix[trace.j[scored:stop]]
            np.add.accumulate(C, axis=0, out=C)
            trace.perf_true[scored:stop] = model.true_perf_rows(C[1:])
            if path is not None:
                path[scored + 1:stop + 1] = C[1:]
            scored, start = stop, C[-1]

    for t in range(config.t_steps):
        if period and t % period == 0:
            form(t)
            mutations = config.renewal_fn(renewal_rng, t)
            if not isinstance(mutations, MutationSet):
                raise ModelError("renewal callback must return a MutationSet")
            if mutations.dG != len(start):
                raise ModelError("replacement basis has a different gene dimension")
            steps_matrix = _signed_steps(mutations, config.alpha)
            step_rows = steps_matrix.tolist()
            f, base, renewed = start.tolist(), start, t
        f = mutator_step(model, f, config, t, select, step_rows, trace)
        if f is None:
            break
        if t + 1 - scored == ORACLE_BLOCK:
            form(t + 1)
    form(trace.moves)
    tally = np.bincount(trace.j[renewed:trace.moves], minlength=len(step_rows))
    organism = Organism(basis=mutations, base=base, alpha=config.alpha,
                        counts=tally[0::2] - tally[1::2], coords=start)

    # a forced step has no beneficial mutant, and a halted row none
    forced = int(np.count_nonzero(trace.forced))
    bene = int(np.count_nonzero(trace.bene_size))
    return EvolutionResult(
        organism=organism, trace=trace, failed=trace.failed,
        forced_steps=forced, bene_steps=bene,
        neut_steps=trace.moves - forced - bene,
        initial_true_perf=initial_tp,
        final_true_perf=model.true_perf(start, len(trace)),
        path=None if path is None else path[:trace.moves + 1])
