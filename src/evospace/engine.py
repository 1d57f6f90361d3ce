"""Mutator loop: tolerance-gated selection over a signed step neighborhood.

Each step draws a fresh condition sample, scores the current organism and all
2 dF single-step mutants on it, and splits the mutants into a beneficial set
(gain at least tol, inclusive) and a neutral set (absolute gain strictly
below tol).  Offspring are drawn uniformly from the beneficial set when it is
nonempty, else from the neutral set, else the run either halts (strict
policy) or picks uniformly from the whole neighborhood (forced policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import ConfigError, ModelError
from .model import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                    GenePanel, MutationSet, Organism, Sample, rng_for)

FAILURE_POLICIES = ("strict", "forced_uniform")


def _signed_steps(mutations: MutationSet, alpha: float) -> np.ndarray:
    """(2 dF, dG) matrix of signed steps in neighborhood order."""
    steps = np.empty((2 * mutations.dF, mutations.dG))
    steps[0::2] = alpha * mutations.vectors.T
    steps[1::2] = -alpha * mutations.vectors.T
    return steps


def _classify(gains: np.ndarray, tol: float) -> tuple:
    """Positional indices of the beneficial and neutral mutants.

    Beneficial: gain >= tol (inclusive).  Neutral: |gain| < tol (strict).
    A gain of exactly -tol lands in neither class.
    """
    return (gains >= tol).nonzero()[0], (np.abs(gains) < tol).nonzero()[0]


# ---------------------------------------------------------------------------
# performance models


class PerformanceModel:
    """Per-step scoring interface consumed by the mutator loop."""

    def pre_step(self, step: int, coords: np.ndarray) -> None:
        """Called before each step's draw with the current coordinates."""

    def draw(self, step: int, m: int):
        raise NotImplementedError

    def perf(self, stats, coords) -> float:
        raise NotImplementedError

    def perf_batch(self, stats, coords_matrix) -> np.ndarray:
        return np.array([self.perf(stats, c) for c in coords_matrix])

    def score(self, stats, coords: np.ndarray, steps: np.ndarray) -> tuple:
        """(perf of ``coords``, gain of each row of ``steps`` added to it)."""
        perf_f = self.perf(stats, coords)
        return perf_f, self.perf_batch(stats, coords[None, :] + steps) - perf_f

    def true_perf(self, coords, step: int) -> Optional[float]:
        return None


class QuadraticPerfModel(PerformanceModel):
    """Model whose empirical performance is an exact quadratic in the genome.

    ``stats_fn(sample, step)`` maps a condition sample to a triple
    (quad, cross, const) with performance -(c^T quad c - 2 c . cross + const);
    ``true_stats`` provides the distribution counterpart for oracle scoring.
    ``score`` uses the gain identity: the step s from f gains
    2 s . (cross - quad f) - s^T quad s, a return less a premium.  Premiums
    are reused while ``quad`` and ``steps`` are the same objects, so a
    stats_fn must return a new ``quad`` array rather than edit one in place.
    A stats_fn with a ``reduce_block(data, W)`` attribute, as
    ``quadratic_stats_for`` gives a ``DataColumnPanel``, has the triples of
    a whole block of multinomial weight rows W reduced at once; each step
    reads its row, bit for bit what ``stats_fn`` returns for its sample.
    """

    def __init__(self, sampler: ConditionSampler, stats_fn: Callable,
                 true_stats=None):
        self.sampler = sampler
        self.stats_fn = stats_fn
        self.true_stats = true_stats
        self._premium_key = (None, None)

    def draw(self, step: int, m: int):
        reduce = getattr(self.stats_fn, "reduce_block", None)
        stats = reduce and self.sampler._block_reduce(step, m, reduce)
        if stats is None:
            return self.stats_fn(self.sampler.draw(step, m), step)
        quad, cross, const = stats
        return quad, cross, float(const)

    @staticmethod
    def _eval(stats, C: np.ndarray) -> np.ndarray:
        quad, cross, const = stats
        q = np.einsum("ij,jk,ik->i", C, quad, C)
        return -(q - 2.0 * (C @ cross) + const)

    def perf(self, stats, coords) -> float:
        return float(self._eval(stats, np.asarray(coords, float)[None, :])[0])

    def perf_batch(self, stats, coords_matrix) -> np.ndarray:
        return self._eval(stats, np.asarray(coords_matrix, dtype=float))

    def score(self, stats, coords: np.ndarray, steps: np.ndarray) -> tuple:
        quad, cross, const = stats
        if self._premium_key[0] is not quad or self._premium_key[1] is not steps:
            # the key holds both arrays, so neither id can be reused meanwhile
            self._premium_key = (quad, steps)
            self._premiums = np.einsum("ij,jk,ik->i", steps, quad, steps)
        qf = quad @ coords
        perf_f = -(coords @ qf - 2.0 * (coords @ cross) + const)
        return float(perf_f), 2.0 * (steps @ (cross - qf)) - self._premiums

    def true_perf(self, coords, step: int) -> Optional[float]:
        stats = self.true_stats
        if stats is None:
            return None
        return float(self._eval(stats, np.asarray(coords, float)[None, :])[0])


def quadratic_stats_for(panel: GenePanel, gen: BregmanGenerator,
                        target_fn: Callable) -> Callable:
    """stats_fn for a quadratic generator and per-condition target outputs.

    ``target_fn(points) -> (n, d)`` supplies the target outputs for a batch
    of conditions.  The returned closure reduces a sample to the quadratic
    moments of the empirical performance.  For a ``DataColumnPanel`` it
    also carries ``reduce_block``, the same moments for a (K, n) stack of
    weight rows over all the data, one stacked matmul per term.
    """
    if not gen.is_quadratic:
        raise ConfigError("quadratic stats need a quadratic generator")
    M = gen.quadratic_matrix(panel.d)

    def moments(pts: np.ndarray, w: np.ndarray) -> tuple:
        # w is one weight row or, for reduce_block, a stack of them; each
        # row is reduced by its own matmul, so bit for bit alone
        t = np.asarray(target_fn(pts), dtype=float)
        if t.ndim == 1:
            t = t.reshape(-1, 1)
        column = np.einsum("ij,jk,ik->i", t, M, t)
        return (panel.second_moment(pts, M=M, weights=w),
                panel.cross_moment(pts, t, M=M, weights=w),
                np.matmul(w[..., None, :], column)[..., 0])

    def stats_fn(sample: Sample, step: int):
        quad, cross, const = moments(sample.points, sample.weights)
        return (quad, cross, float(const))

    if isinstance(panel, DataColumnPanel):
        stats_fn.reduce_block = moments
    return stats_fn


# ---------------------------------------------------------------------------
# the loop


@dataclass
class EvolutionConfig:
    mutations: MutationSet
    alpha: float
    tol: float
    m: int
    t_steps: int
    seed: int = 0
    failure_policy: str = "strict"
    epsilon: Optional[float] = None       # for in-target trace flags
    renewal_period: Optional[int] = None  # draw a new mutation set every k steps
    renewal_fn: Optional[Callable] = None  # (rng, step) -> MutationSet
    f0: Optional[np.ndarray] = None
    record_path: bool = False

    def __post_init__(self):
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigError(f"failure policy must be one of {FAILURE_POLICIES}")
        if self.alpha <= 0 or self.tol <= 0:
            raise ConfigError("alpha and tol must be positive")
        if self.m < 1 or self.t_steps < 1:
            raise ConfigError("m and t_steps must be >= 1")
        if (self.renewal_period is None) != (self.renewal_fn is None):
            raise ConfigError("renewal needs both a period and a callback")
        if self.renewal_period is not None and self.renewal_period < 1:
            raise ConfigError("renewal_period must be >= 1")


class Trace:
    """Per-step record of one run: a numpy column per stored field, row t for step t.

    ``j`` is the chosen index in the signed neighborhood (2 i for +b_i,
    2 i + 1 for -b_i); ``perf_true`` exists only when the model has an
    oracle.  ``rows`` derives the written FIELDS from these.  A halted run
    ends on its failed step, written with null choice and oracle fields.
    """

    FIELDS = ("step", "perf_before", "perf_after", "bene_size", "neut_size",
              "chosen_index", "chosen_polarity", "forced", "failed",
              "perf_true", "in_target_set")

    def __init__(self, t_steps: int, oracle: bool, epsilon: Optional[float]):
        # np.empty pages that are never written cost no memory
        self.perf_before = np.empty(t_steps)
        self.perf_after = np.empty(t_steps)
        self.bene_size = np.empty(t_steps, np.int32)
        self.neut_size = np.empty(t_steps, np.int32)
        self.j = np.empty(t_steps, np.int32)
        self.forced = np.empty(t_steps, bool)
        self.perf_true = np.empty(t_steps) if oracle else None
        self.epsilon = epsilon
        self.failed = False

    def __len__(self) -> int:
        return self.perf_before.shape[0]

    @property
    def moves(self) -> int:
        """Rows whose step moved the organism: all but a halted last row."""
        return len(self) - self.failed

    def record(self, t: int, perf_before: float, perf_after: float, bene_size: int,
               neut_size: int, j: int, forced: bool, perf_true: Optional[float]) -> None:
        """Store row ``t``; ``perf_true`` is dropped when there is no oracle."""
        self.perf_before[t] = perf_before
        self.perf_after[t] = perf_after
        self.bene_size[t] = bene_size
        self.neut_size[t] = neut_size
        self.j[t] = j
        self.forced[t] = forced
        if self.perf_true is not None:
            self.perf_true[t] = perf_true

    def halt(self, t: int, perf: float) -> None:
        """Record the failed step ``t`` and cut every column after it."""
        self.record(t, perf, perf, 0, 0, -1, False, np.nan)
        self.failed = True
        for name, column in list(vars(self).items()):
            if isinstance(column, np.ndarray):
                setattr(self, name, column[:t + 1])

    def in_target(self, rows: slice = slice(None)) -> np.ndarray:
        """Whether the oracle perf of each row is at least -epsilon."""
        return self.perf_true[rows] >= -self.epsilon

    def rows(self, start: int = 0, stop: Optional[int] = None) -> List[dict]:
        """Rows ``start``..``stop``-1 as written: dicts keyed by FIELDS."""
        steps = range(len(self))[start:stop]
        cut = slice(steps.start, steps.stop)
        j = self.j[cut]
        perf_true = in_target = [None] * len(steps)
        if self.perf_true is not None:
            perf_true = self.perf_true[cut].tolist()
            if self.epsilon is not None:
                in_target = self.in_target(cut).tolist()
        out = [dict(zip(self.FIELDS, values)) for values in zip(
            steps, self.perf_before[cut].tolist(), self.perf_after[cut].tolist(),
            self.bene_size[cut].tolist(), self.neut_size[cut].tolist(),
            (j // 2).tolist(), (1 - 2 * (j % 2)).tolist(),
            self.forced[cut].tolist(), [False] * len(steps), perf_true, in_target)]
        if self.failed and steps and steps[-1] == len(self) - 1:
            out[-1].update(chosen_index=None, chosen_polarity=None, failed=True,
                           perf_true=None, in_target_set=None)
        return out


@dataclass
class EvolutionResult:
    organism: Organism
    trace: Trace
    failed: bool
    failure_step: Optional[int]
    forced_steps: int
    bene_steps: int
    neut_steps: int
    initial_true_perf: Optional[float]
    final_true_perf: Optional[float]
    path: Optional[np.ndarray] = None


def mutator_step(model: PerformanceModel, organism: Organism, config: EvolutionConfig,
                 step: int, selection_rng: np.random.Generator,
                 steps_matrix: np.ndarray, trace: Trace) -> bool:
    """One selection round, recorded as row ``step`` of ``trace``.

    Mutates ``organism`` in place and returns False, or returns True when a
    strict run halts.
    """
    model.pre_step(step, organism.coords)
    stats = model.draw(step, config.m)
    perf_f, gains = model.score(stats, organism.coords, steps_matrix)
    bene, neut = _classify(gains, config.tol)

    forced = False
    if bene.size:
        j = int(bene[selection_rng.integers(0, bene.size)])
    elif neut.size:
        j = int(neut[selection_rng.integers(0, neut.size)])
    elif config.failure_policy == "forced_uniform":
        j = int(selection_rng.integers(0, gains.shape[0]))
        forced = True
    else:
        trace.halt(step, perf_f)
        return True

    organism.apply(j // 2, +1 if j % 2 == 0 else -1)
    trace.record(step, perf_f, perf_f + gains[j], bene.size, neut.size, j,
                 forced, model.true_perf(organism.coords, step + 1))
    return False


def run_evolution(model: PerformanceModel, config: EvolutionConfig) -> EvolutionResult:
    """Run the full mutator loop for the configured number of steps.

    Randomness is split into independent per-purpose streams derived from the
    run seed: mutant selection and basis renewal here, condition sampling
    inside the model's sampler (conventionally seeded with the same run seed
    by the caller).
    """
    selection_rng = rng_for((config.seed, "select"))
    renewal_rng = rng_for((config.seed, "renew"))

    mutations = config.mutations
    f0 = np.zeros(mutations.dG) if config.f0 is None else np.asarray(config.f0, float)
    organism = Organism(basis=mutations, base=f0, alpha=config.alpha)
    steps_matrix = _signed_steps(mutations, config.alpha)

    initial_tp = model.true_perf(organism.coords, 0)
    trace = Trace(config.t_steps, initial_tp is not None, config.epsilon)
    path = None
    if config.record_path:
        path = np.empty((config.t_steps + 1, mutations.dG))
        path[0] = organism.coords

    for t in range(config.t_steps):
        if config.renewal_period and t % config.renewal_period == 0:
            new_basis = config.renewal_fn(renewal_rng, t)
            if not isinstance(new_basis, MutationSet):
                raise ModelError("renewal callback must return a MutationSet")
            organism.rebase(new_basis)
            steps_matrix = _signed_steps(new_basis, config.alpha)
        if mutator_step(model, organism, config, t, selection_rng, steps_matrix,
                        trace):
            break
        if path is not None:
            path[t + 1] = organism.coords

    final_tp = model.true_perf(organism.coords, len(trace))
    # a forced step has no beneficial mutant, and a halted row none
    forced = int(np.count_nonzero(trace.forced))
    bene = int(np.count_nonzero(trace.bene_size))
    return EvolutionResult(
        organism=organism, trace=trace, failed=trace.failed,
        failure_step=len(trace) - 1 if trace.failed else None,
        forced_steps=forced, bene_steps=bene,
        neut_steps=trace.moves - forced - bene,
        initial_true_perf=None if initial_tp is None else float(initial_tp),
        final_true_perf=None if final_tp is None else float(final_tp),
        path=None if path is None else path[:trace.moves + 1])
