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
from .model import (BregmanGenerator, ConditionSampler, GenePanel, MutationSet,
                    Organism, Sample, TraceStep, rng_for)

FAILURE_POLICIES = ("strict", "forced_uniform")


def _signed_steps(mutations: MutationSet, alpha: float) -> np.ndarray:
    """(2 dF, dG) matrix of signed steps in neighborhood order."""
    steps = np.empty((2 * mutations.dF, mutations.dG))
    steps[0::2] = alpha * mutations.vectors.T
    steps[1::2] = -alpha * mutations.vectors.T
    return steps


def _classify(gains: np.ndarray, tol: float) -> tuple:
    return (gains >= tol).nonzero()[0], (np.abs(gains) < tol).nonzero()[0]


def classify_mutants(perf_current: float, mutant_perfs, tol: float) -> tuple:
    """Positional indices of the beneficial and neutral mutants.

    Beneficial: perf gain >= tol (inclusive).  Neutral: |gain| < tol
    (strict).  A gain of exactly -tol lands in neither class.
    """
    if tol <= 0:
        raise ConfigError("tol must be positive")
    return _classify(np.asarray(mutant_perfs, dtype=float) - perf_current, tol)


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
    """

    def __init__(self, sampler: ConditionSampler, stats_fn: Callable,
                 true_stats=None):
        self.sampler = sampler
        self.stats_fn = stats_fn
        self.true_stats = true_stats
        self._premium_key = (None, None)

    def draw(self, step: int, m: int):
        return self.stats_fn(self.sampler.draw(step, m), step)

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
    moments of the empirical performance.
    """
    if not gen.is_quadratic:
        raise ConfigError("quadratic stats need a quadratic generator")
    M = gen.quadratic_matrix(panel.d)

    def stats_fn(sample: Sample, step: int):
        pts, w = sample.points, sample.weights
        t = np.asarray(target_fn(pts), dtype=float)
        if t.ndim == 1:
            t = t.reshape(-1, 1)
        quad = panel.second_moment(pts, M=M, weights=w)
        cross = panel.cross_moment(pts, t, M=M, weights=w)
        const = float(w @ np.einsum("ij,jk,ik->i", t, M, t))
        return (quad, cross, const)

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


@dataclass
class EvolutionResult:
    organism: Organism
    trace: List[TraceStep]
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
                 steps_matrix: np.ndarray) -> TraceStep:
    """One selection round; mutates ``organism`` in place unless it fails."""
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
        return TraceStep(step=step, perf_before=perf_f, perf_after=perf_f,
                         bene_size=0, neut_size=0, chosen_index=None,
                         chosen_polarity=None, forced=False, failed=True)

    organism.apply(j // 2, +1 if j % 2 == 0 else -1)
    rec = TraceStep(step=step, perf_before=perf_f, perf_after=float(perf_f + gains[j]),
                    bene_size=int(bene.size), neut_size=int(neut.size),
                    chosen_index=j // 2, chosen_polarity=+1 if j % 2 == 0 else -1,
                    forced=forced, failed=False)
    tp = model.true_perf(organism.coords, step + 1)
    if tp is not None:
        rec.perf_true = float(tp)
        if config.epsilon is not None:
            rec.in_target_set = bool(tp >= -config.epsilon)
    return rec


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
    trace: List[TraceStep] = []
    path = [organism.coords.copy()] if config.record_path else None
    failed, failure_step = False, None
    forced_steps = bene_steps = neut_steps = 0

    for t in range(config.t_steps):
        if config.renewal_period and t % config.renewal_period == 0:
            new_basis = config.renewal_fn(renewal_rng, t)
            if not isinstance(new_basis, MutationSet):
                raise ModelError("renewal callback must return a MutationSet")
            organism.rebase(new_basis)
            steps_matrix = _signed_steps(new_basis, config.alpha)
        rec = mutator_step(model, organism, config, t, selection_rng, steps_matrix)
        trace.append(rec)
        if rec.failed:
            failed, failure_step = True, t
            break
        if rec.forced:
            forced_steps += 1
        elif rec.bene_size > 0:
            bene_steps += 1
        else:
            neut_steps += 1
        if path is not None:
            path.append(organism.coords.copy())

    final_tp = model.true_perf(organism.coords, len(trace))
    return EvolutionResult(
        organism=organism, trace=trace, failed=failed, failure_step=failure_step,
        forced_steps=forced_steps, bene_steps=bene_steps, neut_steps=neut_steps,
        initial_true_perf=None if initial_tp is None else float(initial_tp),
        final_true_perf=None if final_tp is None else float(final_tp),
        path=None if path is None else np.asarray(path))
