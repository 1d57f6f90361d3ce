"""Seeded statistical scenarios exercising the evolution machinery end to end.

Each scenario maps a seed list to independent runs, aggregates per-seed rows
into a JSON-able report embedding the fully resolved schedule, and optionally
writes per-seed traces and plot data.  Reports are bit-reproducible functions
of (config, seed list).  Every run, the CLI's included, goes through
``run_seed``.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from operator import add, sub
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .analysis import agnostic_projection_oracle, projection_from_moments
from .engine import (MAX_STEPS, EvolutionConfig, EvolutionResult,
                     QuadraticPerfModel, quadratic_stats_for, run_evolution)
from .errors import ConfigError, ModelError
from .frontier import FrontierProblem, efficient_frontier
from .io import (ensure_dir, read_config, write_json_report, write_path_csv,
                 write_trace_csv, write_trace_jsonl)
from .kernels import dot, dot_floats, fold, weighted_rows
from .model import (BregmanGenerator, ConditionSampler, DataColumnPanel,
                    IdentityPanel, MutationSet, rng_for)
from .schedule import (DEFAULT_KNOBS, KnobTriple, ModelConstants, Schedule,
                       compute_schedule, conditioning_scale, drift_bound,
                       estimate_model_constants, knob_region_check,
                       make_drift_plan, stable_knob_example)

SCENARIOS = ("unsupervised_mean", "supervised_linear", "drift", "stability",
             "agnostic")


@dataclass
class ScenarioConfig:
    """Scenario name, seed list, accuracy target, and free-form overrides."""

    scenario: str
    seeds: List[int]
    epsilon: float = 0.1
    overrides: dict = field(default_factory=dict)
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, "
                              f"got {self.scenario!r}")
        if not self.seeds:
            raise ConfigError("scenario needs a nonempty seed list")
        self.seeds = [int(s) for s in self.seeds]
        dups = sorted(s for s, n in Counter(self.seeds).items() if n > 1)
        if dups:
            raise ConfigError(f"duplicate seeds {dups}: each names one run's files")
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigError("epsilon must lie in (0, 1]")
        if not isinstance(self.overrides, dict):
            raise ConfigError("overrides must be a mapping")


def _resolve(table: dict, overrides: dict) -> dict:
    """A scenario's options: its table's defaults, replaced by ``overrides``
    once the reader accepts them; kept as given, so reports echo them."""
    opts = read_config(overrides, table, "overrides")
    opts.update(overrides)
    return opts


def _sizing(m_override=None, t_override=None, trace_limit: int = 5) -> dict:
    """Entries every scenario's table has: m/T overrides and trace_limit."""
    return {"m_override": ("int", m_override, ">= 1"),
            "t_override": ("int", t_override, f">= 1, <= {MAX_STEPS}"),
            "trace_limit": ("int", trace_limit, ">= 0")}


# c_t of the unsupervised, agnostic and drift schedules, tuned for desk scale;
# the other schedule constants are compute_schedule's defaults
_DESK_C_T = 0.02


# ---------------------------------------------------------------------------
# synthetic datasets


def _hull(points: np.ndarray) -> np.ndarray:
    """Convex hull vertices of 2-D points, counter-clockwise (Andrew's monotone chain).

    Duplicate and collinear boundary points are dropped, so a collinear set
    yields at most two vertices.
    """
    pts = sorted(set(map(tuple, points.tolist())))

    def chain(seq):
        out = []
        for px, py in seq:
            while len(out) >= 2 and \
                    ((out[-1][0] - out[-2][0]) * (py - out[-2][1])
                     - (out[-1][1] - out[-2][1]) * (px - out[-2][0])) <= 0.0:
                out.pop()
            out.append((px, py))
        return out

    return np.array(chain(pts)[:-1] + chain(reversed(pts))[:-1])


def _hulls_overlap(X: np.ndarray, y: np.ndarray) -> bool:
    """True when the convex hulls of the two label classes certainly overlap.

    Separating-axis test over both hulls' edge normals, on which two convex
    polygons' projections are disjoint iff the polygons are.  Overlap is
    claimed only beyond 1e-9 times the data scale on every axis; False
    (non-2-D input, a class of < 3 hull vertices, touching hulls) means "not
    certified", not "separable".
    """
    if X.ndim != 2 or X.shape[1] != 2:
        return False
    hulls = [_hull(X[y > 0]), _hull(X[y < 0])]
    if min(len(h) for h in hulls) < 3:
        return False
    edges = np.vstack([np.roll(h, -1, axis=0) - h for h in hulls])
    axes = np.stack([edges[:, 1], -edges[:, 0]]) / np.linalg.norm(edges, axis=1)
    pa, pb = hulls[0] @ axes, hulls[1] @ axes
    overlap = np.minimum(pa.max(0), pb.max(0)) - np.maximum(pa.min(0), pb.min(0))
    return bool(np.all(overlap > 1e-9 * float(np.abs(X).max())))


def _perceptron_separable(X: np.ndarray, y: np.ndarray) -> bool:
    """Linear separability check (with bias) by up to 4,000 perceptron updates.

    Finding a zero-error separator proves separability; exhausting the update
    budget is treated as non-separable, which is the conservative direction
    for the scenarios that want hard datasets.  Inputs whose class hulls
    certainly overlap (``_hulls_overlap``) have no strict separator, so they
    return False at once, as the perceptron would after its whole budget.
    """
    if _hulls_overlap(X, y):
        return False
    Xa = np.column_stack([X, np.ones(X.shape[0])])
    w = np.zeros(Xa.shape[1])
    for _ in range(4000):
        bad = np.nonzero((Xa @ w) * y <= 0)[0]
        if bad.size == 0:
            return True
        w += y[bad[0]] * Xa[bad[0]]
    return False


def gen_gaussian_mixture(rng: np.random.Generator, n_clusters: int) -> tuple:
    """Random spherical 2-D Gaussian mixture with cluster-level +/-1 labels.

    Cluster sizes are drawn uniformly from 30..120 and variances from
    [0.01, 0.1], and the pooled points are rescaled to fit inside the unit
    disk.  Draws whose labels are all one sign, or that a perceptron proves
    linearly separable, are regenerated up to 10 times; the last draw is
    returned as-is, so non-separability is likely but not guaranteed.  Most
    draws are certified non-separable by their class hulls, without a
    perceptron.
    """
    if n_clusters < 2:
        raise ConfigError("mixture needs at least 2 clusters")
    pts = labels = None
    for _ in range(10):
        centers = rng.uniform(-1.0, 1.0, (n_clusters, 2))
        sizes = rng.integers(30, 121, n_clusters)
        sigmas = np.sqrt(rng.uniform(0.01, 0.1, n_clusters))
        signs = rng.choice([-1.0, 1.0], n_clusters)
        chunks, labs = [], []
        for k in range(n_clusters):
            chunks.append(centers[k] + sigmas[k] * rng.standard_normal((sizes[k], 2)))
            labs.append(np.full(sizes[k], signs[k]))
        pts = np.vstack(chunks)
        labels = np.concatenate(labs)
        scale = max(1.0, float(np.linalg.norm(pts, axis=1).max()))
        pts = pts / scale
        if np.all(signs == signs[0]):
            continue
        if _perceptron_separable(pts, labels):
            continue
        return pts, labels
    return pts, labels


_MIXTURE_TRIES = 200


def _mixture_for(seed, accept: Optional[Callable] = None) -> tuple:
    """Per-seed dataset; redraws until ``accept(points, labels)`` holds."""
    for k in range(_MIXTURE_TRIES):
        rng = rng_for((seed, "data", k))
        n_clusters = int(rng.integers(3, 7))
        pts, labels = gen_gaussian_mixture(rng, n_clusters)
        if accept is None or accept(pts, labels):
            return pts, labels, k
    raise ModelError(f"no admissible dataset for seed {seed} "
                     f"in {_MIXTURE_TRIES} draws")


# Mean-estimation datasets: ||mean|| in the window and | |mu_x| - |mu_y| | up to
# the balance put the target at a moderate distance from the start and off the
# coordinate axes, so that the approach exercises both mutation directions.
_MEAN_WINDOW, _MEAN_BALANCE = (0.4, 0.8), 0.25


def _mean_window(pts, labels) -> bool:
    mu = pts.mean(axis=0)
    r = float(np.linalg.norm(mu))
    return _MEAN_WINDOW[0] <= r <= _MEAN_WINDOW[1] and \
        abs(abs(mu[0]) - abs(mu[1])) <= _MEAN_BALANCE


# ---------------------------------------------------------------------------
# performance models shared by the mean-estimation scenarios


def _sample_mean(points: np.ndarray, weights: np.ndarray) -> tuple:
    return (weighted_rows(weights, points),)


class MeanEstimationModel(QuadraticPerfModel):
    """Sample-mean target with an optional adversarial per-step target drift.

    Empirical performance of a batch is the negated squared distance to the
    batch mean (shifted by the accumulated target drift); the oracle scores
    against the current true target.  With ``nu = 0`` this is the plain
    stationary scenario.  Drift away from the organism makes the target
    depend on the path, so the model keeps each step's target until the
    loop scores the step's oracle row (``true_perf_rows``).  The target
    ``t_cur`` is a list of Python floats, and the drift and the center are
    formed on floats, with numpy's operations in numpy's order.
    """

    def __init__(self, sampler: ConditionSampler, mu0: np.ndarray, *,
                 nu: float = 0.0):
        if nu < 0:
            raise ConfigError("drift magnitude must be nonnegative")
        self.mu0 = np.asarray(mu0, dtype=float).copy()
        self.nu = float(nu)
        self._eye = np.eye(self.mu0.shape[0])
        self._mu0, self._unit = self.mu0.tolist(), self._eye[0].tolist()
        super().__init__(sampler, None,
                         (self._eye, self.mu0, dot(self.mu0, self.mu0)))
        self._restart()

    def _restart(self) -> None:
        self.t_cur = list(self._mu0)
        self._shift = list(map(sub, self.t_cur, self._mu0))
        self.drift_steps = 0
        self._targets = []   # the target of each step not yet scored

    def draw(self, step: int, m: int, coords):
        # The target holds still for the first evaluation and moves between
        # steps, so a run of T steps sees T-1 perturbations.  Step 0 starts
        # the target over, so an instance can be run again.  The cross term
        # is the list of the center's Python floats, which score reads as is;
        # the shift is added even when zero, which turns a -0.0 into +0.0.
        if step == 0:
            self._restart()
        elif self.nu != 0.0:
            d = list(map(sub, self.t_cur, coords))
            nrm = math.sqrt(dot_floats(d, d))
            d = self._unit if nrm < 1e-15 else [x / nrm for x in d]
            self.t_cur = [t + self.nu * x for t, x in zip(self.t_cur, d)]
            self._shift = list(map(sub, self.t_cur, self._mu0))
            self.drift_steps += 1
        self._targets.append(self.t_cur)
        (mean,) = self.sampler.reduce(step, m, _sample_mean)
        c = list(map(add, mean.tolist(), self._shift))
        return (self._eye, c, dot_floats(c, c))

    def true_perf(self, coords, step: int) -> float:
        # step 0 is scored before draw(0) restarts the target
        t = self.mu0 if step == 0 else np.asarray(self.t_cur)
        return float(self._eval((self._eye, t, dot(t, t)),
                                np.asarray(coords, float)))

    def true_perf_rows(self, C: np.ndarray) -> np.ndarray:
        targets = np.array(self._targets[:len(C)])
        del self._targets[:len(C)]
        return self._eval((self._eye, targets, dot(targets, targets)), C)


# ---------------------------------------------------------------------------
# problem builders shared by the scenarios and the CLI


def _identity_constants(data: dict, seeds: Sequence[int]) -> ModelConstants:
    """2-D identity-panel constants; dataset-independent, so the first seed's serve all."""
    first = seeds[0]
    sampler = ConditionSampler.empirical(data[first][0], seed=first)
    return estimate_model_constants(IdentityPanel(2), MutationSet.orthonormal(2),
                                    sampler, BregmanGenerator.squared_euclidean())


def _mean_problem(cfg: ScenarioConfig, opts: dict) -> tuple:
    """Mean-window datasets per seed, their shared schedule, and its m and T."""
    data = {seed: _mixture_for(seed, _mean_window) for seed in cfg.seeds}
    # the mean window pins the horizon, so one schedule serves every seed
    schedule = compute_schedule(
        cfg.epsilon, DEFAULT_KNOBS, _identity_constants(data, cfg.seeds),
        f0=np.zeros(2), t_coords=data[cfg.seeds[0]][0].mean(axis=0),
        c_t=_DESK_C_T)
    m = int(schedule.m if opts["m_override"] is None else opts["m_override"])
    t_steps = int(schedule.t_steps if opts["t_override"] is None
                  else opts["t_override"])
    return data, schedule, m, t_steps


def _pair_renewal(X: np.ndarray, det_min: float, norm_min: float) -> Callable:
    """Mutation pairs drawn from the 2-D condition rows, conditioned to generate R^2."""
    n = X.shape[0]
    norms = np.sqrt(dot(X, X))

    def renew(rng, step):
        for _ in range(500):
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            if i == j or norms[i] < norm_min or norms[j] < norm_min:
                continue
            det = X[i, 0] * X[j, 1] - X[i, 1] * X[j, 0]
            if abs(det) <= det_min * norms[i] * norms[j]:
                continue
            return MutationSet(np.column_stack([X[i], X[j]]))
        raise ModelError("no admissible mutation pair in 500 draws")

    return renew


def labels_problem(X: np.ndarray, y: np.ndarray, seed: int,
                   gen: Optional[BregmanGenerator] = None,
                   pairs: Optional[tuple] = None) -> SimpleNamespace:
    """Label regression on conditions ``X`` (n, k) with labels ``y`` (n,).

    Returns the least-squares ``w_star`` and its ``baseline`` performance,
    the ``sampler`` over rows (x, y), the ``panel``, ``gen`` (squared
    Euclidean if omitted) and the ``model``, whose oracle scores relative to
    ``w_star`` under gen's 1 x 1 matrix.  ``pairs = (det_min, norm_min)``
    adds the data-pair ``renew`` callback and its ``first_basis`` (k = 2).
    """
    k = X.shape[1]
    panel = DataColumnPanel(k)
    A, c, mean_yy = panel.moments(X, y)
    w_star, baseline = projection_from_moments(A, c, float(mean_yy))
    gen = gen or BregmanGenerator.squared_euclidean()
    scale = float(gen.quadratic_matrix(1).reshape(()))
    sampler = ConditionSampler.empirical(np.column_stack([X, y]), seed=seed)
    model = QuadraticPerfModel(
        sampler, quadratic_stats_for(panel, gen, lambda P: P[..., k:k + 1]),
        true_stats=(scale * A, scale * c, scale * float(dot(c, w_star))))
    renew = first_basis = None
    if pairs is not None:
        if k != 2:
            raise ConfigError(f"data_pairs mutations need 2 condition columns, "
                              f"got {k}")
        renew = _pair_renewal(X, *pairs)
        first_basis = renew(rng_for((seed, "renew")), 0)
    return SimpleNamespace(w_star=w_star, baseline=baseline, sampler=sampler,
                           panel=panel, gen=gen, model=model, renew=renew,
                           first_basis=first_basis)


# ---------------------------------------------------------------------------
# one seed's run, shared by every scenario and the CLI


def run_seed(model: QuadraticPerfModel, mutations: MutationSet,
             schedule: Schedule, seed: int, *,
             m_override=None, t_override=None, f0=None,
             failure_policy: str = "strict", renewal: tuple = (None, None),
             record_path: bool = False, trace_to: Optional[tuple] = None) -> tuple:
    """Build one seed's run from its schedule, run it, and write its trace files.

    ``m_override``/``t_override`` replace the schedule's m and T when set;
    ``renewal`` is the (period, callback) pair of a renewing run.  With
    ``trace_to = (out_dir, tag)`` the run writes ``trace-<tag>.jsonl``,
    ``perf-<tag>.csv`` and, when it records its path, ``path-<tag>.csv``.
    Returns the result and the ``EvolutionConfig`` it ran.
    """
    config = EvolutionConfig(
        mutations=mutations, alpha=schedule.alpha, tol=schedule.tol,
        m=int(schedule.m if m_override is None else m_override),
        t_steps=int(schedule.t_steps if t_override is None else t_override),
        epsilon=schedule.epsilon, seed=seed, failure_policy=failure_policy,
        renewal_period=renewal[0], renewal_fn=renewal[1], f0=f0,
        record_path=record_path)
    result = run_evolution(model, config)
    if trace_to is not None:
        out_dir, tag = trace_to
        write_trace_jsonl(os.path.join(out_dir, f"trace-{tag}.jsonl"), result.trace)
        write_trace_csv(os.path.join(out_dir, f"perf-{tag}.csv"), result.trace)
        if result.path is not None:
            write_path_csv(os.path.join(out_dir, f"path-{tag}.csv"), result.path)
    return result, config


def _oracle_steps(result: EvolutionResult) -> tuple:
    """Oracle perf before and after each step that moved, as two columns."""
    after = result.trace.perf_true[:result.trace.moves]
    return np.concatenate(([result.initial_true_perf], after))[:-1], after


def _schedule_row(schedule: Schedule, config: EvolutionConfig) -> dict:
    return {"alpha": schedule.alpha, "tol": schedule.tol, "m": config.m,
            "t_steps": config.t_steps, "u": schedule.u}


# ---------------------------------------------------------------------------
# scenario: unsupervised mean estimation


_UNSUP = _sizing()


def _unsupervised_mean(cfg, opts, trace_to) -> dict:
    """Mean estimation over seeded mixture datasets; strict failure policy.

    Per seed: draw a dataset whose mean sits in the mean window, evolve
    from the origin with an orthonormal mutation pair under the resolved
    schedule, and score against the exact dataset mean.  The report carries
    the success fraction at the accuracy target and pooled far-regime
    monotonicity statistics for beneficial selections.
    """
    eps = cfg.epsilon
    data, schedule, m, t_steps = _mean_problem(cfg, opts)
    margin = schedule.margin

    def row(pos: int, seed: int) -> dict:
        pts, _, tries = data[seed]
        mu = pts.mean(axis=0)
        model = MeanEstimationModel(ConditionSampler.empirical(pts, seed=seed), mu)
        trace = trace_to(pos, seed)
        result, _ = run_seed(model, MutationSet.orthonormal(2), schedule, seed,
                             m_override=m, t_override=t_steps, f0=np.zeros(2),
                             record_path=trace is not None, trace_to=trace)

        before, after = _oracle_steps(result)
        far = (result.trace.bene_size[:after.size] > 0) & (before < -eps)
        far_ok = far & (after - before >= margin)
        centered = (pts - mu).T
        spread = float(fold(dot(centered, centered) / pts.shape[0]))
        return {
            "seed": seed, "data_tries": tries, "mu": [float(v) for v in mu],
            "success": bool(result.final_true_perf >= -eps),
            "initial_true_perf": result.initial_true_perf,
            "final_true_perf": result.final_true_perf,
            "failed": result.failed, "bene_steps": result.bene_steps,
            "neut_steps": result.neut_steps,
            "far_bene_steps": int(far.sum()), "far_bene_margin_ok": int(far_ok.sum()),
            "mu_hat_variance_m5": spread / 5.0,
        }

    rows = [row(pos, seed) for pos, seed in enumerate(cfg.seeds)]
    total_far = sum(r["far_bene_steps"] for r in rows)
    total_ok = sum(r["far_bene_margin_ok"] for r in rows)
    return {
        "schedule": schedule.to_dict(),
        "m": m, "t_steps": t_steps, "margin": margin,
        "per_seed": rows,
        "success_fraction": sum(r["success"] for r in rows) / len(rows),
        "far_bene_steps": total_far,
        "monotonic_fraction": (total_ok / total_far) if total_far else None,
        "mean_window": list(_MEAN_WINDOW), "mean_balance": _MEAN_BALANCE,
        "mu_hat_variance_m5_mean":
            sum(r["mu_hat_variance_m5"] for r in rows) / len(rows),
    }


# ---------------------------------------------------------------------------
# scenario: agnostic line


_AGNOSTIC = {**_sizing(m_override=2000), "check_samples": ("int", 20000, ">= 1")}
# condition noise around the off-line target point, the distance from the
# origin to the target's span projection, and from the target to the span
_SIGMA, _T_IN_NORM, _T_OUT_DIST = 0.25, 0.6, 0.4


def _agnostic(cfg, opts, trace_to) -> dict:
    """Single-direction mutation set chasing a target off its span.

    Conditions are noisy copies of a fixed point t* lying off the mutation
    line; the best reachable performance is the metric projection of t* onto
    the line.  Success means finishing within epsilon of that optimum, and
    the report carries the orthogonal performance decomposition residual.
    """
    eps = cfg.epsilon
    panel = IdentityPanel(2)
    gen = BregmanGenerator.squared_euclidean()

    def row(pos: int, seed: int) -> dict:
        geo = rng_for((seed, "geometry"))
        theta = float(geo.uniform(0.0, 2.0 * math.pi))
        u = np.array([math.cos(theta), math.sin(theta)])
        u_perp = np.array([-u[1], u[0]])
        side = 1.0 if geo.uniform() < 0.5 else -1.0
        t_star = _T_IN_NORM * u + side * _T_OUT_DIST * u_perp

        mutations = MutationSet(u.reshape(2, 1))
        t_in, span_opt = agnostic_projection_oracle(t_star, u, np.eye(2))

        def noisy(rng, m):
            return t_star + _SIGMA * rng.standard_normal((m, 2))

        sampler = ConditionSampler.from_callable(noisy, seed=seed)
        constants = estimate_model_constants(panel, mutations, sampler, gen,
                                             agnostic=True)
        schedule = compute_schedule(eps, DEFAULT_KNOBS, constants,
                                    f0=np.zeros(2), t_coords=t_in, c_t=_DESK_C_T)

        eye = np.eye(2)
        true_stats = (eye, t_star,
                      float(dot(t_star, t_star)) + 2.0 * _SIGMA * _SIGMA)

        def moments(P, w):
            # one weighted sum gives the mean and the mean of |p|^2; the
            # shared eye keeps score's premiums from one step to the next
            sums = weighted_rows(w, np.column_stack([P, dot(P, P)]))
            return eye, sums[:2], sums[2]

        model = QuadraticPerfModel(sampler, moments, true_stats=true_stats)
        trace = trace_to(pos, seed)
        result, config = run_seed(
            model, mutations, schedule, seed,
            m_override=opts["m_override"], t_override=opts["t_override"],
            f0=np.zeros(2), record_path=trace is not None, trace_to=trace)

        f_final = result.organism.coords
        gap = f_final - t_in
        rel_perf = -float(dot(gap, gap))
        # orthogonal decomposition check on a fresh draw: total divergence
        # splits into in-span distance plus the span-to-target remainder
        check = sampler.draw(-3, int(opts["check_samples"]))
        to_final, to_in = check.points - f_final, check.points - t_in
        d_tot = float(np.mean(dot(to_final, to_final)))
        d_rem = float(np.mean(dot(to_in, to_in)))
        pyth_residual = d_tot - (float(dot(gap, gap)) + d_rem)
        return {
            "seed": seed, "success": bool(rel_perf >= -eps),
            "relative_perf": rel_perf, "span_optimum": span_opt,
            "final_true_perf": result.final_true_perf,
            "pythagoras_residual": pyth_residual,
            "schedule": _schedule_row(schedule, config),
            "failed": result.failed,
        }

    rows = [row(pos, seed) for pos, seed in enumerate(cfg.seeds)]
    return {
        "sigma": _SIGMA, "t_in_norm": _T_IN_NORM, "t_out_dist": _T_OUT_DIST,
        "per_seed": rows,
        "success_fraction": sum(r["success"] for r in rows) / len(rows),
        "schedule": rows[0]["schedule"],
        "max_abs_pythagoras_residual":
            max(abs(r["pythagoras_residual"]) for r in rows),
    }


# ---------------------------------------------------------------------------
# scenario: supervised linear labels


_SUP = _sizing(t_override=6000)
# region triple with a large step knob: on disk-bounded data the mutation
# premium can then exceed the tolerance, so whole-neighborhood failures are
# reachable (and observed) while convergence still holds
_SUP_KNOBS = KnobTriple(0.02, 0.94, 0.02)
# the smallest |det| of a normalized data pair and norm of its rows
_PAIR_DET_MIN, _PAIR_NORM_MIN = 0.05, 0.2


def _supervised_accept(pts, labels) -> bool:
    # admissible data: a well-conditioned second moment (smallest eigenvalue
    # 0.05), a baseline within reach (||w*|| <= 1) and four rows a pair may use
    n = pts.shape[0]
    A = pts.T @ pts / n
    if np.linalg.eigvalsh(A)[0] < 0.05:
        return False
    w_star = np.linalg.solve(A, pts.T @ labels / n)
    if float(np.linalg.norm(w_star)) > 1.0:
        return False
    return int((np.linalg.norm(pts, axis=1) >= _PAIR_NORM_MIN).sum()) >= 4


def _supervised_linear(cfg, opts, trace_to) -> dict:
    """Label regression with data-derived mutation pairs and renewal.

    Scores are squared-error performances relative to the least-squares
    optimal linear map, so zero is the reachable optimum.  The mutation pair
    is redrawn from the data every renewal period, exhausted steps fall back
    to a uniform forced mutation, and the report cross-references performance
    drops against forced/neutral selections.
    """
    eps = cfg.epsilon

    def row(pos: int, seed: int) -> dict:
        pts, labels, tries = _mixture_for(seed, _supervised_accept)
        prob = labels_problem(pts, labels, seed,
                              pairs=(_PAIR_DET_MIN, _PAIR_NORM_MIN))
        constants = estimate_model_constants(prob.panel, prob.first_basis,
                                             prob.sampler, prob.gen)
        schedule = compute_schedule(eps, _SUP_KNOBS, constants, horizon=1)
        trace = trace_to(pos, seed)
        result, config = run_seed(
            prob.model, prob.first_basis, schedule, seed,
            m_override=opts["m_override"], t_override=opts["t_override"],
            f0=np.zeros(2), failure_policy="forced_uniform",
            renewal=(1000, prob.renew),   # a fresh data pair every 1,000 steps
            record_path=trace is not None, trace_to=trace)

        before, after = _oracle_steps(result)
        crossed = (after >= -eps).nonzero()[0]
        gap = after - before
        drops = gap < 0
        bene_drops = drops & (result.trace.bene_size[:after.size] > 0)
        return {
            "seed": seed, "data_tries": tries,
            "success": bool(result.final_true_perf >= -eps),
            "final_relative_perf": result.final_true_perf,
            "baseline_perf": prob.baseline,
            "w_star_norm": float(np.sqrt(dot(prob.w_star, prob.w_star))),
            "crossing_step": int(crossed[0]) if crossed.size else None,
            "forced_steps": result.forced_steps,
            "bene_steps": result.bene_steps, "neut_steps": result.neut_steps,
            "drops": int(drops.sum()),
            "drops_forced_or_neutral": int((drops & ~bene_drops).sum()),
            "drops_on_beneficial": int(bene_drops.sum()),
            "max_beneficial_drop": float((-gap[bene_drops]).max(initial=0.0)),
            "schedule": _schedule_row(schedule, config),
        }

    rows = [row(pos, seed) for pos, seed in enumerate(cfg.seeds)]
    total_drops = sum(r["drops"] for r in rows)
    attributed = sum(r["drops_forced_or_neutral"] for r in rows)
    return {
        "knobs": list(_SUP_KNOBS),
        "per_seed": rows,
        "success_fraction": sum(r["success"] for r in rows) / len(rows),
        "seeds_with_failures":
            sum(1 for r in rows if r["forced_steps"] > 0),
        "schedule": rows[0]["schedule"],
        "drops_total": total_drops,
        "drops_forced_or_neutral_fraction":
            (attributed / total_drops) if total_drops else None,
        "max_beneficial_drop": max(r["max_beneficial_drop"] for r in rows),
    }


# ---------------------------------------------------------------------------
# scenario: stability of the target set


_STAB = {
    "dwell": ("int", 50, ">= 1"),
    **_sizing(m_override=20, t_override=8000, trace_limit=3),  # m noisy on purpose
    "comparison_t_override": ("int", 600, ">= 1"),
}
_F0_DISTANCE = 0.36   # the start's distance from the target


def _dwell_stats(flags: np.ndarray, dwell: int) -> dict:
    """First in-target row of the ``flags`` column and the in-target run after it."""
    hit = int(flags.argmax())
    if not flags[hit]:
        return {"hit_step": None, "dwell": 0, "dwell_ok": False,
                "window_complete": False}
    window = flags[hit + 1: hit + 1 + dwell]
    run_len = len(window) if window.all() else int(window.argmin())
    return {"hit_step": hit, "dwell": run_len,
            "dwell_ok": len(window) >= dwell and run_len == dwell,
            "window_complete": len(window) >= dwell}


def _stability(cfg, opts, trace_to) -> dict:
    """Post-hit dwell lengths under dwell-aware knobs vs the plain triple.

    Runs start a fixed distance outside the target set with deliberately
    small per-step samples.  The dwell-aware arm derives its knob triple from
    the requested dwell length; the comparison arm uses the default triple,
    which fails the sharpened region test.  Reported per arm: fraction of
    seeds whose organisms stay in the target set for the full window after
    first entry.
    """
    eps = cfg.epsilon
    dwell = int(opts["dwell"])
    if _F0_DISTANCE <= math.sqrt(eps):
        raise ConfigError(f"epsilon must be < {_F0_DISTANCE ** 2:g}, got {eps}, so that the "
                          f"start, {_F0_DISTANCE} from the target, lies outside the target set")

    # identity-panel constants are dataset-independent; the start distance
    # pins the horizon, so U is known before choosing the dwell-aware triple
    data = {seed: _mixture_for(seed) for seed in cfg.seeds}
    constants = _identity_constants(data, cfg.seeds)
    u_scale = conditioning_scale(constants, 1)
    stable_knobs = stable_knob_example(dwell, u_scale, constants.h_min,
                                       constants.h_max)
    default_in_stable = knob_region_check(
        DEFAULT_KNOBS, stable=True, dwell=dwell, u=u_scale,
        h_min=constants.h_min, h_max=constants.h_max)

    def run_arm(knobs: KnobTriple, t_override: int, stable_dwell, tag: str):
        def row(pos: int, seed: int) -> dict:
            pts, _, tries = data[seed]
            mu = pts.mean(axis=0)
            direction = rng_for((seed, "f0")).standard_normal(2)
            direction /= np.sqrt(dot(direction, direction))
            f0 = mu + _F0_DISTANCE * direction
            schedule = compute_schedule(eps, knobs, constants, f0=f0, t_coords=mu,
                                        stable_dwell=stable_dwell)
            model = MeanEstimationModel(
                ConditionSampler.empirical(pts, seed=seed), mu)
            result, _ = run_seed(model, MutationSet.orthonormal(2), schedule,
                                 seed, m_override=opts["m_override"],
                                 t_override=t_override, f0=f0,
                                 trace_to=trace_to(pos, f"{tag}-{seed}"))
            out = {"seed": seed, "data_tries": tries,
                   "final_true_perf": result.final_true_perf,
                   "alpha": schedule.alpha, "tol": schedule.tol}
            out.update(_dwell_stats(result.trace.in_target(), dwell))
            return out

        rows = [row(pos, seed) for pos, seed in enumerate(cfg.seeds)]
        hit_rows = [r for r in rows if r["hit_step"] is not None]
        return {
            "knobs": list(knobs),
            "rows": rows,
            "hit_fraction": len(hit_rows) / len(rows),
            "dwell_fraction": sum(r["dwell_ok"] for r in rows) / len(rows),
            "min_dwell": min((r["dwell"] for r in hit_rows), default=0),
        }

    stable_arm = run_arm(stable_knobs, int(opts["t_override"]), dwell, "stable")
    default_arm = run_arm(DEFAULT_KNOBS, int(opts["comparison_t_override"]),
                          None, "default")
    return {
        "dwell": dwell, "f0_distance": _F0_DISTANCE, "m": int(opts["m_override"]),
        "u_scale": u_scale,
        "stable_knobs_pass_sharpened_region": True,
        "default_knobs_pass_sharpened_region": bool(default_in_stable),
        "stable_arm": stable_arm,
        "default_arm": default_arm,
        "dwell_fraction_gap":
            stable_arm["dwell_fraction"] - default_arm["dwell_fraction"],
    }


# ---------------------------------------------------------------------------
# scenario: drifting target


_DRIFT = {
    **_sizing(m_override=5, trace_limit=3),
    "multipliers": ("vector", (0.0, 1.0, 4.0, 10.0)),
    "extended_multipliers": ("vector", (1e5, 2.5e5, 5e5, 1e6)),
    "extended_seed_count": ("int", 10, ">= 1"),
}


def _drift(cfg, opts, trace_to) -> dict:
    """Mean estimation under per-step target drift at multiples of the bound.

    The per-step drift magnitude is the theory's admissible bound times each
    configured multiplier; the extended multipliers chart where convergence
    actually breaks, on a reduced seed set.  Success per run is final true
    performance against the final target position.
    """
    eps = cfg.epsilon
    data, schedule, m, t_steps = _mean_problem(cfg, opts)
    bound = drift_bound(schedule)
    plan = make_drift_plan(schedule)
    for multiplier in (*opts["multipliers"], *opts["extended_multipliers"]):
        # the target ends up to nu * t_steps from its start, and each step
        # squares its distance to the organism: twice that leaves room for
        # the start and the organism
        reach = bound * multiplier * t_steps
        if not math.isfinite(4.0 * reach * reach):
            raise ConfigError(f"drift multiplier {multiplier:g} moves the target "
                              f"up to {reach:g} in {t_steps} steps, whose "
                              "square overflows the float range")

    def run_arm(multiplier: float, seeds: Sequence[int]) -> dict:
        nu = bound * multiplier

        def row(pos: int, seed: int) -> dict:
            pts, _, tries = data[seed]
            model = MeanEstimationModel(
                ConditionSampler.empirical(pts, seed=seed), pts.mean(axis=0), nu=nu)
            trace = trace_to(pos, f"x{multiplier:g}-{seed}") \
                if multiplier in (0.0, 1.0) else None
            result, _ = run_seed(model, MutationSet.orthonormal(2), schedule,
                                 seed, m_override=m, t_override=t_steps,
                                 f0=np.zeros(2), trace_to=trace)
            shift = np.subtract(model.t_cur, model.mu0)
            return {
                "seed": seed, "data_tries": tries,
                "success": bool(result.final_true_perf >= -eps),
                "final_true_perf": result.final_true_perf,
                "target_displacement": float(np.sqrt(dot(shift, shift))),
                "drift_steps": model.drift_steps,
            }

        rows = [row(pos, seed) for pos, seed in enumerate(seeds)]
        return {
            "multiplier": multiplier, "nu": nu, "seeds": list(seeds),
            "rows": rows,
            "success_fraction": sum(r["success"] for r in rows) / len(rows),
            "mean_final_perf":
                sum(r["final_true_perf"] for r in rows) / len(rows),
            "mean_target_displacement":
                sum(r["target_displacement"] for r in rows) / len(rows),
        }

    ext_seeds = cfg.seeds[: int(opts["extended_seed_count"])]
    return {
        "schedule": schedule.to_dict(), "m": m, "t_steps": t_steps,
        "policy": "adversarial", "drift_bound": bound, "drift_plan": plan,
        "arms": [run_arm(mult, cfg.seeds) for mult in opts["multipliers"]],
        "extended_arms": [run_arm(mult, ext_seeds)
                          for mult in opts["extended_multipliers"]],
    }


# ---------------------------------------------------------------------------
# frontier scaling sweep


def run_frontier_scaling(eps_list: Sequence[float] = (0.2, 0.1, 0.05, 0.025),
                         seed: int = 0, dim: int = 4) -> dict:
    """Extreme frontier returns across accuracy levels with budget = step size.

    Both the step size (0.3 epsilon) and the mutation budget scale linearly
    with epsilon while the concentration level is held at 4 (the premium is
    4 times the minimum), so the attainable extreme returns contract
    linearly; the report fits log-log slopes for a generic residual
    direction and for a zero-sum one.
    """
    if len(eps_list) < 2:
        raise ConfigError("scaling sweep needs at least two epsilon values")
    if dim < 2:
        raise ConfigError(f"scaling sweep needs dim >= 2 (a zero-sum residual "
                          f"needs two dimensions), got {dim}")
    alpha_coef, xi_level = 0.3, 4.0
    rng = rng_for((seed, "frontier"))
    root = rng.standard_normal((dim, dim))
    gamma = dot(root[:, None, :], root[None, :, :]) + 0.5 * np.eye(dim)
    delta = rng.standard_normal(dim)
    delta_zero = delta - delta.mean()

    def sweep(dvec: np.ndarray) -> dict:
        points = []
        for eps in eps_list:
            alpha = alpha_coef * eps
            problem = FrontierProblem(gamma, dvec, n=alpha, alpha=alpha)
            premium = xi_level * problem.min_premium
            hi, lo = efficient_frontier(problem, premium)
            points.append({"epsilon": eps, "alpha": alpha,
                           "premium": premium, "r_high": hi.r, "r_low": lo.r,
                           "r_max_abs": max(abs(hi.r), abs(lo.r)),
                           "r_span": hi.r - lo.r})
        logs_e = np.log([p["epsilon"] for p in points])
        slope_max = float(np.polyfit(logs_e,
                                     np.log([p["r_max_abs"] for p in points]),
                                     1)[0])
        slope_span = float(np.polyfit(logs_e,
                                      np.log([p["r_span"] for p in points]),
                                      1)[0])
        return {"points": points, "slope_max_abs": slope_max,
                "slope_span": slope_span}

    return {
        "eps_list": list(eps_list), "dim": dim, "alpha_coef": alpha_coef,
        "xi_level": xi_level,
        "generic": sweep(delta),
        "zero_sum": sweep(delta_zero),
    }


# ---------------------------------------------------------------------------
# dispatch


_RUNNERS = {
    "unsupervised_mean": (_UNSUP, _unsupervised_mean),
    "supervised_linear": (_SUP, _supervised_linear),
    "drift": (_DRIFT, _drift),
    "stability": (_STAB, _stability),
    "agnostic": (_AGNOSTIC, _agnostic),
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run a scenario config and return its report.

    Resolves the overrides against the scenario's table, creates
    ``out_dir`` and calls the scenario's runner with (cfg, opts, trace_to);
    ``trace_to(pos, tag)`` is the ``(out_dir, tag)`` trace
    destination of the seed at list position ``pos``, or None from
    ``trace_limit`` on.  The runner returns the report body; the scenario,
    epsilon and seeds head it, and it is written to ``out_dir/report.json``.
    """
    table, runner = _RUNNERS[cfg.scenario]
    opts = _resolve(table, cfg.overrides)
    out_dir = ensure_dir(cfg.out_dir) if cfg.out_dir else None

    def trace_to(pos: int, tag) -> Optional[tuple]:
        keep = out_dir is not None and pos < opts["trace_limit"]
        return (out_dir, tag) if keep else None

    report = {"scenario": cfg.scenario, "epsilon": cfg.epsilon,
              "seeds": cfg.seeds}
    report.update(runner(cfg, opts, trace_to))
    if out_dir:
        write_json_report(os.path.join(out_dir, "report.json"), report)
    return report
