"""Parameter schedule: step size, tolerance, margin, sample size, step count.

All run parameters derive from three dimensionless knobs (z_tau, z_alpha,
z_tol) and a handful of model constants (curvature bounds of the divergence
generator, eigenvalue extremes of the panel second moment, basis quality,
horizon).  The knob triple must lie in an admissible region guaranteeing a
positive per-step performance margin tol - alpha * tau; a stricter region,
parameterised by a dwell length N, additionally guarantees that organisms
reaching the target set stay there for N further steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ModelError
from .basis import select_bstar
from .kernels import dot, matvec
from .model import BregmanGenerator, ConditionSampler, GenePanel, MutationSet


class KnobTriple(NamedTuple):
    z_tau: float
    z_alpha: float
    z_tol: float

    def to_dict(self) -> dict:
        return self._asdict()


#: Default admissible triple; margin z_tol - z_tau * z_alpha = 1/27.
DEFAULT_KNOBS = KnobTriple(z_tau=1.0 / 9.0, z_alpha=1.0 / 3.0, z_tol=2.0 / 27.0)


def knob_region_check(knobs: KnobTriple, *, stable: bool = False,
                      dwell: Optional[int] = None, u: Optional[float] = None,
                      h_min: Optional[float] = None,
                      h_max: Optional[float] = None) -> bool:
    """Membership test for the admissible knob region.

    Standard region:
      (i)   all three knobs positive,
      (ii)  z_tol - z_tau * z_alpha > 0,
      (iii) z_alpha^2 - z_alpha (1 - z_tau) + z_tol <= 0.

    Stable region (``stable=True``; needs ``dwell``, ``u``, ``h_min``,
    ``h_max``): conditions (i) and (ii) plus the sharpened quadratic
    (a + b) z_alpha^2 - z_alpha (1 - b z_tau) + b z_tol <= 0 with a = dwell/u
    and b = 2 h_max / h_min.  Stable membership implies standard membership.
    """
    zt, za, zl = knobs.z_tau, knobs.z_alpha, knobs.z_tol
    if not (zt > 0 and za > 0 and zl > 0):
        return False
    if not (zl - zt * za > 0):
        return False
    if not stable:
        return za * za - za * (1.0 - zt) + zl <= 0
    if dwell is None or u is None or h_min is None or h_max is None:
        raise ConfigError("stable region check needs dwell, u, h_min, h_max")
    if dwell <= 0 or u <= 0 or not (0 < h_min <= h_max):
        raise ConfigError("stable region parameters must be positive with h_min <= h_max")
    a = dwell / u
    b = 2.0 * h_max / h_min
    sharp = (a + b) * za * za - za * (1.0 - b * zt) + b * zl <= 0
    if not sharp:
        return False
    # b >= 2 and a > 0 make the sharpened quadratic dominate the standard
    # one, so acceptance here must imply standard acceptance.
    if not knob_region_check(knobs):
        raise ModelError("stable knob acceptance failed to imply standard acceptance")
    return True


def stable_knob_example(dwell: int, u: float, h_min: float, h_max: float) -> KnobTriple:
    """A triple in the stable region for the given dwell length and scale."""
    if dwell <= 0 or u <= 0 or not (0 < h_min <= h_max):
        raise ConfigError("stable knob example needs positive dwell, u and curvature bounds")
    a = dwell / u
    b = 2.0 * h_max / h_min
    knobs = KnobTriple(z_tau=1.0 / (4.0 * b),
                       z_alpha=1.0 / (32.0 * (a + b)),
                       z_tol=1.0 / (64.0 * b * (a + b)))
    if not knob_region_check(knobs, stable=True, dwell=dwell, u=u,
                             h_min=h_min, h_max=h_max):
        raise ModelError("constructed stable knob triple failed its own region check")
    return knobs


# ---------------------------------------------------------------------------
# model constants


@dataclass
class ModelConstants:
    """Estimated scalars the schedule formulas consume."""

    h_min: float
    h_max: float
    mu_min: float
    mu_max: float
    dG: int                  # size of the selected generating subset
    dF: int                  # number of available mutations
    b_bar: float             # scale-free quality of the selected subset
    b_quality: float         # corrected mean norm of the selected subset
    max_b_norm: float        # largest mutation norm in gene coordinates
    e_b_out_sq: np.ndarray   # per-mutation mean squared expressed output
    sup_single: float        # sup over conditions of the selected subset's
                             # summed squared outputs, times 1.5 for safety
    bstar_indices: tuple = ()

    def to_dict(self) -> dict:
        return dict(vars(self), bstar_indices=list(self.bstar_indices),
                    e_b_out_sq=[float(v) for v in np.ravel(self.e_b_out_sq)])


def estimate_model_constants(panel: GenePanel, mutations: MutationSet,
                             sampler: ConditionSampler, gen: BregmanGenerator,
                             *, agnostic: bool = False) -> ModelConstants:
    """Monte-Carlo estimates of the schedule's model constants.

    The panel second moment is estimated from 2,000 conditions (draw index -1)
    and its eigenvalue extremes become (mu_min, mu_max); per-mutation
    expressed-output second moments and the worst summed squared output of
    the selected subset are estimated from the same draw, the latter inflated
    by 1.5.  With ``agnostic=True`` the generating subset has the rank of the
    mutation set and the second moment is restricted to its span.
    """
    sel = select_bstar(mutations, agnostic=agnostic)
    sample = sampler.draw(-1, 2000)
    pts, w = sample.points, sample.weights

    gamma = panel.second_moment(pts, weights=w)
    if agnostic:
        # an orthonormal column basis of the span
        q, _ = np.linalg.qr(mutations.vectors[:, list(sel.indices)])
        P = q[:, :len(sel.indices)].T
        gamma_eff = dot(P[:, None, :], matvec(gamma, P)[None, :, :])
    else:
        gamma_eff = gamma
    eig = np.linalg.eigvalsh(0.5 * (gamma_eff + gamma_eff.T))
    if eig[0] <= 0:
        raise ModelError("panel second moment is not positive definite on the "
                         "relevant span; expression degeneracy")

    e_out = np.empty(mutations.dF)
    lam = np.zeros(pts.shape[0])
    for i in range(mutations.dF):
        out = panel.express(pts, mutations.column(i))
        sq = dot(out, out)
        e_out[i] = float(dot(w, sq))
        if i in sel.indices:
            lam += sq
    live = w > 0
    sup_single = float(lam[live].max()) * 1.5

    return ModelConstants(
        h_min=gen.h_min, h_max=gen.h_max,
        mu_min=float(eig[0]), mu_max=float(eig[-1]),
        dG=len(sel.indices), dF=mutations.dF,
        b_bar=sel.quality.b_bar, b_quality=sel.quality.b_h,
        max_b_norm=mutations.max_norm,
        e_b_out_sq=e_out, sup_single=sup_single,
        bstar_indices=sel.indices)


# ---------------------------------------------------------------------------
# schedule


@dataclass
class Schedule:
    epsilon: float
    knobs: KnobTriple
    horizon: int          # number of longest-mutation steps to the target
    u: float              # conditioning scale: curvature ratio x basis spread
    v: float              # premium scale: curvature x worst expressed output
    alpha: float          # mutation step size
    tol: float            # beneficial/neutral tolerance
    tau: float            # estimation margin
    t_steps: int          # scheduled number of evolution steps
    m: int                # per-step sample size (after cap)
    t_exact: float        # step count before the leading constant and ceil
    m_exact: float        # sample size before the leading constant and cap
    c_t: float
    c_m: float
    m_cap: int
    constants: ModelConstants

    @property
    def margin(self) -> float:
        """Per-step performance margin tol - alpha * tau (positive by region)."""
        return self.tol - self.alpha * self.tau

    def to_dict(self) -> dict:
        return dict(vars(self), knobs=self.knobs.to_dict(),
                    constants=self.constants.to_dict())


def conditioning_scale(constants: ModelConstants, horizon: int) -> float:
    """The scale U: curvature ratio times basis spread times the horizon."""
    hr = (constants.h_max ** 1.5 * math.sqrt(constants.mu_max)) / \
         (constants.h_min ** 1.5 * math.sqrt(constants.mu_min))
    return hr * (2.0 * math.sqrt(math.e * constants.dG) / constants.b_bar) * horizon


def compute_schedule(epsilon: float, knobs: KnobTriple, constants: ModelConstants,
                     *, horizon: Optional[int] = None, f0=None, t_coords=None,
                     c_t: float = 1.0, c_m: float = 1.0, m_cap: int = 50000,
                     stable_dwell: Optional[int] = None) -> Schedule:
    """Resolve the full run schedule from knobs and model constants.

    The horizon is either given directly or computed as the ceiling of the
    gene-coordinate distance from ``f0`` to ``t_coords`` over the longest
    mutation norm.  With ``stable_dwell`` set, the knobs must lie in the
    stable region for that dwell length.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ConfigError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not knob_region_check(knobs):
        raise ConfigError(f"knob triple {tuple(knobs)} is outside the admissible region")
    if horizon is None:
        if f0 is None or t_coords is None:
            raise ConfigError("need either an explicit horizon or both f0 and t_coords")
        with np.errstate(over="ignore"):   # reported as a ConfigError below
            gap = np.asarray(t_coords, float) - np.asarray(f0, float)
            dist = float(np.sqrt(dot(gap, gap)))
        if not math.isfinite(dist / constants.max_b_norm):
            raise ConfigError(f"the horizon from f0 to the target is not finite ({dist})")
        horizon = max(1, math.ceil(dist / constants.max_b_norm))
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")

    u = conditioning_scale(constants, horizon)
    v = constants.h_max * float(np.max(constants.e_b_out_sq))
    mv = max(1.0, v)

    if stable_dwell is not None:
        if not knob_region_check(knobs, stable=True, dwell=stable_dwell, u=u,
                                 h_min=constants.h_min, h_max=constants.h_max):
            raise ConfigError("knob triple is outside the stable region for "
                              f"dwell {stable_dwell}")

    tol = knobs.z_tol * epsilon ** 2 / (u * u * mv)
    alpha = knobs.z_alpha * epsilon / (u * mv)
    tau = knobs.z_tau * epsilon / u
    margin = tol - alpha * tau
    if margin <= 0:
        raise ConfigError("schedule margin tol - alpha * tau is not positive")

    # Steps needed: the initial divergence bound over the per-step margin.
    t_exact = (constants.h_max * constants.mu_max / 2.0) * \
        constants.max_b_norm ** 2 * horizon ** 2 / margin
    if not math.isfinite(c_t * t_exact):
        raise ConfigError(f"c_t * t_exact = {c_t} * {t_exact} is not finite")
    t_steps = max(1, math.ceil(c_t * t_exact))

    ratio = (constants.h_max * constants.mu_max) / (constants.h_min * constants.mu_min)
    m_exact = (constants.h_max ** 2 * constants.sup_single ** 2 / tau ** 2) * \
        (ratio * horizon ** 2 / constants.b_bar ** 2 + alpha ** 2) * \
        math.log(constants.dF * t_steps / epsilon)
    if not math.isfinite(c_m * m_exact):
        raise ConfigError(f"c_m * m_exact = {c_m} * {m_exact} is not finite")
    m = int(min(m_cap, max(1, math.ceil(c_m * m_exact))))

    return Schedule(epsilon=epsilon, knobs=knobs, horizon=horizon, u=u, v=v,
                    alpha=alpha, tol=tol, tau=tau, t_steps=t_steps, m=m,
                    t_exact=t_exact, m_exact=m_exact, c_t=c_t, c_m=c_m,
                    m_cap=m_cap, constants=constants)


# ---------------------------------------------------------------------------
# target drift


def drift_bound(schedule: Schedule) -> float:
    """Largest admissible per-step drift of the target encoding."""
    c = schedule.constants
    if schedule.v <= 0:
        raise ModelError("premium scale v must be positive")
    z = schedule.knobs
    num = (z.z_tol - z.z_tau * z.z_alpha) * schedule.epsilon ** 4
    den = 2.0 * schedule.u ** 2 * schedule.v * \
        (2.0 + schedule.horizon ** 2 * c.max_b_norm ** 2)
    return num / den


def make_drift_plan(schedule: Schedule) -> dict:
    """The drift plan at the admissible bound: nu is the bound, so it complies."""
    c = schedule.constants
    bound = drift_bound(schedule)
    w = 1.0 + max(1.0, (2.0 * c.h_max * c.mu_max / (c.h_min * c.mu_min)) *
                  schedule.horizon ** 2 * c.max_b_norm ** 2)
    return {"nu": bound, "bound": bound, "w_const": w, "paper_compliant": True}
