"""Return-premium frontier of single mutations under budget constraints.

A candidate mutation b pays a premium (alpha/2) <b, Gamma b> and earns a
return <b, Gamma delta> against the residual direction delta, subject to a
budget <1, b> = n.  Minimising premium at fixed return and budget is a
two-constraint quadratic program; eliminating the multipliers yields a closed
form for the attainable returns at any premium level, which the KKT solver
below cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelError
from .kernels import dot, matvec, quad_form

_DEGEN_REL = 1e-10


@dataclass
class FrontierPoint:
    r: float
    premium: float
    b: np.ndarray
    lambda_r: float
    lambda_n: float


class FrontierProblem:
    """Frozen problem data: metric, residual direction, budget, step scale."""

    def __init__(self, gamma, delta, n: float, alpha: float):
        G = np.asarray(gamma, dtype=float)
        d = np.asarray(delta, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or d.shape != (G.shape[0],):
            raise ModelError("frontier problem shape mismatch")
        if not np.allclose(G, G.T, atol=1e-10):
            raise ModelError("gamma must be symmetric")
        eig = np.linalg.eigvalsh(0.5 * (G + G.T))
        if eig[0] <= 0:
            raise ModelError("gamma must be positive definite")
        if alpha <= 0:
            raise ConfigError("alpha must be positive")
        self.gamma = 0.5 * (G + G.T)
        self.delta = d
        self.n = float(n)
        self.alpha = float(alpha)

        ones = np.ones(G.shape[0])
        self.gamma_inv_one = np.linalg.solve(self.gamma, ones)
        self.s = float(dot(ones, self.gamma_inv_one))
        self.cap_delta = float(dot(ones, d))
        self.delta_quad = float(quad_form(d, self.gamma))
        self.p_delta = 0.5 * self.alpha * self.delta_quad
        # the closed forms square these, and a float square past 1e154 raises
        if not np.isfinite(np.square([self.n, self.cap_delta,
                                      self.s * self.delta_quad])).all():
            raise ModelError("frontier problem data overflow the float range")

    # scale against which the budget-return system degenerates; by
    # Cauchy-Schwarz cap_delta^2 <= s * delta_quad with equality iff delta is
    # proportional to gamma^{-1} 1.
    @property
    def degeneracy_gap(self) -> float:
        return self.s * self.delta_quad - self.cap_delta ** 2

    @property
    def is_degenerate(self) -> bool:
        return self.degeneracy_gap <= _DEGEN_REL * self.s * self.delta_quad

    @property
    def min_premium(self) -> float:
        """Premium of the budget-only minimiser (n/s) gamma^{-1} 1."""
        return self.alpha * self.n ** 2 / (2.0 * self.s)


def kkt_oracle(problem: FrontierProblem, r: float) -> FrontierPoint:
    """Premium minimiser at fixed return r and budget n, via the multiplier
    system; independent of the closed-form frontier."""
    p = problem
    det = p.degeneracy_gap  # alpha-scaled determinant of the 2x2 system
    scale = max(1.0, abs(r), abs(p.n))
    if p.is_degenerate:
        forced = p.cap_delta * p.n / p.s
        if abs(r - forced) > 1e-8 * scale:
            raise ModelError("degenerate frontier: only the forced return "
                             f"{forced} is feasible, requested {r}")
        lam_r, lam_n = 0.0, p.alpha * p.n / p.s
    else:
        # [<delta, gamma delta>, cap] [lam_r]   [alpha r]
        # [cap,                 s   ] [lam_n] = [alpha n]
        lam_r = p.alpha * (p.s * r - p.cap_delta * p.n) / det
        lam_n = p.alpha * (p.delta_quad * p.n - p.cap_delta * r) / det
    b = (lam_r / p.alpha) * p.delta + (lam_n / p.alpha) * p.gamma_inv_one
    if not p.is_degenerate:
        res_r = abs(float(dot(b, matvec(p.gamma, p.delta))) - r)
        res_n = abs(float(np.sum(b)) - p.n)
        if res_r > 1e-10 * scale * max(1.0, p.delta_quad) or res_n > 1e-10 * scale:
            raise ModelError("KKT solution failed the constraint residual check")
    premium = 0.5 * p.alpha * float(quad_form(b, p.gamma))
    if not np.isfinite([r, premium, lam_r, lam_n, *b]).all():
        raise ModelError(f"the frontier point at return {r} is not finite "
                         f"(premium {premium}): the instance overflows floats")
    return FrontierPoint(r=float(r), premium=premium, b=b,
                         lambda_r=lam_r, lambda_n=lam_n)


def efficient_frontier(problem: FrontierProblem, premium_level: float) -> tuple:
    """Attainable extreme returns at a premium level: (high, low) points.

    The closed form distinguishes a sum-coupled branch (budget direction and
    residual direction interact), a zero-sum branch for residuals whose
    entries cancel, and a degenerate branch where the residual is parallel to
    the budget minimiser and the return is forced.  Each returned point
    carries the premium-minimising b realising its return.
    """
    p = problem
    if p.n == 0.0:
        raise ConfigError("the frontier parameterisation needs a nonzero budget n")
    if p.is_degenerate:
        forced = p.cap_delta * p.n / p.s
        pt = kkt_oracle(p, forced)
        return (pt, FrontierPoint(r=pt.r, premium=pt.premium, b=pt.b.copy(),
                                  lambda_r=pt.lambda_r, lambda_n=pt.lambda_n))
    min_prem = p.min_premium
    if premium_level < min_prem * (1.0 - 1e-10):
        raise ConfigError(f"premium level {premium_level} below the minimum "
                          f"feasible {min_prem}")
    xi_b = max(1.0, 2.0 * p.s * premium_level / (p.alpha * p.n ** 2))
    root_term = xi_b - 1.0
    if abs(p.cap_delta) > _DEGEN_REL * math.sqrt(p.s * p.delta_quad):
        xi_delta = p.s * p.delta_quad / p.cap_delta ** 2
        spread = math.sqrt(max(0.0, (xi_delta - 1.0) * root_term))
        base = p.cap_delta * p.n / p.s
        r_hi, r_lo = base * (1.0 + spread), base * (1.0 - spread)
        if r_hi < r_lo:
            r_hi, r_lo = r_lo, r_hi
    else:
        # zero-sum residual: returns are symmetric about zero
        mag = (abs(p.n) / p.s) * math.sqrt(max(0.0, p.s * p.delta_quad * root_term))
        r_hi, r_lo = mag, -mag
    return (kkt_oracle(p, r_hi), kkt_oracle(p, r_lo))
