"""Diagnostics: expression ratios, step decompositions, projections, oracles.

The combinatorial helpers at the bottom are exact-arithmetic oracles used by
the geometric machinery's tests: a signed permutation polynomial with a
closed form, and signed counts of fixed-point-free permutations that equal a
small matrix determinant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ModelError
from .kernels import cholesky_solve, dot, matvec, quad_form
from .model import (BregmanGenerator, ConditionSampler, GenePanel, MutationSet,
                    Sample)


# ---------------------------------------------------------------------------
# expression-to-encoding ratio


@dataclass
class ExenReport:
    rho: float              # mean squared expressed output over encoding norm
    mean_expression: float  # mean expressed output norm
    var_expression: float   # variance of the expressed output norm
    encoding_norm: float    # gene-coordinate norm of the vector


def exen_ratio(f_coords, panel: GenePanel, sampler: ConditionSampler) -> ExenReport:
    """Expression-to-encoding ratio of ``f``.

    rho = E ||f(x)||^2 / ||f||, estimated over 2,000 fresh conditions (draw
    index -2).  The numerator equals the variance of the expressed norm plus
    the squared mean, which the report breaks out.
    """
    f = np.asarray(f_coords, dtype=float)
    enc = float(np.sqrt(dot(f, f)))
    if enc == 0.0:
        raise ModelError("expression ratio is undefined for a zero encoding")
    sample = sampler.draw(-2, 2000)
    out = panel.express(sample.points, f)
    norms = np.sqrt(dot(out, out))
    mean = float(dot(sample.weights, norms))
    var = float(dot(sample.weights, (norms - mean) ** 2))
    return ExenReport(rho=(var + mean * mean) / enc, mean_expression=mean,
                      var_expression=var, encoding_norm=enc)


# ---------------------------------------------------------------------------
# per-step return and premium


def return_and_premium(f_coords, index: int, polarity: int, alpha: float,
                       mutations: MutationSet, panel: GenePanel,
                       sample: Sample, target_outputs, gen: BregmanGenerator
                       ) -> tuple:
    """Empirical (return, premium) pair of one candidate mutation.

    Return is the inner product of the mutation's expressed output with the
    generator-gradient gap between target and organism; premium is the
    divergence cost of the step itself, divided by alpha.  The performance
    gain of the mutant over the organism equals alpha * (return - premium)
    exactly, for every generator.
    """
    if polarity not in (-1, 1):
        raise ModelError("polarity must be +1 or -1")
    if alpha <= 0:
        raise ModelError("alpha must be positive")
    f = np.asarray(f_coords, dtype=float)
    t = np.asarray(target_outputs, dtype=float)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    b = mutations.column(index)
    f_out = panel.express(sample.points, f)
    b_out = panel.express(sample.points, b)
    step_out = f_out + (alpha * polarity) * b_out

    r_terms = np.empty(sample.points.shape[0])
    p_terms = np.empty(sample.points.shape[0])
    for k in range(sample.points.shape[0]):
        grad_gap = gen.gradient(t[k]) - gen.gradient(f_out[k])
        r_terms[k] = polarity * float(dot(b_out[k], grad_gap))
        p_terms[k] = gen.divergence(step_out[k], f_out[k]) / alpha
    return (float(dot(sample.weights, r_terms)), float(dot(sample.weights, p_terms)))


# ---------------------------------------------------------------------------
# projection onto a mutation span


def projection_from_moments(quad: np.ndarray, cross: np.ndarray,
                            target_sq: float) -> tuple:
    """Optimal in-span coordinates and performance from quadratic moments.

    For performance -(c^T quad c - 2 c^T cross + target_sq) over coordinates
    c, the maximiser solves sym(quad) c = cross and the optimum performance
    is -(target_sq - cross^T c).
    """
    quad = np.asarray(quad, dtype=float)
    sym = 0.5 * (quad + quad.T)
    eig = np.linalg.eigvalsh(sym)
    if eig[0] <= 1e-14 * max(1.0, eig[-1]):
        raise ModelError("projection moment matrix is singular")
    c = cholesky_solve(sym, cross)
    return c, float(-(target_sq - dot(cross, c)))


def agnostic_projection_oracle(t_coords, span_vectors, gamma_metric) -> tuple:
    """Best in-span approximation of a known target, in the panel metric.

    ``span_vectors`` are columns spanning the reachable subspace and
    ``gamma_metric`` is the generator-metric panel second moment.  Returns
    (t_in_coords, optimum_performance) where t_in lies in the span, the
    residual t - t_in is gamma-orthogonal to the span, and the optimum
    performance is -<t_in - t, gamma (t_in - t)>.
    """
    t = np.asarray(t_coords, dtype=float)
    S = np.asarray(span_vectors, dtype=float)
    if S.ndim == 1:
        S = S.reshape(-1, 1)
    G = np.asarray(gamma_metric, dtype=float)
    if G.shape != (t.shape[0], t.shape[0]) or S.shape[0] != t.shape[0]:
        raise ModelError("projection oracle shape mismatch")
    eig = np.linalg.eigvalsh(0.5 * (G + G.T))
    if eig[0] <= 0:
        raise ModelError("gamma metric must be positive definite")
    # column a of S pairs with column b through G: quad[a, b] = S_a . G S_b
    GS = matvec(G, S.T)
    quad = dot(S.T[:, None, :], GS[None, :, :])
    cross = dot(S.T, matvec(G, t))
    c, _ = projection_from_moments(quad, cross, float(quad_form(t, G)))
    t_in = matvec(S, c)
    resid = t_in - t
    return t_in, float(-quad_form(resid, G))


# ---------------------------------------------------------------------------
# exact combinatorial oracles


@lru_cache(maxsize=None)
def _sign_by_moved(n: int) -> tuple:
    """Signed permutation counts grouped by number of non-fixed points.

    Entry k of the result is the sum of permutation signs over all
    permutations of n elements that move exactly k points.
    """
    acc = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        moved = sum(1 for i, p in enumerate(perm) if p != i)
        # sign = (-1)^(n - number of cycles)
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        acc[moved] += 1 if (n - cycles) % 2 == 0 else -1
    return tuple(acc)


def pdg_closed(dG: int, z):
    """Closed form z^(dG-1) (dG - (dG-1) z); exact for Fraction inputs."""
    if dG < 1:
        raise ModelError("dG must be >= 1")
    return z ** (dG - 1) * (dG - (dG - 1) * z)


def pdg_bruteforce(dG: int, z):
    """Signed sum over all permutations of (1-z)^(moved points)."""
    if not 1 <= dG <= 8:
        raise ModelError("dG must lie in 1..8 (factorial enumeration)")
    table = _sign_by_moved(dG)
    one = Fraction(1) if isinstance(z, Fraction) else 1.0
    return sum(s * (one - z) ** k for k, s in enumerate(table) if s != 0)


def _bareiss_int_det(mat) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [[int(v) for v in row] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def derangement_sign_det(j: int) -> int:
    """Signed count of fixed-point-free permutations of j elements.

    Computed two independent ways -- enumeration, and the exact determinant
    of the j x j hollow ones matrix -- which must agree; the common value is
    returned.  (Closed form: (-1)^(j-1) (j-1).)
    """
    if not 1 <= j <= 9:
        raise ModelError("j must lie in 1..9 (factorial enumeration)")
    by_enum = _sign_by_moved(j)[j]
    hollow = [[0 if r == c else 1 for c in range(j)] for r in range(j)]
    by_det = _bareiss_int_det(hollow)
    if by_enum != by_det:
        raise ModelError(f"derangement sign oracles disagree at j={j}: "
                         f"{by_enum} vs {by_det}")
    return by_enum
