"""Basis quality diagnostics and selection of the best generating subset.

A candidate basis is scored by a corrected mean norm: the arithmetic mean of
the vector norms, discounted once for norm imbalance (geometric-to-arithmetic
mean ratio of the squared norms) and once for angular imbalance (worst folded
pairwise angle).  The scale-free variant divides by the longest vector and is
the quantity the selector maximises.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .kernels import dot
from .model import MutationSet, rng_for

_RANK_REL_TOL = 1e-12


@dataclass
class BasisQuality:
    b_h: float            # corrected mean norm
    b_bar: float          # b_h / max vector norm (scale free)
    kappa_n: float        # norm imbalance discount, in [0, 1)
    kappa_a: float        # angle imbalance discount, in [0, 1)
    theta: float          # minimal folded pairwise angle, in (0, pi/2]
    geo_mean_sq: float    # geometric mean of squared norms
    ari_mean_sq: float    # arithmetic mean of squared norms
    tilde_volume: float   # Gram volume of the sum-normalised basis


def _gram(B: np.ndarray) -> np.ndarray:
    """B^T B: the inner products of the columns of B."""
    return dot(B.T[:, None, :], B.T[None, :, :])


def _rel_gram_det(B: np.ndarray) -> float:
    """Gram determinant normalised by the product of squared norms."""
    gram = _gram(B)
    denom = float(np.prod(np.diag(gram)))
    if denom <= 0.0:
        return 0.0
    return float(np.linalg.det(gram)) / denom


def basis_quality(vectors) -> BasisQuality:
    """Quality report for a linearly independent set of column vectors."""
    B = np.asarray(vectors, dtype=float)
    if B.ndim != 2 or B.shape[1] < 1:
        raise ModelError("basis must be a nonempty matrix of column vectors")
    if not np.all(np.isfinite(B)):
        raise ModelError("basis has non-finite entries")
    k = B.shape[1]
    norms = np.sqrt(dot(B.T, B.T))
    if np.any(norms == 0.0):
        raise ModelError("basis vectors must be nonzero")
    if _rel_gram_det(B) <= _RANK_REL_TOL:
        raise ModelError("basis is rank deficient (relative Gram determinant too small)")

    nsq = norms ** 2
    ari = float(np.mean(nsq))
    geo = float(np.exp(np.mean(np.log(nsq))))
    kappa_n = 1.0 - (geo / ari) ** (k / 2.0)

    if k == 1:
        theta = math.pi / 2.0
        kappa_a = 0.0
    else:
        cos_min = 0.0
        for i, j in itertools.combinations(range(k), 2):
            c = abs(float(dot(B[:, i], B[:, j]))) / (norms[i] * norms[j])
            cos_min = max(cos_min, min(c, 1.0))
        theta = math.acos(cos_min)
        kappa_a = 1.0 - (1.0 - cos_min) ** (k - 1)

    b_h = (1.0 - kappa_n) * (1.0 - kappa_a) * float(np.sum(norms)) / k
    b_bar = b_h / float(norms.max())

    # Sum-normalised copy: every vector scaled by (k / sum of squared norms)
    # to the power (k-1)/(2k); its Gram volume lower-bounds nothing here, it
    # is reported so callers can check it dominates b_h.
    scale = (k / float(np.sum(nsq))) ** ((k - 1) / (2.0 * k))
    det = max(float(np.linalg.det(_gram(scale * B))), 0.0)
    return BasisQuality(b_h=b_h, b_bar=b_bar, kappa_n=kappa_n, kappa_a=kappa_a,
                        theta=theta, geo_mean_sq=geo, ari_mean_sq=ari,
                        tilde_volume=math.sqrt(det))


@dataclass
class BStarSelection:
    indices: tuple
    quality: BasisQuality
    exhaustive: bool


def _subset_quality(B: np.ndarray, idx: Sequence[int]) -> Optional[BasisQuality]:
    sub = B[:, list(idx)]
    if _rel_gram_det(sub) <= _RANK_REL_TOL:
        return None
    return basis_quality(sub)


def _greedy_seed(B: np.ndarray, k: int) -> list:
    """Volume-greedy seed: grow the subset maximising the Gram determinant."""
    chosen: list = []
    remaining = list(range(B.shape[1]))
    for _ in range(k):
        best, best_vol = None, -1.0
        for j in remaining:
            sub = B[:, chosen + [j]]
            vol = float(np.linalg.det(_gram(sub)))
            if vol > best_vol:
                best, best_vol = j, vol
        chosen.append(best)
        remaining.remove(best)
    return sorted(chosen)


def _local_ascent(B: np.ndarray, idx: list) -> tuple:
    """Single-swap hill climb on b_bar; returns (indices, quality)."""
    dF = B.shape[1]
    cur = sorted(idx)
    q = _subset_quality(B, cur)
    if q is None:
        return None, None
    improved = True
    while improved:
        improved = False
        best_swap, best_q = None, q
        inside = set(cur)
        for i in cur:
            for j in range(dF):
                if j in inside:
                    continue
                cand = sorted(set(cur) - {i} | {j})
                cq = _subset_quality(B, cand)
                if cq is not None and cq.b_bar > best_q.b_bar:
                    best_swap, best_q = cand, cq
        if best_swap is not None:
            cur, q = best_swap, best_q
            improved = True
    return tuple(cur), q


def select_bstar(mutations: MutationSet, *, agnostic: bool = False,
                 restarts: int = 100, force_heuristic: bool = False) -> BStarSelection:
    """Pick the generating subset maximising the scale-free quality b_bar.

    In the default mode the subset size is the gene dimension and the full
    mutation set must have full rank.  With ``agnostic=True`` the subset size
    is the rank of the mutation set and selection runs inside its span.
    Exhaustive search is used when the number of candidate subsets is at most
    10,000; otherwise a greedy seed plus random-restart single swaps, drawn
    from one fixed stream.  Ties go to the lexicographically smallest index set.
    """
    B = mutations.vectors
    rank = int(np.linalg.matrix_rank(B))
    k = rank if agnostic else mutations.dG
    if not agnostic and rank < mutations.dG:
        raise ModelError(f"mutation set has rank {rank} < dG={mutations.dG}; "
                         "use agnostic selection for spanning a subspace")
    if k < 1 or k > mutations.dF:
        raise ModelError("no candidate subsets of the required size")

    n_subsets = math.comb(mutations.dF, k)
    if n_subsets <= 10000 and not force_heuristic:
        best_idx, best_q = None, None
        for idx in itertools.combinations(range(mutations.dF), k):
            q = _subset_quality(B, idx)
            if q is None:
                continue
            if best_q is None or q.b_bar > best_q.b_bar:
                best_idx, best_q = idx, q
        if best_idx is None:
            raise ModelError("no full-rank subset of the required size exists")
        return BStarSelection(best_idx, best_q, exhaustive=True)

    rng = rng_for(("bstar", 0))
    candidates = [_greedy_seed(B, k)]
    for _ in range(restarts):
        candidates.append(sorted(rng.choice(mutations.dF, size=k, replace=False).tolist()))
    best_idx, best_q = None, None
    for cand in candidates:
        idx, q = _local_ascent(B, cand)
        if q is None:
            continue
        if best_q is None or q.b_bar > best_q.b_bar or (
                q.b_bar == best_q.b_bar and idx < best_idx):
            best_idx, best_q = idx, q
    if best_idx is None:
        raise ModelError("no full-rank subset of the required size was found")
    return BStarSelection(tuple(best_idx), best_q, exhaustive=False)
