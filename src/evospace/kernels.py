"""Fixed-order float kernels behind every reported number.

BLAS products (``@``, ``np.dot``, ``np.matmul``), ``np.einsum`` and
``np.linalg.norm`` pick their summation order, and whether to fuse a multiply
into an add, by the BLAS kernel the CPU selects and by how many rows share
the call.  The same inputs can then round one way on one machine, or in a
one-row call, and another way elsewhere, or in a stacked call.  The kernels
here only multiply elementwise and sum with ``fold``, a pairwise tree fixed
by the length of the summed axis alone.  numpy's elementwise multiply and add
round each result once, as IEEE 754 prescribes, at every SIMD width; so each
row's result is the same sequence of rounded operations whatever the CPU,
and the same alone as stacked with any number of other rows.
``cholesky_solve`` builds a small linear solve from them, since LAPACK's
``solve`` rounds by kernel too.  ``fold_source`` writes the same order as
straight-line Python, which is how
``dot_floats`` and the mutator loop's scorer get the same results on Python
floats without a numpy call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


# weighted_rows forms the products of about this many values (512 KB) at a
# time, which bounds the memory a block's reduction takes
_CHUNK_VALUES = 1 << 16


def fold(p) -> np.ndarray:
    """Sum over the last axis in a fixed pairwise order.

    Each pass adds term ``i + half`` to term ``i`` (``half`` is half the
    number of terms left, rounded down); an odd last term is then added to
    term 0.  An empty axis sums to zero.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    if n == 0:
        return np.zeros(p.shape[:-1])
    while n > 1:
        half = n // 2
        s = p[..., :half] + p[..., half:2 * half]
        if n % 2:
            s[..., 0] += p[..., n - 1]
        p, n = s, half
    return p[..., 0]


def dot(a, b) -> np.ndarray:
    """Inner products over the last axis, broadcast over the others."""
    return fold(np.multiply(a, b))


def matvec(A, x) -> np.ndarray:
    """``A x``: row i is ``dot(A[..., i, :], x)``, broadcast over stacks."""
    return fold(np.multiply(A, np.asarray(x, dtype=float)[..., None, :]))


def quad_form(x, Q) -> np.ndarray:
    """``x^T Q x`` as ``dot(x, matvec(Q, x))``, one value per row of ``x``."""
    return dot(x, matvec(Q, x))


def weighted_rows(w, X) -> np.ndarray:
    """``sum_k w[..., k] * X[..., k, :]``: weighted sums of the rows of ``X``.

    ``w`` is (..., n) and ``X`` is (n, d) or a stack (..., n, d); the result
    is (..., d).  Each product ``w_k X_kj`` rounds once and the n products
    of a column are summed by ``fold``; all n * d products of a row are
    formed at once.
    """
    X, w = np.asarray(X, dtype=float), np.asarray(w, dtype=float)
    rows = max(1, _CHUNK_VALUES // max(X.size, 1))
    if X.ndim == 2 and w.ndim == 2 and len(w) > rows:
        # a stack of weight rows over one X, a slice of rows at a time so
        # that the products stay small; each row is reduced alone anyway
        return np.concatenate([weighted_rows(w[k:k + rows], X)
                               for k in range(0, len(w), rows)])
    return fold(np.swapaxes(X, -1, -2) * w[..., None, :])


def cholesky_solve(A, b) -> np.ndarray:
    """x with A x = b for a symmetric positive definite A (its lower triangle).

    A = L L^T, then L y = b and L^T x = y, every sum a ``dot``, so the
    result does not depend on the BLAS kernel under LAPACK's ``solve``.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    n = b.shape[0]
    L, y, x = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for j in range(n):
        L[j, j] = math.sqrt(A[j, j] - dot(L[j, :j], L[j, :j]))
        for i in range(j + 1, n):
            L[i, j] = (A[i, j] - dot(L[i, :j], L[j, :j])) / L[j, j]
    for i in range(n):
        y[i] = (b[i] - dot(L[i, :i], y[:i])) / L[i, i]
    for i in reversed(range(n)):
        x[i] = (y[i] - dot(L[i + 1:, i], x[i + 1:])) / L[i, i]
    return x


def fold_source(terms: list) -> str:
    """Python source summing the expressions ``terms`` in ``fold``'s order."""
    n = len(terms)
    if n == 0:
        return "0.0"
    while n > 1:
        half = n // 2
        s = [f"({terms[i]} + {terms[i + half]})" for i in range(half)]
        if n % 2:
            s[0] = f"({s[0]} + {terms[n - 1]})"
        terms, n = s, half
    return terms[0]


def compile_floats(name: str, source: str) -> dict:
    """The names that the Python ``source``, compiled as ``<kernels.name>``, defines."""
    namespace = {}
    exec(compile(source, f"<kernels.{name}>", "exec"), namespace)
    return namespace


@lru_cache(maxsize=None)
def _dot_floats(n: int) -> Callable:
    terms = [f"a[{i}] * b[{i}]" for i in range(n)]
    source = f"def dot(a, b):\n    return {fold_source(terms)}\n"
    return compile_floats("dot", source)["dot"]


def dot_floats(a, b) -> float:
    """``dot`` of two sequences of Python floats, bit for bit."""
    return _dot_floats(len(a))(a, b)
