"""Fixed-order kernels: a row's result alone equals its result in any stack,
the order is the documented pairwise tree, and the golden digests do not
depend on which OpenBLAS kernel the CPU selects."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evospace import kernels
from evospace.engine import QuadraticPerfModel
from evospace.kernels import (cholesky_solve, dot, dot_floats, fold,
                              fold_source, matvec, quad_form, weighted_rows)

ROOT = pathlib.Path(__file__).resolve().parents[1]

# summed lengths on both sides of 8 and 128, where numpy's own pairwise
# summation changes its unrolling and its blocking
LENGTHS = st.sampled_from([1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 257])
# at most this many values in a generated stack
BUDGET = 1 << 18


def pairwise_sum(values):
    """The documented order: term i + half onto term i, then an odd last
    term onto term 0, until one term is left."""
    if not values:
        return 0.0
    while len(values) > 1:
        half, odd = divmod(len(values), 2)
        out = [values[i] + values[i + half] for i in range(half)]
        if odd:
            out[0] += values[-1]
        values = out
    return values[0]


@st.composite
def stacks(draw, length=LENGTHS, width=st.integers(1, 17)):
    """(rng, K, n, d): K stacked rows, a summed length n, a width d."""
    n, d = draw(length), draw(width)
    K = min(draw(st.integers(1, 4096)), max(1, BUDGET // (n * d)))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))), K, n, d


def values(rng, *shape):
    # mixed magnitudes and signs, so that the order of a sum shows
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


def assert_rows_alone(stacked, one_row, K):
    """Row k of the stacked result equals, bit for bit, row k computed alone."""
    for k in range(K):
        assert np.array_equal(stacked[k], one_row(k)), k


class TestStackedEqualsOneRow:
    @settings(max_examples=40, deadline=None)
    @given(case=stacks(length=st.integers(1, 17)))
    def test_dot(self, case):
        rng, K, d, _ = case
        a, b = values(rng, K, d), values(rng, K, d)
        assert_rows_alone(dot(a, b), lambda k: dot(a[k], b[k]), K)
        assert dot(a[0], b[0]) == pairwise_sum((a[0] * b[0]).tolist())
        assert dot_floats(a[0].tolist(), b[0].tolist()) == dot(a[0], b[0])

    @settings(max_examples=40, deadline=None)
    @given(case=stacks(length=st.integers(1, 17)))
    def test_matvec_and_quad_form(self, case):
        rng, K, d, _ = case
        Q, x = values(rng, d, d), values(rng, K, d)
        assert_rows_alone(matvec(Q, x), lambda k: matvec(Q, x[k]), K)
        assert_rows_alone(quad_form(x, Q), lambda k: quad_form(x[k], Q), K)
        # a stack of matrices, each with its own vector
        Qs = values(rng, K, d, d)
        assert_rows_alone(matvec(Qs, x), lambda k: matvec(Qs[k], x[k]), K)
        want = [pairwise_sum((Q[i] * x[0]).tolist()) for i in range(d)]
        assert matvec(Q, x[0]).tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(case=stacks())
    def test_weighted_rows(self, case):
        rng, K, n, d = case
        W, X = rng.uniform(0.0, 1.0, (K, n)), values(rng, n, d)
        assert_rows_alone(weighted_rows(W, X), lambda k: weighted_rows(W[k], X), K)
        # a stack of row sets, each with its own weights
        Xs = values(rng, min(K, 64), n, d)
        assert_rows_alone(weighted_rows(W[:len(Xs)], Xs),
                          lambda k: weighted_rows(W[k], Xs[k]), len(Xs))
        want = [pairwise_sum((W[0] * X[:, j]).tolist()) for j in range(d)]
        assert weighted_rows(W[0], X).tolist() == want

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 18])
    def test_weighted_rows_in_slices(self, chunk, monkeypatch):
        # a stack of weight rows is reduced a slice of rows at a time
        rng = np.random.default_rng(chunk)
        W, X = rng.uniform(0.0, 1.0, (300, 129)), values(rng, 129, 3)
        want = weighted_rows(W, X)
        monkeypatch.setattr(kernels, "_CHUNK_VALUES", chunk)
        assert np.array_equal(weighted_rows(W, X), want)
        assert_rows_alone(want, lambda k: weighted_rows(W[k], X), len(W))

    @settings(max_examples=40, deadline=None)
    @given(case=stacks())
    def test_fold_order(self, case):
        rng, K, n, _ = case
        p = values(rng, K, n)
        assert_rows_alone(fold(p), lambda k: fold(p[k]), K)
        assert fold(p[0]) == pairwise_sum(p[0].tolist())
        names = [f"v[{i}]" for i in range(n)]
        assert eval(fold_source(names), {"v": p[0].tolist()}) == fold(p[0])

    def test_empty_sums_are_zero(self):
        assert fold(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
        assert eval(fold_source([])) == 0.0


class TestCholeskySolve:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_solves_positive_definite_systems(self, seed, n):
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((n, n))
        A, b = R @ R.T + 0.1 * np.eye(n), rng.standard_normal(n)
        x = cholesky_solve(A, b)
        assert np.allclose(A @ x, b, rtol=0, atol=1e-9 * (1 + np.abs(b).max()) * np.linalg.cond(A))
        # the upper triangle is never read
        assert np.array_equal(cholesky_solve(np.tril(A), b), x)


class TestPlainFloatScore:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 17),
           rows=st.integers(1, 40))
    def test_scorer_equals_the_numpy_kernels(self, seed, d, rows):
        rng = np.random.default_rng(seed)
        A = values(rng, d, d)
        quad, cross, const = A @ A.T, values(rng, d), float(values(rng, 1)[0])
        f, steps = values(rng, d), values(rng, rows, d)
        model = QuadraticPerfModel(None, None, (quad, cross, const))
        perf_f, gains, _, _ = model.score((quad, cross, const), f, steps, 1.0)
        assert perf_f == -(quad_form(f, quad) - 2.0 * dot(f, cross) + const)
        want = 2.0 * dot(steps, cross - matvec(quad, f)) - quad_form(steps, quad)
        assert gains == want.tolist()
        # the one-row and stacked oracle agree with perf
        C = np.vstack([f, steps])
        assert model._eval((quad, cross, const), f) == perf_f
        assert model._eval((quad, cross, const), C)[0] == perf_f


def openblas_core(env) -> str:
    """The kernel that numpy's bundled OpenBLAS picks under ``env``, or ''."""
    probe = (
        "import ctypes, glob, os, numpy\n"
        "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), '..',"
        " 'numpy.libs', '*openblas*'))\n"
        "if libs:\n"
        "    get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_\n"
        "    get.argtypes, get.restype = [], ctypes.c_char_p\n"
        "    print(get().decode())\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Nehalem"])
def test_golden_digests_hold_under_other_blas_kernels(core):
    # OPENBLAS_CORETYPE forces OpenBLAS's kernel in the child process only
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    if openblas_core(env) != core:
        pytest.skip(f"numpy's bundled OpenBLAS did not select {core}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_golden.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-2000:]
    assert " passed" in run.stdout and "failed" not in run.stdout
