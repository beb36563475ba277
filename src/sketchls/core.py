"""Problem containers, dense factorization contracts, and accuracy metrics.

Everything here is uncompressed-side machinery: the least-squares instance
itself, full solves used as references, and the metrics every solver is
judged by.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve, cholesky, norm, qr, solve_triangular, svdvals

from .exceptions import (
    DegenerateInstanceError,
    DimensionError,
    RankDeficientError,
)

# Relative singular-value cutoff below which a matrix counts as rank deficient.
RANK_REL_TOL = 1e-12

# bytes of one working block, the one budget of the TSQR of [A b], the four
# passes over A's row blocks (the normal equations', LSQR's, a count sketch's
# and blendenpik's Gram of A R^-1), the ros transform, and a synthetic
# instance's passes over its Gaussian G (the draw with the first Gram, the two
# CholeskyQR passes) and over U (the product A = U diag(sigma) V^T): it fits a
# per-core L2 cache and makes numpy's per-call cost negligible. The TSQR's and
# the count pass's two halves take half a budget each, as both may copy a
# block.
_BLOCK_BYTES = 1 << 20

# fewest rows of a block of the normal equations', LSQR's, the count and the
# Gram pass, and of a synthetic instance's passes: numpy's matmul releases the
# GIL only above a loop size of 500 (NPY_BEGIN_THREADS_THRESHOLDED), so the two
# halves of a pass over smaller blocks would take turns instead of overlapping
_PASS_ROWS = 512

# splits now running (see _one_blas_thread), and the thread count of each
# library of _openblas() before the first of them began
_held_lock = threading.Lock()
_held = 0
_held_counts = ()

# per thread: ``submit`` of the _split_worker context that thread has open
_split = threading.local()


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return A


def _as_vector(v, length=None, name="vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-d, got ndim={v.ndim}")
    if length is not None and v.shape[0] != length:
        raise DimensionError(f"{name} has length {v.shape[0]}, expected {length}")
    return v


def _norm(v) -> float:
    """Euclidean norm by BLAS ``nrm2``, which scales as it sums: it under- or
    overflows only where the norm itself does, unlike ``sqrt(sum(v**2))``."""
    return float(norm(v, check_finite=False))


@cache
def _openblas() -> tuple:
    """``(get, set)`` of the thread count of each OpenBLAS that numpy and
    scipy bundle (in ``numpy.libs`` and ``scipy.libs``) and this process has
    loaded; empty under any other BLAS. Each count is process-wide."""
    found = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:  # not loaded
                continue
            # the C entry points; the ones that end in "_" take a pointer
            for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
                get = getattr(lib, name.format("get_num_threads"), None)
                put = getattr(lib, name.format("set_num_threads"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    """Hold every library of ``_openblas()`` at one thread while the block
    runs. The count is process-wide, so overlapping holds share one: the
    first to begin saves the counts and the last to end restores them."""
    global _held, _held_counts
    with _held_lock:
        if not _held:
            _held_counts = tuple(get() for get, _ in _openblas())
            for _, put in _openblas():
                put(1)
        _held += 1
    try:
        yield
    finally:
        with _held_lock:
            _held -= 1
            if not _held:
                for (_, put), count in zip(_openblas(), _held_counts):
                    put(count)


@contextmanager
def _split_worker():
    """Open, for the calling thread, one worker that every ``_halves`` and
    ``_pipelined`` split it runs until the block ends shares. The worker, a
    one-thread pool, starts with the first split that needs it, and with it
    a ``_one_blas_thread`` hold, so that each half's BLAS calls do not start
    threads of their own on cores the other half is using; both end with the
    block. A nested block reuses the open worker. A split run with no block
    open opens its own, so it starts and joins a worker of its own."""
    if getattr(_split, "submit", None) is not None:
        yield
        return
    with ExitStack() as stack:
        pool = None

        def submit(fn, *args):
            nonlocal pool
            if pool is None:
                stack.enter_context(_one_blas_thread())
                pool = stack.enter_context(ThreadPoolExecutor(1))
            return pool.submit(fn, *args)

        _split.submit = submit
        try:
            yield
        finally:
            _split.submit = None


def _halves(work, items):
    """``(work(items[:k]), work(items[k:]))`` with k = len(items) // 2: the
    first half in the calling thread's ``_split_worker``, the rest in the
    caller. An error on either side is raised once both halves are done.
    With k = 0 the caller runs both and no thread starts.

    The halves overlap only where ``work`` releases the GIL: numpy's
    ``matmul`` above a loop size of 500 (see ``_PASS_ROWS``), its ufuncs and
    random draws, and scipy's LAPACK ``qr``. The f2py wrappers of
    ``scipy.linalg.blas`` (``dsyrk``, ``dtrsm``, ...) hold it, so two halves
    of those take turns on one core."""
    k = len(items) // 2
    if not k:
        return work(items[:0]), work(items)
    with _split_worker():
        first = _split.submit(work, items[:k])
        try:
            last = work(items[k:])
        finally:
            wait((first,))
    return first.result(), last


def _pipelined(produce, use, items) -> None:
    """``use(produce(item))`` for each of ``items`` in order, with the next
    ``produce`` running in the calling thread's ``_split_worker`` while the
    caller runs ``use`` on the current one. The ``produce`` calls run one at
    a time and in order, and so do the ``use`` calls; ``produce(items[k +
    1])`` starts only once ``use`` of item k - 1 has returned, so two
    buffers taken in turn suffice. An error on either side is raised once
    the worker is idle. With fewer than two items the caller runs
    everything and no thread starts."""
    items = list(items)
    if len(items) < 2:
        for item in items:
            use(produce(item))
        return
    with _split_worker():
        pending = _split.submit(produce, items[0])
        try:
            for item in items[1:]:
                made = pending.result()
                pending = _split.submit(produce, item)
                use(made)
            use(pending.result())
        finally:
            wait((pending,))


def _row_step(cols: int) -> int:
    """Rows of a block of a pass over a matrix of ``cols`` columns: about
    ``_BLOCK_BYTES``, at least ``_PASS_ROWS``."""
    return max(_PASS_ROWS, _BLOCK_BYTES // (8 * cols))


def _times(X, R, out=None, gram=False, b=None):
    """``out <- X R`` block by block (``_row_step``), ``out`` X itself or
    another array of X's shape, on both cores: ``_halves`` gives the first
    half of the row blocks to its worker and the rest to the caller. With
    ``gram`` it returns the sum of ``out_k^T out_k`` over the blocks, each
    added while its block is in cache into a partial per half. With ``out``
    None it returns that sum alone: each half writes its blocks into one
    block of scratch of its own, so no array of X's size is made; there a
    vector ``b`` of X's rows goes into a last column of the scratch, so the
    sum is the Gram of ``[X R  b]``, whose last column holds ``(X R)^T b``.
    The split depends on the shapes alone."""
    step, n = _row_step(X.shape[1]), R.shape[1]
    gram = gram or out is None
    w = n + (b is not None)

    def work(starts):
        total = np.zeros((w, w)) if gram else None
        scratch = np.empty((step, w)) if out is None and starts else None
        for lo in starts:
            X_k = X[lo : lo + step]
            if out is None:
                out_k = scratch[: len(X_k)]
                if b is not None:
                    out_k[:, n] = b[lo : lo + step]
            else:
                out_k = out[lo : lo + step]
            np.matmul(X_k, R, out=out_k[:, :n])
            if gram:
                total += out_k.T @ out_k
        return total

    first, last = _halves(work, range(0, len(X), step))
    return first + last if gram else None


def _inverse_chol(gram) -> np.ndarray:
    """``R^-1`` of the Cholesky factor ``R^T R = gram``; LinAlgError where
    ``gram`` is not numerically positive definite."""
    R = cholesky(gram, overwrite_a=True, check_finite=False)
    return solve_triangular(R, np.eye(len(R)), check_finite=False)


def _fold(r, blocks) -> np.ndarray:
    """R of a Householder QR of ``r`` stacked on ``[A_k b_k]`` for each
    ``(A_k, b_k)`` in ``blocks``, folded one block at a time: ``r <-
    qr_r([r; A_k b_k])``. ``r`` is None or has the width of ``[A_k b_k]``.
    Each stack is copied into a prefix of one flat buffer, which is
    Fortran-contiguous, so LAPACK factors it in place."""
    w = blocks[0][0].shape[1] + 1
    store = np.empty((w + max(len(A) for A, _ in blocks)) * w)
    for A, b in blocks:
        k = 0 if r is None else len(r)
        buf = store[: (k + len(A)) * w].reshape(k + len(A), w, order="F")
        if k:
            buf[:k] = r
        buf[k:, :-1] = A
        buf[k:, -1] = b
        # "raw" keeps R to its top rows; "r" would copy a full triu of buf
        _, r = qr(buf, mode="raw", overwrite_a=True, check_finite=False)
    return r


@dataclass(eq=False)
class LSProblem:
    """A dense overdetermined least-squares instance ``min ||Ax - b||``.

    ``A`` is M x N with M >= N >= 1 and full column rank; construction
    rejects matrices whose smallest singular value falls below
    ``RANK_REL_TOL`` times the largest. Construction computes the R factor
    of a QR of ``[A b]`` (a two-thread TSQR, see ``_r_aug``), which the
    exact solve, the condition number and every accuracy metric reuse, so
    ``A`` and ``b`` must not be mutated after construction. The QR holds
    no copy of ``[A b]``: its memory is O(block + (N+1)^2) per thread.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        M, N = self.A.shape
        if not (M >= N >= 1):
            raise DimensionError(f"need M >= N >= 1, got shape {self.A.shape}")
        self.b = _as_vector(self.b, length=M, name="b")
        if not np.all(np.isfinite(self.A)) or not np.all(np.isfinite(self.b)):
            raise ValueError("problem data must be finite")
        self._r_aug  # the rank gate

    @cached_property
    def _r_aug(self) -> np.ndarray:
        """R of a QR of ``[A b]``: (N+1) x (N+1), or N x (N+1) when M == N.
        Its leading N x N block has the singular values of A, and
        ``||A x - b|| = ||R_aug [x; -1]||``.

        A flat-tree TSQR: the rows are split into blocks of half
        ``_BLOCK_BYTES`` and at least 4(N+1) rows; ``_halves`` folds the first
        half of the blocks in its worker and the rest in the caller, and one
        last QR combines the two R's. The split is fixed, so equal inputs
        give a bit-identical R; with one block it is a single Householder QR.
        Its rows may differ in sign from that of one QR of the whole
        ``[A b]``, which none of its consumers sees: the triangular solve,
        the singular values and the norms of ``R_aug v`` ignore row signs.
        """
        M, N = self.A.shape
        step = max(4 * (N + 1), _BLOCK_BYTES // (16 * (N + 1)))
        blocks = [(self.A[lo : lo + step], self.b[lo : lo + step]) for lo in range(0, M, step)]
        if len(blocks) == 1:
            r_aug = _fold(None, blocks)
        else:
            first, last = _halves(partial(_fold, None), blocks)
            r_aug = _fold(first, [(last[:, :N], last[:, N])])
        svals = svdvals(r_aug[:N, :N], check_finite=False)
        if svals[-1] <= RANK_REL_TOL * svals[0]:
            raise RankDeficientError(
                f"A is numerically rank deficient "
                f"(sigma_min/sigma_max = {svals[-1] / svals[0]:.3e})"
            )
        return r_aug

    def _residual_norm(self, x) -> float:
        """``||A x - b||`` from the factor, without a pass over A."""
        return _norm(self._r_aug @ np.append(np.asarray(x, dtype=float), -1.0))

    @property
    def shape(self):
        return self.A.shape

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    def condition_number(self) -> float:
        svals = svdvals(self._r_aug[: self.N, : self.N], check_finite=False)
        return float(svals[0] / svals[-1])


@dataclass
class SolverReport:
    """Accuracy and timing summary for one solver run on one instance."""

    method: str
    residual_norm: float
    relative_accuracy: float
    eps_optimality: float
    timings: dict

    def total_time(self) -> float:
        return float(sum(self.timings.values()))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "residual_norm": self.residual_norm,
            "relative_accuracy": self.relative_accuracy,
            "eps_optimality": self.eps_optimality,
            "timings": dict(self.timings),
            "total_time": self.total_time(),
        }


def solve_ols(problem: LSProblem, method: str = "factorized") -> np.ndarray:
    """Solve the uncompressed problem ``min 0.5 ||Ax - b||^2``.

    ``method="factorized"`` back-substitutes on the instance's QR factor of
    ``[A b]``; ``method="normal-equations"`` forms ``A^T A`` and ``A^T b``
    and solves the SPD system by Cholesky, which is condition-sensitive.
    It reads A once: A is cut into row blocks of about ``_BLOCK_BYTES`` and
    at least ``_PASS_ROWS`` rows, and ``_halves`` runs the first half of
    them in its worker and the rest in the caller. Each half adds
    ``A_k^T A_k`` (one BLAS syrk) and ``b_k^T A_k`` of its blocks into its
    own partials, and the two are added at the end. The split depends only
    on A's shape, so equal inputs give a bit-identical x.
    """
    A, b = problem.A, problem.b
    M, N = A.shape
    if method == "factorized":
        r_aug = problem._r_aug
        return solve_triangular(r_aug[:N, :N], r_aug[:N, N], check_finite=False)
    if method == "normal-equations":
        step = _row_step(N)

        def work(starts):
            gram, rhs = np.zeros((N, N)), np.zeros(N)
            for lo in starts:
                A_k = A[lo : lo + step]
                gram += A_k.T @ A_k
                rhs += b[lo : lo + step] @ A_k
            return gram, rhs

        (gram, rhs), (gram_last, rhs_last) = _halves(work, range(0, M, step))
        try:
            factor = cho_factor(gram + gram_last)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(f"normal equations are singular: {exc}") from exc
        return cho_solve(factor, rhs + rhs_last)
    raise ValueError(f"unknown OLS method {method!r}")


def eps_optimality(xhat, problem: LSProblem, x_ls) -> float:
    """Prediction-error ratio ``||A (xhat - x_ls)|| / ||A x_ls||``, computed
    as ``||R (xhat - x_ls)|| / ||R x_ls||`` with R from the instance's QR."""
    xhat = _as_vector(xhat, length=problem.N, name="xhat")
    x_ls = _as_vector(x_ls, length=problem.N, name="x_ls")
    R = problem._r_aug[: problem.N, : problem.N]
    denom = _norm(R @ x_ls)
    if denom == 0.0:
        raise DegenerateInstanceError("||A x_ls|| is zero; ratio undefined")
    return _norm(R @ (xhat - x_ls)) / denom


def relative_residual_profile(residuals):
    """Empirical CDF of relative-residual factors.

    Returns ``[(k/n, v_k)]`` with values sorted ascending; the step at
    fraction 0.5 is the (lower, for even n) median.
    """
    values = [float(v) for v in residuals]
    if not values:
        raise ValueError("residual list is empty")
    if any(v < 0 for v in values):
        raise ValueError("residual factors must be nonnegative")
    values.sort()
    n = len(values)
    return [((k + 1) / n, v) for k, v in enumerate(values)]


def profile_quantile(profile, fraction: float) -> float:
    """Value of the profile step function at ``fraction`` in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    for frac, value in profile:
        if frac >= fraction - 1e-12:
            return value
    return profile[-1][1]


def make_report(problem: LSProblem, x_ls, xhat, method: str, timings=None) -> SolverReport:
    """Score ``xhat`` against the reference solution ``x_ls``."""
    residual = problem._residual_norm(xhat)
    residual_ls = problem._residual_norm(x_ls)
    if residual_ls > 0:
        rel_acc = residual / residual_ls - 1.0
    else:
        # consistent system: any nonzero residual is infinitely worse
        rel_acc = 0.0 if residual <= 1e-12 * _norm(problem.b) else float("inf")
    return SolverReport(
        method=method,
        residual_norm=residual,
        relative_accuracy=rel_acc,
        eps_optimality=eps_optimality(xhat, problem, x_ls),
        timings=dict(timings or {}),
    )
