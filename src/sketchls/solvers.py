"""Sketched least-squares estimators.

Covers full compression (both sides sketched), partial compression (only
the quadratic term sketched), their ridge-regularized forms, and a
sketch-preconditioned exact solve of the uncompressed problem (blendenpik:
CholeskyQR through the sketch's factor, with LSQR as its fallback). Both
robust variants live in :mod:`sketchls.rpc`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular, svdvals
from scipy.linalg.lapack import dpocon

from .core import (
    _BLOCK_BYTES,
    _PASS_ROWS,
    RANK_REL_TOL,
    LSProblem,
    _as_matrix,
    _as_vector,
    _halves,
    _norm,
    _split_worker,
    _times,
    solve_ols,
)
from .exceptions import ConvergenceError, DimensionError, SingularMatrixError
from .sketch import SketchOperator

DEFAULT_MU_FACTOR = 5.0  # default_mu's multiple of the smallest eigenvalue of P^T P


@dataclass(eq=False)
class SketchedProblem:
    """Compressed quadratic data ``P = Phi A``, ``q = Phi b`` plus the exact
    linear term ``c = A^T b``."""

    P: np.ndarray
    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.P = _as_matrix(self.P)
        m, N = self.P.shape
        self.q = _as_vector(self.q, length=m, name="q")
        self.c = _as_vector(self.c, length=N, name="c")
        if not all(np.all(np.isfinite(v)) for v in (self.P, self.q, self.c)):
            raise ValueError("sketched data must be finite")

    @classmethod
    def from_problem(cls, problem: LSProblem, op: SketchOperator) -> "SketchedProblem":
        """Sketch ``problem`` with ``op``'s one pass, ``op._pass(A, b)``: a
        count sketch reads A's row blocks once and sums c from ``b_k @ A_k``;
        ``gaussian`` (over Phi's row blocks) and ``ros`` (over A's and b's)
        take ``c = A.T @ b`` after the pass."""
        P, q, c = op._pass(problem.A, problem.b)
        return cls(P=P, q=q, c=c)

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def N(self) -> int:
        return self.P.shape[1]

    @cached_property
    def spectral(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sigma, V)`` with ``P^T P = V diag(sigma^2) V^T``: sigma
        descending, possibly with zeros, and V square N x N."""
        if self.m < self.N:
            raise DimensionError(
                f"spectral data needs at least as many rows as columns, got {self.P.shape}"
            )
        return _sigma_v(self.P)


def _sigma_v(P) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of P, zero-padded to N, and its N x N right singular
    vectors, from the SVD of the R of a QR of P: the same values and
    vectors, without P's m x m left factor."""
    _, s_thin, Vt = np.linalg.svd(np.linalg.qr(P, mode="r"))
    sigma = np.zeros(P.shape[1])
    sigma[: len(s_thin)] = s_thin
    return sigma, Vt.T


def _gated_cholesky(gram) -> np.ndarray:
    """Upper Cholesky factor R, ``R^T R = gram``, with zeros below the
    diagonal. Raises ``LinAlgError`` when the factorization fails or when
    LAPACK ``dpocon``'s reciprocal condition estimate of ``gram`` is below
    machine epsilon: there gram is numerically singular."""
    R = cholesky(gram)
    rcond, _ = dpocon(R, np.linalg.norm(gram, 1))
    if not rcond >= np.finfo(float).eps:
        raise np.linalg.LinAlgError(f"reciprocal condition estimate {rcond:.1e}")
    return R


class GramSolver:
    """Solves ``(P^T P + mu I) x = rhs`` via Cholesky.

    Falls back to an SVD pseudo-solve (with a warning) when the Cholesky
    factorization fails or succeeds on a numerically singular matrix (LAPACK
    ``dpocon``'s reciprocal condition estimate below machine epsilon);
    singular values below ``RANK_REL_TOL`` times the largest raise
    :class:`SingularMatrixError`.
    """

    def __init__(self, P, mu: float = 0.0):
        P = _as_matrix(P)
        self.mu = float(mu)
        if not 0.0 <= self.mu < math.inf:
            raise ValueError("regularization parameter must be finite and nonnegative")
        gram = P.T @ P
        if self.mu > 0:
            gram = gram + self.mu * np.eye(P.shape[1])
        try:
            self._cho = (_gated_cholesky(gram), False)
            self._svd = None
        except np.linalg.LinAlgError as exc:
            self._cho = None
            s, V = _sigma_v(P)
            if self.mu == 0.0 and (s[0] == 0.0 or s[-1] <= RANK_REL_TOL * s[0]):
                raise SingularMatrixError(
                    "sketched Gram matrix is numerically singular "
                    "(increase m or use a regularized solver)"
                ) from exc
            warnings.warn(
                "Cholesky of the sketched Gram matrix failed or is numerically "
                "singular; falling back to an SVD pseudo-solve",
                RuntimeWarning,
                stacklevel=2,
            )
            self._svd = (V, s)

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self._cho is not None:
            return cho_solve(self._cho, rhs)
        V, s = self._svd
        return V @ ((V.T @ rhs) / (s**2 + self.mu))


def solve_cls(sp: SketchedProblem) -> np.ndarray:
    """Fully compressed least squares: ``argmin 0.5 ||P x - q||^2``."""
    return GramSolver(sp.P).solve(sp.P.T @ sp.q)


def solve_pcls(sp: SketchedProblem) -> np.ndarray:
    """Partially compressed least squares: ``argmin 0.5 ||P x||^2 - c^T x``."""
    return GramSolver(sp.P).solve(sp.c)


def solve_ridge_cls(sp: SketchedProblem, mu: float) -> np.ndarray:
    """Ridge-regularized full compression: ``(P^T P + mu I)^{-1} P^T q``."""
    return GramSolver(sp.P, mu).solve(sp.P.T @ sp.q)


def solve_ridge_pcls(sp: SketchedProblem, mu: float) -> np.ndarray:
    """Ridge-regularized partial compression: ``(P^T P + mu I)^{-1} c``."""
    return GramSolver(sp.P, mu).solve(sp.c)


def default_mu(sp: SketchedProblem) -> float:
    """Default ridge weight: ``DEFAULT_MU_FACTOR`` times the smallest eigenvalue of P^T P.

    A numerically singular P (smallest singular value at most
    ``RANK_REL_TOL`` times the largest) raises :class:`SingularMatrixError`:
    there the weight is at rounding level, and the ridge solve would divide
    by it.
    """
    sigma = sp.spectral[0]
    if sigma[-1] <= RANK_REL_TOL * sigma[0]:
        raise SingularMatrixError("sketched matrix is numerically singular; no default ridge weight")
    return DEFAULT_MU_FACTOR * float(sigma[-1]) ** 2


# ---------------------------------------------------------------------------
# sketch-preconditioned exact solves
# ---------------------------------------------------------------------------


def blendenpik_preconditioner(P) -> np.ndarray:
    """Upper-triangular R with ``R^T R = P^T P`` for the sketched matrix P,
    so that ``A R^{-1}`` is well conditioned when P embeds range(A).

    R is the Cholesky factor of ``P^T P`` under ``GramSolver``'s gate
    (``_gated_cholesky``). Where that gate fails, R is from a Householder
    QR of P instead, with P's rank checked on R's singular values: their
    ratio at most ``RANK_REL_TOL`` raises :class:`SingularMatrixError`.
    """
    P = _as_matrix(P)
    if P.shape[0] < P.shape[1]:
        raise DimensionError("preconditioner needs m >= N")
    try:
        return _gated_cholesky(P.T @ P)
    except np.linalg.LinAlgError:
        pass
    R = np.linalg.qr(P, mode="r")
    svals = svdvals(R, check_finite=False)
    if svals[-1] <= RANK_REL_TOL * svals[0]:
        raise SingularMatrixError("sketched matrix produced a singular R factor")
    return R


def _pass_over_a(A, z, alpha, u) -> np.ndarray:
    """``u <- A z - alpha u`` in place, and returns ``A^T u`` of the updated u,
    reading A once. A is cut into row blocks of about ``_BLOCK_BYTES`` and at
    least ``_PASS_ROWS`` rows; on each block both products are formed, the
    second while the block is still in cache. ``_halves`` runs the first half
    of the blocks in its worker and the rest in the caller: each half updates
    its own rows of u and sums its share of ``A^T u`` into its own N-vector,
    and the two are added at the end. The split is fixed, so equal inputs
    give bit-identical results, and u is bit-identical to one thread's loop
    over the same blocks. The blocks go to BLAS through ``np.matmul``, which
    takes a C- or F-ordered or row-strided block without copying it."""
    step = max(_PASS_ROWS, _BLOCK_BYTES // (8 * A.shape[1]))

    def work(starts):
        g = np.zeros(A.shape[1])
        for lo in starts:
            A_k, u_k = A[lo : lo + step], u[lo : lo + step]
            u_k *= -alpha
            u_k += A_k @ z
            g += u_k @ A_k
        return g

    first, last = _halves(work, range(0, A.shape[0], step))
    return first + last


def preconditioned_lsqr(A, b, R=None, tol: float = 1e-6, max_iter: int = 500):
    """LSQR on ``min ||A x - b||`` with an optional right preconditioner R,
    upper triangular.

    Stops on ``||A^T (A x - b)|| <= tol * ||A^T b||``, confirmed on the true
    gradient. LSQR iterates on ``A R^{-1}`` in ``y = R x``, and its
    recurrence gives the preconditioned gradient ``(A R^{-1})^T r_k =
    phibar_{k+1} alpha_{k+1} c_k v_{k+1}`` for free (Paige & Saunders
    1982). As ``A^T r = R^T (A R^{-1})^T r``, the true gradient is ``||A^T
    r_k|| = |phibar_{k+1} alpha_{k+1} c_k| ||R^T v_{k+1}||``, which costs
    O(N^2). While it is above the tolerance no iterate is formed, so an
    iteration costs one pass over A (:func:`_pass_over_a`): ``A z - alpha
    u`` and A^T of the result are formed block by block, half of the blocks
    on a second thread. u is kept unnormalized: the pass scales it with the
    next coefficient instead. The solve holds one ``_split_worker``, so its
    passes share one second thread and one BLAS hold.

    Once the recurrence's gradient passes (always on an exact breakdown,
    where it is 0), x is formed and the true gradient is checked by a pass
    over A; converged is True only if that check passes. If it fails, the
    recurrence has drifted from the true residual (at cond(A) near 1e8 the
    products with ``R^{-1}`` put the attainable gradient near 1e-10
    relative), so LSQR restarts from that x on its residual ``b - A x``,
    reusing the gradient just computed. ``A^T b`` is that check at x = 0.

    Returns ``(x, iterations, converged)``, iterations counted over all
    restarts. Without convergence, x is the iterate with the smallest
    gradient seen: the recurrence's, or the true one where it was checked,
    with x = 0 at ``||A^T b||``. Norms use BLAS ``nrm2``, which does not
    overflow on data scaled by 1e+-150.
    """
    A = _as_matrix(A)
    b = _as_vector(b, length=A.shape[0], name="b")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")

    if R is None:
        solve_R = solve_Rt = times_Rt = lambda z: z
    else:
        solve_R = lambda z: solve_triangular(R, z, check_finite=False)
        solve_Rt = lambda z: solve_triangular(R, z, trans="T", check_finite=False)
        times_Rt = lambda z: R.T @ z

    with _split_worker():
        x = np.zeros(A.shape[1])  # the last iterate whose true gradient was checked
        r = b.copy()
        g = _pass_over_a(A, x, -1.0, r)  # its residual r = b - A x and gradient A^T r
        g_norm = _norm(g)
        if not math.isfinite(g_norm):
            raise ValueError("A^T b is not finite: A and b must be finite")
        target = tol * g_norm
        if g_norm <= target:
            return x, 0, True
        best_grad, best_x, best_y = g_norm, x, None
        restart = True

        for k in range(1, max_iter + 1):
            if restart:  # LSQR from y = 0 on min ||A R^{-1} y - r||
                beta = _norm(r)
                u, scale = r, beta  # u is scale times LSQR's unit vector
                v = solve_Rt(g / beta)
                alpha = _norm(v)
                v /= alpha
                w = v.copy()
                y = np.zeros(A.shape[1])
                phibar, rhobar = beta, alpha
                restart = False

            atu = _pass_over_a(A, solve_R(v), alpha / scale, u)
            beta = _norm(u)
            if beta > 0:
                atu /= beta
                scale = beta
            v = solve_Rt(atu) - beta * v
            alpha = _norm(v)
            if alpha > 0:
                v /= alpha
            rho = math.hypot(rhobar, beta)
            cs, sn = rhobar / rho, beta / rho
            theta = sn * alpha
            rhobar = -cs * alpha
            phi = cs * phibar
            phibar = sn * phibar
            y = y + (phi / rho) * w
            w = v - (theta / rho) * w

            grad = phibar * alpha * abs(cs) * _norm(times_Rt(v))  # ||A^T r_k||
            if grad <= target:
                x = x + solve_R(y)
                r = b.copy()
                g = _pass_over_a(A, -x, -1.0, r)
                grad = _norm(g)
                if grad <= target:
                    return x, k, True
                y, restart = None, True
            if grad < best_grad:
                best_grad, best_x, best_y = grad, x, y
        return (best_x if best_y is None else best_x + solve_R(best_y)), max_iter, False


def solve_blendenpik(
    problem: LSProblem,
    op: SketchOperator,
    lsqr_tol: float = 1e-6,
    max_iter: int = 500,
) -> np.ndarray:
    """Uncompressed solve ``min ||A x - b||`` to ``||A^T (A x - b)|| <=
    lsqr_tol * ||A^T b||``, from ``op``'s one pass (``op._pass``, which also
    gives ``c = A^T b``) and R_s = :func:`blendenpik_preconditioner` of
    ``Phi A``: :func:`_sketched_cholesky_qr`, which falls back to LSQR
    right-preconditioned by R_s. The solve holds one ``_split_worker``."""
    with _split_worker():
        P, _, c = op._pass(problem.A, problem.b)
        R_s = blendenpik_preconditioner(P)
        return _sketched_cholesky_qr(problem.A, problem.b, c, R_s, lsqr_tol, max_iter)


def _sketched_cholesky_qr(A, b, c, R_s, tol, max_iter=500) -> np.ndarray:
    """``min ||A x - b||`` from ``c = A^T b`` and the sketch's factor R_s, to
    ``||A^T (b - A x)|| <= tol * ||c||``, in two passes over A when it
    succeeds.

    R_s makes ``Q = A R_s^-1`` well conditioned, so CholeskyQR on Q is
    stable (Fan, Guo & Lin 2021; Balabanov 2022): one pass (``_times``,
    with R_s's explicit inverse) sums the Gram of ``[Q b]`` block by block
    without storing Q, and ``R = R_c R_s``, with R_c the Cholesky factor of
    ``Q^T Q`` under ``_gated_cholesky``, is an R factor of A. Then ``x =
    R^-1 R_c^-T Q^T b``: unlike the seminormal ``R^-1 R^-T c``, whose
    gradient grows with cond(A)^2, it keeps the gradient near the TSQR's.
    A pass over A (:func:`_pass_over_a`) checks the gradient ``g = A^T (b -
    A x)``. While the check fails, ``x <- x + R^-1 R^-T g`` refines x with
    the gradient just checked, as long as each step at least halves it.
    Where Q^T Q fails its gate or a step does not halve the gradient, the
    result is :func:`_converged_lsqr` from x = 0 with R_s, bit for bit, and
    so is its :class:`ConvergenceError`. The solve holds one
    ``_split_worker``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    N = A.shape[1]
    with _split_worker():
        gram = _times(A, solve_triangular(R_s, np.eye(N), check_finite=False), b=b)
        try:
            R_c = _gated_cholesky(gram[:N, :N])
        except np.linalg.LinAlgError:
            return _converged_lsqr(A, b, R_s, tol, max_iter)
        R = R_c @ R_s
        h = solve_triangular(R_c, gram[:N, N], trans="T", check_finite=False)
        x = solve_triangular(R, h, check_finite=False)
        target, last = tol * _norm(c), math.inf
        while True:
            r = b.copy()
            g = _pass_over_a(A, -x, -1.0, r)  # A^T (b - A x)
            grad = _norm(g)
            if grad <= target:
                return x
            if not grad <= 0.5 * last:
                return _converged_lsqr(A, b, R_s, tol, max_iter)
            x, last = x + cho_solve((R, False), g, check_finite=False), grad


def _converged_lsqr(A, b, R, tol, max_iter=500):
    """:func:`preconditioned_lsqr` that raises :class:`ConvergenceError`,
    carrying the best iterate, instead of returning an unconverged x."""
    x, iters, converged = preconditioned_lsqr(A, b, R, tol, max_iter)
    if not converged:
        raise ConvergenceError(
            f"LSQR did not reach tolerance {tol:g} in {max_iter} iterations",
            last_iterate=x,
            diagnostics={"iterations": iters},
        )
    return x


def cls_error_decomposition(problem: LSProblem, op: SketchOperator):
    """Both sides of the additive error identity for the fully compressed solve.

    Returns ``(x_cls, x_ls + (P^T P)^{-1} A^T Phi^T Phi z)`` where z is the
    uncompressed residual; the two agree up to floating-point error.
    A^T Phi^T = (Phi A)^T = P^T, so A^T Phi^T Phi z is formed as P^T (Phi z).
    """
    sp = SketchedProblem.from_problem(problem, op)
    x_ls = solve_ols(problem)
    z = problem.b - problem.A @ x_ls
    lhs = solve_cls(sp)
    correction = GramSolver(sp.P).solve(sp.P.T @ op.apply(z))
    return lhs, x_ls + correction
