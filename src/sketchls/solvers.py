"""Sketched least-squares estimators.

Covers full compression (both sides sketched), partial compression (only
the quadratic term sketched), their ridge-regularized forms, a robust
variant of the fully compressed problem, and a sketch-preconditioned LSQR
baseline for the uncompressed problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .core import RANK_REL_TOL, LSProblem, SpectralData, _as_matrix, _as_vector, solve_ols
from .exceptions import ConvergenceError, DimensionError, SingularMatrixError
from .sketch import SketchOperator


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

    @classmethod
    def from_problem(cls, problem: LSProblem, op: SketchOperator) -> "SketchedProblem":
        P = op.apply(problem.A)
        q = op.apply(problem.b)
        return cls(P=P, q=q, c=problem.A.T @ problem.b)

    @property
    def m(self) -> int:
        return self.P.shape[0]

    @property
    def N(self) -> int:
        return self.P.shape[1]

    @cached_property
    def spectral(self) -> SpectralData:
        return SpectralData.from_matrix(self.P)


class GramSolver:
    """Solves ``(P^T P + mu I) x = rhs`` via Cholesky.

    Falls back to an SVD pseudo-solve (with a warning) when the Cholesky
    factorization fails; singular values below ``RANK_REL_TOL`` times the
    largest raise :class:`SingularMatrixError`.
    """

    def __init__(self, P, mu: float = 0.0):
        P = _as_matrix(P)
        if mu < 0:
            raise ValueError("regularization parameter must be nonnegative")
        self.mu = float(mu)
        gram = P.T @ P
        if mu > 0:
            gram = gram + mu * np.eye(P.shape[1])
        try:
            self._cho = cho_factor(gram)
            self._svd = None
        except np.linalg.LinAlgError as exc:
            self._cho = None
            _, s_thin, Vt = np.linalg.svd(P, full_matrices=True)
            s = np.zeros(P.shape[1])
            s[: len(s_thin)] = s_thin
            if self.mu == 0.0 and (s[0] == 0.0 or s[-1] <= RANK_REL_TOL * s[0]):
                raise SingularMatrixError(
                    "sketched Gram matrix is numerically singular "
                    "(increase m or use a regularized solver)"
                ) from exc
            warnings.warn(
                "Cholesky of the sketched Gram matrix failed; "
                "falling back to an SVD pseudo-solve",
                RuntimeWarning,
                stacklevel=2,
            )
            self._svd = (Vt.T, s)

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


def default_mu(sp: SketchedProblem, factor: float = 5.0) -> float:
    """Default ridge weight: ``factor`` times the smallest eigenvalue of P^T P."""
    return float(factor) * float(sp.spectral.sigma[-1]) ** 2


# ---------------------------------------------------------------------------
# robust fully-compressed least squares
# ---------------------------------------------------------------------------


def robust_cls_objective(P, q, x, rho: float) -> float:
    """Worst case of ``0.5 ||(P+dP)x - (q+dq)||^2`` over ``||[dP, dq]||_F <= rho``."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(P @ x - q))
    return 0.5 * (r + rho * math.sqrt(1.0 + float(x @ x))) ** 2


def solve_robust_cls(
    sp: SketchedProblem,
    rho: float,
    secular_tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Minimize the worst-case compressed residual over a joint Frobenius ball.

    The minimizer is a ridge solution ``x(mu) = (P^T P + mu I)^{-1} P^T q``
    whose data-dependent weight solves the scalar secular equation
    ``mu sqrt(1 + ||x(mu)||^2) = rho ||P x(mu) - q||``, found here by a
    safeguarded Newton iteration.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0:
        return solve_cls(sp)
    spectral = sp.spectral
    sigma, V = spectral.sigma, spectral.V
    w = spectral.U.T @ sp.q
    resid_perp_sq = max(float(sp.q @ sp.q) - float(w @ w), 0.0)
    d = sigma**2
    w2 = w**2

    def x_of(mu):
        return V @ ((sigma * w) / (d + mu))

    def curves(mu):
        den = d + mu
        r_sq = float(np.sum(w2 * (mu / den) ** 2)) + resid_perp_sq
        x_sq = float(np.sum(w2 * (sigma / den) ** 2))
        dr_sq = 2.0 * float(np.sum(w2 * mu * d / den**3))
        dx_sq = -2.0 * float(np.sum(w2 * d / den**3))
        return math.sqrt(r_sq), math.sqrt(1.0 + x_sq), dr_sq, dx_sq

    # at mu = 0 only the mass of w on zero singular values (rank rule of
    # RANK_REL_TOL) is left in the residual, and x has no part there
    zero = sigma <= RANK_REL_TOL * (sigma[0] if len(sigma) else 0.0)
    r0 = math.sqrt(float(np.sum(w2[zero])) + resid_perp_sq)
    if r0 <= 1e-15 * float(np.linalg.norm(sp.q)):
        # q lies in the range of P; the unregularized solution is stationary
        return V @ np.divide(w, sigma, out=np.zeros_like(w), where=~zero)

    def g_val(mu):
        r, s, dr_sq, dx_sq = curves(mu)
        dg = s + mu * dx_sq / (2.0 * s) - rho * dr_sq / (2.0 * r)
        return mu * s - rho * r, dg, mu * s + rho * r

    try:
        mu, _ = _increasing_root(
            g_val, rho * max(1.0, float(np.linalg.norm(sp.q))), secular_tol, max_iter
        )
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"secular iteration: {exc}",
            last_iterate=x_of(exc.last_iterate),
            diagnostics={"mu": exc.last_iterate, "gap": exc.diagnostics.get("value")},
        ) from exc
    return x_of(mu)


def _increasing_root(f, hi, tol, max_iter):
    """Root of an increasing scalar function on [0, inf) with ``f(0) < 0``.

    ``f(t)`` returns ``(value, slope, scale)``. ``hi`` doubles until
    ``f(hi) > 0``; then Newton steps, replaced by bisection whenever one
    leaves the bracket, run until ``|value| <= tol * scale``. Returns
    ``(root, newton_iterations)``. Raises :class:`ConvergenceError` with the
    last point as ``last_iterate`` when either stage exhausts its budget;
    ``diagnostics["bracketed"]`` says which.
    """
    lo = 0.0
    for _ in range(400):
        if f(hi)[0] > 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ConvergenceError(
            "root beyond bracketing range", last_iterate=hi, diagnostics={"bracketed": False}
        )
    t = 0.5 * (lo + hi)
    for k in range(1, max_iter + 1):
        value, slope, scale = f(t)
        if abs(value) <= tol * scale:
            return t, k
        if value > 0:
            hi = t
        else:
            lo = t
        step = t - value / slope if slope > 0 else 0.5 * (lo + hi)
        t = step if lo < step < hi else 0.5 * (lo + hi)
    raise ConvergenceError(
        f"Newton did not reach tolerance in {max_iter} steps",
        last_iterate=t,
        diagnostics={"bracketed": True, "value": value},
    )


# ---------------------------------------------------------------------------
# sketch-preconditioned LSQR
# ---------------------------------------------------------------------------


def blendenpik_preconditioner(P) -> np.ndarray:
    """Upper-triangular R from a QR factorization of the sketched matrix."""
    P = _as_matrix(P)
    if P.shape[0] < P.shape[1]:
        raise DimensionError("preconditioner needs m >= N")
    R = np.linalg.qr(P, mode="r")
    diag = np.abs(np.diag(R))
    if diag.min() <= RANK_REL_TOL * diag.max():
        raise SingularMatrixError("sketched matrix produced a singular R factor")
    return R


def preconditioned_lsqr(A, b, R=None, tol: float = 1e-6, max_iter: int = 500):
    """LSQR on ``min ||A x - b||`` with an optional right preconditioner R.

    Stops once ``||A^T (A x - b)|| <= tol * ||A^T b||`` (checked against the
    true gradient every iteration). Returns ``(x, iterations, converged)``;
    the best iterate seen is returned even without convergence.
    """
    A = _as_matrix(A)
    b = _as_vector(b, length=A.shape[0], name="b")

    if R is None:
        mat = lambda v: A @ v
        rmat = lambda u: A.T @ u
        unpack = lambda y: y
    else:
        mat = lambda v: A @ solve_triangular(R, v)
        rmat = lambda u: solve_triangular(R, A.T @ u, trans="T")
        unpack = lambda y: solve_triangular(R, y)

    grad_ref = float(np.linalg.norm(A.T @ b))
    if grad_ref == 0.0:
        return np.zeros(A.shape[1]), 0, True

    def grad_norm(y):
        x = unpack(y)
        return float(np.linalg.norm(A.T @ (A @ x - b))), x

    u = b.copy()
    beta = float(np.linalg.norm(u))
    u /= beta
    v = rmat(u)
    alpha = float(np.linalg.norm(v))
    v /= alpha
    w = v.copy()
    y = np.zeros(A.shape[1])
    phibar, rhobar = beta, alpha

    best_norm, best_x = grad_norm(y)
    if best_norm <= tol * grad_ref:
        return best_x, 0, True

    for k in range(1, max_iter + 1):
        u = mat(v) - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0:
            u /= beta
        v = rmat(u) - beta * v
        alpha = float(np.linalg.norm(v))
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

        norm_k, x_k = grad_norm(y)
        if norm_k < best_norm:
            best_norm, best_x = norm_k, x_k
        if norm_k <= tol * grad_ref:
            return x_k, k, True
        if beta == 0.0 or alpha == 0.0:
            break  # exact breakdown; the gradient test above has the last word
    return best_x, max_iter, False


def solve_blendenpik(
    problem: LSProblem,
    op: SketchOperator,
    lsqr_tol: float = 1e-6,
    max_iter: int = 500,
) -> np.ndarray:
    """Uncompressed solve via LSQR, right-preconditioned by R from QR(Phi A)."""
    R = blendenpik_preconditioner(op.apply(problem.A))
    return _converged_lsqr(problem.A, problem.b, R, lsqr_tol, max_iter)


def _converged_lsqr(A, b, R, tol, max_iter=500):
    """:func:`preconditioned_lsqr` that raises :class:`ConvergenceError`,
    carrying the best iterate, instead of returning an unconverged x."""
    x, iters, converged = preconditioned_lsqr(A, b, R=R, tol=tol, max_iter=max_iter)
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
    """
    sp = SketchedProblem.from_problem(problem, op)
    x_ls = solve_ols(problem)
    z = problem.b - problem.A @ x_ls
    lhs = solve_cls(sp)
    correction = GramSolver(sp.P).solve(problem.A.T @ op.apply_transpose(op.apply(z)))
    return lhs, x_ls + correction
