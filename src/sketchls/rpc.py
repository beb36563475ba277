"""Robust partially-compressed least squares.

The estimator minimizes the worst case of ``0.5 ||(P + dP) x||^2 - c^T x``
over Frobenius-bounded perturbations ``||dP||_F <= rho`` of the sketched
matrix, which collapses to the convex scalar-structured objective
``0.5 (||P x|| + rho ||x||)^2 - c^T x``.

At the optimum ``x`` is a ridge solution ``(gamma P^T P + rho I)^{-1} c`` up
to scale, with ``gamma = ||x|| / ||P x||``. In the right singular basis of
P the two norm identities of the optimum combine into one monotone scalar
equation in gamma, solved by the shared safeguarded Newton root finder;
the dual value ``tau = ||P x|| + rho ||x||`` and x then follow in closed
form. Rank-deficient sketched matrices are supported, including the corner
where the optimum annihilates ``P x``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import RANK_REL_TOL, LSProblem, SpectralData, _as_matrix, _as_vector
from .exceptions import (
    ConvergenceError,
    DegenerateInstanceError,
    SecularNoRootError,
)
from .sketch import SketchOperator
from .solvers import SketchedProblem, _increasing_root, solve_pcls, solve_ridge_pcls


@dataclass(frozen=True)
class RpcParams:
    """Tolerances and iteration caps for the robust partially-compressed solver.

    ``eps`` bounds the gap ``|gamma ||P x|| / ||x|| - 1|`` checked after the
    scalar solve that ``newton_tol`` and ``max_newton`` drive; ``max_outer``
    is validated but no longer read, as the solver has no outer iteration.
    """

    rho: float = 1.0
    eps: float = 1e-10
    newton_tol: float = 1e-12
    max_outer: int = 100
    max_newton: int = 100

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if not (0.0 < self.eps < 1.0) or not (0.0 < self.newton_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_outer < 1 or self.max_newton < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class RpcSolution:
    """Solution and diagnostics of one robust partially-compressed solve.

    ``alpha`` and ``beta`` are the norms of ``P x`` and ``x``; at
    convergence ``tau = alpha + rho * beta`` and ``gamma = beta / alpha``
    (``gamma`` is infinite in the rank-deficient corner where ``P x = 0``).
    ``outer_iters`` is 1 for a scalar solve and 0 for the closed-form exits;
    ``newton_iters_total`` counts the Newton steps of that solve.
    """

    x: np.ndarray
    alpha: float
    beta: float
    tau: float
    gamma: float
    outer_iters: int
    newton_iters_total: int
    foc_residual: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "alpha": self.alpha,
            "beta": self.beta,
            "tau": self.tau,
            "gamma": self.gamma,
            "outer_iters": self.outer_iters,
            "newton_iters_total": self.newton_iters_total,
            "foc_residual": self.foc_residual,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def worst_case_objective(P, x, rho: float) -> float:
    """Tight upper bound ``(||P x|| + rho ||x||)^2`` of the perturbed norm."""
    P = _as_matrix(P)
    x = _as_vector(x, length=P.shape[1], name="x")
    return (float(np.linalg.norm(P @ x)) + rho * float(np.linalg.norm(x))) ** 2


def worst_case_perturbation(P, x, rho: float) -> np.ndarray:
    """The rank-one perturbation attaining :func:`worst_case_objective`."""
    P = _as_matrix(P)
    x = _as_vector(x, length=P.shape[1], name="x")
    if rho == 0.0:
        return np.zeros_like(P)
    px = P @ x
    norm_px = float(np.linalg.norm(px))
    norm_x = float(np.linalg.norm(x))
    if norm_x == 0.0 or norm_px == 0.0:
        raise DegenerateInstanceError(
            "worst-case perturbation is undefined when x or P x vanishes"
        )
    return (rho / (norm_px * norm_x)) * np.outer(px, x)


def rpc_objective(sp: SketchedProblem, x, rho: float) -> float:
    """Robust objective ``0.5 (||P x|| + rho ||x||)^2 - c^T x``."""
    x = _as_vector(x, length=sp.N, name="x")
    return 0.5 * worst_case_objective(sp.P, x, rho) - float(sp.c @ x)


def rpc_objective_gradient(sp: SketchedProblem, x, rho: float) -> np.ndarray:
    """Gradient of :func:`rpc_objective`; defined away from x = 0 and P x = 0."""
    x = _as_vector(x, length=sp.N, name="x")
    px = sp.P @ x
    alpha = float(np.linalg.norm(px))
    beta = float(np.linalg.norm(x))
    if alpha == 0.0 or beta == 0.0:
        raise DegenerateInstanceError("gradient undefined where x or P x vanishes")
    return (alpha + rho * beta) * (sp.P.T @ px / alpha + rho * x / beta) - sp.c


def dual_inner_objective(sp: SketchedProblem, x, rho: float, tau: float) -> float:
    """Inner dual objective ``tau (||P x|| + rho ||x||) - c^T x`` (positively
    homogeneous in x) of the per-tau dual formulation, which is no longer
    on the path of :func:`solve_rpc_sketched`."""
    x = _as_vector(x, length=sp.N, name="x")
    gauge = float(np.linalg.norm(sp.P @ x)) + rho * float(np.linalg.norm(x))
    return tau * gauge - float(sp.c @ x)


def stationarity_residual(sp: SketchedProblem, x, rho: float) -> float:
    """Norm of the first-order-condition residual at ``x`` (``||c||`` at x = 0)."""
    x = _as_vector(x, length=sp.N, name="x")
    if float(np.linalg.norm(x)) == 0.0:
        return float(np.linalg.norm(sp.c))
    return float(np.linalg.norm(rpc_objective_gradient(sp, x, rho)))


def secular_phi(spectral: SpectralData, rhs_coeffs, rho: float, tau: float, gamma: float):
    """Secular function and derivative for the inner normalization equation.

    ``rhs_coeffs`` are the coordinates of ``A^T b`` in the right singular
    basis of P. The function is strictly decreasing in gamma whenever some
    coefficient sits on a positive singular value. It is the per-tau
    equation of the dual formulation (see :func:`newton_gamma`), not on the
    path of :func:`solve_rpc_sketched`.
    """
    if tau <= 0 or rho <= 0 or gamma < 0:
        raise ValueError("need tau > 0, rho > 0 and gamma >= 0")
    bb = np.asarray(rhs_coeffs, dtype=float)
    return _secular(spectral.sigma**2, bb**2, rho, tau, gamma)


def _secular(d, bb2, rho, tau, gamma):
    """Value and slope of ``sum bb2 / (gamma d + rho)^2 / tau^2 - 1``."""
    den = gamma * d + rho
    value = float(np.sum(bb2 / den**2)) / tau**2 - 1.0
    derivative = -2.0 * float(np.sum(d * bb2 / den**3)) / tau**2
    return value, derivative


def newton_gamma(
    spectral: SpectralData,
    rhs_coeffs,
    rho: float,
    tau: float,
    newton_tol: float = 1e-12,
    max_newton: int = 100,
) -> float:
    """Safeguarded-Newton root of the secular function for fixed tau.

    This is the per-tau equation of the dual formulation of the estimator;
    :func:`solve_rpc_sketched` eliminates tau and no longer goes through it.
    Raises :class:`SecularNoRootError` with direction "decrease" when
    phi(0) < 0 and "increase" when phi stays positive for every finite gamma
    (mass trapped on zero singular values).
    """
    sigma = spectral.sigma
    zero_mask = sigma <= RANK_REL_TOL * (sigma[0] if len(sigma) else 0.0)
    bb2 = np.asarray(rhs_coeffs, dtype=float) ** 2
    d = sigma**2
    phi0 = float(np.sum(bb2)) / (rho * tau) ** 2 - 1.0
    if phi0 < 0:
        raise SecularNoRootError("no nonnegative secular root", direction="decrease")
    if phi0 <= newton_tol:
        return 0.0
    tail = float(np.sum(bb2[zero_mask])) / (rho * tau) ** 2 - 1.0
    if tail >= 0:
        raise SecularNoRootError("secular function positive for all gamma", direction="increase")

    def neg_phi(gamma):
        value, derivative = _secular(d, bb2, rho, tau, gamma)
        return -value, -derivative, 1.0

    try:
        gamma, _ = _increasing_root(neg_phi, 1.0, newton_tol, max_newton)
    except ConvergenceError as exc:
        if not exc.diagnostics["bracketed"]:
            raise SecularNoRootError(
                "secular root beyond bracketing range", direction="increase"
            ) from exc
        raise ConvergenceError(
            f"secular {exc}",
            diagnostics={"tau": tau, "gamma": exc.last_iterate, "phi": -exc.diagnostics["value"]},
        ) from exc
    return gamma


def _null_cone_coords(sigma, rhs_coeffs, rho, zero_mask):
    """Closed-form optimum (in V coordinates) when the minimizer
    annihilates P, or None when that corner is not optimal.

    With coefficients split across positive singular values (R) and zero
    ones (Z), the point supported on Z alone is optimal iff
    ``sum_R (bb_i / sigma_i)^2 <= ||bb_Z||^2 / rho^2``.
    """
    bz_sq = float(np.sum(rhs_coeffs[zero_mask] ** 2))
    if bz_sq == 0.0:
        return None
    head = rhs_coeffs[~zero_mask] / sigma[~zero_mask]
    if float(np.sum(head**2)) > bz_sq / rho**2:
        return None
    return np.where(zero_mask, rhs_coeffs, 0.0) / rho**2


def solve_rpc_sketched(
    sp: SketchedProblem, b_norm: float, params: RpcParams | None = None
) -> RpcSolution:
    """Robust partially-compressed solver operating directly on sketched data.

    Solves one monotone equation in gamma (see the module docstring) and
    raises :class:`ConvergenceError`, with gamma and the normalization gap
    in ``diagnostics``, when that solve fails or its gap exceeds
    ``params.eps``. ``b_norm``, the norm of the uncompressed right-hand
    side, is accepted for compatibility and no longer read.
    """
    params = params or RpcParams()
    rho = params.rho
    c = sp.c
    N = sp.N
    c_norm = float(np.linalg.norm(c))

    if c_norm == 0.0:
        return RpcSolution(
            x=np.zeros(N), alpha=0.0, beta=0.0, tau=0.0, gamma=0.0,
            outer_iters=0, newton_iters_total=0, foc_residual=0.0, converged=True,
        )
    if rho == 0.0:
        # vanishing uncertainty: plain partial compression
        x = solve_pcls(sp)
        alpha = float(np.linalg.norm(sp.P @ x))
        beta = float(np.linalg.norm(x))
        foc = float(np.linalg.norm(sp.P.T @ (sp.P @ x) - c))
        return RpcSolution(
            x=x, alpha=alpha, beta=beta, tau=alpha,
            gamma=beta / alpha if alpha > 0 else 0.0,
            outer_iters=0, newton_iters_total=0, foc_residual=foc, converged=True,
        )

    spectral = sp.spectral
    sigma, V = spectral.sigma, spectral.V
    zero_mask = sigma <= RANK_REL_TOL * (sigma[0] if len(sigma) else 0.0)
    bbar = V.T @ c

    u_null = _null_cone_coords(sigma, bbar, rho, zero_mask)
    if u_null is not None:
        x_null = V @ u_null
        beta = float(np.linalg.norm(u_null))
        tau = rho * beta
        # subgradient certificate, all in V coordinates: the multiplier on
        # the ||P x|| term picks up bbar across the positive singular values
        w = np.zeros_like(bbar)
        w[~zero_mask] = bbar[~zero_mask] / (tau * sigma[~zero_mask])
        foc = float(np.linalg.norm(tau * (sigma * w + rho * u_null / beta) - bbar))
        return RpcSolution(
            x=x_null, alpha=float(np.linalg.norm(sp.P @ x_null)), beta=beta,
            tau=tau, gamma=math.inf,
            outer_iters=0, newton_iters_total=0, foc_residual=foc, converged=True,
        )

    # At the optimum tau = ||u|| = gamma ||sigma u|| with u = bbar / (gamma d + rho).
    # Eliminating tau leaves h(gamma) = sum bbar^2 (1 - gamma^2 d) / (gamma d + rho)^2,
    # which falls from ||bbar||^2 / rho^2 to a negative limit off the null
    # corner; d is zero under the rank rule so that the limits agree exactly.
    d = np.where(zero_mask, 0.0, sigma**2)
    bb2 = bbar**2

    def neg_h(gamma):
        den = gamma * d + rho
        head, tail = bb2 / den**2, bb2 * d * (gamma / den) ** 2
        slope = 2.0 * float(np.sum(bb2 * d * (gamma * rho + 1.0) / den**3))
        return float(np.sum(tail - head)), slope, float(np.sum(head + tail))

    try:
        gamma, newton_total = _increasing_root(
            neg_h, 1.0 / float(sigma[0]), params.newton_tol, params.max_newton
        )
        failure = None
    except ConvergenceError as exc:
        gamma, failure = exc.last_iterate, exc
    u = bbar / (gamma * d + rho)
    tau = float(np.linalg.norm(u))
    gap = gamma * float(np.linalg.norm(sigma * u)) / tau - 1.0
    if failure is not None or not abs(gap) <= params.eps:
        raise ConvergenceError(
            f"dual search did not converge (gap {gap:.3e}, eps {params.eps:.3e})",
            last_iterate=(tau, gamma),
            diagnostics={"gamma": gamma, "gap": gap},
        ) from failure

    alpha = tau / (1.0 + rho * gamma)
    beta = gamma * alpha
    x = (beta / tau) * (V @ u)
    foc = stationarity_residual(sp, x, rho)
    return RpcSolution(
        x=x, alpha=float(np.linalg.norm(sp.P @ x)), beta=float(np.linalg.norm(x)),
        tau=tau, gamma=gamma, outer_iters=1, newton_iters_total=newton_total,
        foc_residual=foc, converged=True,
    )


def solve_rpc(
    problem: LSProblem, op: SketchOperator, params: RpcParams | None = None
) -> RpcSolution:
    """Sketch the problem with ``op`` and run :func:`solve_rpc_sketched`."""
    sp = SketchedProblem.from_problem(problem, op)
    return solve_rpc_sketched(sp, float(np.linalg.norm(problem.b)), params)


def _golden_scale_polish(sp, x, rho, tol=1e-13):
    """Golden-section search for the best scaling of x (objective is convex
    in the scale)."""
    gauge = float(np.linalg.norm(sp.P @ x)) + rho * float(np.linalg.norm(x))
    if gauge == 0.0:
        return x
    lin = float(sp.c @ x)

    def val(t):
        return 0.5 * (t * gauge) ** 2 - t * lin

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 2.0
    c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = val(c1), val(c2)
    while b - a > tol:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = val(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = val(c2)
    return 0.5 * (a + b) * x


def rpc_oracle(sp: SketchedProblem, rho: float, tol: float = 1e-10, max_iter: int = 50000):
    """Slow reference minimizer of :func:`rpc_objective`.

    Damped fixed-point iteration on the data-dependent ridge structure of
    the optimum, initialized from the ridge solution with weight rho,
    polished by a golden-section scale search. Independent of the scalar
    solve in :func:`solve_rpc_sketched`.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    c = sp.c
    c_norm = float(np.linalg.norm(c))
    if c_norm == 0.0:
        return np.zeros(sp.N), 0.0
    if rho == 0.0:
        x = solve_pcls(sp)
        return x, rpc_objective(sp, x, 0.0)

    gram = sp.P.T @ sp.P
    eye = np.eye(sp.N)
    norm_P = float(np.linalg.norm(sp.P, 2))
    x = solve_ridge_pcls(sp, mu=rho)
    f = rpc_objective(sp, x, rho)
    foc = stationarity_residual(sp, x, rho)
    foc_bound = 10.0 * tol * c_norm

    for _ in range(max_iter):
        alpha = float(np.linalg.norm(sp.P @ x))
        beta = float(np.linalg.norm(x))
        if beta == 0.0 or alpha <= 1e-14 * norm_P * beta:
            raise ConvergenceError(
                "fixed-point oracle hit a nonsmooth point (P x = 0)", last_iterate=x
            )
        target = np.linalg.solve(gram / alpha + (rho / beta) * eye, c) / (alpha + rho * beta)
        # backtrack on the objective, with an ulp-level slack so that the
        # flat region near the optimum cannot stall x-space progress
        slack = 1e-13 * (1.0 + abs(f))
        step, accepted = 1.0, False
        while step >= 1e-4:
            x_try = x + step * (target - x)
            f_try = rpc_objective(sp, x_try, rho)
            if f_try <= f + slack:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no usable descent direction; polish and stop
        foc_try = stationarity_residual(sp, x_try, rho)
        if f_try > f - slack and foc_try >= foc:
            break  # neither the objective nor the stationarity gap improves
        f_change = abs(f - f_try)
        x, f, foc = x_try, f_try, foc_try
        if foc <= foc_bound and f_change <= tol * (1.0 + abs(f)):
            break
    else:
        raise ConvergenceError("fixed-point oracle exhausted its iteration budget", last_iterate=x)

    # scale polish; near the optimum the objective is flat below fp
    # resolution in the scale, so keep the polished point only if it
    # actually improves stationarity
    x_polished = _golden_scale_polish(sp, x, rho)
    if stationarity_residual(sp, x_polished, rho) < stationarity_residual(sp, x, rho):
        x = x_polished
    foc = stationarity_residual(sp, x, rho)
    if foc > foc_bound:
        raise ConvergenceError(
            f"oracle stationarity residual {foc:.3e} above bound {foc_bound:.3e}",
            last_iterate=x,
            diagnostics={"foc_residual": foc},
        )
    return x, rpc_objective(sp, x, rho)
