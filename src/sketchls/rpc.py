"""Robust least squares on sketched data: partial compression (rpc) and
full compression (robust-cls).

The rpc estimator minimizes the worst case of ``0.5 ||(P + dP) x||^2 - c^T x``
over Frobenius-bounded perturbations ``||dP||_F <= rho`` of the sketched
matrix, which collapses to the convex scalar-structured objective
``0.5 (||P x|| + rho ||x||)^2 - c^T x``.

At the optimum ``x`` is a ridge solution ``(P^T P + rho s I)^{-1} c`` up to
scale, with ``s = ||P x|| / ||x||``. In the right singular basis of P the
two norm identities of the optimum combine into one increasing scalar
equation in s on ``[0, sigma_max]``, solved by Brent's method on that
bracket (``scipy.optimize.brentq``); the dual value ``tau = ||P x|| + rho
||x||`` and x then follow in closed form. Rank-deficient sketched matrices
are supported: the corner where the optimum annihilates ``P x`` is the end
s = 0 of the same equation.

Robust full compression is the same problem on the augmented matrix
``[P q]`` (see :func:`solve_robust_cls`), so one scalar solve serves both.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import brentq

from .core import RANK_REL_TOL, LSProblem, _as_matrix, _as_vector, _norm
from .exceptions import ConvergenceError, DegenerateInstanceError
from .sketch import SketchOperator
from .solvers import SketchedProblem, solve_cls, solve_pcls


# the scalar solve: Brent's relative tolerance on s, its iteration cap, and
# the bound on the gap |||P x|| / (s ||x||) - 1| checked after it
_BRENT_RTOL = 1e-12
_BRENT_MAXITER = 500
_GAP_BOUND = 1e-10


@dataclass(frozen=True)
class RpcParams:
    """The uncertainty radius ``rho`` of the robust partially-compressed solver.

    The solve itself is fixed: Brent's method finds s to a relative
    tolerance of 1e-12 within 500 iterations, and the gap
    ``|||P x|| / (s ||x||) - 1|`` checked after it must be at most 1e-10.
    """

    rho: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ValueError("rho must be finite and nonnegative")


@dataclass
class RpcSolution:
    """Solution and diagnostics of one robust partially-compressed solve.

    ``alpha`` and ``beta`` are the norms of ``P x`` and ``x``; at
    convergence ``tau = alpha + rho * beta`` and ``gamma = beta / alpha = 1 / s``
    (``gamma`` is infinite in the rank-deficient corner s = 0, where ``P x = 0``).
    ``outer_iters`` is 1 for a scalar solve and 0 for the corner and the
    closed-form exits; ``newton_iters_total`` counts the Brent iterations of
    that solve (0 when the root is an end of the bracket). ``foc_residual`` is a
    subgradient residual in V coordinates (x-space at rho = 0); off the corner it is
    that of the scalar equation, and x itself is checked by :func:`stationarity_residual`.
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
        return {**asdict(self), "x": [float(v) for v in self.x]}


def worst_case_objective(P, x, rho: float) -> float:
    """Tight upper bound ``(||P x|| + rho ||x||)^2`` of the perturbed norm."""
    P = _as_matrix(P)
    x = _as_vector(x, length=P.shape[1], name="x")
    return (_norm(P @ x) + rho * _norm(x)) ** 2


def worst_case_perturbation(P, x, rho: float) -> np.ndarray:
    """The rank-one perturbation attaining :func:`worst_case_objective`."""
    P = _as_matrix(P)
    x = _as_vector(x, length=P.shape[1], name="x")
    if rho == 0.0:
        return np.zeros_like(P)
    px = P @ x
    norm_px = _norm(px)
    norm_x = _norm(x)
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
    alpha = _norm(px)
    beta = _norm(x)
    if alpha == 0.0 or beta == 0.0:
        raise DegenerateInstanceError("gradient undefined where x or P x vanishes")
    return (alpha + rho * beta) * (sp.P.T @ px / alpha + rho * x / beta) - sp.c


def stationarity_residual(sp: SketchedProblem, x, rho: float) -> float:
    """Norm of the first-order-condition residual at ``x`` (``||c||`` at x = 0)."""
    x = _as_vector(x, length=sp.N, name="x")
    if _norm(x) == 0.0:
        return _norm(sp.c)
    return _norm(rpc_objective_gradient(sp, x, rho))


def _pow2(v: float) -> float:
    """The power of two in ``(v, 2v]`` (1 for v = 0); dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(v)[1])


def solve_rpc_sketched(
    sp: SketchedProblem, b_norm: float | None = None, params: RpcParams | None = None
) -> RpcSolution:
    """Robust partially-compressed solver operating directly on sketched data.

    Solves one increasing equation in s (see the module docstring) and
    raises :class:`ConvergenceError`, with gamma = 1/s and the normalization
    gap in ``diagnostics``, when that solve fails or its gap exceeds
    1e-10. ``b_norm``, the norm of the uncompressed right-hand
    side, is accepted for compatibility and never read.
    """
    params = params or RpcParams()
    rho = params.rho
    c = sp.c
    c_norm = _norm(c)

    if c_norm == 0.0:
        return RpcSolution(
            x=np.zeros(sp.N), alpha=0.0, beta=0.0, tau=0.0, gamma=0.0,
            outer_iters=0, newton_iters_total=0, foc_residual=0.0, converged=True,
        )
    if rho == 0.0:
        # vanishing uncertainty: plain partial compression
        x = solve_pcls(sp)
        alpha = _norm(sp.P @ x)
        beta = _norm(x)
        foc = _norm(sp.P.T @ (sp.P @ x) - c)
        return RpcSolution(
            x=x, alpha=alpha, beta=beta, tau=alpha,
            gamma=beta / alpha if alpha > 0 else 0.0,
            outer_iters=0, newton_iters_total=0, foc_residual=foc, converged=True,
        )

    # g below is homogeneous in (sigma, s, rho) and in bbar, so it is solved in
    # units of sigma_max and ||c||, rounded up to powers of two: every square
    # then stays in range, and scaling back is exact
    sigma, V = sp.spectral
    ps, pc = _pow2(float(sigma[0])), _pow2(c_norm)
    sigma, r = sigma / ps, rho / ps
    bbar = V.T @ (c / pc)
    keep = sigma > RANK_REL_TOL * sigma[0]

    # At the optimum x = V u / (s + r) up to the units, with u = s bbar / (d + r s)
    # and tau = ||u|| = ||sigma u|| / s. Eliminating tau leaves
    # g(s) = sum bbar^2 (s^2 - d) / (d + r s)^2, increasing from its value at the
    # null corner s = 0 to g(sigma_max) >= 0. A singular value under the rank
    # rule counts as zero, here and in the gap check below: it adds the
    # constant bbar^2 / r^2 to g, and has u = bbar / r.
    d, b2 = sigma[keep] ** 2, bbar[keep] ** 2
    null = float(np.sum(bbar[~keep] ** 2)) / r**2

    def g(s):
        return null + float(np.sum(b2 * (s * s - d) / (d + r * s) ** 2))

    # every term of g(sigma_max) is >= 0, so off the corner Brent's method
    # (Brent 1973) finds the root on [0, sigma_max]; xtol never binds. It is
    # not called when that end is the root (N = 1, or all of bbar on
    # sigma_max), where brentq leaves its iteration count unset
    s, iterations, converged = 0.0, 0, True
    if g(0.0) < 0.0:
        s = float(sigma[0])
        if g(s) > 0.0:
            s, info = brentq(
                g, 0.0, s, xtol=1e-300, rtol=_BRENT_RTOL, maxiter=_BRENT_MAXITER,
                full_output=True, disp=False,
            )
            iterations, converged = info.iterations, info.converged
    u = bbar / r
    u[keep] = s * bbar[keep] / (d + r * s)
    tau = _norm(u)
    # subgradient certificate in V coordinates, before x is assembled (a gradient
    # recomputed from x measures its rounding near the corner). Off the corner the
    # multiplier w on ||P x|| is the unit vector sigma u / (s tau): the gap is
    # ||w|| - 1, and the residual that of the scalar equation. At s = 0 it is
    # bbar_R / (sigma tau), scaled back into the unit ball, which a subgradient needs
    w = np.zeros_like(bbar)
    w[keep] = sigma[keep] * bbar[keep] / ((d + r * s) * tau)
    gamma = 1.0 / (s * ps) if s > 0 else math.inf
    gap = _norm(w) - 1.0 if s > 0 else 0.0
    if not converged or not abs(gap) <= _GAP_BOUND:
        raise ConvergenceError(
            f"dual search did not converge (gap {gap:.3e}, bound {_GAP_BOUND:.3e})",
            last_iterate=(pc / ps * tau, gamma),
            diagnostics={"gamma": gamma, "gap": gap},
        )

    w /= _norm(w) if s > 0 else max(1.0, _norm(w))
    foc = pc * _norm(tau * sigma * w + r * u - bbar)
    x = (pc / ps / ps / (s + r)) * (V @ u)
    return RpcSolution(
        x=x, alpha=_norm(sp.P @ x), beta=_norm(x), tau=pc / ps * tau, gamma=gamma,
        outer_iters=int(s > 0), newton_iters_total=iterations,
        foc_residual=foc, converged=True,
    )


def solve_rpc(
    problem: LSProblem, op: SketchOperator, params: RpcParams | None = None
) -> RpcSolution:
    """Sketch the problem with ``op`` (:meth:`SketchedProblem.from_problem`)
    and run :func:`solve_rpc_sketched`, which never reads q."""
    return solve_rpc_sketched(SketchedProblem.from_problem(problem, op), params=params)


def robust_cls_objective(P, q, x, rho: float) -> float:
    """Worst case of ``0.5 ||(P+dP)x - (q+dq)||^2`` over ``||[dP, dq]||_F <= rho``,
    which is ``0.5 (||P x - q|| + rho sqrt(1 + ||x||^2))^2``."""
    return 0.5 * worst_case_objective(np.column_stack([P, q]), np.append(x, -1.0), rho)


def solve_robust_cls(sp: SketchedProblem, rho: float) -> np.ndarray:
    """Robust full compression: minimize :func:`robust_cls_objective`.

    With ``P~ = [P q]`` and ``x~ = [x; -1]`` the worst case is
    ``||P~ x~|| + rho ||x~||`` (El Ghaoui & Lebret 1997), the rpc gauge.
    The gauge is positively homogeneous, so the rpc minimizer for ``P~``
    and ``c = -e_{N+1}`` is the robust minimizer up to scale; dividing by
    ``-x~_{N+1}`` (negative at that minimizer) returns x. ``P~`` gets a zero
    row, which changes no norm, so it never has fewer rows than columns.
    ``rho = 0`` is plain full compression.
    """
    if rho == 0.0:
        return solve_cls(sp)
    m, N = sp.P.shape
    aug = np.zeros((m + 1, N + 1))
    aug[:m, :N] = sp.P
    aug[:m, N] = sp.q
    # dividing [P q] and rho by one power of two moves no minimizer of the
    # homogeneous gauge and keeps the scale of x~ near 1
    scale = _pow2(float(np.abs(aug).max()))
    aug /= scale
    params = RpcParams(rho=rho / scale)
    c = np.zeros(N + 1)
    c[N] = -1.0
    x = solve_rpc_sketched(SketchedProblem(P=aug, q=np.zeros(m + 1), c=c), params=params).x
    return x[:N] / -x[N]


def rpc_oracle(sp: SketchedProblem, rho: float):
    """Slow reference minimizer ``(x, f)`` of :func:`rpc_objective`, sharing no SVD or
    g(s) with :func:`solve_rpc_sketched`: the ridge solution ``(P^T P + lam I)^{-1} c`` at
    the root of ``lam = rho ||P x|| / ||x||`` (El Ghaoui & Lebret 1997), times its best
    scale ``c^T x / (||P x|| + rho ||x||)^2``. At the null corner (lam = 0) it raises a
    :class:`DegenerateInstanceError`."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if _norm(sp.c) == 0.0:
        return np.zeros(sp.N), 0.0
    if rho == 0.0:
        x = solve_pcls(sp)
        return x, rpc_objective(sp, x, 0.0)

    def ridge(lam):
        # R^T R = P^T P + lam I; forming P^T P would round lam away on ill-conditioned P
        R = np.linalg.qr(np.vstack([sp.P, math.sqrt(lam) * np.eye(sp.N)]), mode="r")
        return cho_solve((R, False), sp.c)

    def h(lam):
        x = ridge(lam)
        return lam - rho * _norm(sp.P @ x) / _norm(x)

    # h < 0 below the root, > 0 above it, but rounding in P x flips its sign at tiny lam, so
    # the lower end halves down from rho ||P||_2 to the first h <= 0 (past 1e-14 of that: corner)
    hi = 2.0 * rho * float(np.linalg.norm(sp.P, 2))
    lo, floor = hi / 2, 1e-14 * hi / 2
    while lo > floor and h(lo) > 0.0:
        lo, hi = lo / 2, lo
    if lo <= floor:  # also P = 0, where lo = floor = 0
        raise DegenerateInstanceError("the optimum is at the null corner (P x = 0)")
    x = ridge(brentq(h, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps))
    x *= float(sp.c @ x) / (_norm(sp.P @ x) + rho * _norm(x)) ** 2
    return x, rpc_objective(sp, x, rho)
