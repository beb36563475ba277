"""Shared construction utilities for the test suite."""

import numpy as np
import pytest

from sketchls import LSProblem, core


def planted_problem(rng, M, N, residual_fraction=0.5, condition=None):
    """Instance with known optimum: b = A x_star + z, z orthogonal to range(A).

    Returns ``(problem, x_star)``; by construction x_star solves the
    least-squares problem exactly.
    """
    if condition is None:
        A = rng.standard_normal((M, N))
    else:
        Q1, _ = np.linalg.qr(rng.standard_normal((M, N)))
        Q2, _ = np.linalg.qr(rng.standard_normal((N, N)))
        sigma = np.geomspace(1.0, 1.0 / condition, N)
        A = (Q1 * sigma) @ Q2.T
    x_star = rng.standard_normal(N)
    b = A @ x_star
    if residual_fraction > 0:
        raw = rng.standard_normal(M)
        coef, *_ = np.linalg.lstsq(A, raw, rcond=None)
        z = raw - A @ coef
        b = b + z * (residual_fraction * np.linalg.norm(b) / np.linalg.norm(z))
    return LSProblem(A=A, b=b), x_star


def random_problem(rng, M, N):
    return LSProblem(A=rng.standard_normal((M, N)), b=rng.standard_normal(M))


def haar(rng, rows, cols):
    """Orthonormal columns from the Haar measure (QR of a Gaussian, signs fixed)."""
    Q, R = np.linalg.qr(rng.standard_normal((rows, cols)))
    return Q * np.sign(np.diag(R))


def blas_counts():
    """Thread count of each bundled OpenBLAS; skips where none is loaded."""
    if not core._openblas():
        pytest.skip("no bundled OpenBLAS loaded")
    return [get() for get, _ in core._openblas()]
