import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import planted_problem, random_problem
from sketchls import (
    ConvergenceError,
    SingularMatrixError,
    SketchSpec,
    SketchedProblem,
    blendenpik_preconditioner,
    cls_error_decomposition,
    default_mu,
    eps_optimality,
    identity_sketch,
    make_sketch,
    preconditioned_lsqr,
    robust_cls_objective,
    solve_blendenpik,
    solve_cls,
    solve_ols,
    solve_pcls,
    solve_ridge_cls,
    solve_ridge_pcls,
    solve_robust_cls,
)
from sketchls.solvers import GramSolver


def sketched(problem, kind="gaussian", m=None, seed=0):
    m = m or 4 * problem.N
    op = make_sketch(SketchSpec(kind=kind, m=m, M=problem.M, seed=seed))
    return SketchedProblem.from_problem(problem, op), op


class TestClsPcls:
    def test_identity_sketch_reduces_to_ols(self):
        problem, _ = planted_problem(np.random.default_rng(0), 40, 5)
        sp = SketchedProblem.from_problem(problem, identity_sketch(problem.M))
        x_ls = solve_ols(problem)
        assert np.linalg.norm(solve_cls(sp) - x_ls) <= 1e-10 * np.linalg.norm(x_ls)
        assert np.linalg.norm(solve_pcls(sp) - x_ls) <= 1e-10 * np.linalg.norm(x_ls)

    def test_identity_quadratic_data(self):
        sp = SketchedProblem(P=np.eye(2), q=np.array([1.0, 2.0]), c=np.zeros(2))
        assert_allclose(solve_cls(sp), [1.0, 2.0], atol=1e-12)

    def test_pcls_zero_linear_term(self):
        problem = random_problem(np.random.default_rng(1), 30, 3)
        sp, _ = sketched(problem)
        sp = SketchedProblem(P=sp.P, q=sp.q, c=np.zeros(3))
        assert_allclose(solve_pcls(sp), np.zeros(3), atol=1e-12)

    def test_cls_gradient_contract(self):
        problem = random_problem(np.random.default_rng(2), 200, 5)
        sp, _ = sketched(problem, m=50, seed=3)
        x = solve_cls(sp)
        grad = sp.P.T @ (sp.P @ x - sp.q)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(sp.P.T @ sp.q)

    def test_cls_additive_error_identity(self):
        # x_cls = x_ls + (P^T P)^{-1} A^T Phi^T Phi z, z the uncompressed residual
        rng = np.random.default_rng(3)
        problem = random_problem(rng, 200, 5)
        sp, op = sketched(problem, m=50, seed=4)
        x_ls = solve_ols(problem)
        z = problem.b - problem.A @ x_ls
        correction = GramSolver(sp.P).solve(problem.A.T @ op.apply_transpose(op.apply(z)))
        assert_allclose(solve_cls(sp), x_ls + correction, rtol=1e-8)

    def test_pcls_multiplicative_error_identity(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 150, 4)
        sp, _ = sketched(problem, m=40, seed=5)
        x_ls = solve_ols(problem)
        expected = GramSolver(sp.P).solve(problem.A.T @ problem.A @ x_ls)
        assert_allclose(solve_pcls(sp), expected, rtol=1e-8)

    def test_consistent_system_recovered_by_cls(self):
        rng = np.random.default_rng(5)
        problem, x_star = planted_problem(rng, 100, 6, residual_fraction=0.0)
        for kind in ("gaussian", "ros", "count"):
            sp, _ = sketched(problem, kind=kind, m=30, seed=6)
            assert np.linalg.norm(solve_cls(sp) - x_star) <= 1e-8 * np.linalg.norm(x_star)

    def test_singular_gram_raises(self):
        sp = SketchedProblem(P=np.zeros((4, 3)), q=np.ones(4), c=np.ones(3))
        with pytest.raises(SingularMatrixError):
            solve_cls(sp)

    def test_svd_fallback_warns_on_borderline_gram(self):
        # nearly parallel columns defeat Cholesky while staying above the
        # rank cutoff, so the pseudo-solve path engages with a warning
        rng = np.random.default_rng(0)
        u = rng.standard_normal(30)
        P = np.column_stack([u, u + 1e-8 * rng.standard_normal(30), rng.standard_normal(30)])
        sigma = np.linalg.svd(P, compute_uv=False)
        assert sigma[-1] / sigma[0] > 1e-12
        sp = SketchedProblem(P=P, q=np.ones(30), c=np.ones(3))
        with pytest.warns(RuntimeWarning):
            x = solve_pcls(sp)
        assert np.all(np.isfinite(x))


class TestRidge:
    def test_shrinkage_in_mu(self):
        problem = random_problem(np.random.default_rng(7), 60, 4)
        sp, _ = sketched(problem, m=20, seed=8)
        norms = [np.linalg.norm(solve_ridge_cls(sp, mu)) for mu in (1e2, 1e4, 1e6)]
        assert norms[0] > norms[1] > norms[2]

    def test_small_mu_matches_unregularized(self):
        problem = random_problem(np.random.default_rng(8), 60, 4)
        sp, _ = sketched(problem, m=24, seed=9)
        mu = 1e-12 * sp.spectral.sigma[0] ** 2
        assert_allclose(solve_ridge_cls(sp, mu), solve_cls(sp), rtol=1e-6)
        assert_allclose(solve_ridge_pcls(sp, mu), solve_pcls(sp), rtol=1e-6)

    def test_hand_solved_ridge_cls(self):
        # P = [[1],[1]], q = (1,1), mu = 2: (P^T P + mu) x = P^T q -> 4x = 2
        sp = SketchedProblem(P=np.array([[1.0], [1.0]]), q=np.array([1.0, 1.0]), c=np.zeros(1))
        assert_allclose(solve_ridge_cls(sp, 2.0), [0.5], atol=1e-14)

    def test_hand_solved_ridge_pcls(self):
        # P = [[2]], c = (6), mu = 2: (4 + 2) x = 6
        sp = SketchedProblem(P=np.array([[2.0]]), q=np.array([0.0]), c=np.array([6.0]))
        assert_allclose(solve_ridge_pcls(sp, 2.0), [1.0], atol=1e-14)

    def test_ridge_pcls_zero_linear_term(self):
        sp = SketchedProblem(P=np.eye(3), q=np.ones(3), c=np.zeros(3))
        assert_allclose(solve_ridge_pcls(sp, 1.0), np.zeros(3), atol=0.0)

    def test_ridge_pcls_norm_monotone_on_grid(self):
        problem = random_problem(np.random.default_rng(9), 80, 5)
        sp, _ = sketched(problem, m=25, seed=10)
        norms = [np.linalg.norm(solve_ridge_pcls(sp, mu)) for mu in np.geomspace(1e-4, 1e4, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_rejects_negative_mu(self):
        sp = SketchedProblem(P=np.eye(2), q=np.ones(2), c=np.ones(2))
        with pytest.raises(ValueError):
            solve_ridge_cls(sp, -1.0)


class TestDefaultMu:
    def test_scales_smallest_singular_value(self):
        sp = SketchedProblem(
            P=np.diag([3.0, 2.0, 1.0]), q=np.zeros(3), c=np.zeros(3)
        )
        assert default_mu(sp) == pytest.approx(5.0)
        assert default_mu(sp, factor=0.0) == 0.0

    def test_uniform_spectrum(self):
        sp = SketchedProblem(P=2.0 * np.eye(3), q=np.zeros(3), c=np.zeros(3))
        assert default_mu(sp) == pytest.approx(20.0)


def robust_cls_grid_oracle(P, q, rho, n_grid=4000):
    """Dense sweep over the scalar ridge parameter of the robust solution."""
    U, sigma, Vt = np.linalg.svd(P, full_matrices=False)
    w = U.T @ q
    span = sigma[0] ** 2
    grid = np.concatenate([[0.0], np.geomspace(1e-12 * span, 1e8 * span, n_grid)])
    best_x, best_f = None, np.inf
    for mu in grid:
        x = Vt.T @ ((sigma * w) / (sigma**2 + mu))
        f = robust_cls_objective(P, q, x, rho)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


class TestRobustCls:
    def test_zero_radius_is_plain_cls(self):
        problem = random_problem(np.random.default_rng(10), 60, 4)
        sp, _ = sketched(problem, m=20, seed=11)
        assert_allclose(solve_robust_cls(sp, 0.0), solve_cls(sp), atol=1e-8)

    def test_zero_rhs_optimum_at_origin(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            P = rng.standard_normal((12, 3))
            sp = SketchedProblem(P=P, q=np.zeros(12), c=np.zeros(3))
            rho = float(rng.uniform(0.2, 3.0))
            x = solve_robust_cls(sp, rho)
            assert np.linalg.norm(x) <= 1e-12
            assert robust_cls_objective(P, sp.q, x, rho) == pytest.approx(0.5 * rho**2)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(12)
        P = rng.standard_normal((40, 4))
        q = rng.standard_normal(40)
        sp = SketchedProblem(P=P, q=q, c=np.zeros(4))
        x = solve_robust_cls(sp, 1.0)
        _, f_oracle = robust_cls_grid_oracle(P, q, 1.0)
        f = robust_cls_objective(P, q, x, 1.0)
        assert f <= f_oracle + 1e-6 * (1 + abs(f_oracle))

    def test_never_worse_than_cls_point(self):
        rng = np.random.default_rng(13)
        for trial in range(8):
            P = rng.standard_normal((30, 5))
            q = rng.standard_normal(30)
            sp = SketchedProblem(P=P, q=q, c=np.zeros(5))
            rho = float(rng.uniform(0.1, 5.0))
            f_robust = robust_cls_objective(P, q, solve_robust_cls(sp, rho), rho)
            f_at_cls = robust_cls_objective(P, q, solve_cls(sp), rho)
            assert f_robust <= f_at_cls + 1e-10 * (1 + abs(f_at_cls))

    def test_consistent_rhs_returns_interpolator(self):
        # q in range(P): the unregularized solution is already stationary
        rng = np.random.default_rng(14)
        P = rng.standard_normal((20, 3))
        x_true = rng.standard_normal(3)
        sp = SketchedProblem(P=P, q=P @ x_true, c=np.zeros(3))
        assert_allclose(solve_robust_cls(sp, 0.5), x_true, rtol=1e-8)

    def test_rejects_negative_rho(self):
        sp = SketchedProblem(P=np.eye(2), q=np.ones(2), c=np.ones(2))
        with pytest.raises(ValueError):
            solve_robust_cls(sp, -0.1)

    @pytest.mark.parametrize("consistent", [False, True])
    def test_rank_deficient_sketch(self, consistent):
        # a zero column gives P a zero singular value, which the mu = 0
        # evaluation must not divide by
        rng = np.random.default_rng(16)
        P = rng.standard_normal((10, 3))
        P[:, 1] = 0.0
        q = P @ rng.standard_normal(3) if consistent else rng.standard_normal(10)
        sp = SketchedProblem(P=P, q=q, c=np.zeros(3))
        rho = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_robust_cls(sp, rho)
        assert np.all(np.isfinite(x))
        f = robust_cls_objective(P, q, x, rho)
        scale = 0.1 * max(1.0, float(np.linalg.norm(x)))
        for _ in range(200):
            probe = x + scale * rng.standard_normal(3)
            assert robust_cls_objective(P, q, probe, rho) >= f - 1e-12 * (1 + abs(f))


class TestBlendenpik:
    def test_identity_sketch_preconditions_exactly(self):
        problem, _ = planted_problem(np.random.default_rng(15), 80, 6, condition=1e3)
        P = identity_sketch(problem.M).apply(problem.A)
        R = blendenpik_preconditioner(P)
        x, iters, converged = preconditioned_lsqr(problem.A, problem.b, R=R, tol=1e-10)
        assert converged and iters <= 3
        x_ls = solve_ols(problem)
        assert np.linalg.norm(x - x_ls) <= 1e-6 * np.linalg.norm(x_ls)

    def test_square_identity_matrix(self):
        from sketchls import LSProblem

        b = np.array([2.0, -1.0, 0.5])
        problem = LSProblem(A=np.eye(3), b=b)
        op = make_sketch(SketchSpec(kind="gaussian", m=3, M=3, seed=1))
        x = solve_blendenpik(problem, op, lsqr_tol=1e-10, max_iter=50)
        assert_allclose(x, b, atol=1e-8)

    def test_needs_fewer_iterations_than_unpreconditioned(self):
        problem, _ = planted_problem(np.random.default_rng(16), 500, 20, condition=1e4)
        op = make_sketch(SketchSpec(kind="gaussian", m=80, M=500, seed=17))
        P = op.apply(problem.A)
        R = blendenpik_preconditioner(P)
        x, iters_prec, conv = preconditioned_lsqr(problem.A, problem.b, R=R, tol=1e-10)
        assert conv
        x_ls = solve_ols(problem)
        assert eps_optimality(x, problem, x_ls) <= 1e-6
        _, iters_raw, _ = preconditioned_lsqr(problem.A, problem.b, R=None, tol=1e-10)
        assert iters_prec < iters_raw

    def test_iteration_cap_raises_with_best_iterate(self):
        problem, _ = planted_problem(np.random.default_rng(17), 300, 15, condition=1e6)
        op = make_sketch(SketchSpec(kind="gaussian", m=60, M=300, seed=18))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_blendenpik(problem, op, lsqr_tol=1e-14, max_iter=1)
        assert excinfo.value.last_iterate is not None

    def test_singular_preconditioner_raises(self):
        with pytest.raises(SingularMatrixError):
            blendenpik_preconditioner(np.zeros((5, 2)))


class TestErrorDecomposition:
    def test_consistent_system_collapses_to_reference(self):
        problem, _ = planted_problem(np.random.default_rng(18), 60, 4, residual_fraction=0.0)
        op = make_sketch(SketchSpec(kind="gaussian", m=16, M=60, seed=19))
        lhs, rhs = cls_error_decomposition(problem, op)
        x_ls = solve_ols(problem)
        assert_allclose(lhs, x_ls, rtol=1e-8)
        assert_allclose(rhs, x_ls, rtol=1e-8)

    def test_identity_sketch_collapses(self):
        problem = random_problem(np.random.default_rng(19), 50, 4)
        lhs, rhs = cls_error_decomposition(problem, identity_sketch(problem.M))
        x_ls = solve_ols(problem)
        assert_allclose(lhs, x_ls, rtol=1e-8)
        assert_allclose(rhs, lhs, rtol=1e-10)

    def test_random_instance_identity_holds(self):
        problem = random_problem(np.random.default_rng(20), 100, 4)
        op = make_sketch(SketchSpec(kind="gaussian", m=40, M=100, seed=21))
        lhs, rhs = cls_error_decomposition(problem, op)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
