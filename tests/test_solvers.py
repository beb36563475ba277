import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

from helpers import blas_counts, planted_problem, random_problem
from sketchls import (
    ConvergenceError,
    LSProblem,
    SingularMatrixError,
    SketchSpec,
    SketchedProblem,
    blendenpik_preconditioner,
    cls_error_decomposition,
    default_mu,
    eps_optimality,
    generate_synthetic,
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
    solve_rpc_sketched,
)
from sketchls import core, sketch, solvers
from sketchls.solvers import GramSolver, _pass_over_a


def sketched(problem, kind="gaussian", m=None, seed=0):
    m = m or 4 * problem.N
    op = make_sketch(SketchSpec(kind=kind, m=m, M=problem.M, seed=seed))
    return SketchedProblem.from_problem(problem, op), op


def layouts(A):
    """A as C-ordered, F-ordered and row-strided (every other row of a C
    array) arrays with equal entries, each read-only."""
    strided = np.empty((2 * A.shape[0], A.shape[1]))[::2]
    strided[...] = A
    out = {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A), "strided": strided}
    for X in out.values():
        X.flags.writeable = False
    return out


def relative_gradient(A, b, x):
    """Recomputed ``||A^T (A x - b)|| / ||A^T b||``; BLAS nrm2 keeps it finite
    on data scaled by 1e+-150, where squaring the entries would overflow."""
    return sla.norm(A.T @ (A @ x - b)) / sla.norm(A.T @ b)


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
        # x_cls = x_ls + (P^T P)^{-1} A^T Phi^T Phi z, z the uncompressed
        # residual, with A^T Phi^T = P^T
        rng = np.random.default_rng(3)
        problem = random_problem(rng, 200, 5)
        sp, op = sketched(problem, m=50, seed=4)
        x_ls = solve_ols(problem)
        z = problem.b - problem.A @ x_ls
        correction = GramSolver(sp.P).solve(sp.P.T @ op.apply(z))
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

    def test_wide_gaussian_sketch_raises(self):
        # with m < N the Gram matrix is singular, yet Cholesky succeeds on its
        # rounding for 10 of these 60 seeds; solving from that factor gives
        # ||x|| of 2e14 to 6e16
        for seed in range(60):
            rng = np.random.default_rng(seed)
            N = int(rng.integers(3, 12))
            m = int(rng.integers(1, N))
            P, c = rng.standard_normal((m, N)), rng.standard_normal(N)
            sp = SketchedProblem(P=P, q=np.zeros(m), c=c)
            with pytest.raises(SingularMatrixError):
                solve_pcls(sp)

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
        _, s, Vt = np.linalg.svd(P, full_matrices=False)
        assert_allclose(x, Vt.T @ ((Vt @ sp.c) / s**2), rtol=1e-6)


@pytest.mark.parametrize("bad, value", [("P", math.nan), ("q", math.inf), ("c", math.inf)])
@pytest.mark.parametrize(
    "solve",
    [
        solve_pcls,
        solve_cls,
        lambda sp: solve_ridge_pcls(sp, 0.5),
        lambda sp: solve_ridge_cls(sp, 0.5),
        lambda sp: solve_robust_cls(sp, 0.5),
        lambda sp: solve_rpc_sketched(sp, 1.0),
        default_mu,
    ],
    ids=["pcls", "cls", "ridge-pcls", "ridge-cls", "robust-cls", "rpc", "default_mu"],
)
def test_sketched_solvers_refuse_nonfinite_data(solve, bad, value):
    # one ValueError at construction, not a solver's own failure further in
    rng = np.random.default_rng(22)
    data = dict(P=rng.standard_normal((12, 3)), q=rng.standard_normal(12), c=rng.standard_normal(3))
    data[bad].flat[1] = value
    with pytest.raises(ValueError, match="sketched data must be finite"):
        solve(SketchedProblem(**data))


class TestCountFromProblem:
    """A count sketch's P = Phi A, q = Phi b and c = A^T b from one pass over
    A's row blocks, made many by a budget of 16 rows of 64 columns: 512-row
    blocks, the _PASS_ROWS floor, and 4,097 rows in 9 of them."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sketch, "_BLOCK_BYTES", 16 * 8 * 64)

    def problem_and_op(self, seed, M=4097, N=64):
        rng = np.random.default_rng(seed)
        problem = LSProblem(A=rng.standard_normal((M, N)), b=rng.standard_normal(M))
        return problem, make_sketch(SketchSpec(kind="count", m=200, M=M, seed=seed))

    def test_layouts_give_the_same_bits(self):
        """C, F and row-strided A give byte-equal P, q and c, and P is
        byte-equal to apply(A) and to Phi A of the pass given b."""
        problem, op = self.problem_and_op(60)
        want = SketchedProblem.from_problem(problem, op)
        for A in layouts(problem.A).values():
            sp = SketchedProblem.from_problem(LSProblem(A=A, b=problem.b), op)
            for got, expected in ((sp.P, want.P), (sp.q, want.q), (sp.c, want.c)):
                assert got.tobytes() == expected.tobytes()
            assert op.apply(A).tobytes() == want.P.tobytes()
            assert op._pass(A, problem.b)[0].tobytes() == want.P.tobytes()

    def test_c_is_atb_and_repeatable(self):
        problem, op = self.problem_and_op(61)
        first, again = (SketchedProblem.from_problem(problem, op) for _ in range(2))
        want = problem.A.T @ problem.b
        assert np.linalg.norm(first.c - want) <= 1e-14 * np.linalg.norm(want)
        for name in ("P", "q", "c"):
            assert getattr(first, name).tobytes() == getattr(again, name).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_count_from_problem_copies_no_half_of_a(order):
    """At the real budget 2^14 x 64 is sixteen 1,024-row blocks of 0.5 MiB:
    the outputs, the worker's m x N partial and, for F order, one block copy
    per half stay under 0.2 of A; a copy of half of A would be 0.5."""
    M, N = 2**14, 64
    rng = np.random.default_rng(62)
    problem = LSProblem(
        A=np.asarray(rng.standard_normal((M, N)), order=order), b=rng.standard_normal(M)
    )
    op = make_sketch(SketchSpec(kind="count", m=4 * N, M=M, seed=63))
    tracemalloc.start()
    try:
        SketchedProblem.from_problem(problem, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * M * N * 8


class TestRidge:
    def test_shrinkage_in_mu(self):
        problem = random_problem(np.random.default_rng(7), 60, 4)
        sp, _ = sketched(problem, m=20, seed=8)
        norms = [np.linalg.norm(solve_ridge_cls(sp, mu)) for mu in (1e2, 1e4, 1e6)]
        assert norms[0] > norms[1] > norms[2]

    def test_small_mu_matches_unregularized(self):
        problem = random_problem(np.random.default_rng(8), 60, 4)
        sp, _ = sketched(problem, m=24, seed=9)
        mu = 1e-12 * sp.spectral[0][0] ** 2
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

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_nonfinite_mu(self, mu):
        sp = SketchedProblem(P=np.eye(2), q=np.ones(2), c=np.ones(2))
        for solve in (solve_ridge_cls, solve_ridge_pcls):
            with pytest.raises(ValueError):
                solve(sp, mu)


class TestDefaultMu:
    def test_scales_smallest_singular_value(self):
        sp = SketchedProblem(
            P=np.diag([3.0, 2.0, 1.0]), q=np.zeros(3), c=np.zeros(3)
        )
        assert default_mu(sp) == pytest.approx(5.0)

    def test_uniform_spectrum(self):
        sp = SketchedProblem(P=2.0 * np.eye(3), q=np.zeros(3), c=np.zeros(3))
        assert default_mu(sp) == pytest.approx(20.0)

    def test_numerically_singular_sketch_raises(self):
        # count sketches of the semi-coherent class leave P with
        # sigma_min / sigma_max near 1e-16; a weight of 5 sigma_min^2 there
        # gave ridge solutions with ||x|| near 1e30
        problem = generate_synthetic(20000, 50, 1e4, "semi-coherent", 1)
        for seed in range(3):
            sp, _ = sketched(problem, kind="count", m=100, seed=seed)
            with pytest.raises(SingularMatrixError):
                default_mu(sp)

    def test_zero_sketch_raises(self):
        sp = SketchedProblem(P=np.zeros((4, 2)), q=np.zeros(4), c=np.zeros(2))
        with pytest.raises(SingularMatrixError):
            default_mu(sp)


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
        # consistent q at radii large against P's singular values, where the
        # unregularized interpolator is no longer optimal
        for trial in range(6):
            N = int(rng.integers(1, 6))
            P = rng.standard_normal((int(rng.integers(N + 1, 30)), N))
            q = P @ rng.standard_normal(N)
            rho = float(10.0 ** rng.uniform(0.5, 3))
            sp = SketchedProblem(P=P, q=q, c=np.zeros(N))
            _, f_oracle = robust_cls_grid_oracle(P, q, rho)
            f = robust_cls_objective(P, q, solve_robust_cls(sp, rho), rho)
            assert f <= f_oracle + 1e-6 * (1 + abs(f_oracle))

    @pytest.mark.parametrize("rho", [0.5, 1.0, 1.5, 10.0])
    def test_scalar_closed_form(self, rho):
        # |x - 1| + rho sqrt(1 + x^2) has its kink at x = 1 optimal while
        # rho <= sqrt(2), and a smooth minimizer 1 / sqrt(rho^2 - 1) beyond
        sp = SketchedProblem(P=np.array([[1.0]]), q=np.array([1.0]), c=np.zeros(1))
        expected = 1.0 if rho <= math.sqrt(2.0) else 1.0 / math.sqrt(rho**2 - 1.0)
        assert_allclose(solve_robust_cls(sp, rho), [expected], rtol=1e-10)

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

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_rejects_nonfinite_rho(self, rho):
        sp = SketchedProblem(P=np.eye(2), q=np.ones(2), c=np.ones(2))
        with pytest.raises(ValueError):
            solve_robust_cls(sp, rho)

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
    @staticmethod
    def record_passes(monkeypatch):
        """Wrap ``_pass_over_a``: returns the list of LSQR's iteration passes'
        z = R^-1 v, and the list of its gradient checks (the passes with
        alpha = -1) as ``(iterate x, ||A^T r|| of the check, recurrence
        gradient)``, the last read from the solver's local ``grad``, which
        holds it when the check is called (None for A^T b at x = 0)."""
        inner, zs, checks = solvers._pass_over_a, [], []

        def recorded(A, z, alpha, u):
            g = inner(A, z, alpha, u)
            if alpha == -1.0:
                checks.append((-z, sla.norm(g), sys._getframe(1).f_locals.get("grad")))
            else:
                zs.append(z.copy())
            return g

        monkeypatch.setattr(solvers, "_pass_over_a", recorded)
        return zs, checks

    @staticmethod
    def stop_instance():
        problem, _ = planted_problem(np.random.default_rng(52), 20_000, 30, condition=1e4)
        op = make_sketch(SketchSpec(kind="count", m=120, M=20_000, seed=53))
        return problem.A, problem.b, blendenpik_preconditioner(op.apply(problem.A))

    @staticmethod
    def outcome(solve, *args):
        """x's bytes, or the bytes of a ConvergenceError's best iterate and
        its diagnostics."""
        try:
            return solve(*args).tobytes()
        except ConvergenceError as exc:
            return exc.last_iterate.tobytes(), exc.diagnostics

    def test_stops_at_the_first_iterate_that_meets_tol(self, monkeypatch):
        """The j-th LSQR iterate minimizes ||A x - b|| over the span of the
        first j passes' z = R^-1 v; rebuilt that way, the first iterate whose
        true gradient meets tol is the one returned, confirmed by one check."""
        A, b, R = self.stop_instance()
        zs, checks = self.record_passes(monkeypatch)
        tol = 1e-10
        x, iters, converged = preconditioned_lsqr(A, b, R=R, tol=tol)
        assert converged and len(zs) == iters and len(checks) == 2  # A^T b, then the stop
        gradients = []
        for j in range(1, iters + 1):
            Z = np.column_stack(zs[:j])
            x_j = Z @ np.linalg.lstsq(A @ Z, b, rcond=None)[0]
            gradients.append(relative_gradient(A, b, x_j))
        assert min(gradients[:-1]) > tol >= gradients[-1], gradients[-3:]
        assert relative_gradient(A, b, x) <= tol

    def test_stop_gradient_matches_the_true_gradient(self, monkeypatch):
        A, b, R = self.stop_instance()
        _, checks = self.record_passes(monkeypatch)
        x, _, converged = preconditioned_lsqr(A, b, R=R, tol=1e-10)
        assert converged
        checked_x, checked, recurrence = checks[-1]
        assert_array_equal(checked_x, x)
        recomputed = sla.norm(A.T @ (A @ x - b))
        assert abs(checked - recomputed) <= 1e-6 * recomputed
        assert abs(recurrence - recomputed) <= 0.01 * recomputed

    def test_a_solve_starts_one_thread_and_holds_blas_between_passes(self, monkeypatch):
        """4,000 rows in 8 blocks of 512: every pass splits, and all of them
        share the one worker and BLAS hold of the solve."""
        problem, _ = planted_problem(np.random.default_rng(55), 4000, 10, condition=1e2)
        op = make_sketch(SketchSpec(kind="count", m=40, M=4000, seed=56))
        R = blendenpik_preconditioner(op.apply(problem.A))
        before, threads = blas_counts(), threading.active_count()
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 0)
        inner, between = solvers._pass_over_a, []

        def recorded(*args):
            g = inner(*args)
            between.append(blas_counts())  # in the caller, before the next pass
            return g

        monkeypatch.setattr(solvers, "_pass_over_a", recorded)
        start, starts = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
        _, iters, converged = preconditioned_lsqr(problem.A, problem.b, R=R, tol=1e-10)
        assert converged and len(between) >= iters + 2
        assert between == [[1] * len(before)] * len(between)
        assert len(starts) == 1
        assert blas_counts() == before
        assert threading.active_count() == threads

    def test_cholesky_factor_matches_householder_qr(self):
        """A well-conditioned P passes the Cholesky gate: R is upper
        triangular with a positive diagonal, and equals a Householder QR's R
        up to the signs of its rows."""
        P = np.random.default_rng(57).standard_normal((200, 10))
        R = blendenpik_preconditioner(P)
        ref = np.linalg.qr(P, mode="r")
        assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) > 0)
        assert np.abs(np.abs(R) - np.abs(ref)).max() <= 1e-12 * np.abs(ref).max()

    def test_a_failed_gate_falls_back_to_householder_without_a_warning(self, monkeypatch):
        # the gate GramSolver shares: it falls back too, with its warning
        P = np.random.default_rng(58).standard_normal((200, 10))
        monkeypatch.setattr(solvers, "dpocon", lambda c, anorm: (0.0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = blendenpik_preconditioner(P)
        assert R.tobytes() == np.linalg.qr(P, mode="r").tobytes()
        with pytest.warns(RuntimeWarning, match="falling back"):
            GramSolver(P)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_rejects_bad_tolerance(self, tol):
        problem = random_problem(np.random.default_rng(20), 30, 3)
        with pytest.raises(ValueError):
            preconditioned_lsqr(problem.A, problem.b, tol=tol)

    def test_identity_sketch_preconditions_exactly(self):
        problem, _ = planted_problem(np.random.default_rng(15), 80, 6, condition=1e3)
        P = identity_sketch(problem.M).apply(problem.A)
        R = blendenpik_preconditioner(P)
        x, iters, converged = preconditioned_lsqr(problem.A, problem.b, R=R, tol=1e-10)
        assert converged and iters <= 3
        x_ls = solve_ols(problem)
        assert np.linalg.norm(x - x_ls) <= 1e-6 * np.linalg.norm(x_ls)

    def test_square_identity_matrix(self):
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
        # tol 1e-17 is under the direct solve's floor (1e-15 here), so the
        # solve falls back to LSQR, which meets its cap
        problem, _ = planted_problem(np.random.default_rng(17), 300, 15, condition=1e6)
        op = make_sketch(SketchSpec(kind="gaussian", m=60, M=300, seed=18))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_blendenpik(problem, op, lsqr_tol=1e-17, max_iter=1)
        assert excinfo.value.last_iterate is not None

    def test_singular_preconditioner_raises(self):
        with pytest.raises(SingularMatrixError):
            blendenpik_preconditioner(np.zeros((5, 2)))

    def test_rank_rule_reads_singular_values(self):
        # Kahan's matrix (c = 0.3, n = 100) is upper triangular with
        # sigma_min / sigma_max = 1.0e-14, under the rank rule, while the
        # ratio of its smallest to largest diagonal entry is 9.4e-3
        n, c = 100, 0.3
        scales = math.sqrt(1 - c * c) ** np.arange(n)
        K = scales[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        with pytest.raises(SingularMatrixError):
            blendenpik_preconditioner(K)

    @pytest.mark.parametrize("where, value", [("A", math.nan), ("b", math.inf)])
    def test_rejects_nonfinite_data(self, where, value):
        rng = np.random.default_rng(21)
        data = {"A": rng.standard_normal((30, 3)), "b": rng.standard_normal(30)}
        data[where].flat[4] = value
        with pytest.raises(ValueError, match="finite"):
            preconditioned_lsqr(data["A"], data["b"])

    def test_zero_gradient_returns_origin(self):
        # b orthogonal to range(A): A^T b = 0, so x = 0 is exact at once
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        x, iters, converged = preconditioned_lsqr(A, np.array([0.0, 0.0, 5.0]), tol=1e-10)
        assert converged and iters == 0 and np.array_equal(x, np.zeros(2))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("rows", [1, 3, 7], ids=["1-row", "3-row", "7-row"])
    def test_one_pass_matches_two_products(self, monkeypatch, layout, rows):
        """50 rows in 50, 17 and 8 blocks (3- and 7-row blocks leave a short
        last block of 2 and 1), split two ways: u is byte-equal to one
        thread's loop over the same blocks, and A^T u, summed in two halves,
        agrees with that loop's to rounding; both match the two products."""
        rng = np.random.default_rng(45)
        A = layouts(rng.standard_normal((50, 6)))[layout]
        z, u0, alpha = rng.standard_normal(6), rng.standard_normal(50), 0.7
        want_u = A @ z - alpha * u0
        want_g = A.T @ want_u
        loop_u, loop_g = u0 * -alpha, np.zeros(6)
        for lo in range(0, 50, rows):
            loop_u[lo : lo + rows] += A[lo : lo + rows] @ z
            loop_g += loop_u[lo : lo + rows] @ A[lo : lo + rows]
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", rows * 8 * 6)
        monkeypatch.setattr(solvers, "_PASS_ROWS", 1)
        u = u0.copy()
        g = _pass_over_a(A, z, alpha, u)
        assert u.tobytes() == loop_u.tobytes()
        assert np.linalg.norm(g - loop_g) <= 1e-13 * np.linalg.norm(loop_g)
        assert np.linalg.norm(u - want_u) <= 1e-13 * np.linalg.norm(want_u)
        assert np.linalg.norm(g - want_g) <= 1e-13 * np.linalg.norm(want_g)

    def test_one_block_pass_starts_no_thread(self, monkeypatch):
        # 300 x 8 is one block: the caller runs it and no worker starts
        start, starts = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
        rng = np.random.default_rng(50)
        A, z, u = rng.standard_normal((300, 8)), rng.standard_normal(8), rng.standard_normal(300)
        want_u = A @ z - 0.5 * u
        g = _pass_over_a(A, z, 0.5, u)
        assert starts == []
        assert_allclose(u, want_u, rtol=1e-13)
        assert_allclose(g, A.T @ want_u, rtol=1e-12)

    def test_pass_blocks_have_at_least_512_rows(self, monkeypatch):
        """At N = 400 a 1 MiB block holds 327 rows; numpy's matmul would keep
        the GIL on it, so the pass takes 512-row blocks, split two ways."""
        seen = []

        def halves(work, items):
            seen.append(items)
            return core._halves(work, items)

        monkeypatch.setattr(solvers, "_halves", halves)
        rng = np.random.default_rng(51)
        A, z, u = rng.standard_normal((4096, 400)), rng.standard_normal(400), np.zeros(4096)
        _pass_over_a(A, z, 1.0, u)
        assert [s.step for s in seen] == [512] and len(seen[0]) == 8

    def test_repeated_solves_are_bit_identical(self):
        problem, _ = planted_problem(np.random.default_rng(52), 20_000, 30, condition=1e4)
        op = make_sketch(SketchSpec(kind="count", m=120, M=20_000, seed=53))
        R = blendenpik_preconditioner(op.apply(problem.A))
        (x1, it1, c1), (x2, it2, c2) = (
            preconditioned_lsqr(problem.A, problem.b, R=R, tol=1e-10) for _ in range(2)
        )
        assert c1 and c2 and it1 == it2
        assert x1.tobytes() == x2.tobytes()
        x3, x4 = (solve_blendenpik(problem, op, lsqr_tol=1e-10) for _ in range(2))
        assert x3.tobytes() == x4.tobytes()

    def test_two_passes_over_a_after_the_sketch(self, monkeypatch):
        """On an incoherent instance the solve reads A twice after the
        sketch: one Gram pass and one gradient check, and no LSQR pass."""
        problem, _ = planted_problem(np.random.default_rng(52), 20_000, 30, condition=1e4)
        op = make_sketch(SketchSpec(kind="count", m=120, M=20_000, seed=53))
        zs, checks = self.record_passes(monkeypatch)
        inner, grams = solvers._times, []
        monkeypatch.setattr(solvers, "_times", lambda *a, **k: grams.append(1) or inner(*a, **k))
        x = solve_blendenpik(problem, op, lsqr_tol=1e-10)
        assert (len(grams), len(checks), len(zs)) == (1, 1, 0)
        assert_array_equal(checks[0][0], x)
        assert relative_gradient(problem.A, problem.b, x) <= 1e-10

    @pytest.mark.parametrize("cause", ["gate", "tol"])
    def test_fallback_is_lsqr_bit_for_bit(self, monkeypatch, cause):
        """Where the Gram of A R_s^-1 fails its gate, or refinement stalls
        above a tol under the direct solve's floor, the solve is LSQR with
        R_s from x = 0: the same x, or the same ConvergenceError."""
        problem, _ = planted_problem(np.random.default_rng(60), 2000, 10, condition=1e4)
        A, b = problem.A, problem.b
        op = make_sketch(SketchSpec(kind="count", m=40, M=2000, seed=61))
        R_s = blendenpik_preconditioner(op.apply(A))
        tol = 1e-10 if cause == "gate" else 1e-17
        want = self.outcome(solvers._converged_lsqr, A, b, R_s, tol, 40)
        dpocon, calls = solvers.dpocon, []
        if cause == "gate":  # the preconditioner's gate passes, G's fails
            monkeypatch.setattr(solvers, "dpocon", lambda c, anorm: (
                calls.append(1) or (dpocon(c, anorm) if len(calls) == 1 else (0.0, 0))))
        _, checks = self.record_passes(monkeypatch)
        assert self.outcome(solve_blendenpik, problem, op, tol, 40) == want
        assert len(calls) == (2 if cause == "gate" else 0)
        # checks of the direct path's x before LSQR's first, A^T b at x = 0:
        # none where the gate fails, at least one where refinement stalls
        direct = next(i for i, (x, _, _) in enumerate(checks) if not x.any())
        assert direct == 0 if cause == "gate" else direct >= 1

    @pytest.mark.parametrize("coherence", ["incoherent", "coherent"])
    @pytest.mark.parametrize("kind", ["gaussian", "ros", "count"])
    def test_gradient_meets_tol_up_to_cond_1e11(self, monkeypatch, kind, coherence):
        """m = 4N. On incoherent instances the direct solve meets tol with no
        LSQR; on coherent ones a count sketch may need it."""
        inner, lsqr = solvers._converged_lsqr, []
        monkeypatch.setattr(solvers, "_converged_lsqr", lambda *a: lsqr.append(1) or inner(*a))
        for condition in (1e4, 1e8, 1e11):
            problem = generate_synthetic(4000, 20, condition, coherence, seed=62)
            op = make_sketch(SketchSpec(kind=kind, m=80, M=4000, seed=63))
            x = solve_blendenpik(problem, op, lsqr_tol=1e-10)
            assert relative_gradient(problem.A, problem.b, x) <= 1e-10, condition
        if coherence == "incoherent":
            assert lsqr == []

    def test_solve_makes_no_m_by_n_temporary(self):
        """Q = A R_s^-1 lives one block per half (1 MiB each here, 0.04 of
        A), so the peak stays far below one copy of A."""
        M, N = 65_536, 50
        rng = np.random.default_rng(64)
        problem = LSProblem(A=rng.standard_normal((M, N)), b=rng.standard_normal(M))
        op = make_sketch(SketchSpec(kind="count", m=4 * N, M=M, seed=65))
        tracemalloc.start()
        try:
            x = solve_blendenpik(problem, op, lsqr_tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert relative_gradient(problem.A, problem.b, x) <= 1e-10
        assert peak < 0.25 * 8 * M * N

    def test_layouts_give_the_same_solve(self, monkeypatch):
        """C, F and row-strided A, read-only like b, in 64-row blocks: the
        same iteration count and x to 1e-12, with A and b never written. BLAS
        rounds an F-ordered product differently, so the solves agree only to
        their forward error, about cond(A) times rounding: hence cond 10."""
        problem, _ = planted_problem(np.random.default_rng(46), 1000, 12, condition=10.0)
        op = make_sketch(SketchSpec(kind="count", m=60, M=1000, seed=47))
        R = blendenpik_preconditioner(op.apply(problem.A))
        b = problem.b.copy()
        b.flags.writeable = False
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 64 * 8 * 12)
        monkeypatch.setattr(solvers, "_PASS_ROWS", 1)
        runs = {
            name: preconditioned_lsqr(A, b, R=R, tol=1e-10)
            for name, A in layouts(problem.A).items()
        }
        x_c, iters_c, _ = runs["C"]
        for x, iters, converged in runs.values():
            assert converged and iters == iters_c
            assert np.linalg.norm(x - x_c) <= 1e-12 * np.linalg.norm(x_c)

    def test_layouts_give_the_same_direct_solve(self, monkeypatch):
        """C, F and row-strided A, read-only like b, in 512-row blocks for
        the Gram pass and 64-row blocks for the check: the direct solve
        meets tol on each with no LSQR, never writing A or b, and the x
        agree to their forward error."""
        problem, _ = planted_problem(np.random.default_rng(66), 3000, 12, condition=10.0)
        op = make_sketch(SketchSpec(kind="count", m=48, M=3000, seed=67))
        b = problem.b.copy()
        b.flags.writeable = False
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(solvers, "_BLOCK_BYTES", 64 * 8 * 12)
        monkeypatch.setattr(solvers, "_PASS_ROWS", 1)
        monkeypatch.setattr(solvers, "_converged_lsqr", None)
        xs = {
            name: solve_blendenpik(LSProblem(A=A, b=b), op, lsqr_tol=1e-12)
            for name, A in layouts(problem.A).items()
        }
        for name, x in xs.items():
            assert relative_gradient(problem.A, b, x) <= 1e-12, name
            assert np.linalg.norm(x - xs["C"]) <= 1e-12 * np.linalg.norm(xs["C"]), name

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_lsqr_copies_no_block_of_a(self, order):
        """A copy of A, or of a 1 MiB block of it per call, would lift the
        peak past the bound (a block is 0.125 of A here); the vectors of
        length M take about 0.035."""
        M, N = 2**14, 64
        rng = np.random.default_rng(48)
        A = np.asarray(rng.standard_normal((M, N)), order=order)
        b = rng.standard_normal(M)
        R = blendenpik_preconditioner(
            make_sketch(SketchSpec(kind="count", m=4 * N, M=M, seed=49)).apply(A)
        )
        tracemalloc.start()
        try:
            _, _, converged = preconditioned_lsqr(A, b, R=R, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged
        assert peak <= 0.1 * M * N * 8

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "count", None])
    def test_contract_sweep(self, kind):
        """Converged, with the recomputed gradient within tol, from cond 1e2 to
        1e8. At cond 1e8 and tol 1e-10 LSQR from x = 0 stalls just above tol
        (products with R^-1 floor its true gradient there); the restart from
        the checked iterate reaches it."""
        rng = np.random.default_rng(40)
        M, N = 1500, 20
        for condition in (1e2, 1e4, 1e6, 1e8):
            problem, _ = planted_problem(rng, M, N, condition=condition)
            R = None
            if kind is not None:
                spec = SketchSpec(kind=kind, m=8 * N, M=M, seed=int(rng.integers(2**31)))
                R = blendenpik_preconditioner(make_sketch(spec).apply(problem.A))
            for tol in (1e-6, 1e-10):
                x, iters, converged = preconditioned_lsqr(problem.A, problem.b, R=R, tol=tol)
                assert converged, (condition, tol, iters)
                assert relative_gradient(problem.A, problem.b, x) <= tol, (condition, tol)

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "count"])
    def test_stall_returns_best_iterate(self, kind):
        """At tol 1e-17 the recurrence bound passes while the true gradient,
        floored near 1e-16 relative, fails the check, so every exit is a stall."""
        problem, _ = planted_problem(np.random.default_rng(41), 400, 10, condition=1e4)
        A, b = problem.A, problem.b
        op = make_sketch(SketchSpec(kind=kind, m=40, M=400, seed=42))
        R = blendenpik_preconditioner(op.apply(A))
        x, iters, converged = preconditioned_lsqr(A, b, R=R, tol=1e-17, max_iter=30)
        assert not converged and iters == 30
        assert np.all(np.isfinite(x)) and relative_gradient(A, b, x) <= 1e-12
        with pytest.raises(ConvergenceError) as excinfo:
            solve_blendenpik(problem, op, lsqr_tol=1e-17, max_iter=30)
        assert_array_equal(excinfo.value.last_iterate, x)
        for tol in (1e-16, 1e-15, 1e-14):  # near the floor: converged only if it holds
            x, _, converged = preconditioned_lsqr(A, b, R=R, tol=tol, max_iter=30)
            assert not converged or relative_gradient(A, b, x) <= tol, tol

    @pytest.mark.parametrize("kind", ["gaussian", "ros", "count", None])
    @pytest.mark.parametrize(
        "N, m, scale",
        [(1, 4, 1.0), (8, 8, 1.0), (8, 32, 1e150), (8, 32, 1e-150)],
        ids=["N=1", "m=N", "scale=1e+150", "scale=1e-150"],
    )
    def test_edge_cases_converge(self, kind, N, m, scale):
        problem, _ = planted_problem(np.random.default_rng(43), 200, N, condition=1e3)
        A, b = scale * problem.A, scale * problem.b
        R = None
        if kind is not None:
            op = make_sketch(SketchSpec(kind=kind, m=m, M=200, seed=44))
            R = blendenpik_preconditioner(op.apply(A))
            x = solve_blendenpik(LSProblem(A=A, b=b), op, lsqr_tol=1e-10)
            assert relative_gradient(A, b, x) <= 1e-10
        x, iters, converged = preconditioned_lsqr(A, b, R=R, tol=1e-10)
        assert converged and np.all(np.isfinite(x))
        assert relative_gradient(A, b, x) <= 1e-10


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
