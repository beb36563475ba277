import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import haar, planted_problem, random_problem
from sketchls import (
    ConvergenceError,
    DegenerateInstanceError,
    LSProblem,
    RpcParams,
    SketchSpec,
    SketchedProblem,
    generate_synthetic,
    identity_sketch,
    make_sketch,
    rpc,
    rpc_objective,
    rpc_objective_gradient,
    rpc_oracle,
    solve_pcls,
    solve_robust_cls,
    solve_rpc,
    solve_rpc_sketched,
    stationarity_residual,
    worst_case_objective,
    worst_case_perturbation,
)

DESK = SketchedProblem(P=np.array([[1.0]]), q=np.array([1.0]), c=np.array([1.0]))


def random_sketched(rng, m, N, c_scale=1.0):
    P = rng.standard_normal((m, N))
    return SketchedProblem(P=P, q=rng.standard_normal(m), c=c_scale * rng.standard_normal(N))


class TestParams:
    def test_defaults_are_valid(self):
        p = RpcParams()
        assert p.rho == 1.0 and rpc._GAP_BOUND == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": -0.5},
            {"rho": -1},
            {"rho": -math.inf},
            {"rho": -5e-324},
            {"rho": np.float64(-0.5)},
            {"rho": np.float32(math.nan)},
            {"rho": math.nan},
            {"rho": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RpcParams(**kwargs)


class TestWorstCase:
    def test_zero_point(self):
        assert worst_case_objective(np.eye(2), np.zeros(2), 1.0) == 0.0

    def test_zero_radius(self):
        rng = np.random.default_rng(0)
        P, x = rng.standard_normal((5, 3)), rng.standard_normal(3)
        assert worst_case_objective(P, x, 0.0) == pytest.approx(np.linalg.norm(P @ x) ** 2)

    def test_identity_case(self):
        assert worst_case_objective(np.eye(2), [3.0, 4.0], 1.0) == pytest.approx(100.0)

    def test_perturbation_zero_radius(self):
        assert_allclose(worst_case_perturbation(np.eye(2), [1.0, 2.0], 0.0), np.zeros((2, 2)))

    def test_perturbation_scalar_case(self):
        dP = worst_case_perturbation(np.array([[1.0]]), [2.0], 3.0)
        assert_allclose(dP, [[3.0]], atol=1e-14)
        assert ((1.0 + 3.0) * 2.0) ** 2 == pytest.approx(
            worst_case_objective(np.array([[1.0]]), [2.0], 3.0)
        )

    def test_perturbation_attains_bound_and_dominates(self):
        rng = np.random.default_rng(1)
        P = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        rho = 0.5
        bound = worst_case_objective(P, x, rho)
        dP = worst_case_perturbation(P, x, rho)
        assert np.linalg.norm(dP, "fro") == pytest.approx(rho, rel=1e-10)
        assert np.linalg.norm((P + dP) @ x) ** 2 == pytest.approx(bound, rel=1e-10)
        for _ in range(1000):
            raw = rng.standard_normal((6, 3))
            feasible = raw * (rho / np.linalg.norm(raw, "fro"))
            assert np.linalg.norm((P + feasible) @ x) ** 2 <= bound * (1 + 1e-12)

    def test_degenerate_directions_raise(self):
        with pytest.raises(DegenerateInstanceError):
            worst_case_perturbation(np.eye(2), np.zeros(2), 1.0)
        P = np.array([[1.0, 0.0]])  # x in the null space of P
        with pytest.raises(DegenerateInstanceError):
            worst_case_perturbation(P, np.array([0.0, 1.0]), 1.0)


class TestObjective:
    def test_origin_value_is_zero(self):
        rng = np.random.default_rng(2)
        sp = random_sketched(rng, 6, 3)
        assert rpc_objective(sp, np.zeros(3), 1.0) == 0.0

    def test_zero_radius_matches_partial_compression_objective(self):
        rng = np.random.default_rng(3)
        sp = random_sketched(rng, 6, 3)
        x = rng.standard_normal(3)
        expected = 0.5 * np.linalg.norm(sp.P @ x) ** 2 - sp.c @ x
        assert rpc_objective(sp, x, 0.0) == pytest.approx(expected)

    def test_scalar_calculus_case(self):
        assert rpc_objective(DESK, np.array([0.25]), 1.0) == pytest.approx(-0.125)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(4)
        sp = random_sketched(rng, 10, 4)
        for _ in range(50):
            x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
            mid = rpc_objective(sp, 0.5 * (x1 + x2), 1.0)
            avg = 0.5 * (rpc_objective(sp, x1, 1.0) + rpc_objective(sp, x2, 1.0))
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        sp = random_sketched(rng, 12, 5)
        rho = 0.7
        for _ in range(10):
            x = rng.standard_normal(5)
            grad = rpc_objective_gradient(sp, x, rho)
            fd = np.zeros(5)
            h = 1e-6
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd[i] = (rpc_objective(sp, x + e, rho) - rpc_objective(sp, x - e, rho)) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_gradient_undefined_at_origin(self):
        rng = np.random.default_rng(6)
        sp = random_sketched(rng, 6, 3)
        with pytest.raises(DegenerateInstanceError):
            rpc_objective_gradient(sp, np.zeros(3), 1.0)


class TestSolveRpc:
    def test_zero_linear_term_gives_origin(self):
        rng = np.random.default_rng(13)
        sp = random_sketched(rng, 8, 3)
        sp = SketchedProblem(P=sp.P, q=sp.q, c=np.zeros(3))
        sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=1.0))
        assert np.array_equal(sol.x, np.zeros(3))
        assert sol.alpha == 0.0 and sol.beta == 0.0 and sol.converged

    def test_orthogonal_rhs_through_full_interface(self):
        # b orthogonal to every column of A
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        problem = LSProblem(A=A, b=np.array([0.0, 0.0, 5.0]))
        sol = solve_rpc(problem, identity_sketch(3), RpcParams(rho=1.0))
        assert np.array_equal(sol.x, np.zeros(2)) and sol.converged

    def test_desk_case(self):
        sol = solve_rpc_sketched(DESK, b_norm=1.0, params=RpcParams(rho=1.0))
        assert sol.converged
        assert sol.x[0] == pytest.approx(0.25, abs=1e-10)
        assert sol.alpha == pytest.approx(0.25, rel=1e-8)
        assert sol.beta == pytest.approx(0.25, rel=1e-8)
        assert sol.tau == pytest.approx(0.5, rel=1e-8)
        assert sol.gamma == pytest.approx(1.0, rel=1e-6)

    def test_desk_case_off_initialization(self):
        # b_norm is accepted but unread: any value gives the same x, bit for bit
        x = [solve_rpc_sketched(DESK, b_norm=b_norm, params=RpcParams(rho=1.0)).x
             for b_norm in (1.0, 3.7)]
        assert x[0].tobytes() == x[1].tobytes()

    def test_vanishing_radius_matches_partial_compression(self):
        rng = np.random.default_rng(14)
        problem, _ = planted_problem(rng, 120, 6, condition=5.0)
        op = make_sketch(SketchSpec(kind="gaussian", m=60, M=120, seed=15))
        sol = solve_rpc(problem, op, RpcParams(rho=1e-8))
        x_pcls = solve_pcls(SketchedProblem.from_problem(problem, op))
        assert np.linalg.norm(sol.x - x_pcls) <= 1e-5 * np.linalg.norm(x_pcls)

    def test_exact_zero_radius_is_partial_compression(self):
        rng = np.random.default_rng(15)
        problem = random_problem(rng, 80, 5)
        op = make_sketch(SketchSpec(kind="gaussian", m=25, M=80, seed=16))
        sol = solve_rpc(problem, op, RpcParams(rho=0.0))
        sp = SketchedProblem.from_problem(problem, op)
        assert_allclose(sol.x, solve_pcls(sp), rtol=1e-10)
        assert sol.converged

    def test_fixed_point_invariants_on_random_instances(self):
        rng = np.random.default_rng(16)
        for trial in range(15):
            sp = random_sketched(rng, 12, 4, c_scale=float(rng.uniform(0.1, 10)))
            rho = float(rng.choice([0.1, 1.0, 5.0]))
            sol = solve_rpc_sketched(sp, b_norm=float(rng.uniform(0.5, 4)), params=RpcParams(rho=rho))
            assert sol.converged
            assert sol.alpha == pytest.approx(np.linalg.norm(sp.P @ sol.x), rel=1e-6)
            assert sol.beta == pytest.approx(np.linalg.norm(sol.x), rel=1e-6)
            assert sol.tau == pytest.approx(sol.alpha + rho * sol.beta, rel=1e-6)
            # normalized-solution identity: gamma * alpha equals beta
            assert sol.gamma * sol.alpha == pytest.approx(sol.beta, rel=1e-6)
            assert sol.foc_residual <= 1e-6 * np.linalg.norm(sp.c)
            assert stationarity_residual(sp, sol.x, rho) <= 1e-6 * np.linalg.norm(sp.c)

    def test_dual_value_equals_gauge_at_optimum(self):
        rng = np.random.default_rng(17)
        sp = random_sketched(rng, 20, 5)
        sol = solve_rpc_sketched(sp, b_norm=2.0, params=RpcParams(rho=1.0))
        gauge = np.linalg.norm(sp.P @ sol.x) + 1.0 * np.linalg.norm(sol.x)
        assert sol.tau == pytest.approx(gauge, rel=1e-6)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(18)
        sp = random_sketched(rng, 15, 4)
        sol = solve_rpc_sketched(sp, b_norm=1.5, params=RpcParams(rho=0.8))
        grad = rpc_objective_gradient(sp, sol.x, 0.8)
        fd = np.zeros(4)
        h = 1e-7 * max(1.0, np.linalg.norm(sol.x))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd[i] = (rpc_objective(sp, sol.x + e, 0.8) - rpc_objective(sp, sol.x - e, 0.8)) / (2 * h)
        # both evaluations must agree the gradient vanishes at problem scale
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(sp.c)
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(sp.c)

    def test_solution_norm_shrinks_with_radius(self):
        rng = np.random.default_rng(19)
        sp = random_sketched(rng, 18, 5)
        radii = [0.1, 0.5, 1.0, 3.0, 10.0]
        norms = [
            np.linalg.norm(solve_rpc_sketched(sp, 2.0, RpcParams(rho=r)).x) for r in radii
        ]
        assert all(a >= b - 1e-8 for a, b in zip(norms, norms[1:]))

    def test_rank_deficient_smooth_branch(self):
        # zero singular values but most rhs mass on the range: dual search runs
        rng = np.random.default_rng(20)
        U, _, Vt = np.linalg.svd(rng.standard_normal((10, 4)), full_matrices=False)
        sigma = np.array([3.0, 2.0, 1.0, 0.0])
        P = (U * sigma) @ Vt
        c = Vt.T @ np.array([2.0, 1.0, 1.0, 0.05])
        sp = SketchedProblem(P=P, q=np.zeros(10), c=c)
        sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=1.0))
        assert sol.converged
        assert sol.foc_residual <= 1e-6 * np.linalg.norm(c)
        assert stationarity_residual(sp, sol.x, 1.0) <= 1e-6 * np.linalg.norm(c)

    def test_rank_deficient_null_corner(self):
        # rhs mass concentrated on the null space: optimum annihilates P
        rng = np.random.default_rng(21)
        U, _, Vt = np.linalg.svd(rng.standard_normal((10, 4)), full_matrices=False)
        sigma = np.array([3.0, 2.0, 0.0, 0.0])
        P = (U * sigma) @ Vt
        c = Vt.T @ np.array([0.5, 0.2, 4.0, 3.0])
        sp = SketchedProblem(P=P, q=np.zeros(10), c=c)
        rho = 1.0
        sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=rho))
        assert sol.converged and math.isinf(sol.gamma)
        assert sol.alpha <= 1e-10 * sol.beta
        # objective no worse than a dense random probe around the returned point
        f_star = rpc_objective(sp, sol.x, rho)
        for _ in range(200):
            probe = sol.x + rng.standard_normal(4) * 0.1 * np.linalg.norm(sol.x)
            assert rpc_objective(sp, probe, rho) >= f_star - 1e-10

    def test_corner_certificate_checks_dual_feasibility(self, monkeypatch):
        # test_rank_deficient_smooth_branch's instance has a smooth optimum;
        # a solve stopped at the corner s = 0 (here by a root finder that
        # returns 0) must say so in foc_residual: the multiplier on ||P x||
        # that the corner point needs has norm 26, above 1
        rng = np.random.default_rng(20)
        U, _, Vt = np.linalg.svd(rng.standard_normal((10, 4)), full_matrices=False)
        P = (U * np.array([3.0, 2.0, 1.0, 0.0])) @ Vt
        c = Vt.T @ np.array([2.0, 1.0, 1.0, 0.05])
        sp = SketchedProblem(P=P, q=np.zeros(10), c=c)
        stopped = SimpleNamespace(converged=True, iterations=0)
        monkeypatch.setattr(rpc, "brentq", lambda *args, **kwargs: (0.0, stopped))
        sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=1.0))
        assert math.isinf(sol.gamma)
        assert sol.foc_residual >= 1e-3 * np.linalg.norm(c)

    def test_gap_check_uses_rank_rule(self):
        # sigma_3 = 9e-13 is zero under the rank rule; at gamma ~ 1e11 it
        # would otherwise add about 2e-3 to the normalization gap
        P = np.zeros((4, 3))
        P[[0, 1, 2], [0, 1, 2]] = [1.0, 1e-11, 9e-13]
        sp = SketchedProblem(P=P, q=np.zeros(4), c=np.ones(3))
        sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=1.0))
        assert sol.converged and sol.gamma > 1e10
        f_star = rpc_objective(sp, sol.x, 1.0)
        rng = np.random.default_rng(28)
        for _ in range(200):
            probe = sol.x * (1.0 + 1e-3 * rng.standard_normal(3))
            assert rpc_objective(sp, probe, 1.0) >= f_star - 1e-12

    @staticmethod
    def _near_corner_sweep(rng, trials, rotated):
        # P with exact zero singular values and ||c_Z|| just under the corner
        # threshold rho sqrt(sum_R c^2 / sigma^2): s = ||P x|| / ||x|| sits
        # near 0, so the bracket's lower end halves many times below sigma_max.
        # Rotated, P = U diag(sigma) V^T and c = V c0 with U and V Haar: V^T x
        # then has parts of very different size, whose rounding a certificate
        # recomputed from x would report
        for trial in range(trials):
            N = int(rng.integers(2, 9))
            k = int(rng.integers(1, N))
            m = N + int(rng.integers(0, 4))
            sigma = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 11.99), N)
            sigma[N - k:] = 0.0
            if rotated:
                V = haar(rng, N, N)
                P = (haar(rng, m, N) * sigma) @ V.T
            else:
                V = np.eye(N)
                P = np.zeros((m, N))
                P[np.arange(N), np.arange(N)] = sigma
            rho = float(10.0 ** rng.uniform(-3, 3))
            c = rng.standard_normal(N)
            threshold = rho * np.sqrt(np.sum(c[: N - k] ** 2 / sigma[: N - k] ** 2))
            shrink = 1.0 - 10.0 ** -rng.uniform(1, 15.5)
            c[N - k:] *= threshold * shrink / np.linalg.norm(c[N - k:])
            sp = SketchedProblem(P=P, q=np.zeros(m), c=V @ c)
            sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=rho))
            # rotated, the rounding of V decides the corner when shrink is within ulps of 1
            assert rotated or math.isfinite(sol.gamma), trial
            assert sol.foc_residual <= 1e-8 * np.linalg.norm(sp.c), trial
            f_star = rpc_objective(sp, sol.x, rho)
            for _ in range(50):
                probe = sol.x * (1.0 + 1e-3 * rng.standard_normal(N))
                assert rpc_objective(sp, probe, rho) >= f_star - 1e-12 * abs(f_star), trial

    def test_near_the_null_corner(self):
        self._near_corner_sweep(np.random.default_rng(29), 60, rotated=False)

    def test_near_the_null_corner_rotated(self):
        self._near_corner_sweep(np.random.default_rng(30), 300, rotated=True)

    def test_one_column_root_found_while_bracketing(self):
        # for N = 1 the root is exactly the bracket's end sigma_max, so no
        # iteration runs, and x = c / (||P|| + rho)^2 in closed form
        rng = np.random.default_rng(27)
        for trial in range(12):
            m = int(rng.integers(1, 30))
            sp = SketchedProblem(
                P=rng.standard_normal((m, 1)), q=np.zeros(m), c=rng.standard_normal(1)
            )
            rho = float(10.0 ** rng.uniform(-3, 2))
            sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=rho))
            assert sol.newton_iters_total == 0
            x_exact = sp.c / (np.linalg.norm(sp.P) + rho) ** 2
            assert_allclose(sol.x, x_exact, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-155])
    def test_data_scaled_near_the_limits(self, scale):
        # c = A^T b carries the square of the scale, so squaring its entries
        # under- or overflows; with rho scaled like P neither rpc nor
        # robust-cls (rpc on [P q]) moves its minimizer. At 1e-155 robust-cls
        # needs its common scale of [P q] and rho, or x~ leaves the range,
        # and c is subnormal, so its small entries carry fewer digits
        problem = generate_synthetic(200, 8, 1e2, "incoherent", 0)
        op = make_sketch(SketchSpec(kind="count", m=32, M=200, seed=1))
        scaled = LSProblem(A=scale * problem.A, b=scale * problem.b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_rpc(scaled, op, RpcParams(rho=scale))
            x_robust = solve_robust_cls(SketchedProblem.from_problem(scaled, op), scale)
        assert sol.converged
        sp = SketchedProblem.from_problem(problem, op)
        for x, x_ref in (
            (sol.x, solve_rpc(problem, op, RpcParams(rho=1.0)).x),
            (x_robust, solve_robust_cls(sp, 1.0)),
        ):
            assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize(
        "kwargs", [{"_BRENT_MAXITER": 1}, {"_BRENT_RTOL": 1e-3, "_GAP_BOUND": 1e-14}]
    )
    def test_failed_solve_reports_gamma_and_gap(self, monkeypatch, kwargs):
        # out of iterations, or a root too loose for the gap check
        for name, value in kwargs.items():
            monkeypatch.setattr(rpc, name, value)
        sp = random_sketched(np.random.default_rng(26), 12, 4)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=1.0))
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["gamma"] > 0 and abs(diagnostics["gap"]) > rpc._GAP_BOUND

    def test_solution_serializes(self):
        sol = solve_rpc_sketched(DESK, b_norm=1.0, params=RpcParams(rho=1.0))
        data = sol.to_dict()
        assert data["converged"] is True
        assert data["x"] == pytest.approx([0.25], abs=1e-10)
        assert isinstance(data["outer_iters"], int)


class TestOracle:
    def test_desk_case(self):
        x, value = rpc_oracle(DESK, rho=1.0)
        assert x[0] == pytest.approx(0.25, abs=1e-8)
        assert value == pytest.approx(-0.125, abs=1e-12)

    def test_zero_linear_term(self):
        rng = np.random.default_rng(22)
        sp = random_sketched(rng, 8, 3)
        sp = SketchedProblem(P=sp.P, q=sp.q, c=np.zeros(3))
        x, value = rpc_oracle(sp, rho=1.0)
        assert np.array_equal(x, np.zeros(3)) and value == 0.0

    def test_local_minimality_probe(self):
        rng = np.random.default_rng(23)
        sp = random_sketched(rng, 12, 4)
        x, value = rpc_oracle(sp, rho=1.0)
        norm = np.linalg.norm(x)
        for _ in range(100):
            delta = rng.standard_normal(4)
            delta *= 1e-3 * norm / np.linalg.norm(delta)
            assert rpc_objective(sp, x + delta, 1.0) >= value - 1e-12

    def test_agrees_with_dual_search(self):
        rng = np.random.default_rng(24)
        for trial in range(10):
            sp = random_sketched(rng, 15, int(rng.integers(1, 8)))
            rho = float(rng.choice([0.3, 1.0, 2.5]))
            sol = solve_rpc_sketched(sp, b_norm=2.0, params=RpcParams(rho=rho))
            x_oracle, f_oracle = rpc_oracle(sp, rho=rho)
            f_dual = rpc_objective(sp, sol.x, rho)
            assert f_dual <= f_oracle + 1e-6 * (1 + abs(f_oracle))
            assert stationarity_residual(sp, x_oracle, rho) <= 1e-9 * np.linalg.norm(sp.c)

    def test_agrees_on_ill_conditioned_sketches(self):
        # cond(P) from 1 to 1e10 and rho from 1e-4 to 1e2: a Gram matrix
        # formed from such P rounds the ridge weight away
        rng = np.random.default_rng(31)
        for trial in range(100):
            N = int(rng.integers(1, 11))
            m = N + int(rng.integers(0, 6))
            sigma = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 10), N)
            P = (haar(rng, m, N) * sigma) @ haar(rng, N, N).T
            sp = SketchedProblem(P=P, q=np.zeros(m), c=rng.standard_normal(N))
            rho = float(10.0 ** rng.uniform(-4, 2))
            sol = solve_rpc_sketched(sp, b_norm=1.0, params=RpcParams(rho=rho))
            f = rpc_objective(sp, sol.x, rho)
            _, f_oracle = rpc_oracle(sp, rho)
            assert abs(f - f_oracle) <= 1e-6 * (1 + abs(f)), trial

    def test_raises_at_the_null_corner(self):
        # test_rank_deficient_null_corner's instance, and P = 0: P x = 0 at
        # the optimum
        rng = np.random.default_rng(21)
        U, _, Vt = np.linalg.svd(rng.standard_normal((10, 4)), full_matrices=False)
        P = (U * np.array([3.0, 2.0, 0.0, 0.0])) @ Vt
        c = Vt.T @ np.array([0.5, 0.2, 4.0, 3.0])
        for P in (P, np.zeros((10, 4))):
            with pytest.raises(DegenerateInstanceError):
                rpc_oracle(SketchedProblem(P=P, q=np.zeros(10), c=c), rho=1.0)

    def test_seeded_sweep_with_zero_singular_values(self):
        rng = np.random.default_rng(25)
        for trial in range(40):
            N = int(rng.integers(1, 9))
            m = N + int(rng.integers(0, 6))
            U, _, Vt = np.linalg.svd(rng.standard_normal((m, N)), full_matrices=False)
            sigma = np.sort(rng.uniform(0.1, 3.0, N))[::-1]
            if trial % 3 == 0:
                sigma[N - int(rng.integers(1, N + 1)):] = 0.0
            sp = SketchedProblem(P=(U * sigma) @ Vt, q=np.zeros(m), c=rng.standard_normal(N))
            params = RpcParams(rho=float(rng.choice([1e-3, 1.0, 1e2])))
            sol = solve_rpc_sketched(sp, b_norm=1.0, params=params)
            assert sol.converged
            assert sol.foc_residual <= 1e-8 * np.linalg.norm(sp.c)
            if math.isinf(sol.gamma):
                continue  # null corner: P x = 0, where the oracle cannot run
            # normalization gap: gamma ||P x|| / ||x|| = 1
            assert abs(sol.gamma * sol.alpha / sol.beta - 1.0) <= rpc._GAP_BOUND
            _, f_oracle = rpc_oracle(sp, rho=params.rho)
            f = rpc_objective(sp, sol.x, params.rho)
            assert abs(f - f_oracle) <= 1e-6 * (1 + abs(f_oracle))
