import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import planted_problem, random_problem
from sketchls import (
    ConvergenceError,
    DegenerateInstanceError,
    LSProblem,
    RpcParams,
    SecularNoRootError,
    SketchSpec,
    SketchedProblem,
    SpectralData,
    dual_inner_objective,
    identity_sketch,
    make_sketch,
    newton_gamma,
    rpc_objective,
    rpc_objective_gradient,
    rpc_oracle,
    secular_phi,
    solve_pcls,
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
        assert p.rho == 1.0 and p.eps == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": -0.5},
            {"eps": 0.0},
            {"eps": 1.5},
            {"newton_tol": 0.0},
            {"max_outer": 0},
            {"max_newton": 0},
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

    def test_dual_inner_objective_positively_homogeneous(self):
        rng = np.random.default_rng(7)
        sp = random_sketched(rng, 8, 4)
        x = rng.standard_normal(4)
        h1 = dual_inner_objective(sp, x, rho=0.9, tau=1.3)
        for s in (0.25, 2.0, 17.0):
            assert dual_inner_objective(sp, s * x, 0.9, 1.3) == pytest.approx(s * h1, rel=1e-12)


class TestSecular:
    def spectral_for(self, sigma):
        N = len(sigma)
        return SpectralData(U=np.eye(N), sigma=np.asarray(sigma, dtype=float), V=np.eye(N))

    def test_zero_coefficients(self):
        sd = self.spectral_for([2.0, 1.0])
        value, slope = secular_phi(sd, np.zeros(2), rho=1.0, tau=1.0, gamma=0.5)
        assert value == -1.0 and slope == 0.0

    def test_hand_computed_point(self):
        sd = self.spectral_for([1.0])
        value, slope = secular_phi(sd, [2.0], rho=1.0, tau=1.0, gamma=1.0)
        assert value == pytest.approx(0.0)
        assert slope == pytest.approx(-1.0)

    def test_large_gamma_limit(self):
        sd = self.spectral_for([2.0, 0.5])
        value, _ = secular_phi(sd, [1.0, 1.0], rho=1.0, tau=1.0, gamma=1e12)
        assert value == pytest.approx(-1.0, abs=1e-10)

    def test_slope_nonpositive_on_grid(self):
        rng = np.random.default_rng(8)
        sd = self.spectral_for(np.sort(rng.uniform(0.1, 3.0, 5))[::-1])
        bb = rng.standard_normal(5)
        for gamma in np.geomspace(1e-6, 1e6, 25):
            _, slope = secular_phi(sd, bb, rho=0.8, tau=1.1, gamma=gamma)
            assert slope <= 0.0

    def test_strictly_decreasing_when_mass_on_positive_sigma(self):
        rng = np.random.default_rng(9)
        sd = self.spectral_for([2.0, 1.0, 0.5])
        bb = rng.standard_normal(3)
        grid = np.linspace(0.0, 10.0, 40)
        values = [secular_phi(sd, bb, 1.0, 1.0, g)[0] for g in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def bisection_gamma_oracle(sigma, bb, rho, tau, tol=1e-14):
    """Pure-bisection root of the secular function (independent of Newton)."""
    d = np.asarray(sigma) ** 2
    bb = np.asarray(bb, dtype=float)

    def phi(g):
        return float(np.sum(bb**2 / (g * d + rho) ** 2)) / tau**2 - 1.0

    lo, hi = 0.0, 1.0
    while phi(hi) >= 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class TestNewtonGamma:
    def test_scalar_closed_form(self):
        sd = SpectralData(U=np.eye(1), sigma=np.array([1.0]), V=np.eye(1))
        gamma = newton_gamma(sd, [2.0], rho=1.0, tau=1.0)
        assert gamma == pytest.approx(1.0, abs=1e-10)  # (|bb|/tau - rho)/sigma^2

    def test_scalar_closed_form_general(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            sigma = float(rng.uniform(0.3, 3.0))
            bb = float(rng.uniform(0.5, 4.0))
            rho = float(rng.uniform(0.1, 2.0))
            tau = float(rng.uniform(0.05, bb / rho))  # keeps phi(0) >= 0
            sd = SpectralData(U=np.eye(1), sigma=np.array([sigma]), V=np.eye(1))
            expected = (bb / tau - rho) / sigma**2
            assert newton_gamma(sd, [bb], rho, tau) == pytest.approx(expected, abs=1e-10)

    def test_invariant_under_joint_scaling(self):
        rng = np.random.default_rng(11)
        sd = SpectralData(U=np.eye(4), sigma=np.array([3.0, 2.0, 1.0, 0.5]), V=np.eye(4))
        bb = rng.standard_normal(4) * 3
        g1 = newton_gamma(sd, bb, rho=1.0, tau=0.7)
        g2 = newton_gamma(sd, 5.0 * bb, rho=1.0, tau=5.0 * 0.7)
        assert g1 == pytest.approx(g2, rel=1e-10)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sigma = np.sort(rng.uniform(0.2, 4.0, 6))[::-1]
            sd = SpectralData(U=np.eye(6), sigma=sigma, V=np.eye(6))
            bb = rng.standard_normal(6)
            rho = float(rng.uniform(0.2, 2.0))
            tau_max = np.linalg.norm(bb) / rho
            tau = float(rng.uniform(0.1, 0.9) * tau_max)
            gamma = newton_gamma(sd, bb, rho, tau)
            oracle = bisection_gamma_oracle(sigma, bb, rho, tau)
            assert abs(gamma - oracle) <= 1e-10 * max(1.0, oracle)

    def test_no_root_signal(self):
        sd = SpectralData(U=np.eye(2), sigma=np.array([1.0, 0.5]), V=np.eye(2))
        with pytest.raises(SecularNoRootError) as excinfo:
            newton_gamma(sd, [0.1, 0.1], rho=1.0, tau=100.0)  # phi(0) < 0
        assert excinfo.value.direction == "decrease"


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
        # the bare multiplicative dual update cycles from this start; the
        # safeguarded search must still converge
        sol = solve_rpc_sketched(DESK, b_norm=3.7, params=RpcParams(rho=1.0))
        assert sol.converged and sol.x[0] == pytest.approx(0.25, abs=1e-10)

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

    @pytest.mark.parametrize(
        "kwargs", [{"max_newton": 1}, {"newton_tol": 1e-3, "eps": 1e-14}]
    )
    def test_failed_solve_reports_gamma_and_gap(self, kwargs):
        # out of Newton steps, or a root too loose for the gap check
        sp = random_sketched(np.random.default_rng(26), 12, 4)
        params = RpcParams(rho=1.0, **kwargs)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_rpc_sketched(sp, b_norm=1.0, params=params)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["gamma"] > 0 and abs(diagnostics["gap"]) > params.eps

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
            assert abs(sol.gamma * sol.alpha / sol.beta - 1.0) <= params.eps
            _, f_oracle = rpc_oracle(sp, rho=params.rho)
            f = rpc_objective(sp, sol.x, params.rho)
            assert abs(f - f_oracle) <= 1e-6 * (1 + abs(f_oracle))
