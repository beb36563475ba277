"""Acceptance gates for the toolkit.

Every test checks one release criterion at its stated tolerance and prints a
single ``[A##] name: PASS/FAIL`` line (run with ``pytest -s`` to see them).
Criteria with a runtime budget enforce it.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from sketchls import (
    LSProblem,
    RpcParams,
    SketchSpec,
    SketchedProblem,
    blendenpik_preconditioner,
    cls_error_decomposition,
    eps_optimality,
    identity_sketch,
    make_sketch,
    preconditioned_lsqr,
    profile_quantile,
    rpc_objective,
    rpc_objective_gradient,
    rpc_oracle,
    solve_cls,
    solve_ols,
    solve_pcls,
    solve_rpc,
    solve_rpc_sketched,
    stationarity_residual,
    worst_case_objective,
    worst_case_perturbation,
)
from sketchls.cli import main as cli_main
from sketchls.harness import generate_synthetic
from sketchls.solvers import GramSolver


class Gate:
    """Collects tolerance violations and prints one status line."""

    def __init__(self, cid, name, budget_seconds=None):
        self.cid = cid
        self.name = name
        self.budget = budget_seconds
        self.failures = []
        self.start = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        if self.budget is not None and elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds budget {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[{self.cid}] {self.name}: {status} ({elapsed:.1f}s)")
        assert not self.failures, "; ".join(self.failures[:5])


def test_a01_worst_case_bound_tightness():
    gate = Gate("A01", "worst-case perturbation attains the bound", budget_seconds=10)
    rng = np.random.default_rng(101)
    radii = [0.1, 1.0, 10.0]
    for case in range(200):
        P = rng.standard_normal((20, 6))
        x = rng.standard_normal(6)
        rho = radii[case % 3]
        bound = worst_case_objective(P, x, rho)
        dP = worst_case_perturbation(P, x, rho)
        fro = np.linalg.norm(dP, "fro")
        gate.check(abs(fro - rho) <= 1e-10 * rho, f"case {case}: |dP|_F = {fro} != {rho}")
        attained = np.linalg.norm((P + dP) @ x) ** 2
        gate.check(
            abs(attained - bound) <= 1e-10 * bound,
            f"case {case}: attained {attained} vs bound {bound}",
        )
        for probe in range(5):  # 1000 feasible perturbations across the 200 cases
            raw = rng.standard_normal((20, 6))
            feasible = raw * (rho / np.linalg.norm(raw, "fro"))
            value = np.linalg.norm((P + feasible) @ x) ** 2
            gate.check(
                value <= bound * (1 + 1e-12),
                f"case {case}, probe {probe}: feasible perturbation beats the bound",
            )
    gate.finish()


def test_a02_fixed_point_consistency():
    gate = Gate("A02", "robust solve satisfies its fixed-point structure", budget_seconds=30)
    rng = np.random.default_rng(202)
    rho = 1.0
    for trial in range(50):
        A = rng.standard_normal((500, 20))
        b = rng.standard_normal(500)
        problem = LSProblem(A=A, b=b)
        op = make_sketch(SketchSpec(kind="gaussian", m=100, M=500, seed=trial))
        sol = solve_rpc(problem, op, RpcParams(rho=rho))
        gate.check(sol.converged, f"trial {trial}: did not converge")
        sp = SketchedProblem.from_problem(problem, op)
        alpha_true = np.linalg.norm(sp.P @ sol.x)
        beta_true = np.linalg.norm(sol.x)
        gate.check(abs(sol.alpha - alpha_true) <= 1e-6 * sol.alpha, f"trial {trial}: alpha")
        gate.check(abs(sol.beta - beta_true) <= 1e-6 * sol.beta, f"trial {trial}: beta")
        gate.check(
            abs(sol.tau - (sol.alpha + rho * sol.beta)) <= 1e-6 * sol.tau,
            f"trial {trial}: tau != alpha + rho beta",
        )
        gate.check(
            sol.foc_residual <= 1e-6 * np.linalg.norm(sp.c),
            f"trial {trial}: certificate {sol.foc_residual:.2e}",
        )
        # off the corner foc_residual is the scalar equation's residual; x itself
        # is checked in x-space
        foc_x = stationarity_residual(sp, sol.x, rho)
        gate.check(
            foc_x <= 1e-6 * np.linalg.norm(sp.c),
            f"trial {trial}: stationarity residual {foc_x:.2e}",
        )
    gate.finish()


def test_a03_oracle_equivalence():
    gate = Gate("A03", "dual search matches the reference minimizer", budget_seconds=10)
    rng = np.random.default_rng(303)
    for trial in range(20):
        N = int(rng.integers(1, 11))
        m = int(rng.integers(N, 3 * N + 5))
        sp = SketchedProblem(
            P=rng.standard_normal((m, N)),
            q=rng.standard_normal(m),
            c=rng.standard_normal(N),
        )
        rho = float(rng.choice([0.5, 1.0, 2.0]))
        sol = solve_rpc_sketched(sp, b_norm=2.0, params=RpcParams(rho=rho))
        _, f_oracle = rpc_oracle(sp, rho)
        f_dual = rpc_objective(sp, sol.x, rho)
        gate.check(
            abs(f_dual - f_oracle) <= 1e-6 * (1 + abs(f_oracle)),
            f"trial {trial}: dual {f_dual} vs oracle {f_oracle}",
        )
    desk = SketchedProblem(P=np.array([[1.0]]), q=np.array([1.0]), c=np.array([1.0]))
    sol = solve_rpc_sketched(desk, b_norm=1.0, params=RpcParams(rho=1.0))
    gate.check(abs(sol.x[0] - 0.25) <= 1e-8, f"scalar case x = {sol.x[0]}")
    gate.check(
        abs(rpc_objective(desk, sol.x, 1.0) + 0.125) <= 1e-8,
        "scalar case objective != -1/8",
    )
    x_o, f_o = rpc_oracle(desk, 1.0)
    gate.check(abs(x_o[0] - 0.25) <= 1e-8 and abs(f_o + 0.125) <= 1e-8, "oracle scalar case")
    gate.finish()


def test_a04_degenerate_and_limit_cases():
    gate = Gate("A04", "degenerate and limit cases")
    # orthogonal right-hand side: exact zero solution
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    problem = LSProblem(A=A, b=np.array([0.0, 0.0, 5.0]))
    sol = solve_rpc(problem, identity_sketch(3), RpcParams(rho=1.0))
    gate.check(np.array_equal(sol.x, np.zeros(2)), "orthogonal rhs gave nonzero x")

    # vanishing robustness radius reduces to partial compression
    rng = np.random.default_rng(404)
    Q1, _ = np.linalg.qr(rng.standard_normal((200, 8)))
    Q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    A = (Q1 * np.geomspace(1.0, 0.2, 8)) @ Q2.T
    problem = LSProblem(A=A, b=rng.standard_normal(200))
    op = make_sketch(SketchSpec(kind="gaussian", m=80, M=200, seed=5))
    sol = solve_rpc(problem, op, RpcParams(rho=1e-8))
    x_pcls = solve_pcls(SketchedProblem.from_problem(problem, op))
    gate.check(
        np.linalg.norm(sol.x - x_pcls) <= 1e-5 * np.linalg.norm(x_pcls),
        "rho -> 0 limit does not match partial compression",
    )

    # identity compression: every sketched estimator equals the full solve
    problem = LSProblem(A=rng.standard_normal((60, 5)), b=rng.standard_normal(60))
    sp = SketchedProblem.from_problem(problem, identity_sketch(60))
    x_ls = solve_ols(problem)
    scale = np.linalg.norm(x_ls)
    gate.check(np.linalg.norm(solve_cls(sp) - x_ls) <= 1e-10 * scale, "CLS != OLS at Phi = I")
    gate.check(np.linalg.norm(solve_pcls(sp) - x_ls) <= 1e-10 * scale, "PCLS != OLS at Phi = I")
    gate.finish()


def test_a05_error_decomposition_identities():
    gate = Gate("A05", "additive and multiplicative error identities", budget_seconds=30)
    rng = np.random.default_rng(505)
    for kind in ("gaussian", "ros", "count"):
        for trial in range(50):
            problem = LSProblem(
                A=rng.standard_normal((120, 6)), b=rng.standard_normal(120)
            )
            op = make_sketch(SketchSpec(kind=kind, m=36, M=120, seed=trial))
            lhs, rhs = cls_error_decomposition(problem, op)
            gate.check(
                np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs),
                f"{kind} trial {trial}: additive identity",
            )
            sp = SketchedProblem.from_problem(problem, op)
            x_ls = solve_ols(problem)
            expected = GramSolver(sp.P).solve(problem.A.T @ (problem.A @ x_ls))
            x_pcls = solve_pcls(sp)
            gate.check(
                np.linalg.norm(x_pcls - expected) <= 1e-8 * np.linalg.norm(x_pcls),
                f"{kind} trial {trial}: multiplicative identity",
            )
    gate.finish()


def test_a06_sketch_unbiasedness():
    gate = Gate("A06", "compression operators are unbiased")
    M, m, reps = 64, 32, 2000
    for kind in ("gaussian", "ros", "count"):
        acc = np.zeros((M, M))
        for seed in range(reps):
            dense = make_sketch(SketchSpec(kind=kind, m=m, M=M, seed=seed)).materialize()
            gram = dense.T @ dense
            acc += gram
            if kind == "count":
                gate.check(
                    np.array_equal(np.diag(gram), np.ones(M)),
                    f"count seed {seed}: diagonal not exactly one",
                )
        deviation = np.abs(acc / reps - np.eye(M)).max()
        gate.check(deviation <= 0.05, f"{kind}: mean Gram off identity by {deviation:.3f}")
    full = make_sketch(SketchSpec(kind="ros", m=M, M=M, seed=1)).materialize()
    gate.check(
        np.abs(full.T @ full - np.eye(M)).max() <= 1e-10,
        "full-size orthogonal-system sketch is not orthogonal",
    )
    gate.finish()


def test_a07_secular_newton_solver():
    gate = Gate("A07", "secular Newton root finder")
    rng = np.random.default_rng(707)
    # scalar closed form: gamma = 1 / sigma and x = bb / (sigma + rho)^2
    for trial in range(50):
        sigma = float(rng.uniform(0.3, 3.0))
        bb = float(rng.uniform(0.5, 4.0))
        rho = float(rng.uniform(0.1, 2.0))
        sp = SketchedProblem(P=np.array([[sigma]]), q=np.zeros(1), c=np.array([bb]))
        sol = solve_rpc_sketched(sp, 0.0, RpcParams(rho=rho))
        x_expected = bb / (sigma + rho) ** 2
        gate.check(
            abs(sol.gamma - 1.0 / sigma) <= 1e-10 * max(1.0, 1.0 / sigma)
            and abs(sol.x[0] - x_expected) <= 1e-10 * max(1.0, x_expected),
            f"scalar trial {trial}: gamma {sol.gamma}, x {sol.x[0]} vs {1.0 / sigma}, {x_expected}",
        )
    # six-dimensional roots of h(gamma) against a pure-bisection search
    for trial in range(25):
        sigma = np.sort(rng.uniform(0.2, 4.0, 6))[::-1]
        bb = rng.standard_normal(6)
        rho = float(rng.uniform(0.2, 2.0))
        sp = SketchedProblem(P=np.diag(sigma), q=np.zeros(6), c=bb)
        gamma = solve_rpc_sketched(sp, 0.0, RpcParams(rho=rho)).gamma
        d = sigma**2
        h = lambda g: float(np.sum(bb**2 * (1.0 - g**2 * d) / (g * d + rho) ** 2))
        lo, hi = 0.0, 1.0
        while h(hi) >= 0:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if h(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        gate.check(
            abs(gamma - oracle) <= 1e-10 * max(1.0, oracle),
            f"trial {trial}: newton {gamma} vs bisection {oracle}",
        )
    gate.finish()


def test_a08_partial_beats_full_compression_with_large_residual():
    gate = Gate("A08", "partial compression beats full at large residual")
    problem = generate_synthetic(
        3000, 75, condition=1e4, coherence="incoherent", seed=808, residual_fraction=2.0
    )
    x_ls = solve_ols(problem)
    residual_ls = np.linalg.norm(problem.A @ x_ls - problem.b)
    c = problem.A.T @ problem.b
    acc_pcls, acc_cls = [], []
    for seed in range(50):
        op = make_sketch(SketchSpec(kind="ros", m=750, M=3000, seed=seed))
        sp = SketchedProblem(P=op.apply(problem.A), q=op.apply(problem.b), c=c)
        acc_cls.append(np.linalg.norm(problem.A @ solve_cls(sp) - problem.b) / residual_ls - 1)
        acc_pcls.append(np.linalg.norm(problem.A @ solve_pcls(sp) - problem.b) / residual_ls - 1)
    med_pcls, med_cls = np.median(acc_pcls), np.median(acc_cls)
    gate.check(
        med_pcls < med_cls,
        f"median accuracy pcls {med_pcls:.4f} not below cls {med_cls:.4f}",
    )
    gate.finish()


def gaussian_pcls_rms_eps(m, N):
    """Exact RMS eps-optimality of partial compression with a Gaussian sketch.

    Write A = QR with Q^T Q = I and g = Q^T b. For the ``gaussian`` kind
    (i.i.d. N(0, 1/m) entries) Phi Q is itself an m x N Gaussian with entry
    variance 1/m, so S = m (Phi Q)^T (Phi Q) ~ Wishart_N(m, I) and

        xhat - x_ls = R^{-1} (m S^{-1} - I) g,   eps = ||(m S^{-1} - I) g|| / ||g||,

    whatever A and b are. The inverse-Wishart moments (Muirhead 1982, 3.2)

        E S^{-1} = I / (m - N - 1)
        E S^{-2} = (m - 1) / ((m - N)(m - N - 1)(m - N - 3)) I

    give E eps^2 = m^2 E S^{-2} - 2 m E S^{-1} + 1 along any unit g. The
    first-order trend sqrt((N + 1) / m) holds only for m >> N; at m = 4N
    the mean bias m / (m - N - 1) of S^{-1} and its extra variance push the
    exact value well above it. Exact for the ``gaussian`` kind only.
    """
    mean_sq = (
        m * m * (m - 1) / ((m - N) * (m - N - 1) * (m - N - 3)) - 2 * m / (m - N - 1) + 1
    )
    return math.sqrt(mean_sq)


def test_a09_eps_optimality_scaling():
    gate = Gate("A09", "eps-optimality scaling across sketch sizes", budget_seconds=120)
    problem = generate_synthetic(
        2000, 50, condition=100.0, coherence="incoherent", seed=909, residual_fraction=0.5
    )
    x_ls = solve_ols(problem)
    c = problem.A.T @ problem.b
    rms, exact = {}, {}

    def eps_of(m, trial):
        op = make_sketch(SketchSpec(kind="gaussian", m=m, M=2000, seed=10_000 * m + trial))
        sp = SketchedProblem(P=op.apply(problem.A), q=np.zeros(m), c=c)
        return eps_optimality(solve_pcls(sp), problem, x_ls)

    for m in (200, 800):  # 4N and 16N
        # each trial draws its own seeded Phi, in one block at M = 2,000, so
        # two threads share the trials; map keeps them in trial order
        with ThreadPoolExecutor(2) as pool:
            values = list(pool.map(partial(eps_of, m), range(200)))
        rms[m] = float(np.sqrt(np.mean(np.square(values))))
        # a 200-trial RMS spreads by 1.4% (m = 4N) and 1.0% (m = 16N)
        exact[m] = gaussian_pcls_rms_eps(m, problem.N)
        gate.check(
            abs(rms[m] / exact[m] - 1) <= 0.06,
            f"m={m}: RMS eps {rms[m]:.4f} not within 6% of exact {exact[m]:.4f}",
        )
    ratio = rms[200] / rms[800]
    expected_ratio = exact[200] / exact[800]
    gate.check(
        abs(ratio / expected_ratio - 1) <= 0.06,
        f"RMS eps ratio {ratio:.3f} not within 6% of exact {expected_ratio:.3f}",
    )
    gate.finish()


def test_a10_robustness_helps_at_extreme_compression():
    gate = Gate("A10", "robust solve beats plain partial at tiny sketch sizes")
    problem = generate_synthetic(
        500, 20, condition=100.0, coherence="incoherent", seed=1010, residual_fraction=0.5
    )
    x_ls = solve_ols(problem)
    residual_ls = np.linalg.norm(problem.A @ x_ls - problem.b)
    c = problem.A.T @ problem.b
    b_norm = np.linalg.norm(problem.b)
    acc_rpc, acc_pcls = [], []
    for trial in range(200):
        op = make_sketch(SketchSpec(kind="gaussian", m=25, M=500, seed=trial))
        sp = SketchedProblem(P=op.apply(problem.A), q=op.apply(problem.b), c=c)
        sol = solve_rpc_sketched(sp, b_norm, RpcParams(rho=1.0))
        acc_rpc.append(np.linalg.norm(problem.A @ sol.x - problem.b) / residual_ls - 1)
        acc_pcls.append(np.linalg.norm(problem.A @ solve_pcls(sp) - problem.b) / residual_ls - 1)
    q90_rpc = float(np.percentile(acc_rpc, 90))
    q90_pcls = float(np.percentile(acc_pcls, 90))
    gate.check(
        q90_rpc < q90_pcls,
        f"90th percentile rpc {q90_rpc:.3f} not below pcls {q90_pcls:.3f}",
    )
    gate.finish()


def test_a11_preconditioned_lsqr_baseline():
    gate = Gate("A11", "sketch-preconditioned LSQR baseline")
    problem = generate_synthetic(
        2000, 50, condition=1e6, coherence="incoherent", seed=1111, residual_fraction=0.5
    )
    x_ls = solve_ols(problem, "factorized")
    tol = 1e-9
    op = make_sketch(SketchSpec(kind="gaussian", m=200, M=2000, seed=3))
    R = blendenpik_preconditioner(op.apply(problem.A))
    x, iters, converged = preconditioned_lsqr(problem.A, problem.b, R=R, tol=tol, max_iter=100)
    gate.check(converged, "preconditioned run did not converge in 100 iterations")
    gate.check(iters <= 100, f"preconditioned run took {iters} iterations")
    eps = eps_optimality(x, problem, x_ls)
    gate.check(eps <= 1e-6, f"preconditioned eps-optimality {eps:.2e} above 1e-6")
    _, iters_raw, converged_raw = preconditioned_lsqr(
        problem.A, problem.b, R=None, tol=tol, max_iter=100
    )
    gate.check(
        not converged_raw and iters_raw >= 100,
        f"unpreconditioned run converged in {iters_raw} iterations",
    )
    gate.finish()


def test_a12_profile_cli(tmp_path, capsys):
    gate = Gate("A12", "profile subcommand emits the sorted CDF")
    records = tmp_path / "records.jsonl"
    with open(records, "w") as handle:
        for i, acc in enumerate([0.04, 0.00, 0.02]):
            handle.write(json.dumps({
                "config_hash": "h", "method": "pcls", "sketch": "ros", "m": 10,
                "trial": i, "seed": i, "relative_accuracy": acc,
                "eps_optimality": 0.0, "timings": {}, "error": None,
            }) + "\n")
    out = tmp_path / "profile.csv"
    code = cli_main(["profile", "--records", str(records), "--out", str(out)])
    capsys.readouterr()
    gate.check(code == 0, "profile command failed")
    lines = out.read_text().splitlines()
    gate.check(lines[0] == "group,fraction,value", "missing header")
    rows = [line.split(",") for line in lines[1:]]
    gate.check(len(rows) == 3, f"expected exactly 3 rows, got {len(rows)}")
    values = [float(r[2]) for r in rows]
    fractions = [float(r[1]) for r in rows]
    gate.check(values == sorted(values) and values == [1.00, 1.02, 1.04], f"values {values}")
    expected_fracs = [1 / 3, 2 / 3, 1.0]
    gate.check(
        all(abs(f - e) <= 1e-9 for f, e in zip(fractions, expected_fracs)),
        f"fractions {fractions}",
    )
    profile = list(zip(fractions, values))
    gate.check(
        profile_quantile(profile, 0.5) == 1.02,
        "fraction-0.5 entry is not the median of the odd-length input",
    )
    gate.finish()


def test_a13_objective_gradient_check():
    gate = Gate("A13", "analytic gradient matches finite differences")
    rng = np.random.default_rng(1313)
    sp = SketchedProblem(
        P=rng.standard_normal((30, 8)), q=rng.standard_normal(30), c=rng.standard_normal(8)
    )
    rho = 1.0
    for point in range(20):
        x = rng.standard_normal(8) * float(rng.choice([0.1, 1.0, 10.0]))
        grad = rpc_objective_gradient(sp, x, rho)
        fd = np.zeros(8)
        h = 1e-6 * max(1.0, np.linalg.norm(x))
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd[i] = (rpc_objective(sp, x + e, rho) - rpc_objective(sp, x - e, rho)) / (2 * h)
        err = np.linalg.norm(grad - fd)
        gate.check(
            err <= 1e-5 * max(np.linalg.norm(grad), 1e-8),
            f"point {point}: gradient mismatch {err:.2e}",
        )
    gate.finish()
