import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve, qr, svdvals

from helpers import blas_counts, planted_problem, random_problem
from sketchls import (
    DegenerateInstanceError,
    DimensionError,
    LSProblem,
    RankDeficientError,
    SketchedProblem,
    eps_optimality,
    make_report,
    profile_quantile,
    relative_residual_profile,
    solve_ols,
)
from sketchls import core


class TestLSProblem:
    def test_valid_construction(self):
        p = LSProblem(A=np.eye(3), b=np.ones(3))
        assert p.M == 3 and p.N == 3
        assert p.condition_number() == pytest.approx(1.0)

    def test_rejects_wide_matrix(self):
        with pytest.raises(DimensionError):
            LSProblem(A=np.ones((2, 3)), b=np.ones(2))

    def test_rejects_rank_deficient(self):
        A = np.ones((5, 2))  # duplicated column
        with pytest.raises(RankDeficientError):
            LSProblem(A=A, b=np.ones(5))

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(DimensionError):
            LSProblem(A=np.eye(3), b=np.ones(4))

    def test_rejects_nonfinite(self):
        A = np.eye(2)
        with pytest.raises(ValueError):
            LSProblem(A=A, b=np.array([1.0, np.nan]))


class TestSolveOls:
    def test_identity_case(self):
        p = LSProblem(A=np.eye(2), b=np.array([3.0, 4.0]))
        assert_allclose(solve_ols(p), [3.0, 4.0], atol=1e-12)

    def test_column_of_ones_gives_mean(self):
        p = LSProblem(A=np.array([[1.0], [1.0]]), b=np.array([0.0, 2.0]))
        assert_allclose(solve_ols(p), [1.0], atol=1e-12)

    @pytest.mark.parametrize("method", ["factorized", "normal-equations"])
    def test_recovers_planted_solution(self, method):
        problem, x_star = planted_problem(np.random.default_rng(11), 50, 5)
        x = solve_ols(problem, method)
        assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)

    def test_factorized_gradient_contract(self):
        problem, _ = planted_problem(np.random.default_rng(3), 120, 8, condition=1e4)
        x = solve_ols(problem, "factorized")
        grad = problem.A.T @ (problem.A @ x - problem.b)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(problem.A.T @ problem.b)

    def test_normal_equations_gradient_contract(self):
        problem, _ = planted_problem(np.random.default_rng(4), 120, 8, condition=10.0)
        x = solve_ols(problem, "normal-equations")
        grad = problem.A.T @ (problem.A @ x - problem.b)
        assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(problem.A.T @ problem.b)

    @pytest.mark.parametrize("method", ["factorized", "normal-equations"])
    def test_singularity_detected_during_factorization(self, method):
        # bypass the construction gate to reach the defensive in-solver check
        problem = object.__new__(LSProblem)
        problem.A = np.ones((5, 2))
        problem.b = np.ones(5)
        with pytest.raises(RankDeficientError):
            solve_ols(problem, method)

    def test_unknown_method(self):
        p = LSProblem(A=np.eye(2), b=np.ones(2))
        with pytest.raises(ValueError):
            solve_ols(p, "lu")

    def test_ols_objective_is_minimal(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, 60, 7)
        x_ls = solve_ols(problem)
        f_ls = 0.5 * np.linalg.norm(problem.A @ x_ls - problem.b) ** 2
        for _ in range(25):
            x = rng.standard_normal(7) * rng.choice([0.1, 1.0, 10.0])
            f = 0.5 * np.linalg.norm(problem.A @ x - problem.b) ** 2
            assert f >= f_ls - 1e-10

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, 80, 9)
        x_ls = solve_ols(problem)
        grad = problem.A.T @ (problem.b - problem.A @ x_ls)
        bound = 1e-8 * np.linalg.norm(problem.A) * np.linalg.norm(problem.b)
        assert np.linalg.norm(grad) <= bound


class TestEpsOptimality:
    def test_zero_at_reference(self):
        problem, x_star = planted_problem(np.random.default_rng(8), 30, 4)
        assert eps_optimality(x_star, problem, x_star) == 0.0

    def test_unit_perturbation(self):
        p = LSProblem(A=np.eye(2), b=np.zeros(2))
        assert eps_optimality([1.0, 1.0], p, [1.0, 0.0]) == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        problem, x_star = planted_problem(rng, 40, 5)
        xhat = x_star + 0.01 * rng.standard_normal(5)
        expected = np.linalg.norm(problem.A @ (xhat - x_star)) / np.linalg.norm(
            problem.A @ x_star
        )
        assert eps_optimality(xhat, problem, x_star) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_reference(self):
        p = LSProblem(A=np.eye(2), b=np.ones(2))
        with pytest.raises(DegenerateInstanceError):
            eps_optimality([1.0, 1.0], p, [0.0, 0.0])


class TestProfile:
    def test_singleton(self):
        assert relative_residual_profile([1.02]) == [(1.0, 1.02)]

    def test_sorts_three_values(self):
        prof = relative_residual_profile([1.04, 1.00, 1.02])
        assert prof == [(1 / 3, 1.00), (2 / 3, 1.02), (1.0, 1.04)]

    def test_monotone_in_both_coordinates(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(1.0, 2.0, size=37)
        prof = relative_residual_profile(values)
        fracs = [f for f, _ in prof]
        vals = [v for _, v in prof]
        assert fracs == sorted(fracs) and vals == sorted(vals)
        assert fracs == [pytest.approx((k + 1) / 37) for k in range(37)]

    def test_median_lookup_odd(self):
        prof = relative_residual_profile([1.04, 1.00, 1.02])
        assert profile_quantile(prof, 0.5) == pytest.approx(1.02)

    def test_median_lookup_even_uses_lower(self):
        prof = relative_residual_profile([4.0, 2.0, 3.0, 1.0])
        assert profile_quantile(prof, 0.5) == pytest.approx(2.0)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            relative_residual_profile([])
        with pytest.raises(ValueError):
            relative_residual_profile([1.0, -0.5])


def spectral(P):
    """``SketchedProblem.spectral`` of P, as (sigma, V)."""
    return SketchedProblem(P=P, q=np.zeros(P.shape[0]), c=np.zeros(P.shape[1])).spectral


class TestSpectralData:
    def test_round_trip(self):
        # sigma and V come from the R of a QR of P; at m = N and m = N + 1 an
        # SVD of P itself would not QR first, so their last bits differ
        rng = np.random.default_rng(12)
        inputs = [rng.standard_normal(shape) for shape in ((40, 6), (6, 6), (7, 6), (12, 5))]
        inputs[-1][:, 2] = 0.0  # rank deficient
        for P in inputs:
            sigma, V = spectral(P)
            tol = 1e-12 * sigma[0]
            assert_allclose(sigma, svdvals(P), rtol=0.0, atol=tol)
            assert_allclose(np.linalg.norm(P @ V, axis=0), sigma, rtol=0.0, atol=tol)
            assert np.abs(V.T @ V - np.eye(P.shape[1])).max() <= 1e-12
            assert np.all(np.diff(sigma) <= 0) and np.all(sigma >= 0)

    def test_requires_tall_matrix(self):
        with pytest.raises(DimensionError):
            spectral(np.ones((2, 5)))


class TestReport:
    def test_reference_scores_zero(self):
        problem, _ = planted_problem(np.random.default_rng(13), 30, 4)
        x_ls = solve_ols(problem)
        report = make_report(problem, x_ls, x_ls, "ols", {"solve": 0.5})
        assert report.relative_accuracy == pytest.approx(0.0, abs=1e-10)
        assert report.eps_optimality == pytest.approx(0.0, abs=1e-12)
        assert report.relative_accuracy >= -1e-10
        assert report.total_time() == pytest.approx(0.5)
        assert report.to_dict()["method"] == "ols"

    def test_worse_solution_scores_positive(self):
        problem, _ = planted_problem(np.random.default_rng(14), 30, 4)
        x_ls = solve_ols(problem)
        report = make_report(problem, x_ls, x_ls + 0.1, "pcls")
        assert report.relative_accuracy > 0
        assert report.eps_optimality > 0

    def test_consistent_system(self):
        # b in range(A) with a QR that rounds nothing: the residual at x_ls
        # is exactly 0, so any clearly nonzero residual is infinitely worse
        A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        problem = LSProblem(A=A, b=np.array([1.0, 2.0, 0.0]))
        x_ls = solve_ols(problem)
        assert make_report(problem, x_ls, x_ls, "ols").relative_accuracy == 0.0
        assert make_report(problem, x_ls, x_ls + 0.1, "pcls").relative_accuracy == math.inf

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    def test_scores_do_not_depend_on_scale(self, scale):
        # squares of these norms under- or overflow; the scores must not
        rng = np.random.default_rng(15)
        A, b = rng.standard_normal((40, 5)), rng.standard_normal(40)

        def scores(problem):
            x_ls = solve_ols(problem)
            report = make_report(problem, x_ls, 1.001 * x_ls, "pcls")
            return report.eps_optimality, report.relative_accuracy

        eps, rel = scores(LSProblem(A=A, b=b))
        eps_scaled, rel_scaled = scores(LSProblem(A=scale * A, b=scale * b))
        assert eps_scaled == pytest.approx(eps, rel=1e-12)
        assert rel_scaled == pytest.approx(rel, abs=1e-12)


class TestOneFactor:
    """Every exact quantity comes from the QR factor of [A b]; check each
    against its direct formula on A."""

    @pytest.mark.parametrize("M, N, consistent", [
        (60, 7, False), (200, 12, False), (9, 9, False), (9, 9, True), (50, 6, True),
    ])
    def test_matches_direct_formulas(self, M, N, consistent):
        self.check_direct_formulas(M, N, consistent)

    # budget 0 splits [A b] into blocks of the 4(N+1)-row floor: 2, 4 and 2
    # blocks, and 5 for 131 x 7, whose last block has 3 < N+1 rows
    @pytest.mark.parametrize("M, N, consistent", [
        (60, 7, False), (200, 12, False), (50, 6, True), (131, 7, False),
    ])
    def test_matches_direct_formulas_across_blocks(self, monkeypatch, M, N, consistent):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        self.check_direct_formulas(M, N, consistent)

    @staticmethod
    def check_direct_formulas(M, N, consistent):
        rng = np.random.default_rng(M * N + consistent)
        A = rng.standard_normal((M, N))
        b = A @ rng.standard_normal(N) if consistent else rng.standard_normal(M)
        problem = LSProblem(A=A, b=b)

        x_ls = solve_ols(problem)
        x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(x_ls - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert problem.condition_number() == pytest.approx(np.linalg.cond(A), rel=1e-10)

        xhat = x_ls + 0.01 * rng.standard_normal(N)
        eps = np.linalg.norm(A @ (xhat - x_ls)) / np.linalg.norm(A @ x_ls)
        assert eps_optimality(xhat, problem, x_ls) == pytest.approx(eps, rel=1e-10)
        report = make_report(problem, x_ls, xhat, "pcls")
        assert report.residual_norm == pytest.approx(np.linalg.norm(A @ xhat - b), rel=1e-10)


class TestTsqr:
    """The QR of [A b] folds blocks of rows on two threads; patching the
    block budget to 0 gives blocks of the 4(N+1)-row floor."""

    # 5 blocks, the last of 3 < N+1 rows; 2 blocks, the caller's one of 3
    # rows; 63 blocks; M == N in one block; and blocks of 50 rows set by the
    # budget, the last of 1 row
    @pytest.mark.parametrize("M, N, budget", [
        (131, 7, 0), (35, 7, 0), (1000, 3, 0), (9, 9, 0), (1001, 4, 16 * 5 * 50),
    ])
    def test_matches_one_householder_qr(self, monkeypatch, M, N, budget):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(M + N)
        A, b = rng.standard_normal((M, N)), rng.standard_normal(M)
        r_aug = LSProblem(A=A, b=b)._r_aug
        ref = qr(np.column_stack([A, b]), mode="r")[0][: N + 1]
        assert r_aug.shape == ref.shape == (min(M, N + 1), N + 1)
        assert np.abs(np.abs(r_aug) - np.abs(ref)).max() <= 1e-13 * np.abs(ref).max()
        assert LSProblem(A=A, b=b)._r_aug.tobytes() == r_aug.tobytes()

    def test_rejects_duplicated_column_across_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        A = np.random.default_rng(16).standard_normal((300, 5))
        A[:, 4] = A[:, 1]
        with pytest.raises(RankDeficientError):
            LSProblem(A=A, b=np.ones(300))

    def test_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        rng = np.random.default_rng(17)
        A = rng.standard_normal((300, 5))
        before = threading.active_count()
        LSProblem(A=A, b=np.ones(300))
        assert threading.active_count() == before
        with pytest.raises(RankDeficientError):
            LSProblem(A=np.ones((300, 5)), b=np.ones(300))
        assert threading.active_count() == before

        caller = threading.current_thread()

        def fail_in_worker(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise RuntimeError("stop in the worker's share")
            return qr(*args, **kwargs)

        monkeypatch.setattr(core, "qr", fail_in_worker)
        with pytest.raises(RuntimeError, match="worker's share"):
            LSProblem(A=A, b=np.ones(300))
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["A in the worker's half", "b in the caller's half"])
    def test_rejects_nonfinite_data_in_either_half(self, monkeypatch, where):
        # 300 x 5 in 13 blocks of 24 rows: row 10 is in the worker's first
        # block, row 290 in the caller's last
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        rng = np.random.default_rng(19)
        A, b = rng.standard_normal((300, 5)), rng.standard_normal(300)
        if where.startswith("A"):
            A[10, 3] = np.nan
        else:
            b[290] = np.inf
        before = threading.active_count()
        with pytest.raises(ValueError, match="^problem data must be finite$"):
            LSProblem(A=A, b=b)
        assert threading.active_count() == before

    def test_construction_stays_within_a_quarter_of_a(self):
        # 17 blocks of at most 1,008 rows; each thread holds one block and
        # an R, where one QR of the whole [A b] copied it
        M, N = 2**14, 64
        rng = np.random.default_rng(18)
        A, b = rng.standard_normal((M, N)), rng.standard_normal(M)
        tracemalloc.start()
        try:
            LSProblem(A=A, b=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * M * N * 8


class TestNormalEquationsPass:
    """``solve_ols(p, "normal-equations")`` sums A_k^T A_k and b_k^T A_k over
    row blocks on two threads; patching the block budget to 0 gives blocks
    of the 512-row floor."""

    @staticmethod
    def layouts(rng, M, N):
        A, b = rng.standard_normal((M, N)), rng.standard_normal(M)
        wide = rng.standard_normal((2 * M, N))
        return {"C": (A, b), "F": (np.asfortranarray(A), b), "strided": (wide[::2], b)}

    # 4 blocks, the last of 464 rows; 2 blocks, the caller's one of 1 row
    @pytest.mark.parametrize("M, N", [(2000, 6), (513, 3)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_one_cholesky_of_the_whole_gram(self, monkeypatch, M, N, layout):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        A, b = self.layouts(np.random.default_rng(M + N), M, N)[layout]
        problem = LSProblem(A=A, b=b)
        x = solve_ols(problem, "normal-equations")
        ref = cho_solve(cho_factor(A.T @ A), A.T @ b)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        assert solve_ols(problem, "normal-equations").tobytes() == x.tobytes()

    def test_one_block_starts_no_thread(self, monkeypatch):
        start, starts = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
        problem, x_star = planted_problem(np.random.default_rng(19), 511, 6)
        x = solve_ols(problem, "normal-equations")
        assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)
        assert starts == []

    def test_rejects_duplicated_column_across_blocks(self, monkeypatch):
        # entries of +-1 and 4,096 = 64^2 rows keep every sum and the
        # Cholesky pivots exact, so the third pivot is exactly 0
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        A = np.random.default_rng(20).choice([-1.0, 1.0], size=(4096, 3))
        A[:, 2] = A[:, 0]
        problem = object.__new__(LSProblem)  # construction would reject A
        problem.A, problem.b = A, np.ones(4096)
        with pytest.raises(RankDeficientError):
            solve_ols(problem, "normal-equations")


class TestHalves:
    def test_returns_each_half_in_order_and_joins(self):
        caller = threading.current_thread()
        before = threading.active_count()
        seen = {}

        def work(part):
            seen[threading.current_thread() is caller] = list(part)
            return sum(part)

        assert core._halves(work, range(7)) == (0 + 1 + 2, 3 + 4 + 5 + 6)
        assert seen == {False: [0, 1, 2], True: [3, 4, 5, 6]}
        assert threading.active_count() == before

    def test_raises_a_worker_error_after_the_callers_half(self):
        caller = threading.current_thread()
        before = threading.active_count()
        done = []

        def work(part):
            if threading.current_thread() is not caller:
                raise RuntimeError("worker failed")
            time.sleep(0.05)  # the worker fails first
            done.append(list(part))

        with pytest.raises(RuntimeError, match="worker failed"):
            core._halves(work, range(4))
        assert done == [[2, 3]]
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [0, 1])
    def test_runs_fewer_than_two_items_in_the_caller(self, monkeypatch, n):
        caller, start, starts = threading.current_thread(), threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))

        def work(part):
            assert threading.current_thread() is caller
            return list(part)

        assert core._halves(work, range(n)) == ([], list(range(n)))
        assert starts == []


    # the hold: while a worker runs, each bundled OpenBLAS is held at one
    # thread, process-wide, and the last split to end restores the counts

    def test_both_halves_run_at_one_blas_thread_and_the_counts_return(self):
        before = blas_counts()
        seen = core._halves(lambda part: blas_counts(), range(2))
        assert seen == ([1] * len(before),) * 2
        assert blas_counts() == before

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_blas_counts_return_after_a_half_raises(self, failing):
        caller, before = threading.current_thread(), blas_counts()

        def work(part):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise RuntimeError("half failed")

        with pytest.raises(RuntimeError, match="half failed"):
            core._halves(work, range(2))
        assert blas_counts() == before

    def test_blas_counts_return_when_the_last_of_overlapping_splits_ends(self):
        # split "a" ends while split "b"'s halves still run: they must still
        # read 1, and the counts return only once "b" ends too
        before = blas_counts()
        inside, a_done, seen = threading.Barrier(4, timeout=10), threading.Event(), []

        def work(name):
            inside.wait()
            if name == "b":
                seen.append(a_done.wait(10))
            seen.append(blas_counts())

        def split_a():
            core._halves(lambda part: work("a"), range(2))
            a_done.set()

        threads = [threading.Thread(target=split_a),
                   threading.Thread(target=core._halves, args=(lambda part: work("b"), range(2)))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert seen.count(True) == 2
        assert [c for c in seen if c is not True] == [[1] * len(before)] * 4
        assert blas_counts() == before

    def test_many_threads_splitting_at_once_restore_the_blas_counts(self):
        before, seen = blas_counts(), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def splits():
                for _ in range(25):
                    core._halves(lambda part: seen.append(blas_counts()), range(2))

            threads = [threading.Thread(target=splits) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [[1] * len(before)] * (4 * 25 * 2)
        assert blas_counts() == before

    def test_without_a_bundled_openblas_holds_nothing(self, monkeypatch):
        libs = core._openblas()
        before = [get() for get, _ in libs]
        monkeypatch.setattr(core, "_openblas", lambda: ())
        caller = threading.current_thread()
        seen = {}

        def work(part):
            seen[threading.current_thread() is caller] = ([get() for get, _ in libs], list(part))
            return sum(part)

        assert core._halves(work, range(5)) == (0 + 1, 2 + 3 + 4)
        assert seen == {False: (before, [0, 1]), True: (before, [2, 3, 4])}

        def fail(part):
            if threading.current_thread() is not caller:
                raise RuntimeError("worker failed")

        with pytest.raises(RuntimeError, match="worker failed"):
            core._halves(fail, range(2))
        assert [get() for get, _ in libs] == before


class TestPipelined:
    def test_produces_on_the_worker_and_uses_in_the_caller_in_order(self):
        caller, before = threading.current_thread(), threading.active_count()
        made, used = [], []

        def produce(item):
            made.append((item, threading.current_thread() is caller, blas_counts()))
            return item * 10

        core._pipelined(produce, lambda value: used.append(value), range(4))
        held = [1] * len(blas_counts())
        assert made == [(k, False, held) for k in range(4)]
        assert used == [0, 10, 20, 30]
        assert threading.active_count() == before

    def test_never_produces_two_ahead_of_use(self):
        # produce(k + 1) may overlap use(k) only, so two buffers suffice
        events = []

        def use(item):
            time.sleep(0.01)  # far longer than a produce
            events.append(("use", item))

        core._pipelined(lambda item: events.append(("produce", item)) or item, use, range(5))
        for k in range(2, 5):
            assert events.index(("use", k - 2)) < events.index(("produce", k))
        assert [e for e in events if e[0] == "use"] == [("use", k) for k in range(5)]

    @pytest.mark.parametrize("failing", ["produce", "use"])
    def test_an_error_joins_the_worker_and_restores_the_blas_counts(self, failing):
        before, threads = blas_counts(), threading.active_count()

        def step(name, item):
            if name == failing and item == 2:
                raise RuntimeError(f"{name} failed")
            return item

        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            core._pipelined(lambda k: step("produce", k), lambda k: step("use", k), range(4))
        assert blas_counts() == before
        assert threading.active_count() == threads

    @pytest.mark.parametrize("n", [0, 1])
    def test_runs_fewer_than_two_items_in_the_caller(self, monkeypatch, n):
        start, starts, used = threading.Thread.start, [], []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
        core._pipelined(lambda item: item + 1, used.append, range(n))
        assert used == list(range(1, n + 1))
        assert starts == []


class TestSplitWorker:
    """Splits run while a thread holds ``_split_worker`` share its one worker
    and its one BLAS hold, both started by the first split."""

    @staticmethod
    def count_starts(monkeypatch):
        start, starts = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
        return starts

    def test_splits_in_one_context_share_one_thread_and_one_hold(self, monkeypatch):
        before, threads = blas_counts(), threading.active_count()
        starts = self.count_starts(monkeypatch)
        caller, workers, used = threading.current_thread(), set(), []

        def work(part):
            if threading.current_thread() is not caller:
                workers.add(threading.current_thread())
            return sum(part)

        with core._split_worker():
            assert starts == [] and blas_counts() == before  # started by the first split
            assert core._halves(work, range(5)) == (0 + 1, 2 + 3 + 4)
            assert len(starts) == 1
            assert blas_counts() == [1] * len(before)  # in the caller, between splits
            core._pipelined(lambda k: work([k]), used.append, range(4))
            assert core._halves(work, range(2)) == (0, 1)
            assert blas_counts() == [1] * len(before)
        assert len(starts) == 1 and len(workers) == 1
        assert used == [0, 1, 2, 3]
        assert blas_counts() == before
        assert threading.active_count() == threads

    def test_a_nested_context_reuses_the_outer_worker(self, monkeypatch):
        threads = threading.active_count()
        starts = self.count_starts(monkeypatch)
        caller, workers = threading.current_thread(), []

        def work(part):
            if threading.current_thread() is not caller:
                workers.append(threading.current_thread())

        with core._split_worker():
            core._halves(work, range(2))
            with core._split_worker():
                core._halves(work, range(2))
            core._halves(work, range(2))
            assert threading.active_count() == threads + 1
        assert len(starts) == 1
        assert len(workers) == 3 and workers[0] is workers[1] is workers[2]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_error_waits_for_both_halves_and_the_context_runs_on(self, monkeypatch, failing):
        before, threads = blas_counts(), threading.active_count()
        starts = self.count_starts(monkeypatch)
        caller, done = threading.current_thread(), []

        def work(part):
            in_worker = threading.current_thread() is not caller
            if in_worker == (failing == "worker"):
                raise RuntimeError(f"{failing} failed")
            time.sleep(0.05)  # the failing half ends first
            done.append(list(part))

        with core._split_worker():
            with pytest.raises(RuntimeError, match=f"{failing} failed"):
                core._halves(work, range(4))
            assert done == [[2, 3] if failing == "worker" else [0, 1]]
            assert core._halves(lambda part: list(part), range(4)) == ([0, 1], [2, 3])
        assert len(starts) == 1
        assert blas_counts() == before
        assert threading.active_count() == threads
