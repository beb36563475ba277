import json
import math
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sketchls import (
    CsvFormatError,
    DimensionError,
    ExperimentConfig,
    ProblemSource,
    SketchSpec,
    TrialRecord,
    emit_profile,
    emit_timing_breakdown,
    core,
    generate_synthetic,
    harness,
    load_csv,
    load_records,
    make_sketch,
    run_experiment,
    solve_blendenpik,
    solve_ols,
    split_rows,
)
from helpers import haar
from sketchls.harness import COHERENCE_CLASSES, _haar_columns


def measured_condition(A):
    s = np.linalg.svd(A, compute_uv=False)
    return s[0] / s[-1]


class TestGenerateSynthetic:
    def test_condition_one_gives_orthogonal_columns(self):
        p = generate_synthetic(60, 8, condition=1.0, coherence="incoherent", seed=0)
        assert measured_condition(p.A) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("coherence", COHERENCE_CLASSES)
    def test_condition_within_five_percent(self, coherence):
        p = generate_synthetic(300, 30, condition=1e4, coherence=coherence, seed=1)
        assert 0.95e4 <= measured_condition(p.A) <= 1.05e4

    def test_zero_residual_fraction_plants_solution(self):
        p = generate_synthetic(80, 6, 100.0, "incoherent", seed=2, residual_fraction=0.0)
        x_ls = solve_ols(p)
        assert np.linalg.norm(p.A @ x_ls - p.b) <= 1e-8 * np.linalg.norm(p.b)

    def test_residual_fraction_controls_residual_norm(self):
        p = generate_synthetic(120, 7, 10.0, "incoherent", seed=3, residual_fraction=0.5)
        x_ls = solve_ols(p)
        resid = np.linalg.norm(p.A @ x_ls - p.b)
        fitted = np.linalg.norm(p.A @ x_ls)
        assert resid / fitted == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("coherence", ["semi-coherent", "coherent"])
    def test_residual_fraction_in_structured_classes(self, coherence):
        p = generate_synthetic(120, 8, 10.0, coherence, seed=3, residual_fraction=0.5)
        x_ls = solve_ols(p)
        resid = np.linalg.norm(p.A @ x_ls - p.b)
        assert resid / np.linalg.norm(p.A @ x_ls) == pytest.approx(0.5, rel=1e-6)

    def test_semi_coherent_structure(self):
        p = generate_synthetic(40, 10, 50.0, "semi-coherent", seed=4)
        # bottom-right block is the identity; bottom-left block is zero
        assert_allclose(p.A[-5:, -5:], np.eye(5), atol=0.0)
        assert_allclose(p.A[-5:, :5], 0.0, atol=0.0)

    def test_coherent_structure(self):
        p = generate_synthetic(40, 10, 50.0, "coherent", seed=5)
        # leverage concentrates on the first N rows
        top = np.abs(p.A[:10]).max()
        bottom = np.abs(p.A[10:]).max()
        assert bottom <= 1e-6 * top

    def test_deterministic_in_seed(self):
        p1 = generate_synthetic(50, 5, 100.0, "incoherent", seed=6)
        p2 = generate_synthetic(50, 5, 100.0, "incoherent", seed=6)
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.b, p2.b)

    @pytest.mark.parametrize("coherence", ["incoherent", "semi-coherent"])
    def test_bit_equal_across_blocks(self, monkeypatch, coherence):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)  # 3,000 rows: six blocks of 512
        p1 = generate_synthetic(3000, 20, 100.0, coherence, seed=6)
        p2 = generate_synthetic(3000, 20, 100.0, coherence, seed=6)
        assert p1.A.tobytes() == p2.A.tobytes() and p1.b.tobytes() == p2.b.tobytes()

    def test_one_block_starts_no_thread(self, monkeypatch):
        # at the default budget 500 rows are one block of every pass
        start, starts = threading.Thread.start, []
        monkeypatch.setattr(threading.Thread, "start", lambda t: (starts.append(t), start(t)))
        p = generate_synthetic(500, 40, 1e2, "incoherent", seed=3)
        assert measured_condition(p.A) == pytest.approx(1e2, rel=1e-10)
        assert starts == []

    def test_incoherent_instance_peaks_near_two_copies_of_a(self):
        # U and A, where one product through a temporary held three M x N
        # arrays; 2.147 with the boolean copy of A of LSProblem's finiteness
        # check
        M, N = 20_000, 100
        tracemalloc.start()
        try:
            generate_synthetic(M, N, 1e4, "incoherent", seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.15 * 8 * M * N

    def test_rejects_bad_arguments(self):
        with pytest.raises(Exception):
            generate_synthetic(5, 10, 10.0, "incoherent", seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 5, 0.5, "incoherent", seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 5, 10.0, "striped", seed=0)

    @pytest.mark.parametrize(
        "M, N, condition, fraction, error",
        [
            (10, 0, 10.0, 0.5, DimensionError),
            (0, 0, 10.0, 0.5, DimensionError),
            (10, 5, math.inf, 0.5, ValueError),
            (10, 5, math.nan, 0.5, ValueError),
            (10, 5, 10.0, math.inf, ValueError),
            (10, 5, 10.0, math.nan, ValueError),
        ],
    )
    def test_rejects_bad_sizes_before_drawing(self, monkeypatch, M, N, condition, fraction,
                                              error):
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made before the arguments were checked")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(error):
            generate_synthetic(M, N, condition, "incoherent", seed=0, residual_fraction=fraction)


class TestHaarColumns:
    # CholeskyQR2 on the tall shapes, a Householder QR on the others; at a
    # budget of 0 the passes take blocks of _PASS_ROWS = 512 rows, so that
    # (500, 40) is one block and (3000, 40) six
    @pytest.mark.parametrize("rows, cols", [(500, 40), (80, 40), (79, 40), (30, 30),
                                            (3000, 40), (1537, 8), (1024, 512)])
    def test_matches_sign_normalized_householder_q(self, monkeypatch, rows, cols):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        rng = np.random.default_rng(rows + cols)
        Q = _haar_columns(rng, rows, cols)
        drawn = np.random.default_rng(rows + cols)
        ref = haar(drawn, rows, cols)
        assert Q.shape == (rows, cols)
        assert np.linalg.norm(Q.T @ Q - np.eye(cols), 2) <= 1e-14
        assert np.abs(Q - ref).max() <= 1e-13
        # one draw of a (rows, cols) Gaussian, nothing before or after it
        assert rng.bit_generator.state == drawn.bit_generator.state

    def test_incoherent_condition_is_the_one_requested(self):
        p = generate_synthetic(4096, 32, condition=1e4, coherence="incoherent", seed=2)
        assert measured_condition(p.A) == pytest.approx(1e4, rel=1e-10)

    def test_condition_is_the_one_requested_across_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)  # eight blocks of 512 rows
        p = generate_synthetic(4096, 32, condition=1e4, coherence="incoherent", seed=2)
        assert measured_condition(p.A) == pytest.approx(1e4, rel=1e-10)

    def test_second_pass_orthogonalizes_an_ill_conditioned_g(self, monkeypatch):
        # one CholeskyQR pass leaves Q^T Q - I near cond(G)^2 u, here 7e-8
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        rng = np.random.default_rng(7)
        X = (haar(rng, 3000, 40) * np.geomspace(1.0, 1e-5, 40)) @ haar(rng, 40, 40).T

        class Rows:
            """Fills each ``out`` block with the next rows of X."""
            at = 0

            def standard_normal(self, out):
                out[...] = X[self.at : self.at + len(out)]
                self.at += len(out)

        Q = _haar_columns(Rows(), 3000, 40)
        ref, R = np.linalg.qr(X)
        assert np.linalg.norm(Q.T @ Q - np.eye(40), 2) <= 1e-14
        assert np.abs(Q - ref * np.sign(np.diag(R))).max() <= 1e-10

    @pytest.mark.parametrize("failing", [None, 1, 2])
    def test_failed_cholesky_falls_back_to_householder(self, monkeypatch, failing):
        # the first Cholesky fails on G, the second on G R1^-1
        monkeypatch.setattr(core, "_BLOCK_BYTES", 0)
        calls, fallbacks = [], []
        cholesky, householder_q = core.cholesky, harness._householder_q

        def flaky(gram, **kwargs):
            calls.append(1)
            if len(calls) == failing:
                raise harness.LinAlgError("not positive definite")
            return cholesky(gram, **kwargs)

        monkeypatch.setattr(core, "cholesky", flaky)
        monkeypatch.setattr(harness, "_householder_q", lambda G: fallbacks.append(1) or householder_q(G))
        Q = _haar_columns(np.random.default_rng(5), 2048, 16)
        ref = haar(np.random.default_rng(5), 2048, 16)
        assert (len(calls), len(fallbacks)) == ((2, 0) if failing is None else (failing, 1))
        assert np.abs(Q - ref).max() <= 1e-13


class TestLoadCsv:
    def test_last_column_policy(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        p = load_csv(path)
        assert_allclose(p.A, [[1.0], [3.0], [5.0]])
        assert_allclose(p.b, [2.0, 4.0, 6.0])

    def test_separate_b_file(self, tmp_path):
        data = tmp_path / "data.csv"
        rhs = tmp_path / "b.csv"
        data.write_text("1,0\n0,1\n1,1\n")
        rhs.write_text("1\n2\n3\n")
        p = load_csv(data, b_policy="file", b_path=rhs)
        assert p.A.shape == (3, 2)
        assert_allclose(p.b, [1.0, 2.0, 3.0])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n6,7\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,2\n3,x\n5,6\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(path)

    def test_underdetermined_split_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_mismatched_b_file(self, tmp_path):
        data = tmp_path / "data.csv"
        rhs = tmp_path / "b.csv"
        data.write_text("1,0\n0,1\n1,1\n")
        rhs.write_text("1\n2\n")
        with pytest.raises(CsvFormatError):
            load_csv(data, b_policy="file", b_path=rhs)


class TestSplitRows:
    def test_sizes_and_disjointness(self):
        p = generate_synthetic(500, 9, 10.0, "incoherent", seed=7)
        train, test = split_rows(p, 100, 200, seed=8)
        assert train.M == 100 and test.M == 200
        # different draws are disjoint: stacking recovers 300 distinct rows
        rows = {tuple(r) for r in np.vstack([train.A, test.A])}
        assert len(rows) == 300

    def test_deterministic(self):
        p = generate_synthetic(100, 5, 10.0, "incoherent", seed=9)
        a1 = split_rows(p, 20, 30, seed=5)[0].A
        a2 = split_rows(p, 20, 30, seed=5)[0].A
        assert np.array_equal(a1, a2)

    def test_overdraw_rejected(self):
        p = generate_synthetic(50, 5, 10.0, "incoherent", seed=10)
        with pytest.raises(ValueError):
            split_rows(p, 40, 20, seed=0)

    def test_survey_scale_split_counts(self):
        # the documented ingestion sizing: 44085 rows split 5000 / 10000
        rng = np.random.default_rng(11)
        from sketchls import LSProblem

        p = LSProblem(A=rng.standard_normal((44085, 9)), b=rng.standard_normal(44085))
        train, test = split_rows(p, 5000, 10000, seed=12)
        assert train.shape == (5000, 9) and test.shape == (10000, 9)


def quick_config(**overrides):
    base = dict(
        source=ProblemSource(kind="synthetic", rows=80, cols=5, condition=10.0,
                             coherence="incoherent", residual_fraction=0.5),
        sketch_kinds=("gaussian",),
        m_values=(20,),
        methods=("pcls",),
        trials=2,
        seed=3,
        timing_repeats=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_round_trips_through_dict(self):
        cfg = quick_config(methods=("pcls", "cls"), mu=0.5)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()

    def test_rejects_unknown_method_or_kind(self):
        with pytest.raises(ValueError):
            quick_config(methods=("simplex",))
        with pytest.raises(ValueError):
            quick_config(sketch_kinds=("fourier",))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": math.nan},
            {"rho": math.inf},
            {"rho": -1.0},
            {"mu": math.nan},
            {"mu": math.inf},
            {"mu": -1.0},
            {"lsqr_tol": math.nan},
            {"lsqr_tol": math.inf},
            {"lsqr_tol": 0.0},
            {"lsqr_tol": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            quick_config(**kwargs)

    def test_grid_bounds_checked_against_problem(self):
        cfg = quick_config(m_values=(4,))  # below N
        with pytest.raises(ValueError):
            run_experiment(cfg)

    @pytest.mark.parametrize("m", [4, 81])  # below N = 5, above M = 80
    def test_grid_bounds_apply_only_to_sketched_methods(self, m):
        problem = generate_synthetic(80, 5, 10.0, "incoherent", seed=3)
        quick_config(methods=("ols", "ols-normal"), m_values=(m,)).validate_grid(problem)
        with pytest.raises(ValueError, match=f"m={m}"):
            quick_config(methods=("ols", "pcls"), m_values=(m,)).validate_grid(problem)
        records = run_experiment(quick_config(methods=("ols",), m_values=(m,), trials=1))
        assert [(r.method, r.m, r.error) for r in records] == [("ols", 0, None)]


class TestRunExperiment:
    def test_ols_scores_zero(self):
        records = run_experiment(quick_config(methods=("ols",), trials=1))
        assert len(records) == 1
        rec = records[0]
        assert rec.sketch == "none" and rec.m == 0
        assert rec.relative_accuracy == pytest.approx(0.0, abs=1e-10)
        assert rec.timings["sketch"] == 0.0

    def test_every_cell_executes(self):
        cfg = quick_config(methods=("pcls", "cls"), sketch_kinds=("gaussian", "count"),
                           m_values=(15, 25), trials=2)
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 2 * 2
        assert all(not r.failed for r in records)

    def test_deterministic_modulo_wall_times(self):
        cfg = quick_config(methods=("pcls", "rpc"), trials=3)
        rec1 = run_experiment(cfg)
        rec2 = run_experiment(cfg)
        for a, b in zip(rec1, rec2):
            assert a.relative_accuracy == b.relative_accuracy
            assert a.eps_optimality == b.eps_optimality
            assert a.seed == b.seed

    def test_methods_share_the_sketch_within_a_cell(self):
        cfg = quick_config(methods=("pcls", "cls"), trials=2)
        records = run_experiment(cfg)
        by_method = {}
        for r in records:
            by_method.setdefault(r.method, []).append(r.seed)
        assert by_method["pcls"] == by_method["cls"]

    def test_records_append_to_jsonl(self, tmp_path):
        out = tmp_path / "records.jsonl"
        run_experiment(quick_config(trials=2), out_path=out)
        run_experiment(quick_config(trials=1), out_path=out)
        loaded = load_records(out)
        assert len(loaded) == 3
        assert all(isinstance(r, TrialRecord) for r in loaded)

    def test_failures_are_recorded_not_raised(self):
        # hashing 6 rows into 5 buckets leaves an empty bucket (and hence a
        # singular sketched Gram matrix) in most trials
        cfg = quick_config(
            source=ProblemSource(kind="synthetic", rows=6, cols=5, condition=10.0,
                                 coherence="incoherent", residual_fraction=0.5),
            methods=("cls",), sketch_kinds=("count",), m_values=(5,), trials=8,
        )
        records = run_experiment(cfg)
        assert len(records) == 8
        failed = [r for r in records if r.failed]
        assert failed, "expected at least one singular-sketch failure"
        assert all("Singular" in r.error for r in failed)
        succeeded = [r for r in records if not r.failed]
        assert all(r.relative_accuracy is not None for r in succeeded)

    def test_best_of_k_timings(self, monkeypatch):
        # the first run is discarded; each phase keeps its least time over the rest
        phases = iter([
            {"sketch": 0.0, "factor": 0.0, "solve": 0.0},
            {"sketch": 3.0, "factor": 1.0, "solve": 2.0},
            {"sketch": 1.0, "factor": 2.0, "solve": 3.0},
            {"sketch": 2.0, "factor": 3.0, "solve": 1.0},
        ])
        run_pipeline = harness._run_pipeline

        def timed(*args):
            return run_pipeline(*args)[0], next(phases)

        monkeypatch.setattr(harness, "_run_pipeline", timed)
        [record] = run_experiment(quick_config(trials=1, timing_repeats=3))
        assert record.timings == {"sketch": 1.0, "factor": 1.0, "solve": 1.0}

    def test_csv_source(self, tmp_path):
        # the synthetic instance written as CSV scores exactly as generated
        synthetic = quick_config(methods=("ols", "pcls"), trials=1)
        src = synthetic.source
        problem = generate_synthetic(src.rows, src.cols, src.condition, src.coherence,
                                     seed=synthetic.seed, residual_fraction=src.residual_fraction)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([problem.A, problem.b]), delimiter=",", fmt="%.17g")
        from_csv = quick_config(source=ProblemSource(kind="csv", path=str(path)),
                                methods=("ols", "pcls"), trials=1)
        records = run_experiment(from_csv)
        expected = run_experiment(synthetic)
        assert [r.method for r in records] == ["ols", "pcls"]
        for got, want in zip(records, expected):
            assert not got.failed and got.seed == want.seed
            assert got.eps_optimality == want.eps_optimality
            assert got.relative_accuracy == want.relative_accuracy

    def test_lsqr_failure_is_typed(self):
        records = run_experiment(quick_config(methods=("blendenpik",), lsqr_tol=1e-30, trials=1))
        assert len(records) == 1
        assert records[0].error.startswith("ConvergenceError")

    def test_blendenpik_is_solve_blendenpik(self):
        # the table's factor and solve steps run solve_blendenpik's helper
        config = quick_config(source=ProblemSource(rows=3000, cols=12, condition=1e4),
                              methods=("blendenpik",), sketch_kinds=("count",), m_values=(48,),
                              lsqr_tol=1e-10)
        problem = harness._build_problem(config)
        x, _ = harness._run_pipeline(problem, config, "blendenpik", "count", 48, 9)
        op = make_sketch(SketchSpec(kind="count", m=48, M=3000, seed=9))
        assert x.tobytes() == solve_blendenpik(problem, op, lsqr_tol=1e-10).tobytes()

    def test_relative_accuracy_nonnegative(self):
        cfg = quick_config(methods=("cls", "pcls", "rpc", "blendenpik"), trials=2)
        for rec in run_experiment(cfg):
            assert rec.relative_accuracy >= -1e-10


class TestEmitters:
    def make_records(self):
        recs = []
        for i, acc in enumerate([0.04, 0.00, 0.02]):
            recs.append(TrialRecord(
                config_hash="h", method="pcls", sketch="ros", m=10, trial=i, seed=i,
                relative_accuracy=acc, eps_optimality=0.01,
                timings={"sketch": 0.25, "factor": 0.5, "solve": 0.25},
            ))
        return recs

    def test_profile_rows_sorted(self, tmp_path):
        rows = emit_profile(self.make_records(), out_path=tmp_path / "p.csv")
        assert [r[2] for r in rows] == pytest.approx([1.00, 1.02, 1.04])
        assert [r[1] for r in rows] == pytest.approx([1 / 3, 2 / 3, 1.0])
        text = (tmp_path / "p.csv").read_text().splitlines()
        assert text[0] == "group,fraction,value"
        assert len(text) == 4

    def test_profile_skips_failed_records(self):
        recs = self.make_records()
        recs.append(TrialRecord(
            config_hash="h", method="pcls", sketch="ros", m=10, trial=9, seed=9,
            relative_accuracy=None, eps_optimality=None, timings={}, error="boom",
        ))
        with pytest.warns(UserWarning):
            rows = emit_profile(recs)
        assert len(rows) == 3

    def test_timing_breakdown_sums(self, tmp_path):
        rows = emit_timing_breakdown(self.make_records(), out_path=tmp_path / "t.csv")
        assert len(rows) == 1
        method, s, f, so, total = rows[0]
        assert method == "pcls"
        assert total == pytest.approx(s + f + so, abs=1e-9)
        assert total == pytest.approx(1.0)
        header = (tmp_path / "t.csv").read_text().splitlines()[0]
        assert header == "method,sketch_time,factor_time,solve_time,total"

    def test_timing_csv_total_is_sum_of_written_parts(self, tmp_path):
        # each part rounds down and the unrounded total rounds up
        rec = TrialRecord(
            config_hash="h", method="pcls", sketch="ros", m=10, trial=0, seed=0,
            relative_accuracy=0.0, eps_optimality=0.0,
            timings={"sketch": 0.0001987474, "factor": 0.0000734314, "solve": 0.0000228004},
        )
        emit_timing_breakdown([rec], out_path=tmp_path / "t.csv")
        row = (tmp_path / "t.csv").read_text().splitlines()[1]
        s, f, so, total = (Decimal(v) for v in row.split(",")[1:])
        assert total == s + f + so

    def test_record_json_round_trip(self):
        rec = self.make_records()[0]
        again = TrialRecord.from_json(rec.to_json())
        assert again == rec
