import ctypes
import json

import numpy as np
import pytest

from sketchls import harness
from sketchls.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "instance.csv"
        code, stdout, _ = run_cli(
            ["generate", "--rows", "30", "--cols", "3", "--condition", "50",
             "--seed", "4", "--out", str(out)], capsys)
        assert code == 0 and "wrote" in stdout
        table = np.loadtxt(out, delimiter=",")
        assert table.shape == (30, 4)

    def test_bad_dimensions_fail_cleanly(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["generate", "--rows", "3", "--cols", "10", "--out", str(tmp_path / "x.csv")],
            capsys)
        assert code == 1 and "error:" in stderr


class TestSolve:
    @pytest.fixture()
    def instance(self, tmp_path, capsys):
        out = tmp_path / "instance.csv"
        run_cli(["generate", "--rows", "60", "--cols", "4", "--condition", "20",
                 "--seed", "1", "--out", str(out)], capsys)
        return out

    @pytest.mark.parametrize("method", ["ols", "ols-normal", "cls", "pcls", "ridge-cls",
                                        "ridge-pcls", "robust-cls", "rpc", "blendenpik"])
    def test_each_method_reports(self, instance, capsys, method):
        code, stdout, _ = run_cli(
            ["solve", "--data", str(instance), "--method", method,
             "--sketch", "gaussian", "--m", "20", "--seed", "2"], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["method"] == method
        assert report["relative_accuracy"] >= -1e-10
        assert report["eps_optimality"] >= 0.0
        assert set(report["timings"]) == {"sketch", "factor", "solve"}

    def test_report_written_to_file(self, instance, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["solve", "--data", str(instance), "--method", "pcls", "--m", "16",
             "--json", str(dest)], capsys)
        assert code == 0
        assert json.loads(dest.read_text())["method"] == "pcls"

    def test_unsketched_method_ignores_m(self, instance, capsys):
        # ols reads no m, so an m outside [N, M] of the 60 x 4 instance is no error
        code, stdout, _ = run_cli(
            ["solve", "--data", str(instance), "--method", "ols", "--m", "3"], capsys)
        assert code == 0
        assert json.loads(stdout)["method"] == "ols"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--mu", "abc"], "mu"),
            (["--rho", "-1"], "rho"),
            (["--lsqr-tol", "0"], "lsqr_tol"),
            (["--m", "3"], "m=3"),
            (["--m", "61"], "m=61"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_bad_flags_are_refused_before_a_sketch(self, instance, capsys, monkeypatch,
                                                   flags, named):
        drawn, make_sketch = [], harness.make_sketch

        def counted(spec):
            drawn.append(spec)
            return make_sketch(spec)

        monkeypatch.setattr(harness, "make_sketch", counted)
        code, stdout, stderr = run_cli(
            ["solve", "--data", str(instance), "--method", "pcls", *flags], capsys)
        assert code == 1 and stdout == "" and drawn == []
        assert stderr.startswith("error:") and stderr.count("\n") == 1 and named in stderr


class TestBenchProfileTiming:
    def test_full_pipeline(self, tmp_path, capsys):
        config = {
            "source": {"kind": "synthetic", "rows": 60, "cols": 4, "condition": 10.0,
                       "coherence": "incoherent", "residual_fraction": 0.5},
            "sketch_kinds": ["gaussian", "count"],
            "m_values": [16],
            "methods": ["pcls", "cls"],
            "trials": 3,
            "seed": 7,
            "timing_repeats": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        records = tmp_path / "records.jsonl"
        code, stdout, _ = run_cli(["bench", "--config", str(cfg_path),
                                   "--out", str(records)], capsys)
        assert code == 0 and "12 records" in stdout

        profile_csv = tmp_path / "profile.csv"
        code, stdout, _ = run_cli(["profile", "--records", str(records),
                                   "--out", str(profile_csv)], capsys)
        assert code == 0
        lines = profile_csv.read_text().splitlines()
        assert lines[0] == "group,fraction,value"
        assert len(lines) == 1 + 12  # one CDF row per successful record

        timing_csv = tmp_path / "timing.csv"
        code, stdout, _ = run_cli(["timing", "--records", str(records),
                                   "--out", str(timing_csv)], capsys)
        assert code == 0
        lines = timing_csv.read_text().splitlines()
        assert lines[0] == "method,sketch_time,factor_time,solve_time,total"
        assert len(lines) == 3  # cls and pcls
        for line in lines[1:]:
            parts = line.split(",")
            assert float(parts[4]) == pytest.approx(
                float(parts[1]) + float(parts[2]) + float(parts[3]), abs=1e-9)

    def test_profile_emits_sorted_cdf_rows(self, tmp_path, capsys):
        # canonical three-value profile check through the CLI surface
        records = tmp_path / "records.jsonl"
        with open(records, "w") as handle:
            for i, acc in enumerate([0.04, 0.00, 0.02]):
                handle.write(json.dumps({
                    "config_hash": "h", "method": "pcls", "sketch": "ros", "m": 10,
                    "trial": i, "seed": i, "relative_accuracy": acc,
                    "eps_optimality": 0.0, "timings": {}, "error": None,
                }) + "\n")
        out = tmp_path / "profile.csv"
        code, _, _ = run_cli(["profile", "--records", str(records), "--out", str(out)],
                             capsys)
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[2]) for r in rows]
        fractions = [float(r.split(",")[1]) for r in rows]
        assert values == pytest.approx([1.00, 1.02, 1.04])
        assert fractions == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_missing_records_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(["profile", "--records", str(tmp_path / "nope.jsonl"),
                                   "--out", str(tmp_path / "p.csv")], capsys)
        assert code == 1 and "error:" in stderr


RECORD = {"config_hash": "h", "method": "pcls", "sketch": "ros", "m": 10, "trial": 0,
          "seed": 0, "relative_accuracy": 0.0, "eps_optimality": 0.0, "timings": {}}


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("bench", {"methodz": ["pcls"]}, "methodz"),
        ("bench", {"source": {"kind": "synthetic", "rowz": 60}}, "rowz"),
        ("bench", {"m_values": 100}, "m_values"),
        ("bench", {"source": {"kind": "csv"}}, "path"),
        ("profile --group-by methd", RECORD, "methd"),
        ("profile", {"method": "pcls"}, "line 1"),
        ("bench", {"trials": "3"}, "trials"),
        ("bench", {"source": {"kind": "synthetic", "rows": "abc"}}, "rows"),
        ("bench", {"m_values": [None]}, "m_values"),
        ("bench", {"source": {"kind": "synthetic", "rows": 60, "cols": 0}}, "N = 0"),
        ("generate --rows 10 --cols 0", None, "N = 0"),
        ("generate --rows 10 --cols 2 --condition inf", None, "condition"),
        ("generate --rows 10 --cols 2 --residual-fraction nan", None, "residual fraction"),
        ("profile", {**RECORD, "relative_accuracy": "abc"}, "relative_accuracy"),
        ("profile", {**RECORD, "relative_accuracy": None, "error": None}, "relative_accuracy"),
        ("timing", {**RECORD, "timings": {"sketch": "1"}}, "timings"),
        ("timing", {**RECORD, "timings": []}, "timings"),
        ("profile", {**RECORD, "trial": 1.5}, "trial"),
        ("profile", {**RECORD, "method": 7}, "method"),
        ("profile", {**RECORD, "error": 0}, "error"),
        ("bench", {"seed": -1}, "seed"),
    ],
)
def test_malformed_input_is_an_error_not_a_traceback(tmp_path, capfd, command, content, named):
    # each input is rejected where it is parsed, with the bad key or line named,
    # before anything else is printed: capfd also sees the messages of BLAS,
    # which go through C stdio and reach the file descriptors once flushed
    name, *flags = command.split()
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content) + "\n")
        flags += ["--config" if name == "bench" else "--records", str(path)]
    code = main([name, *flags, "--out", str(tmp_path / "out")])
    ctypes.CDLL(None).fflush(None)
    out = capfd.readouterr()
    assert code == 1 and named in out.err
    assert out.out == "" and out.err.startswith("error:") and out.err.count("\n") == 1
