"""Self-test of the benchmark on shrunken copies of its three workloads.

Run from the root of a checkout; it takes a few seconds:

    python3 -m pytest perfbench/test_bench.py -q

It tests the benchmark, not sketchls: every metric is reported with its
unit and a sample count, every correctness check runs, the traced ops are
covered by their child spans, and the entry point refuses to run without
the package.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Same shape classes as the real workloads: M = 2^k + extra, M = 2^k, coherent.
# Large enough that the cheapest op (ols_normal) takes about a millisecond.
SHRUNK = {
    "tall-padded": {"M": 2**13 + 500, "N": 24, "m": 240},
    "tall-pow2": {"M": 2**14, "N": 16, "m": 64},
    "coherent": {"M": 4000, "N": 16, "m": 64},
}
SECONDS = 0.3
SEED = 5
# Share of an op's traced time its child spans may leave uncovered on top of
# that op's measured tracing overhead, which is itself a noisy difference of
# two medians.
COVER_SLACK = 0.05


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, dims in SHRUNK.items():
        workload = replace(bench.WORKLOADS[name], panel_trials=2, **dims)
        out[name] = (
            bench.timed_run(workload, SEED, SECONDS),
            bench.traced_run(workload, SEED, SECONDS),
        )
    return out


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert set(SHRUNK) == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(SHRUNK))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_has_unit_and_samples(runs, name, trace, section):
    result = runs[name][trace]
    for declared in SPEC[section]:
        entry = result["metrics"][declared["name"]]
        assert entry["unit"] == declared["unit"], declared["name"]
        assert isinstance(entry["samples"], int) and entry["samples"] >= 1, declared["name"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), declared["name"]
    line = bench.result_line(result, [m["name"] for m in SPEC[section]])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert json.loads(json.dumps(line)) == line


@pytest.mark.parametrize("name", list(SHRUNK))
def test_every_check_ran(runs, name):
    timed, traced = runs[name]
    for check, counts in timed["checks"].items():
        assert counts["ran"] >= 1, check
        assert counts["failed"] == 0, check
    assert timed["checks"]["spec_determinism"]["ran"] == len(bench.KINDS)
    assert timed["correct"] and traced["correct"]


@pytest.mark.parametrize("name", list(SHRUNK))
def test_child_spans_cover_each_traced_op(runs, name):
    traced = runs[name][1]
    assert set(traced["uncovered"]) == {op.name for op in bench.OPS}
    for op_name, share in traced["uncovered"].items():
        overhead = max(traced["overhead_by_op"][op_name], 0.0)
        assert 0.0 <= share <= overhead + COVER_SLACK, (op_name, share, overhead)
    spans = traced["tracer"].finished()
    assert all(s.parent is None or s.parent < s.id for s in spans)
    assert all(s.trial is not None for s in spans)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coherent", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
