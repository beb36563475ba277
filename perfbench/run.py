"""Run one benchmark workload of sketchls and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tall-padded --seed 0 --seconds 40 --trace 0

``--trace 0`` times the end-to-end operations untraced and prints the
end-to-end metrics; ``--trace 1`` replays them with spans and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
result, with sample counts and the environment, is written to
``perfbench/results/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: on a small shared machine a second thread makes every
# BLAS call wait for both vCPUs, and its spin-waiting competes with the
# Python thread, which made the 25-35 ms ops spread by a quarter from run
# to run. BLAS reads these when numpy loads, so they are set before any
# import of it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _import_package():
    """Import sketchls from this checkout's src/, or return an error message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sketchls
    except ImportError as exc:
        return f"cannot import sketchls from {src}: {exc}"
    found = Path(sketchls.__file__).resolve().parent
    if found != src / "sketchls":
        return f"imported sketchls from {found}, not from {src}"
    return None


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    error = _import_package()
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    if args.trace:
        result = bench.traced_run(workload, args.seed, args.seconds)
        metric_names = [m["name"] for m in declared["per_layer"]]
    else:
        result = bench.timed_run(workload, args.seed, args.seconds)
        metric_names = [m["name"] for m in declared["end_to_end"]]

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {k: v for k, v in result.items() if k != "tracer"}
    record["environment"] = bench.environment(
        ROOT, workload, args.seed, args.seconds, args.trace, BLAS_THREADS
    )
    env = record["environment"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']['name']} {env['blas']['version']} with "
          f"{env['blas_threads_runtime']} threads (pinned {env['blas_threads_pinned']}), "
          f"L3 {env['l3_bytes']} bytes, commit {env['git_commit'] or env['src_sha256']}")
    print(bench.format_table(result, metric_names))
    if args.trace:
        spans_path = out_dir / f"spans_{stem}.jsonl"
        result["tracer"].write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        print(f"spans: {record['spans_file']} ({len(result['tracer'].spans)} spans)")
        if args.workload == "tall-padded":
            record["baseline_table"] = bench.baseline_rows(result)
            print(bench.format_baseline(record["baseline_table"]))
    (out_dir / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(bench.result_line(result, metric_names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
