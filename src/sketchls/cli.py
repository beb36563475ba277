"""Command-line interface.

Subcommands: ``generate`` (synthetic instance to CSV), ``solve`` (one method
on one instance, JSON report), ``bench`` (experiment config to JSONL
records), ``profile`` and ``timing`` (JSONL records to CSV summaries).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .core import make_report, solve_ols
from .exceptions import SketchLSError
from .sketch import KINDS


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a synthetic instance as CSV (b in the last column)")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--condition", type=float, default=100.0)
    p.add_argument("--coherence", choices=harness.COHERENCE_CLASSES, default="incoherent")
    p.add_argument("--residual-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_solve(sub):
    p = sub.add_parser("solve", help="run one method on a CSV instance and print a JSON report")
    p.add_argument("--data", required=True, help="CSV matrix; b is the last column unless --b-file")
    p.add_argument("--b-file", default=None, help="single-column CSV holding b")
    p.add_argument("--method", choices=harness.METHODS, required=True)
    p.add_argument("--sketch", choices=KINDS, default="gaussian")
    p.add_argument("--m", type=int, default=None, help="sketch rows (default 10N)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--mu", default="auto", help="ridge weight, or 'auto' for the data-driven default")
    p.add_argument("--lsqr-tol", type=float, default=1e-6)
    p.add_argument("--json", dest="json_out", default=None, help="also write the report to this file")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run an experiment grid described by a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="JSONL records file (appended)")


def _add_profile(sub):
    p = sub.add_parser("profile", help="emit per-group residual-factor CDF rows as CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--group-by", default="method,sketch,m")


def _add_timing(sub):
    p = sub.add_parser("timing", help="emit per-method phase timing means as CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)


def cmd_generate(args) -> int:
    problem = harness.generate_synthetic(
        args.rows, args.cols, args.condition, args.coherence,
        seed=args.seed, residual_fraction=args.residual_fraction,
    )
    table = np.column_stack([problem.A, problem.b])
    np.savetxt(args.out, table, delimiter=",", fmt="%.17g")
    print(f"wrote {args.rows}x{args.cols + 1} CSV to {args.out}")
    return 0


def cmd_solve(args) -> int:
    b_policy = "file" if args.b_file else "last"
    problem = harness.load_csv(args.data, b_policy=b_policy, b_path=args.b_file)
    m = args.m if args.m is not None else min(10 * problem.N, problem.M)
    try:
        mu = float(args.mu)
    except ValueError:
        mu = args.mu  # "auto", or text the config refuses by name
    # every flag is checked here, before a sketch is drawn
    config = harness.ExperimentConfig(
        sketch_kinds=(args.sketch,), m_values=(m,), methods=(args.method,), seed=args.seed,
        rho=args.rho, mu=mu, lsqr_tol=args.lsqr_tol,
    )
    config.validate_grid(problem)
    x_ls = solve_ols(problem, "factorized")
    x, timings = harness._run_pipeline(problem, config, args.method, args.sketch, m, args.seed)
    report = make_report(problem, x_ls, x, args.method, timings)
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


def cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = harness.ExperimentConfig.from_dict(json.load(handle))
    records = harness.run_experiment(config, out_path=args.out)
    failed = sum(1 for r in records if r.failed)
    print(f"wrote {len(records)} records to {args.out} ({failed} failed)")
    return 0


def cmd_profile(args) -> int:
    records = harness.load_records(args.records)
    keys = tuple(k.strip() for k in args.group_by.split(",") if k.strip())
    rows = harness.emit_profile(records, group_keys=keys, out_path=args.out)
    print(f"wrote {len(rows)} profile rows to {args.out}")
    return 0


def cmd_timing(args) -> int:
    records = harness.load_records(args.records)
    rows = harness.emit_timing_breakdown(records, out_path=args.out)
    print(f"wrote {len(rows)} timing rows to {args.out}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "bench": cmd_bench,
    "profile": cmd_profile,
    "timing": cmd_timing,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchls",
        description="Randomized-sketching least-squares solvers and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_solve(sub)
    _add_bench(sub)
    _add_profile(sub)
    _add_timing(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SketchLSError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
