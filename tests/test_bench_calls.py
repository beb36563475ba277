"""Every operation of the committed benchmark still runs on this package.

``perfbench/bench.py`` is imported the way its own self-test imports it, and
each entry of ``bench.OPS`` runs once as its timed call and once as its
traced replay, on a small instance. This reaches what the parse in
``test_bench_imports.py`` cannot see: attribute reads such as
``sp.spectral``, ``sol.outer_iters`` or ``sol.newton_iters_total``. The rpc
replay's traced ``rpc.foc_residual`` (the solver's V-coordinate certificate,
relative to ``||c||``) must also stay within ``bench.RPC_FOC_TOL``.
"""

import sys
from pathlib import Path

from numpy.testing import assert_allclose

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import tracing  # noqa: E402
from sketchls import SketchSpec, generate_synthetic  # noqa: E402


def test_every_op_runs_and_replays():
    problem = generate_synthetic(600, 6, 1e2, "incoherent", 0)
    counts = []
    for op in bench.OPS:
        spec = None if op.kind is None else SketchSpec(kind=op.kind, m=40, M=600, seed=1)
        x_run, _ = op.run(problem, spec)
        tracer = tracing.Tracer()
        x_replay, _ = op.replay(tracer, problem, spec)
        assert_allclose(x_replay, x_run, rtol=1e-10, err_msg=op.name)
        counts += tracer.counts
    foc = [value for name, value, _ in counts if name == "rpc.foc_residual"]
    assert len(foc) == 1 and foc[0] <= bench.RPC_FOC_TOL
