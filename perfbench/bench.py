"""Workloads, timed operations, correctness checks and the traced replay.

Every operation is the sequence of public sketchls calls a user makes to go
from an ``LSProblem`` to ``x``. The untraced run times those calls as they
are; the traced run replays each operation as the same public calls, one
span per call, so each layer's self time can be read off the spans. All
measurement happens here, from outside the package.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from sketchls import (
    ConvergenceError,
    LSProblem,
    RpcParams,
    SketchedProblem,
    SketchLSError,
    SketchSpec,
    blendenpik_preconditioner,
    eps_optimality,
    fwht,
    generate_synthetic,
    make_sketch,
    preconditioned_lsqr,
    sketch_flops_estimate,
    solve_blendenpik,
    solve_cls,
    solve_ols,
    solve_pcls,
    solve_robust_cls,
    solve_rpc,
    solve_rpc_sketched,
    stationarity_residual,
)
from sketchls.sketch import next_pow_two
from sketchls.solvers import GramSolver

from tracing import Tracer

CONDITION = 1e4
RESIDUAL_FRACTION = 0.5
RHO = 1.0
LSQR_TOL = 1e-10
LSQR_MAX_ITER = 500  # solve_blendenpik's default cap, kept explicit for the replay
KINDS = ("gaussian", "ros", "count")
LAYERS = ("bench", "core", "sketch", "solvers", "rpc")  # span-name prefixes

SETUPS = 3  # generate_synthetic calls per run; setup_s is their median
MIN_ROUNDS = 3  # rounds over all ops before a run may stop
MAX_POOL = 8  # sketch specs per op in the traced run
# Ops whose cost depends on the sketch draw: LSQR iterations (blendenpik) and
# the dual search's outer iterations (rpc). Every other op does the same work
# for any spec of its kind, so its timed pool is one spec, called many times.
DRAW_DEPENDENT = ("rpc", "blendenpik")
SLICE_S = 0.25  # an op's share of a round in the timed run, in seconds (at least one call)
# Copies of the timed instance held in memory. Ops that stream A run at a
# speed set by where its pages land: in one process, best times of the count
# sketch on fresh copies of one A differed by up to a fifth, and each copy's
# best held for the whole process. A run that used one copy would carry that
# luck into its result.
COPIES = 3
TRACED_SLICE_S = 0.4  # the same in the traced run, for an untraced call and its replay
PANEL_SEED = 0  # instance seed of the accuracy panel, fixed for every run
SKETCH_ROOT = 0  # root of every sketch seed
WARMUP_STREAM, TIMED_STREAM, PANEL_STREAM = 0, 1, 2

# ols and ols-normal must agree within this multiple of cond(A)^2 * machine
# epsilon, the first-order forward-error bound of the normal equations.
OLS_AGREE_FACTOR = 10.0
# rpc solutions must satisfy ||grad|| <= RPC_FOC_TOL * ||A^T b||; the dual
# search stops on a 1e-10 gap, which leaves the gradient near 1e-13 relative.
RPC_FOC_TOL = 1e-8
# A row of ROADMAP's baseline table is flagged when the measured value is
# more than this factor above or below the table's value.
DISAGREE_FACTOR = 1.5
CHECKS = ("x_finite", "ols_agree", "lsqr_gradient", "rpc_stationarity", "spec_determinism")


@dataclass(frozen=True)
class Workload:
    name: str
    M: int
    N: int
    m: int
    coherence: str
    panel_trials: int  # accuracy-panel draws per scored op
    draws: int  # timed sketch specs per op in DRAW_DEPENDENT


# Why each workload exists is stated in BENCHMARK.json and perfbench/README.md.
# Panel draws cost seconds each on the tall shapes and milliseconds on coherent.
# On the tall shapes the draw moves LSQR and dual-search iterations by a tenth,
# so three timed specs, each called often, suffice; on coherent it moves LSQR
# from 8 iterations to a stall, so eight specs keep the stalls in view.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall-padded", 2**16 + 1000, 100, 1000, "incoherent", 1, 3),
        Workload("tall-pow2", 2**17, 50, 200, "incoherent", 1, 3),
        Workload("coherent", 20_000, 50, 200, "coherent", 15, 8),
    )
}


# ---------------------------------------------------------------------------
# operations: the untraced calls and their traced replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    name: str
    metric: str
    kind: str | None  # sketch kind, None for the exact solves
    scored: bool  # eps-optimality is reported for this op
    run: Callable
    replay: Callable


def _sketched_run(solve):
    def run(problem, spec):
        sp = SketchedProblem.from_problem(problem, make_sketch(spec))
        return solve(sp), sp

    return run


def _run_rpc(problem, spec):
    return solve_rpc(problem, make_sketch(spec), RpcParams(rho=RHO)).x, None


def _run_blendenpik(problem, spec):
    return solve_blendenpik(problem, make_sketch(spec), lsqr_tol=LSQR_TOL), None


def _phi_bytes(op) -> int:
    """Bytes held by the arrays of a realized sketch operator."""
    total = 0
    for value in vars(op).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "indptr"):  # scipy sparse matrix
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def _replay_realize(tr, spec):
    op = tr.call(f"sketch.realize.{spec.kind}", make_sketch, spec)
    tr.count(f"sketch.phi_bytes.{spec.kind}", _phi_bytes(op))
    return op


def _replay_from_problem(tr, problem, op, kind):
    with tr.span(f"solvers.from_problem.{kind}"):
        P = tr.call(f"sketch.apply_A.{kind}", op.apply, problem.A)
        q = tr.call(f"sketch.apply_b.{kind}", op.apply, problem.b)
        return SketchedProblem(P=P, q=q, c=problem.A.T @ problem.b)


def _replay_gram(tr, span, sp, rhs_of):
    with tr.span(span):
        solver = tr.call("solvers.gram_factor", GramSolver, sp.P)
        return tr.call("solvers.gram_solve", solver.solve, rhs_of(sp))


def _replay_ols(tr, problem, spec):
    return tr.call("core.solve_ols", solve_ols, problem), None


def _replay_ols_normal(tr, problem, spec):
    return tr.call("core.solve_ols_normal", solve_ols, problem, "normal-equations"), None


def _replay_pcls(tr, problem, spec):
    sp = _replay_from_problem(tr, problem, _replay_realize(tr, spec), spec.kind)
    return _replay_gram(tr, "solvers.solve_pcls", sp, lambda s: s.c), sp


def _replay_cls(tr, problem, spec):
    sp = _replay_from_problem(tr, problem, _replay_realize(tr, spec), spec.kind)
    return _replay_gram(tr, "solvers.solve_cls", sp, lambda s: s.P.T @ s.q), sp


def _replay_robust_cls(tr, problem, spec):
    sp = _replay_from_problem(tr, problem, _replay_realize(tr, spec), spec.kind)
    with tr.span("solvers.solve_robust_cls"):
        tr.call("solvers.spectral", lambda: sp.spectral)
        x = tr.call("solvers.robust_cls_secular", solve_robust_cls, sp, RHO)
    return x, sp


def _replay_rpc(tr, problem, spec):
    op = _replay_realize(tr, spec)
    with tr.span("rpc.solve_rpc"):
        sp = _replay_from_problem(tr, problem, op, spec.kind)
        b_norm = float(np.linalg.norm(problem.b))
        tr.call("solvers.spectral", lambda: sp.spectral)
        sol = tr.call("rpc.dual_search", solve_rpc_sketched, sp, b_norm, RpcParams(rho=RHO))
    tr.count("rpc.outer_iters", sol.outer_iters)
    tr.count("rpc.newton_iters", sol.newton_iters_total)
    tr.count("rpc.foc_residual", sol.foc_residual / float(np.linalg.norm(sp.c)))
    return sol.x, None


def _replay_blendenpik(tr, problem, spec):
    op = _replay_realize(tr, spec)
    with tr.span("solvers.solve_blendenpik"):
        P = tr.call(f"sketch.apply_A.{spec.kind}", op.apply, problem.A)
        R = tr.call("solvers.preconditioner", blendenpik_preconditioner, P)
        x, iters, converged = tr.call(
            "solvers.lsqr", preconditioned_lsqr, problem.A, problem.b,
            R=R, tol=LSQR_TOL, max_iter=LSQR_MAX_ITER,
        )
    tr.count("solvers.lsqr_iters", iters)
    tr.count("solvers.lsqr_converged", converged)
    if not converged:  # solve_blendenpik raises here too
        raise ConvergenceError(
            f"LSQR did not reach tolerance {LSQR_TOL:g} in {LSQR_MAX_ITER} iterations",
            last_iterate=x,
        )
    return x, None


OPS = (
    Op("ols", "ols_s", None, False, lambda p, s: (solve_ols(p), None), _replay_ols),
    Op("ols_normal", "ols_normal_s", None, False,
       lambda p, s: (solve_ols(p, "normal-equations"), None), _replay_ols_normal),
    *(Op(f"pcls.{k}", f"pcls_s.{k}", k, True, _sketched_run(solve_pcls), _replay_pcls)
      for k in KINDS),
    Op("cls", "cls_s", "count", False, _sketched_run(solve_cls), _replay_cls),
    Op("robust_cls", "robust_cls_s", "count", False,
       _sketched_run(lambda sp: solve_robust_cls(sp, RHO)), _replay_robust_cls),
    Op("rpc", "rpc_s", "count", True, _run_rpc, _replay_rpc),
    Op("blendenpik", "blendenpik_s", "count", False, _run_blendenpik, _replay_blendenpik),
)


# ---------------------------------------------------------------------------
# bookkeeping: attempts, failures, checks
# ---------------------------------------------------------------------------


class Tally:
    """Attempts, failures by type, correctness checks run and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.unexpected = 0
        self.checks = {name: {"ran": 0, "failed": 0} for name in CHECKS}

    def check(self, name: str, ok) -> bool:
        ok = bool(ok)
        self.checks[name]["ran"] += 1
        if not ok:
            self.checks[name]["failed"] += 1
        return ok

    def attempt(self, fn, *args):
        """Call ``fn(*args)``; returns ``(result, seconds)`` or ``(None, None)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except SketchLSError as exc:
            self.fail(exc, expected=True)
            return None, None
        except Exception as exc:  # a defect: record it and keep measuring the rest
            self.fail(exc, expected=False)
            return None, None
        return out, time.perf_counter() - start

    def fail(self, exc, expected: bool) -> None:
        self.failed += 1
        self.errors[type(exc).__name__] += 1
        if not expected:
            self.unexpected += 1

    @property
    def correct(self) -> bool:
        return self.unexpected == 0 and all(c["failed"] == 0 for c in self.checks.values())


@dataclass
class Reference:
    """Exact solutions and norms of one instance, computed untimed."""

    problem: LSProblem
    x_ls: np.ndarray
    x_normal: np.ndarray
    atb_norm: float
    ols_tol: float

    @classmethod
    def of(cls, problem):
        cond = problem.condition_number()
        return cls(
            problem=problem,
            x_ls=solve_ols(problem),
            x_normal=solve_ols(problem, "normal-equations"),
            atb_norm=float(np.linalg.norm(problem.A.T @ problem.b)),
            ols_tol=OLS_AGREE_FACTOR * cond**2 * np.finfo(float).eps,
        )


def _rel_err(x, y) -> float:
    return float(np.linalg.norm(x - y)) / float(np.linalg.norm(y))


def check_output(tally: Tally, op: Op, x, ref: Reference, spec) -> bool:
    """Run every check that applies to ``op``'s output; False if one fails."""
    problem = ref.problem
    x = np.asarray(x)
    if not tally.check("x_finite", x.shape == (problem.N,) and np.all(np.isfinite(x))):
        return False
    if op.name == "ols":
        return tally.check("ols_agree", _rel_err(x, ref.x_normal) <= ref.ols_tol)
    if op.name == "ols_normal":
        return tally.check("ols_agree", _rel_err(x, ref.x_ls) <= ref.ols_tol)
    if op.name == "blendenpik":
        grad = float(np.linalg.norm(problem.A.T @ (problem.A @ x - problem.b)))
        return tally.check("lsqr_gradient", grad <= LSQR_TOL * ref.atb_norm)
    if op.name == "rpc":
        sp = SketchedProblem.from_problem(problem, make_sketch(spec))
        foc = stationarity_residual(sp, x, RHO)
        return tally.check("rpc_stationarity", foc <= RPC_FOC_TOL * float(np.linalg.norm(sp.c)))
    return True


def _spec(workload, op_index, stream, trial):
    """The sketch spec of one call; None for the exact solves.

    Sketch seeds do not depend on the benchmark seed: LSQR iterations on
    ``coherent`` range from 8 to a 500-iteration stall with the sketch seed
    but hardly move with the instance, so every run times the same specs.
    """
    op = OPS[op_index]
    if op.kind is None:
        return None
    seq = np.random.SeedSequence(entropy=SKETCH_ROOT, spawn_key=(stream, op_index, trial))
    seed = int(seq.generate_state(1)[0])
    return SketchSpec(kind=op.kind, m=workload.m, M=workload.M, seed=seed)


def _generate(workload, seed):
    return generate_synthetic(
        workload.M, workload.N, CONDITION, workload.coherence, seed, RESIDUAL_FRACTION
    )


def _fallbacks(caught) -> int:
    n = sum(
        1 for w in caught
        if issubclass(w.category, RuntimeWarning) and "Cholesky" in str(w.message)
    )
    caught.clear()
    return n


def _summary(values, unit):
    values = [float(v) for v in values if v is not None]
    out = {"value": float(np.median(values)) if values else None, "unit": unit,
           "samples": len(values)}
    if len(values) >= 20:  # highest percentile with at least ten samples beyond it
        pct = math.floor(100.0 * (1.0 - 10.0 / len(values)))
        out["tail"] = {"percentile": pct, "value": float(np.percentile(values, pct))}
    return out


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _accuracy_panel(workload, tally, caught):
    """Warm up every op and score accuracy on a fixed panel.

    The panel instance (seed ``PANEL_SEED``) and its sketch seeds do not
    depend on the benchmark seed, so eps-optimality is identical on every
    run of the same code and any change to it is a change in the code. The
    first panel call of each op is its discarded warm-up. Equal specs are
    checked to give bit-identical P once per kind.
    """
    start = time.perf_counter()
    panel = _generate(workload, PANEL_SEED)
    setup_s = time.perf_counter() - start
    ref = Reference.of(panel)
    eps = defaultdict(list)
    for i, op in enumerate(OPS):
        for t in range(workload.panel_trials if op.scored else 1):
            spec = _spec(workload, i, PANEL_STREAM, t)
            out, _ = tally.attempt(op.run, panel, spec)
            if out is None:
                continue
            x, sp = out
            if not check_output(tally, op, x, ref, spec):
                tally.failed += 1
                continue
            if op.scored:
                eps[op.name].append(eps_optimality(x, panel, ref.x_ls))
            if t == 0 and op.name.startswith("pcls."):
                again = make_sketch(spec).apply(panel.A)
                if not tally.check("spec_determinism", again.tobytes() == sp.P.tobytes()):
                    tally.failed += 1
    _fallbacks(caught)
    return setup_s, eps


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setups = []
        panel_setup, panel_eps = _accuracy_panel(workload, tally, caught)
        setups.append(panel_setup)
        problem = None
        while len(setups) < SETUPS:
            problem = None  # free the previous copy before timing the next
            start = time.perf_counter()
            problem = _generate(workload, seed)
            setups.append(time.perf_counter() - start)
        ref = Reference.of(problem)
        copies = [problem] + [LSProblem(problem.A.copy(), problem.b.copy())
                              for _ in range(COPIES - 1)]

        # An op in DRAW_DEPENDENT draws from workload.draws specs; any other
        # op uses one spec (or none, for the exact solves). Its pool pairs
        # entry t with spec t mod draws and copy t mod COPIES, so it covers
        # every spec and every copy. Rounds visit the ops in turn; an op
        # calls the next entries of its pool, cycling, until it has used
        # SLICE_S of the round, so every op's calls spread over the whole
        # run. An entry's time is its best call, which drops the periods
        # when other load slows the machine; the metric is the median over
        # entries, so work that depends on the sketch (LSQR iterations) and
        # the placement of A both stay typical.
        pools = {}
        for i, op in enumerate(OPS):
            draws = workload.draws if op.name in DRAW_DEPENDENT else 1
            pools[op.name] = [[_spec(workload, i, TIMED_STREAM, t % draws), copies[t % COPIES], None]
                              for t in range(max(draws, COPIES))]
        turn = Counter()
        scores = defaultdict(list)
        fallbacks = 0
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds += 1
            for op in OPS:
                if rounds > MIN_ROUNDS and time.perf_counter() >= deadline:
                    break  # the last round stops at the deadline, not at its end
                pool = pools[op.name]
                spent = 0.0
                while pool and spent < SLICE_S:
                    entry = pool[turn[op.name] % len(pool)]
                    turn[op.name] += 1
                    out, dt = tally.attempt(op.run, entry[1], entry[0])
                    fallbacks += _fallbacks(caught)
                    ok = out is not None and check_output(tally, op, out[0], ref, entry[0])
                    if out is not None and not ok:
                        tally.failed += 1  # a failed check counts as a failed op
                    if not ok:  # the spec fails the same way every time
                        pool.remove(entry)
                        turn[op.name] -= 1
                        break  # and a failure ends the op's share of the round
                    spent += dt
                    if entry[2] is None and op.scored:
                        scores[op.name].append(eps_optimality(out[0], problem, ref.x_ls))
                    entry[2] = dt if entry[2] is None else min(entry[2], dt)
        samples = {name: [best for _, _, best in pool if best is not None]
                   for name, pool in pools.items()}
        del problem, ref, copies, pools

    metrics = {"setup_s": _summary(setups, "s")}
    for op in OPS:
        metrics[op.metric] = _summary(samples[op.name], "s")
    for kind in KINDS:
        metrics[f"eps_opt.{kind}"] = _summary(panel_eps[f"pcls.{kind}"], "ratio")
    metrics["eps_opt.rpc"] = _summary(panel_eps["rpc"], "ratio")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics["peak_rss_mb"] = _summary([peak], "MB")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "checks": tally.checks,
        "errors": dict(tally.errors),
        "gram_fallbacks": fallbacks,
        "eps_seeded": {name: _summary(v, "ratio") for name, v in scores.items()},
        "rounds": rounds,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _repeat_span(tr, name, fn, min_reps, budget_s):
    """Run ``fn`` in spans until ``min_reps`` calls and ``budget_s`` seconds."""
    start = time.perf_counter()
    reps = 0
    while reps < min_reps or time.perf_counter() - start < budget_s:
        tr.call(name, fn)
        reps += 1


def l3_cache_bytes() -> int | None:
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return int(size)
    except (ValueError, OSError):
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
        return int(text.rstrip("KMG")) * scale
    return None


def traced_run(workload: Workload, seed: int, seconds: float) -> dict:
    tally = Tally()
    tr = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr.trial = "setup"
        problem = tr.call("harness.generate_synthetic", _generate, workload, seed)
        tr.call("core.LSProblem", LSProblem, problem.A, problem.b)
        ref = Reference.of(problem)
        for i, op in enumerate(OPS):  # one discarded warm-up call per op
            tally.attempt(op.run, problem, _spec(workload, i, WARMUP_STREAM, 0))
        _fallbacks(caught)

        untraced = {op.name: [] for op in OPS}
        traced_roots = defaultdict(list)  # op name -> root span ids of good replays
        fallbacks = gram_calls = 0
        solutions = []
        dead = defaultdict(set)  # pool indices whose spec failed; not retried
        turn = Counter()
        deadline = time.perf_counter() + seconds
        done = False
        while not done:
            for i, op in enumerate(OPS):
                slice_start = time.perf_counter()
                while len(dead[op.name]) < MAX_POOL:
                    trial = turn[op.name]
                    turn[op.name] += 1
                    if trial % MAX_POOL in dead[op.name]:
                        continue
                    # the untraced call and its traced replay get the same spec
                    # and take turns going first, since the second of two
                    # calls finds A in cache
                    spec = _spec(workload, i, TIMED_STREAM, trial % MAX_POOL)
                    tr.trial = f"{op.name}#{trial}"
                    for traced in ((False, True) if trial % 2 == 0 else (True, False)):
                        root = len(tr.spans)
                        if traced:
                            out, _ = tally.attempt(
                                tr.call, f"bench.{op.name}", op.replay, tr, problem, spec
                            )
                            fallbacks += _fallbacks(caught)
                            gram_calls += op.name.startswith(("pcls.", "cls"))
                        else:
                            out, dt = tally.attempt(op.run, problem, spec)
                            _fallbacks(caught)
                        ok = out is not None and check_output(tally, op, out[0], ref, spec)
                        if not ok:
                            if out is not None:
                                tally.failed += 1  # a failed check counts as a failed op
                            dead[op.name].add(trial % MAX_POOL)
                        elif traced:
                            traced_roots[op.name].append(root)
                            if op.scored:
                                solutions.append(out[0])
                        else:
                            untraced[op.name].append(dt)
                    now = time.perf_counter()
                    if now - slice_start >= TRACED_SLICE_S or now >= deadline:
                        break
                done = time.perf_counter() >= deadline and i == len(OPS) - 1

        tr.trial = "score"
        for x in solutions:
            tr.call("core.eps_optimality", eps_optimality, x, problem, ref.x_ls)

        tr.trial = "reference"
        rng = np.random.default_rng(seed)
        padded = rng.standard_normal((next_pow_two(workload.M), workload.N))
        _repeat_span(tr, "sketch.fwht", lambda: fwht(padded), 2, 1.0)
        del padded
        v = rng.standard_normal(workload.N)
        u = rng.standard_normal(workload.M)
        _repeat_span(tr, "ref.matvec_pair", lambda: (problem.A @ v, problem.A.T @ u), 5, 0.3)
        l3 = l3_cache_bytes()
        copy_bytes = 4 * (l3 or 128 * 1024**2)
        src = np.ones(copy_bytes // 8)
        dst = np.empty_like(src)
        np.copyto(dst, src)  # first touch of dst, so the timed copies see no page faults
        _repeat_span(tr, "ref.copy", lambda: np.copyto(dst, src), 3, 0.0)
        del src, dst

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checks": tally.checks,
        "errors": dict(tally.errors),
        "copy_array_bytes": copy_bytes,
        "l3_bytes": l3,
        "tracer": tr,
    }
    result.update(layer_metrics(workload, tr, untraced, traced_roots, fallbacks, gram_calls,
                                copy_bytes))
    return result


def layer_metrics(workload, tr, untraced, traced_roots, fallbacks, gram_calls, copy_bytes):
    spans = tr.finished()
    own = tr.self_times()
    by_id = {s.id: s for s in spans}
    durations = defaultdict(list)
    for s in spans:
        durations[s.name].append(s.duration)
    counts = defaultdict(list)
    by_trial = defaultdict(dict)
    for name, value, trial in tr.counts:
        counts[name].append(value)
        by_trial[trial][name] = value

    def timing(span_name):
        return _summary(durations.get(span_name, []), "s")

    m = {
        "harness.generate_synthetic_s": timing("harness.generate_synthetic"),
        "core.LSProblem_s": timing("core.LSProblem"),
        "core.eps_optimality_s": timing("core.eps_optimality"),
    }
    M, N, msk = workload.M, workload.N, workload.m
    for k in KINDS:
        m[f"sketch.realize_s.{k}"] = timing(f"sketch.realize.{k}")
        m[f"sketch.apply_A_s.{k}"] = timing(f"sketch.apply_A.{k}")
        m[f"sketch.apply_b_s.{k}"] = timing(f"sketch.apply_b.{k}")
    m["sketch.fwht_s"] = timing("sketch.fwht")
    for k in KINDS:
        spec = SketchSpec(kind=k, m=msk, M=M, seed=0)
        flops = sketch_flops_estimate(spec, N, nnz=M * N if k == "count" else None)
        m[f"sketch.flops.{k}"] = _summary([flops], "flop")
    for k in KINDS:
        m[f"sketch.phi_bytes.{k}"] = _summary(counts.get(f"sketch.phi_bytes.{k}", [])[:1], "bytes")
    for k in KINDS:
        # computed traffic: Phi's arrays + A read + P written; ignores cache misses
        phi = m[f"sketch.phi_bytes.{k}"]["value"]
        apply_s = m[f"sketch.apply_A_s.{k}"]
        gbps = None
        if phi is not None and apply_s["value"]:
            gbps = (phi + 8.0 * (M * N + msk * N)) / apply_s["value"] / 1e9
        m[f"sketch.apply_gbps.{k}"] = {"value": gbps, "unit": "GB/s",
                                       "samples": apply_s["samples"], "computed": True}
    for k in KINDS:
        m[f"solvers.from_problem_s.{k}"] = timing(f"solvers.from_problem.{k}")
    m["solvers.gram_factor_s"] = timing("solvers.gram_factor")
    m["solvers.gram_solve_s"] = timing("solvers.gram_solve")
    m["solvers.gram_fallbacks"] = {"value": float(fallbacks), "unit": "count",
                                   "samples": gram_calls}
    m["solvers.spectral_s"] = timing("solvers.spectral")
    m["solvers.robust_cls_secular_s"] = timing("solvers.robust_cls_secular")
    m["solvers.preconditioner_s"] = timing("solvers.preconditioner")
    m["solvers.lsqr_s"] = timing("solvers.lsqr")
    m["solvers.lsqr_iters"] = _summary(counts.get("solvers.lsqr_iters", []), "count")
    per_iter = []
    for s in spans:
        if s.name == "solvers.lsqr":
            iters = by_trial[s.trial].get("solvers.lsqr_iters")
            if iters:
                per_iter.append(s.duration / iters)
    m["solvers.lsqr_s_per_iter"] = _summary(per_iter, "s")
    conv = counts.get("solvers.lsqr_converged", [])
    m["solvers.lsqr_converged_ratio"] = {
        "value": float(np.mean(conv)) if conv else None, "unit": "ratio", "samples": len(conv)}
    m["rpc.dual_search_s"] = timing("rpc.dual_search")
    m["rpc.outer_iters"] = _summary(counts.get("rpc.outer_iters", []), "count")
    m["rpc.newton_iters"] = _summary(counts.get("rpc.newton_iters", []), "count")
    m["rpc.foc_residual"] = _summary(counts.get("rpc.foc_residual", []), "ratio")
    m["ref.matvec_pair_s"] = timing("ref.matvec_pair")
    copy = timing("ref.copy")
    m["ref.copy_gbps"] = {"value": 2.0 * copy_bytes / copy["value"] / 1e9, "unit": "GB/s",
                          "samples": copy["samples"]}

    # overhead: the traced replays against the untraced calls of the same specs
    traced = {name: [by_id[r].duration for r in roots] for name, roots in traced_roots.items()}
    pairs = [op.name for op in OPS if untraced[op.name] and traced.get(op.name)]
    base = sum(float(np.median(untraced[n])) for n in pairs)
    with_trace = sum(float(np.median(traced[n])) for n in pairs)
    m["trace.overhead_ratio"] = {"value": with_trace / base - 1.0 if base else None,
                                 "unit": "ratio", "samples": len(pairs)}
    overhead_by_op = {n: float(np.median(traced[n]) / np.median(untraced[n])) - 1.0
                      for n in pairs}

    # per-layer self time of one pass over every op, and how much of each
    # op's root span its child spans leave uncovered
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s.id)
    layer_self = defaultdict(float)
    uncovered = {}
    for name, roots in traced_roots.items():
        per_replay = defaultdict(list)
        for r in roots:
            sums = defaultdict(float)
            stack = [r]
            while stack:
                sid = stack.pop()
                sums[by_id[sid].layer] += own[sid]
                stack.extend(children[sid])
            for layer in LAYERS:
                per_replay[layer].append(sums[layer])
        for layer in LAYERS:
            layer_self[layer] += float(np.median(per_replay[layer]))
        uncovered[name] = float(np.median([own[r] / by_id[r].duration for r in roots]))
    for layer in LAYERS:
        m[f"layer_self_s.{layer}"] = {"value": layer_self[layer], "unit": "s",
                                      "samples": len(traced_roots)}
    untraced_summary = {op.metric: _summary(untraced[op.name], "s") for op in OPS}
    return {"metrics": m, "uncovered": uncovered, "overhead_by_op": overhead_by_op,
            "untraced": untraced_summary}


# ROADMAP.md, "Baseline measured at this re-anchor": single runs at
# M = 66,536, N = 100, m = 10N; (row label, metric, table value, unit).
BASELINE_TABLE = (
    ("exact lstsq (reference)", "ols_s", 0.39, "s"),
    ("normal equations (A^T A + Cholesky)", "ols_normal_s", 0.03, "s"),
    ("LSProblem(...) construction (full SVD of A)", "core.LSProblem_s", 0.38, "s"),
    ("gaussian: realize Phi", "sketch.realize_s.gaussian", 1.89, "s"),
    ("gaussian: apply to A", "sketch.apply_A_s.gaussian", 0.25, "s"),
    ("ros: realize Phi", "sketch.realize_s.ros", 0.001, "s"),
    ("ros: apply to A", "sketch.apply_A_s.ros", 1.82, "s"),
    ("ros: fwht on 131,072 padded rows", "sketch.fwht_s", 1.56, "s"),
    ("count: realize Phi", "sketch.realize_s.count", 0.005, "s"),
    ("count: apply to A", "sketch.apply_A_s.count", 0.02, "s"),
    ("svd(P) (table: m = 400; here count m = 1000)", "solvers.spectral_s", 0.010, "s"),
    ("rpc dual search", "rpc.dual_search_s", 0.013, "s"),
    ("LSQR iterations, count preconditioner, tol 1e-10", "solvers.lsqr_iters", 30, "count"),
    ("LSQR seconds per iteration", "solvers.lsqr_s_per_iter", 0.017, "s"),
    ("one A, A^T pair", "ref.matvec_pair_s", 0.0064, "s"),
)


def baseline_rows(result) -> list[dict]:
    """Measured values in the row order of ROADMAP's baseline table."""
    rows = []
    for label, metric, table, unit in BASELINE_TABLE:
        entry = result["metrics"].get(metric) or result["untraced"].get(metric)
        value = entry["value"] if entry else None
        flagged = value is None or not (table / DISAGREE_FACTOR <= value <= table * DISAGREE_FACTOR)
        rows.append({"row": label, "metric": metric, "table": table, "measured": value,
                     "unit": unit, "flag": flagged})
    return rows


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, workload: Workload, seed: int, seconds: float, trace: int,
                pinned_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": {"name": workload.name, "M": workload.M, "N": workload.N, "m": workload.m,
                     "coherence": workload.coherence, "condition": CONDITION,
                     "residual_fraction": RESIDUAL_FRACTION, "rho": RHO, "lsqr_tol": LSQR_TOL},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_pinned": pinned_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "l3_bytes": l3_cache_bytes(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }


def result_line(result: dict, names: list[str]) -> dict:
    """The object printed last: exactly the keys the contract names."""
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]} for n in names},
    }


def format_table(result: dict, names: list[str]) -> str:
    lines = [f"{'metric':34} {'value':>14} {'unit':6} {'samples':>7}  note"]
    for name in names:
        e = result["metrics"][name]
        value = "n/a" if e["value"] is None else f"{e['value']:.6g}"
        note = ""
        if "tail" in e:
            note = f"p{e['tail']['percentile']} {e['tail']['value']:.6g}"
        if e.get("computed"):
            note = "computed from array sizes"
        lines.append(f"{name:34} {value:>14} {e['unit']:6} {e['samples']:>7}  {note}")
    for key, label in (("eps_seeded", "eps of seeded timed trials"),
                       ("untraced", "untraced op time in the traced run")):
        for name, e in result.get(key, {}).items():
            value = "n/a" if e["value"] is None else f"{e['value']:.6g}"
            lines.append(f"  {label}: {name} {value} {e['unit']} (n={e['samples']})")
    checks = ", ".join(f"{k} {v['ran'] - v['failed']}/{v['ran']}"
                       for k, v in result["checks"].items())
    lines.append(f"checks passed/ran: {checks}")
    lines.append(f"attempted {result['attempted']}, failed {result['failed']}"
                 + (f" ({dict(result['errors'])})" if result["errors"] else ""))
    return "\n".join(lines)


def format_baseline(rows) -> str:
    lines = ["ROADMAP baseline table vs this traced run "
             f"(flag: off by more than {DISAGREE_FACTOR}x)"]
    for r in rows:
        value = "n/a" if r["measured"] is None else f"{r['measured']:.4g}"
        lines.append(f"  {'DISAGREE' if r['flag'] else 'ok':8} {r['row']:50} "
                     f"table {r['table']:<8g} measured {value} {r['unit']}")
    return "\n".join(lines)
