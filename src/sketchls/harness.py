"""Benchmark driver: synthetic instances, CSV ingestion, experiment loops,
performance profiles, and timing breakdowns.

Experiments are deterministic: every cell of the (sketch kind, m, trial)
grid derives its own seed from the config seed, and all methods in a cell
share the same realized compression operator.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
import warnings
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular

from .core import (
    _BLOCK_BYTES,
    _PASS_ROWS,
    LSProblem,
    _halves,
    _pipelined,
    make_report,
    relative_residual_profile,
    solve_ols,
)
from .exceptions import CsvFormatError, DimensionError
from .rpc import RpcParams, solve_robust_cls, solve_rpc_sketched
from .sketch import KINDS, SketchSpec, make_sketch
from .solvers import (
    GramSolver,
    SketchedProblem,
    _converged_lsqr,
    blendenpik_preconditioner,
    default_mu,
)

COHERENCE_CLASSES = ("incoherent", "semi-coherent", "coherent")


def _gram(problem, sp, opts):
    return GramSolver(sp.P)


def _ridge_gram(problem, sp, opts):
    mu = default_mu(sp) if opts.mu == "auto" else float(opts.mu)
    return GramSolver(sp.P, mu)


def _spectral(problem, sp, opts):
    return sp.spectral


def _full_rhs(problem, sp, opts, gram):
    return gram.solve(sp.P.T @ sp.q)


def _partial_rhs(problem, sp, opts, gram):
    return gram.solve(sp.c)


def _rpc(problem, sp, opts, _):
    return solve_rpc_sketched(sp, params=RpcParams(rho=opts.rho)).x


# Every method in run order, as (needs a sketch, factor step, solve step).
# A step gets the problem, its SketchedProblem (None when unsketched) and the
# ExperimentConfig, for ``rho``, ``mu`` and ``lsqr_tol``; the solve step also
# gets what the factor step returned and returns x.
_METHOD_TABLE = {
    "ols": (False, None, lambda p, sp, o, _: solve_ols(p, "factorized")),
    "ols-normal": (False, None, lambda p, sp, o, _: solve_ols(p, "normal-equations")),
    "cls": (True, _gram, _full_rhs),
    "ridge-cls": (True, _ridge_gram, _full_rhs),
    "robust-cls": (True, None, lambda p, sp, o, _: solve_robust_cls(sp, rho=o.rho)),
    "pcls": (True, _gram, _partial_rhs),
    "ridge-pcls": (True, _ridge_gram, _partial_rhs),
    "rpc": (True, _spectral, _rpc),
    "blendenpik": (
        True,
        lambda p, sp, o: blendenpik_preconditioner(sp.P),
        lambda p, sp, o, R: _converged_lsqr(p.A, p.b, R, o.lsqr_tol),
    ),
}
METHODS = tuple(_METHOD_TABLE)
UNSKETCHED = tuple(name for name, (sketched, _, _) in _METHOD_TABLE.items() if not sketched)

_PROBLEM_STREAM = 101  # spawn key for the synthetic-problem generator


def _row_step(cols: int) -> int:
    """Rows of a block of the passes below: about ``_BLOCK_BYTES``, at least
    ``_PASS_ROWS``."""
    return max(_PASS_ROWS, _BLOCK_BYTES // (8 * cols))


def _times(X, R, out, gram=False):
    """``out <- X R`` block by block, ``out`` X itself or another array of
    X's shape, on both cores: ``_halves`` gives the first half of the row
    blocks to its worker and the rest to the caller. With ``gram`` it
    returns the sum of ``out_k^T out_k`` over the blocks, each added while
    its block is in cache into a partial per half. The split depends on the
    shapes alone."""
    step = _row_step(X.shape[1])

    def work(starts):
        total = np.zeros((R.shape[1],) * 2) if gram else None
        for lo in starts:
            out_k = out[lo : lo + step]
            np.matmul(X[lo : lo + step], R, out=out_k)
            if gram:
                total += out_k.T @ out_k
        return total

    first, last = _halves(work, range(0, len(X), step))
    return first + last if gram else None


def _inverse_chol(gram) -> np.ndarray:
    """``R^-1`` of the Cholesky factor ``R^T R = gram``; LinAlgError where
    ``gram`` is not numerically positive definite."""
    R = cholesky(gram, overwrite_a=True, check_finite=False)
    return solve_triangular(R, np.eye(len(R)), check_finite=False)


def _householder_q(G) -> np.ndarray:
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def _haar_columns(rng, rows, cols):
    """Orthonormal columns with Haar-like distribution: the Q, with a
    positive diagonal in R, of a QR of one ``standard_normal((rows, cols))``.

    For rows >= 2 cols the QR is CholeskyQR2 in three passes over G's row
    blocks (``_row_step``), each on both cores. (1) G is drawn block by
    block in stream order, bit for bit the one draw, by the worker of
    ``_pipelined`` while the caller adds the previous block's ``G_k^T G_k``.
    (2) With ``R1 = chol(G^T G)``, ``_times`` sets ``G_k <- G_k R1^-1`` and
    adds the new ``G_k^T G_k``. (3) With ``R2`` the Cholesky factor of that
    sum, ``_times`` sets ``G_k <- G_k R2^-1``. Every call that overlaps
    releases the GIL (numpy's draws and matmul; see ``_halves``). A tall
    Gaussian has condition number below about 6 with high probability, so
    the explicit inverses are accurate and two passes reach orthogonality at
    rounding level. A shorter or square G, which need not be that well
    conditioned, and one whose Cholesky fails, get a Householder QR; ``G
    R1^-1`` spans what G does with the same orientation, so a first pass
    done does not change that Q.
    """
    if rows < 2 * cols:
        return _householder_q(rng.standard_normal((rows, cols)))
    G = np.empty((rows, cols))
    gram = np.zeros((cols, cols))
    step = _row_step(cols)

    def draw(lo):
        block = G[lo : lo + step]
        rng.standard_normal(out=block)
        return block

    def add(block):
        gram[...] += block.T @ block

    _pipelined(draw, add, range(0, rows, step))
    try:
        gram = _times(G, _inverse_chol(gram), G, gram=True)
        _times(G, _inverse_chol(gram), G)
        return G
    except LinAlgError:
        return _householder_q(G)


def _geometric_sigma(n, condition):
    return np.geomspace(1.0, 1.0 / condition, n)


def _incoherent_matrix(rng, M, N, condition):
    """A = U diag(sigma) V^T with Haar U and V, and U, which spans range(A).
    A takes no M x N temporary: ``_times`` writes ``U_k (diag(sigma) V^T)``
    into each row block of A on both cores."""
    U = _haar_columns(rng, M, N)
    V = _haar_columns(rng, N, N)
    A = np.empty((M, N))
    _times(U, _geometric_sigma(N, condition)[:, None] * V.T, A)
    return A, U


def generate_synthetic(M, N, condition, coherence, seed, residual_fraction=0.5) -> LSProblem:
    """Random instance of a given coherence class with planted structure.

    The returned matrix has the requested condition number; the right-hand
    side is ``A x_star + z`` with ``z`` orthogonal to range(A) and
    ``||z|| = residual_fraction * ||A x_star||``.

    The incoherent and semi-coherent classes draw their dense block from
    Haar factors (``_incoherent_matrix``), built in passes over row blocks
    on both cores, and project z off range(A) with those factors' U. The
    coherent class has no U and projects z with the TSQR of ``[A z]``
    (``solve_ols``). An incoherent instance peaks at about 2.2 x 8 M N bytes
    of numpy arrays: U, A and a boolean copy of A for the finiteness check.
    """
    if not M >= N >= 1:
        raise DimensionError(f"need M >= N >= 1, got M = {M}, N = {N}")
    if not 1 <= condition < math.inf:
        raise ValueError("condition number must be finite and at least 1")
    if coherence not in COHERENCE_CLASSES:
        raise ValueError(f"unknown coherence class {coherence!r}")
    if not 0 <= residual_fraction < math.inf:
        raise ValueError("residual fraction must be finite and nonnegative")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(_PROBLEM_STREAM,))
    )

    # orthonormal columns that, with the unit vectors of every row below
    # them, span range(A), when they are at hand
    U = None
    if coherence == "incoherent" or N < 2:
        A, U = _incoherent_matrix(rng, M, N, condition)
    elif coherence == "semi-coherent":
        # leverage split: a dense incoherent block stacked with identity rows
        k = N // 2
        G, U = _incoherent_matrix(rng, M - k, N - k, condition)
        A = np.zeros((M, N))
        A[: M - k, : N - k] = G
        A[M - k :, N - k :] = np.eye(k)
    else:
        # nearly all leverage on the first N rows
        A = np.zeros((M, N))
        A[:N, :N] = np.diag(_geometric_sigma(N, condition))
        if M > N:
            A[N:] = 1e-8 * rng.standard_normal((M - N, N))

    x_star = rng.standard_normal(N)
    b = A @ x_star
    scale = float(np.linalg.norm(b))
    if residual_fraction > 0:
        z = rng.standard_normal(M)
        if U is None:
            z -= A @ solve_ols(LSProblem(A, z))  # by the two-core TSQR of [A z]
        else:
            z[len(U) :] = 0.0
            z[: len(U)] -= U @ (U.T @ z[: len(U)])
        z_norm = float(np.linalg.norm(z))
        if z_norm > 0:
            b = b + z * (residual_fraction * scale / z_norm)
    return LSProblem(A=A, b=b)


def load_csv(path, b_policy: str = "last", b_path=None) -> LSProblem:
    """Parse a header-less numeric CSV into a least-squares instance.

    ``b_policy="last"`` takes the right-hand side from the last column;
    ``b_policy="file"`` reads it from the single-column file ``b_path``.
    Ragged rows and non-numeric fields are rejected with line numbers.
    """
    rows = _parse_numeric_csv(path)
    if b_policy == "last":
        if rows.shape[1] < 2:
            raise CsvFormatError(f"{path}: need at least 2 columns to split off b")
        A, b = rows[:, :-1], rows[:, -1]
    elif b_policy == "file":
        if b_path is None:
            raise ValueError("b_policy='file' requires b_path")
        b_rows = _parse_numeric_csv(b_path)
        if b_rows.shape[1] != 1:
            raise CsvFormatError(f"{b_path}: expected a single column, got {b_rows.shape[1]}")
        if b_rows.shape[0] != rows.shape[0]:
            raise CsvFormatError(
                f"{b_path}: {b_rows.shape[0]} rows do not match {rows.shape[0]} data rows"
            )
        A, b = rows, b_rows[:, 0]
    else:
        raise ValueError(f"unknown b_policy {b_policy!r}")
    if A.shape[0] <= A.shape[1]:
        raise CsvFormatError(
            f"{path}: {A.shape[0]} rows x {A.shape[1]} feature columns is not overdetermined"
        )
    return LSProblem(A=A, b=b)


def _parse_numeric_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CsvFormatError(
                    f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                bad = next(f for f in fields if not _is_number(f))
                raise CsvFormatError(
                    f"{path}: line {lineno} has non-numeric field {bad!r}"
                ) from None
    if not rows:
        raise CsvFormatError(f"{path}: file is empty")
    return np.asarray(rows, dtype=float)


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def split_rows(problem: LSProblem, n_train: int, n_test: int, seed: int):
    """Disjoint train/test row subsets sampled without replacement."""
    if n_train + n_test > problem.M:
        raise ValueError(
            f"cannot draw {n_train}+{n_test} rows from {problem.M} without replacement"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(7,)))
    picked = rng.choice(problem.M, size=n_train + n_test, replace=False)
    train, test = picked[:n_train], picked[n_train:]
    return (
        LSProblem(A=problem.A[train], b=problem.b[train]),
        LSProblem(A=problem.A[test], b=problem.b[test]),
    )


# ---------------------------------------------------------------------------
# experiment configuration and records
# ---------------------------------------------------------------------------


def _from_dict(cls, data, what: str):
    """``cls(**data)``, with a ValueError naming a key of ``data`` that is
    not a field of the dataclass ``cls``, or a field it needs and lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}; expected one of {names}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{what} lacks {missing[0]!r}")
    return cls(**data)


def _wrong_type(value, kind) -> bool:
    """True unless value is a ``kind``; a bool counts as no number."""
    return isinstance(value, bool) or not isinstance(value, kind)


def _check_types(obj, kind, what: str, *names):
    """ValueError naming the first of the fields ``names`` of ``obj`` whose
    value is not a ``kind``, so that a wrong-typed config value is refused
    where it is read, not as a TypeError deep in a run."""
    for name in names:
        value = getattr(obj, name)
        if _wrong_type(value, kind):
            raise ValueError(f"{name} must be {what}, not {value!r}")


@dataclass
class ProblemSource:
    kind: str = "synthetic"  # "synthetic" | "csv"
    rows: int = 500
    cols: int = 20
    condition: float = 100.0
    coherence: str = "incoherent"
    residual_fraction: float = 0.5
    path: str | None = None
    b_policy: str = "last"
    b_path: str | None = None

    def __post_init__(self):
        _check_types(self, numbers.Integral, "an integer", "rows", "cols")
        _check_types(self, numbers.Real, "a number", "condition", "residual_fraction")
        _check_types(self, str, "a string", "coherence", "b_policy")
        _check_types(self, (str, os.PathLike, type(None)), "a path or null", "path", "b_path")
        if self.kind not in ("synthetic", "csv"):
            raise ValueError(f"unknown source kind {self.kind!r}; expected 'synthetic' or 'csv'")
        if self.kind == "csv" and self.path is None:
            raise ValueError("a csv source needs a path")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSource":
        return _from_dict(cls, data, "source")


@dataclass
class ExperimentConfig:
    source: ProblemSource = field(default_factory=ProblemSource)
    sketch_kinds: tuple = ("gaussian",)
    m_values: tuple = (100,)
    methods: tuple = ("pcls",)
    trials: int = 1
    seed: int = 0
    rho: float = 1.0
    mu: float | str = "auto"  # a number, or "auto" for the data-driven default
    lsqr_tol: float = 1e-6
    timing_repeats: int = 3  # best-of-k timings after one discarded warm-up

    def __post_init__(self):
        for name in ("sketch_kinds", "m_values", "methods"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a list, not {value!r}")
        for m in self.m_values:
            if _wrong_type(m, numbers.Integral):
                raise ValueError(f"m_values must hold integers, not {m!r}")
        _check_types(self, numbers.Integral, "an integer", "trials", "seed", "timing_repeats")
        _check_types(self, numbers.Real, "a number", "rho", "lsqr_tol")
        if self.mu != "auto":
            _check_types(self, numbers.Real, "a number or 'auto'", "mu")
        self.sketch_kinds = tuple(self.sketch_kinds)
        self.m_values = tuple(int(m) for m in self.m_values)
        self.methods = tuple(self.methods)
        for kind in self.sketch_kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown sketch kind {kind!r}")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.timing_repeats < 1:
            raise ValueError("timing_repeats must be at least 1")
        if not 0.0 <= self.rho < math.inf:
            raise ValueError("rho must be finite and nonnegative")
        if self.mu != "auto" and not 0.0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and nonnegative, or 'auto'")
        if not 0.0 < self.lsqr_tol < math.inf:
            raise ValueError("lsqr_tol must be finite and positive")

    def validate_grid(self, problem: LSProblem):
        """Refuse an m outside [N, M] when a method of the grid sketches;
        unsketched methods read no m."""
        if all(method in UNSKETCHED for method in self.methods):
            return
        for m in self.m_values:
            if not (problem.N <= m <= problem.M):
                raise ValueError(f"sketch size m={m} outside [N={problem.N}, M={problem.M}]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if isinstance(data, dict) and "source" in data:
            data = {**data, "source": ProblemSource.from_dict(data["source"])}
        return _from_dict(cls, data, "config")

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass
class TrialRecord:
    config_hash: str
    method: str
    sketch: str  # kind, or "none" for unsketched methods
    m: int
    trial: int
    seed: int
    relative_accuracy: float | None
    eps_optimality: float | None
    timings: dict
    error: str | None = None

    def __post_init__(self):
        _check_types(self, str, "a string", "config_hash", "method", "sketch")
        _check_types(self, (str, type(None)), "a string or null", "error")
        _check_types(self, numbers.Integral, "an integer", "m", "trial", "seed")
        if self.error is None:
            _check_types(self, numbers.Real, "a number", "relative_accuracy", "eps_optimality")
        else:
            _check_types(self, (numbers.Real, type(None)), "a number or null",
                         "relative_accuracy", "eps_optimality")
        if _wrong_type(self.timings, dict) or any(
            _wrong_type(k, str) or _wrong_type(v, numbers.Real) for k, v in self.timings.items()
        ):
            raise ValueError(f"timings must map phase names to numbers, not {self.timings!r}")

    def to_json(self) -> str:
        return json.dumps(self.__dict__)

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        return _from_dict(cls, json.loads(line), "record")

    @property
    def failed(self) -> bool:
        return self.error is not None


def load_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.strip():
                try:
                    records.append(TrialRecord.from_json(line))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def _build_problem(config: ExperimentConfig) -> LSProblem:
    src = config.source
    if src.kind == "synthetic":
        return generate_synthetic(
            src.rows,
            src.cols,
            src.condition,
            src.coherence,
            seed=config.seed,
            residual_fraction=src.residual_fraction,
        )
    return load_csv(src.path, b_policy=src.b_policy, b_path=src.b_path)


def _cell_seed(root_seed, kind, m, trial) -> int:
    seq = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=(KINDS.index(kind) + 1, int(m), int(trial))
    )
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_pipeline(problem, opts, method, kind, m, sketch_seed):
    """Run ``method``'s table steps on one cell; returns (x, phase timings).

    ``opts`` is an :class:`ExperimentConfig`.
    The ``sketch`` phase realizes Phi and forms the SketchedProblem,
    ``A^T b`` included.
    """
    sketched, factor, solve = _METHOD_TABLE[method]
    timings = {"sketch": 0.0, "factor": 0.0, "solve": 0.0}

    def phase(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        timings[name] = time.perf_counter() - start
        return out

    sp = state = None
    if sketched:
        spec = SketchSpec(kind=kind, m=m, M=problem.M, seed=sketch_seed)
        sp = phase("sketch", lambda: SketchedProblem.from_problem(problem, make_sketch(spec)))
    if factor is not None:
        state = phase("factor", factor, problem, sp, opts)
    x = phase("solve", solve, problem, sp, opts, state)
    return x, timings


def run_experiment(config: ExperimentConfig, out_path=None):
    """Execute every (method, sketch kind, m, trial) cell of the grid.

    Records are appended to ``out_path`` (JSON lines) as they complete, so
    a crashed run keeps everything finished so far. Individual cell
    failures become failed records instead of aborting the run.
    """
    problem = _build_problem(config)
    config.validate_grid(problem)
    x_ls = solve_ols(problem, "factorized")
    chash = config.config_hash()

    sink = open(out_path, "a", encoding="utf-8") if out_path else None
    records = []
    try:
        for method in config.methods:
            kinds = ("none",) if method in UNSKETCHED else config.sketch_kinds
            ms = (0,) if method in UNSKETCHED else config.m_values
            for kind in kinds:
                for m in ms:
                    for trial in range(config.trials):
                        seed = 0 if kind == "none" else _cell_seed(config.seed, kind, m, trial)
                        record = _run_cell(
                            problem, config, x_ls, chash,
                            method, kind, m, trial, seed,
                        )
                        records.append(record)
                        if sink is not None:
                            sink.write(record.to_json() + "\n")
                            sink.flush()
    finally:
        if sink is not None:
            sink.close()
    return records


def _run_cell(problem, config, x_ls, chash, method, kind, m, trial, seed):
    try:
        # the first run warms caches and is discarded; each phase keeps its
        # best time over the rest
        runs = [
            _run_pipeline(problem, config, method, kind, m, seed)
            for _ in range(config.timing_repeats + 1)
        ][1:]
        x = runs[-1][0]
        best = {phase: min(t[phase] for _, t in runs) for phase in runs[0][1]}
        report = make_report(problem, x_ls, x, method)
        return TrialRecord(
            config_hash=chash, method=method, sketch=kind, m=m, trial=trial, seed=seed,
            relative_accuracy=report.relative_accuracy,
            eps_optimality=report.eps_optimality,
            timings=best,
        )
    except Exception as exc:  # noqa: BLE001 - failed cells become failed records
        return TrialRecord(
            config_hash=chash, method=method, sketch=kind, m=m, trial=trial, seed=seed,
            relative_accuracy=None, eps_optimality=None, timings={},
            error=f"{type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------------
# report emitters
# ---------------------------------------------------------------------------


def _group_label(record, keys):
    return "|".join(f"{k}={getattr(record, k)}" for k in keys)


def emit_profile(records, group_keys=("method", "sketch", "m"), out_path=None):
    """Per-group CDF rows of the relative residual factor.

    Returns ``[(group, fraction, value)]`` sorted by group then fraction and
    optionally writes them as CSV with a ``group,fraction,value`` header.
    """
    names = [f.name for f in fields(TrialRecord)]
    for key in group_keys:
        if key not in names:
            raise ValueError(f"unknown group key {key!r}; expected one of {names}")
    groups = {}
    for rec in records:
        if rec.failed:
            warnings.warn(f"skipping failed record {rec.method}/{rec.sketch}/m={rec.m}",
                          stacklevel=2)
            continue
        groups.setdefault(_group_label(rec, group_keys), []).append(
            1.0 + rec.relative_accuracy
        )
    rows = []
    for label in sorted(groups):
        for fraction, value in relative_residual_profile(groups[label]):
            rows.append((label, fraction, value))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("group,fraction,value\n")
            for label, fraction, value in rows:
                handle.write(f"{label},{fraction:.12g},{value:.12g}\n")
    return rows


def emit_timing_breakdown(records, out_path=None):
    """Mean per-phase seconds per method; total is the exact sum of phases.

    Returns ``[(method, sketch_time, factor_time, solve_time, total)]``.
    """
    groups = {}
    for rec in records:
        if rec.failed:
            continue
        groups.setdefault(rec.method, []).append(rec.timings)
    rows = []
    for method in sorted(groups):
        timing_list = groups[method]
        means = {
            phase: float(np.mean([t.get(phase, 0.0) for t in timing_list]))
            for phase in ("sketch", "factor", "solve")
        }
        total = means["sketch"] + means["factor"] + means["solve"]
        rows.append((method, means["sketch"], means["factor"], means["solve"], total))
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("method,sketch_time,factor_time,solve_time,total\n")
            for method, *phases, _ in rows:
                parts = [f"{t:.9f}" for t in phases]
                # the written total is the sum of the written (rounded) parts
                total = sum(float(part) for part in parts)
                handle.write(",".join([method, *parts, f"{total:.9f}"]) + "\n")
    return rows
