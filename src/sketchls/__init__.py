"""Randomized-sketching least-squares toolkit.

Estimators for compressed, partially-compressed, regularized, and robust
least squares, three sketch families with E[Phi^T Phi] = I, and a
benchmark harness for accuracy/speed comparisons.
"""

from .core import (
    LSProblem,
    SolverReport,
    eps_optimality,
    make_report,
    profile_quantile,
    relative_residual_profile,
    solve_ols,
)
from .exceptions import (
    ConvergenceError,
    CsvFormatError,
    DegenerateInstanceError,
    DimensionError,
    RankDeficientError,
    SingularMatrixError,
    SketchLSError,
)
from .harness import (
    ExperimentConfig,
    ProblemSource,
    TrialRecord,
    emit_profile,
    emit_timing_breakdown,
    generate_synthetic,
    load_csv,
    load_records,
    run_experiment,
    split_rows,
)
from .rpc import (
    RpcParams,
    RpcSolution,
    robust_cls_objective,
    rpc_objective,
    rpc_objective_gradient,
    rpc_oracle,
    solve_robust_cls,
    solve_rpc,
    solve_rpc_sketched,
    stationarity_residual,
    worst_case_objective,
    worst_case_perturbation,
)
from .sketch import (
    SketchOperator,
    SketchSpec,
    fwht,
    identity_sketch,
    make_sketch,
    sketch_flops_estimate,
)
from .solvers import (
    SketchedProblem,
    blendenpik_preconditioner,
    cls_error_decomposition,
    default_mu,
    preconditioned_lsqr,
    solve_blendenpik,
    solve_cls,
    solve_pcls,
    solve_ridge_cls,
    solve_ridge_pcls,
)

__version__ = "0.1.0"
