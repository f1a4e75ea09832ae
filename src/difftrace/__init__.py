"""difftrace: direct estimation of the difference between two precision
matrices from two-group data, with penalty-path tuning and benchmark tools."""

from .covariance import CovariancePair, build_pair, pair_from_covariances, sample_covariance
from .evaluation import (
    CurvePoint,
    MetricsReport,
    curve_from_path,
    irrepresentability_alpha,
    naive_baseline,
    support_metrics,
    threshold_curve,
    write_curve_csv,
)
from .linalg import (
    EigenPair,
    SolverError,
    norm_entrywise_l1,
    norm_entrywise_linf,
    norm_frobenius,
    soft_threshold,
    solve_axb_plus_gx,
    sym_eig,
)
from .model_selection import (
    RegPath,
    bic_score,
    lambda_grid,
    lambda_max,
    select_by_bic,
    solve_path,
)
from .simulation import (
    GroundTruth,
    SimulationSpec,
    gen_sim1,
    gen_sim2,
    gen_sim3,
    generate,
    sample_gaussian,
)
from .solver import (
    DeltaEstimate,
    NoMinimizerError,
    SolverConfig,
    admm_solve,
    dtrace_gradient,
    dtrace_loss,
    kkt_check,
    penalized_objective,
)

__version__ = "0.1.0"

__all__ = [
    "CovariancePair",
    "CurvePoint",
    "DeltaEstimate",
    "EigenPair",
    "GroundTruth",
    "MetricsReport",
    "NoMinimizerError",
    "RegPath",
    "SimulationSpec",
    "SolverConfig",
    "SolverError",
    "admm_solve",
    "bic_score",
    "build_pair",
    "curve_from_path",
    "dtrace_gradient",
    "dtrace_loss",
    "gen_sim1",
    "gen_sim2",
    "gen_sim3",
    "generate",
    "irrepresentability_alpha",
    "kkt_check",
    "lambda_grid",
    "lambda_max",
    "naive_baseline",
    "norm_entrywise_l1",
    "norm_entrywise_linf",
    "norm_frobenius",
    "pair_from_covariances",
    "penalized_objective",
    "sample_covariance",
    "sample_gaussian",
    "select_by_bic",
    "soft_threshold",
    "solve_axb_plus_gx",
    "solve_path",
    "support_metrics",
    "sym_eig",
    "threshold_curve",
    "write_curve_csv",
]
