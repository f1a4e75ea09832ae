"""Penalty grids, predicted regularization-path solves, and BIC tuning."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .covariance import CovariancePair
from .linalg import SolverError, norm_entrywise_linf, norm_frobenius
from .solver import (
    DeltaEstimate,
    NoMinimizerError,
    SolverConfig,
    admm_solve,
    dtrace_gradient,
    factor_pair,
)

# Residual norms of the two information criteria: Frobenius and max-abs.
BIC_NORMS = ("frobenius", "max")

PATH_CSV_COLUMNS = (
    "lambda", "nnz", "bic_f", "bic_inf", "converged", "iterations", "kkt", "predict_iterations",
)

# Default penalty grid: point count and end-to-start ratio.
GRID_COUNT = 50
GRID_RATIO = 0.01


def lambda_max(pair: CovariancePair) -> float:
    """Smallest penalty at which the all-zero matrix is optimal.

    The loss gradient at zero is sigma_y - sigma_x, so zero satisfies the
    stationarity conditions exactly when the penalty dominates its largest
    entry.
    """
    return norm_entrywise_linf(pair.sigma_x - pair.sigma_y)


def check_grid(count: int, ratio: float) -> None:
    """Validate a penalty grid's point count and end-to-start ratio."""
    if count < 2:
        raise ValueError(f"grid needs at least 2 points, got {count}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"grid ratio must lie in (0, 1), got {ratio}")


def lambda_grid(
    pair: CovariancePair, count: int = GRID_COUNT, ratio: float = GRID_RATIO
) -> np.ndarray:
    """Log-spaced descending penalties from lambda_max down to ratio * lambda_max."""
    check_grid(count, ratio)
    top = lambda_max(pair)
    if top == 0.0:
        raise ValueError("groups indistinguishable: lambda_max is zero")
    return np.geomspace(top, ratio * top, count)


def bic_score(delta, pair: CovariancePair, grad=None) -> Tuple[float, float]:
    """Information criteria (BIC-F, BIC-inf): the scaled Frobenius and
    max-abs norms of the loss gradient (``dtrace_gradient``, the
    stationarity residual), each plus a log(n)-weighted count of nonzero
    entries. ``grad`` is that gradient, passed by callers that also need
    it; it is computed here otherwise."""
    n = pair.n_x + pair.n_y
    if n < 2:
        raise ValueError("need n_x + n_y >= 2")
    resid = dtrace_gradient(delta, pair.sigma_x, pair.sigma_y) if grad is None else grad
    penalty = np.log(n) * np.count_nonzero(delta)
    sizes = norm_frobenius(resid), norm_entrywise_linf(resid)
    return tuple(float(n * size + penalty) for size in sizes)


@dataclass
class RegPath:
    """Solutions along a descending penalty grid with both BIC variants.
    ``no_minimizer_at`` is the grid's first penalty certified to have no
    minimizer, where the path stops, None when every penalty was solved.
    Each penalty's lambda, nnz, unit-free KKT residual and predictor
    iterations are read from its estimate."""

    estimates: List[DeltaEstimate]
    bic_f: np.ndarray
    bic_inf: np.ndarray
    no_minimizer_at: Optional[float] = None

    def __len__(self) -> int:
        return len(self.estimates)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([est.lam for est in self.estimates], dtype=float)

    @property
    def nnz(self) -> np.ndarray:
        return np.array([est.nnz for est in self.estimates], dtype=int)

    @property
    def kkt(self) -> np.ndarray:
        return np.array([est.kkt for est in self.estimates], dtype=float)

    @property
    def predict_iterations(self) -> np.ndarray:
        return np.array([est.predict_iterations for est in self.estimates], dtype=int)


def solve_path(
    pair: CovariancePair,
    lambdas: Sequence[float],
    cfg: Optional[SolverConfig] = None,
) -> RegPath:
    """Solve at every penalty in descending order, sharing one solve
    context of the pair (``factor_pair``). Each penalty takes one
    ``admm_solve`` call, which decides it, started from the line through
    the last two estimates (the path is piecewise linear in lambda).
    Scores both BIC variants per entry from the loss gradient that call
    returns, so a certified penalty takes one float64 Hessian product. The
    path stops at the first penalty certified to have no minimizer
    (``NoMinimizerError``), since no smaller one has one either; the error
    propagates when that is the first penalty. Bad input raises
    ValueError; a failed solve raises SolverError naming its penalty."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("empty penalty grid")
    if lambdas.size > 1 and not np.all(np.diff(lambdas) < 0):
        raise ValueError("penalties must be strictly descending")
    if np.isinf(lambdas).any():
        raise ValueError(f"penalty must be finite, got {lambdas[np.isinf(lambdas)][0]}")
    estimates: List[DeltaEstimate] = []
    scores: List[Tuple[float, float]] = []
    factors = factor_pair(pair)
    no_minimizer_at = None
    for lam in lambdas:
        guess = _extrapolate(estimates, lam)
        try:
            est, grad = admm_solve(pair, float(lam), cfg, start=guess, factors=factors)
        except NoMinimizerError:
            if not estimates:
                raise
            no_minimizer_at = float(lam)
            break
        except SolverError as err:
            raise SolverError(f"path solve failed at lambda={lam:g}: {err}") from err
        estimates.append(est)
        scores.append(bic_score(est.delta, pair, grad))
    bic_f, bic_inf = np.array(scores).T
    return RegPath(estimates, bic_f, bic_inf, no_minimizer_at)


def _extrapolate(estimates: List[DeltaEstimate], lam: float) -> Optional[np.ndarray]:
    """The line through the last two estimates, at ``lam``; the last
    estimate when there is one, None (a start from zero) when there is none."""
    if len(estimates) < 2:
        return estimates[-1].delta if estimates else None
    (lam1, d1), (lam2, d2) = ((est.lam, est.delta) for est in estimates[-2:])
    return d2 + ((lam - lam2) / (lam1 - lam2)) * (d1 - d2)


def select_by_bic(path: RegPath, norm: str = "frobenius") -> Tuple[int, DeltaEstimate]:
    """Index and estimate of the path entry minimizing the chosen BIC; ties
    go to the larger penalty (sparser model)."""
    if norm not in BIC_NORMS:
        raise ValueError(f"norm must be one of {BIC_NORMS}, got {norm!r}")
    if len(path) == 0:
        raise ValueError("empty path")
    scores = path.bic_f if norm == "frobenius" else path.bic_inf
    best = int(np.argmin(scores))
    return best, path.estimates[best]


def write_path_csv(path: RegPath, fileobj) -> None:
    """Export the path summary (one row per penalty). Rows hold Python
    floats, which csv writes as their ``repr``."""
    writer = csv.writer(fileobj)
    writer.writerow(PATH_CSV_COLUMNS)
    for est, bic_f, bic_inf in zip(path.estimates, path.bic_f.tolist(), path.bic_inf.tolist()):
        writer.writerow([est.lam, est.nnz, bic_f, bic_inf, est.converged, est.iterations,
                         est.kkt, est.predict_iterations])
