"""Penalty grids, regularization-path solves with warm starts, and BIC tuning."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .covariance import CovariancePair
from .linalg import SolverError, norm_entrywise_linf, norm_frobenius
from .solver import DeltaEstimate, SolverConfig, admm_solve, factor_pair

# Residual norm used inside the information criterion: Frobenius or max-abs.
BIC_NORMS = ("frobenius", "max")

PATH_CSV_COLUMNS = ("lambda", "nnz", "bic_f", "bic_inf", "converged", "iterations")


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


def lambda_grid(pair: CovariancePair, count: int = 50, ratio: float = 0.01) -> np.ndarray:
    """Log-spaced descending penalties from lambda_max down to ratio * lambda_max."""
    check_grid(count, ratio)
    top = lambda_max(pair)
    if top == 0.0:
        raise ValueError("groups indistinguishable: lambda_max is zero")
    return np.geomspace(top, ratio * top, count)


def bic_score(delta, pair: CovariancePair, norm: str = "frobenius") -> float:
    """Information criterion: scaled stationarity-residual norm plus a
    log(n)-weighted count of nonzero entries.

    The residual is (sigma_x delta sigma_y + sigma_y delta sigma_x)/2
    - sigma_x + sigma_y, measured in the Frobenius norm
    (``norm="frobenius"``) or the max-abs norm (``norm="max"``).
    """
    if norm not in BIC_NORMS:
        raise ValueError(f"norm must be one of {BIC_NORMS}, got {norm!r}")
    delta = np.asarray(delta, dtype=float)
    sx, sy = pair.sigma_x, pair.sigma_y
    if delta.shape != sx.shape:
        raise ValueError(f"dimension mismatch: delta {delta.shape}, pair {sx.shape}")
    n = pair.n_x + pair.n_y
    if n < 2:
        raise ValueError("need n_x + n_y >= 2")
    resid = 0.5 * (sx @ delta @ sy + sy @ delta @ sx) - sx + sy
    size = norm_frobenius(resid) if norm == "frobenius" else norm_entrywise_linf(resid)
    return float(n * size + np.log(n) * np.count_nonzero(delta))


@dataclass
class RegPath:
    """Solutions along a descending penalty grid with both BIC variants."""

    lambdas: np.ndarray
    estimates: List[DeltaEstimate]
    bic_f: np.ndarray
    bic_inf: np.ndarray
    nnz: np.ndarray

    def __len__(self) -> int:
        return len(self.estimates)


def solve_path(
    pair: CovariancePair,
    lambdas: Sequence[float],
    cfg: Optional[SolverConfig] = None,
) -> RegPath:
    """Solve at every penalty in descending order, warm-starting each solve
    from the previous one's state and sharing one factorization of the pair.
    Records both BIC variants per entry."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        raise ValueError("empty penalty grid")
    if lambdas.size > 1 and not np.all(np.diff(lambdas) < 0):
        raise ValueError("penalties must be strictly descending")
    estimates: List[DeltaEstimate] = []
    bic_f = np.empty(lambdas.size)
    bic_inf = np.empty(lambdas.size)
    nnz = np.empty(lambdas.size, dtype=int)
    state = factors = None
    for i, lam in enumerate(lambdas):
        try:
            # Factor once, at the first penalty not answered by zero.
            if factors is None and lam < lambda_max(pair):
                factors = factor_pair(pair)
            est, state = admm_solve(pair, float(lam), cfg, warm=state, factors=factors)
        except (SolverError, ValueError) as err:
            raise SolverError(f"path solve failed at lambda={lam:g}: {err}") from err
        estimates.append(est)
        bic_f[i] = bic_score(est.delta, pair, "frobenius")
        bic_inf[i] = bic_score(est.delta, pair, "max")
        nnz[i] = est.nnz
    return RegPath(lambdas, estimates, bic_f, bic_inf, nnz)


def select_by_bic(path: RegPath, norm: str = "frobenius") -> Tuple[float, DeltaEstimate]:
    """Path entry minimizing the chosen BIC; ties go to the larger penalty
    (sparser model)."""
    if norm not in BIC_NORMS:
        raise ValueError(f"norm must be one of {BIC_NORMS}, got {norm!r}")
    if len(path) == 0:
        raise ValueError("empty path")
    scores = path.bic_f if norm == "frobenius" else path.bic_inf
    best = 0
    for i in range(1, len(path)):
        if scores[i] < scores[best]:
            best = i
    return float(path.lambdas[best]), path.estimates[best]


def write_path_csv(path: RegPath, fileobj) -> None:
    """Export the path summary (one row per penalty)."""
    writer = csv.writer(fileobj)
    writer.writerow(PATH_CSV_COLUMNS)
    for i, est in enumerate(path.estimates):
        writer.writerow(
            [
                repr(float(path.lambdas[i])),
                int(path.nnz[i]),
                repr(float(path.bic_f[i])),
                repr(float(path.bic_inf[i])),
                est.converged,
                est.iterations,
            ]
        )
