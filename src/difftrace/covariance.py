"""Sample covariances for the two observation groups."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_symmetric


def check_observations(data, name: str = "data") -> np.ndarray:
    """Validate an n x p observation matrix: n >= 2 rows, all entries finite."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"{name} must be 2-d (rows = observations), got ndim={data.ndim}")
    if data.shape[0] < 2:
        raise ValueError(f"{name} needs at least 2 observations, got {data.shape[0]}")
    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"{name} has a non-finite value at row {i + 1}, column {j + 1}")
    return data


def sample_covariance(data, name: str = "data") -> np.ndarray:
    """Sample covariance of an n x p observation matrix.

    Columns are mean-centered in a C-ordered copy, so that the bits do not
    depend on the input's layout; the normalization is 1/n (maximum
    likelihood), and the output is symmetrized exactly.
    """
    data = np.ascontiguousarray(check_observations(data, name))
    n = data.shape[0]
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / n
    return (cov + cov.T) / 2.0


@dataclass(frozen=True)
class CovariancePair:
    """Sample covariances (sigma_x, sigma_y) with their group sizes."""

    sigma_x: np.ndarray
    sigma_y: np.ndarray
    n_x: int
    n_y: int

    def __post_init__(self):
        object.__setattr__(self, "sigma_x", np.asarray(self.sigma_x, dtype=float))
        object.__setattr__(self, "sigma_y", np.asarray(self.sigma_y, dtype=float))
        if self.sigma_x.shape != self.sigma_y.shape:
            raise ValueError(
                f"dimension mismatch: sigma_x is {self.sigma_x.shape}, "
                f"sigma_y is {self.sigma_y.shape}"
            )

    @property
    def p(self) -> int:
        return self.sigma_x.shape[0]


def build_pair(x, y) -> CovariancePair:
    """Covariance pair from the two raw observation matrices.

    Both groups must observe the same p variables. The covariances are
    judged PSD when a solve factors them (``solver.factor_pair``).
    """
    sigma_x = sample_covariance(x, name="group X")
    sigma_y = sample_covariance(y, name="group Y")
    if sigma_x.shape != sigma_y.shape:
        raise ValueError(
            f"variable-count mismatch: group X has p={len(sigma_x)}, group Y has p={len(sigma_y)}"
        )
    return CovariancePair(sigma_x, sigma_y, len(x), len(y))


def pair_from_covariances(sigma_x, sigma_y, n_x: int, n_y: int) -> CovariancePair:
    """Covariance pair from precomputed matrices (symmetrized; judged PSD
    when a solve factors them)."""
    sigma_x = as_symmetric(sigma_x, "sigma_x")
    sigma_y = as_symmetric(sigma_y, "sigma_y")
    return CovariancePair(sigma_x, sigma_y, int(n_x), int(n_y))
