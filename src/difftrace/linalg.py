"""Dense symmetric matrix kernels used by the difference-network solver.

Everything here is a pure function of its inputs; no shared mutable state.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

# Eigenvalues of nominally PSD inputs may dip slightly below zero in floating
# point; values down to -PSD_TOL times the largest eigenvalue are clamped,
# anything lower is rejected.
PSD_TOL = 1e-8


class SolverError(RuntimeError):
    """Numerical failure inside a solve (factorization breakdown, divergence)."""


class EigenPair(NamedTuple):
    """Eigendecomposition U diag(values) U^T with eigenvalues in descending order."""

    values: np.ndarray
    vectors: np.ndarray


def check_square(a, name: str = "matrix") -> np.ndarray:
    """Validate a finite square 2-d array and return it as float64."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_symmetric(a, name: str = "matrix") -> np.ndarray:
    """Validate and symmetrize by averaging with the transpose."""
    a = check_square(a, name)
    return (a + a.T) / 2.0


def pd_cholesky(a, name: str) -> np.ndarray:
    """Cholesky factor of ``as_symmetric(a)``; ValueError unless it is PD."""
    a = as_symmetric(a, name)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{name} is not positive definite") from err


def sym_eig(a, name: str = "matrix") -> EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = check_square(a, name)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"eigendecomposition of {name} failed: {err}") from err
    return EigenPair(values[::-1].copy(), vectors[:, ::-1].copy())


def psd_eig(a, name: str = "matrix") -> EigenPair:
    """Eigendecomposition of a nominally PSD matrix with small negatives
    clamped to zero. The tolerance is relative to the largest eigenvalue, so
    the verdict does not depend on the matrix's units."""
    values, vectors = sym_eig(a, name)
    if values[-1] < -PSD_TOL * max(values[0], 0.0):
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {values[-1]:.3e}"
        )
    return EigenPair(np.maximum(values, 0.0), vectors)


def range_size(values: np.ndarray) -> int:
    """Numerical rank from descending ``psd_eig`` eigenvalues, by
    np.linalg.matrix_rank's default rule: an eigenvalue at most p * eps *
    (largest eigenvalue) counts as zero, which stays within eigh's own
    backward error. The nonzero ones lead."""
    tol = values.size * np.finfo(float).eps * values.max(initial=0.0)
    return int(np.count_nonzero(values > tol))


def solve_axb_plus_gx(a, b, c, gamma: float) -> np.ndarray:
    """Solve A X B + gamma X = C for symmetric nonnegative-definite A, B.

    Writing A = Ua diag(a) Ua^T and B = Ub diag(b) Ub^T, the equation is
    the entrywise scaling (a_i b_j + gamma) Y_ij = (Ua^T C Ub)_ij in the
    eigenbases, and 1 / (a_i b_j + gamma) = 1/gamma - E_ij with
    E_ij = a_i b_j / (gamma (a_i b_j + gamma)). Hence

        X = C / gamma - U_r [ E o (U_r^T C V_s) ] V_s^T,

    where U_r and V_s are the eigenvectors of the r and s eigenvalues of A
    and B that count as nonzero (``range_size``). E vanishes wherever an
    eigenvalue does, so past the two eigendecompositions only the numerical
    ranges enter: p^2 (r + s) + 2 p r s multiply-adds, 4 p^3 at full rank.

    The residual ||A X B + gamma X - C||_inf <= 1e-8 * max(1, ||C||_inf) is
    the normative contract; the test suite verifies it on every solve.

    Parameters
    ----------
    a, b : (p, p) symmetric nonnegative-definite arrays.
    c : (p, p) array, any values.
    gamma : positive scalar, so every divisor a_i b_j + gamma is positive.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    a_eig, b_eig = psd_eig(a, "A"), psd_eig(b, "B")
    r, s = range_size(a_eig.values), range_size(b_eig.values)
    left = np.ascontiguousarray(a_eig.vectors[:, :r])
    right = np.ascontiguousarray(b_eig.vectors[:, :s])
    ab = np.multiply.outer(a_eig.values[:r], b_eig.values[:s])
    c = np.asarray(c, dtype=float)
    y = left.T @ c @ right
    y *= ab / (gamma * (ab + gamma))
    x = c / gamma
    x -= left @ y @ right.T
    return x


class NullSpace(NamedTuple):
    """Orthogonal projector onto N = {S symmetric : Ua^T S Ub = 0}, the
    symmetric null space of S -> (A S B + B S A)/2, for PSD A, B whose
    numerical ranges have the orthonormal bases Ua (p, r) and Ub (p, s)
    (see ``project_null``).

    With the SVD Ua^T Ub = W diag(sigma) V^T, ``left`` = Ua W and ``right``
    = Ub V (contiguous); ``same`` and ``swap`` (k, k), k = min(r, s), weigh
    B0 and B0^T on the leading block of the multiplier, B0 = left^T X right.
    """

    left: np.ndarray
    right: np.ndarray
    same: np.ndarray
    swap: np.ndarray


def null_space(a_eig: EigenPair, b_eig: EigenPair) -> Optional[NullSpace]:
    """``NullSpace`` of A, B from their ``psd_eig`` results, on their
    numerical ranges (``range_size``); None when both have full numerical
    rank, where N = {0}."""
    p = a_eig.values.size
    r, s = range_size(a_eig.values), range_size(b_eig.values)
    if r == s == p:
        return None
    ua, ub = a_eig.vectors[:, :r], b_eig.vectors[:, :s]
    w, sigma, vt = np.linalg.svd(ua.T @ ub)
    # Where sigma_i sigma_j = 1, a range direction both matrices share, the
    # 2 x 2 system of (i, j) and (j, i) is singular: take its
    # pseudo-inverse, which weighs both entries by 1/2.
    c = np.minimum(np.multiply.outer(sigma, sigma), 1.0)
    shared = c >= 1.0 - p * np.finfo(float).eps
    denom = np.where(shared, 1.0, 1.0 - c * c)
    same = np.where(shared, 0.5, 2.0 / denom)
    swap = np.where(shared, 0.5, -2.0 * c / denom)
    return NullSpace(np.ascontiguousarray(ua @ w), np.ascontiguousarray(ub @ vt.T), same, swap)


def project_null(space: NullSpace, x) -> np.ndarray:
    """Orthogonal projection of sym(x) onto ``space``'s N.

    N is the null space of C(S) = Ua^T S Ub on symmetric matrices, so the
    projection is X - C*(M) with C(C*(M)) = C(X), where C*(M) =
    sym(Ua M Ub^T). In the SVD bases the equation reads
    M_ij + sigma_i sigma_j M_ji = 2 B0_ij, solved pairwise in closed form:
    M_ij = 2 (B0_ij - sigma_i sigma_j B0_ji) / (1 - sigma_i^2 sigma_j^2) on
    the leading k x k block and M = 2 B0 outside it.
    """
    x = np.asarray(x, dtype=float)
    x = (x + x.T) / 2.0
    left, right = space.left, space.right
    b0 = left.T @ x @ right
    m = 2.0 * b0
    k = space.same.shape[0]
    lead = b0[:k, :k]
    m[:k, :k] = space.same * lead + space.swap * lead.T
    z = left @ m @ right.T
    x -= (z + z.T) / 2.0
    return x


def soft_threshold(a, lam: float) -> np.ndarray:
    """Entrywise soft threshold: shrink toward zero by lam, exact zeros inside.

    Computed as a - min(max(a, -lam), lam): entries beyond lam come out
    exactly as sign(a) * (|a| - lam), and every zero is +0.0. A float32
    ``a`` is thresholded in float32 (lam rounded to it), any other in
    float64.
    """
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    a = np.asarray(a)
    if a.dtype != np.float32:
        a = a.astype(float, copy=False)
    lam = float(lam)
    if lam == 0.0:
        # -0.0 + 0.0 is +0.0; min/max may pick either zero of a tie.
        return a + 0.0
    clipped = np.maximum(a, -lam)
    np.minimum(clipped, lam, out=clipped)
    return np.subtract(a, clipped, out=clipped)


def norm_entrywise_l1(a) -> float:
    """Sum of absolute entries."""
    return float(np.abs(np.asarray(a, dtype=float)).sum())


def norm_entrywise_linf(a) -> float:
    """Maximum absolute entry."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def norm_frobenius(a) -> float:
    """Root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=float)))
