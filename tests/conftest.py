import numpy as np
import pytest

from difftrace import linalg
from difftrace.linalg import SolverError, psd_eig


@pytest.fixture(autouse=True, scope="session")
def verify_matrix_solves():
    # Re-verify the matrix-equation residual contract after every solve in
    # the whole suite.
    linalg.CHECK_SOLVES = True
    yield
    linalg.CHECK_SOLVES = False


def random_spd(p, rng, cond=10.0):
    """Well-conditioned random SPD matrix with eigenvalues in [1, cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (q * rng.uniform(1.0, cond, p)) @ q.T


def random_psd(p, rng, rank=None):
    """Random PSD matrix, optionally rank-deficient."""
    rank = rank or p
    a = rng.standard_normal((p, rank))
    return a @ a.T / rank


@pytest.fixture
def spd_factory():
    return random_spd


@pytest.fixture
def psd_factory():
    return random_psd


def reference_solve_axb_plus_gx(a, b, c, gamma, *, eig_a=None, eig_b=None, check=False):
    """The full-eigenbasis kernel ``solve_axb_plus_gx`` used to run, body
    unchanged: the oracle for the rank-aware one."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if eig_a is None:
        eig_a = psd_eig(a, "A")
    if eig_b is None:
        eig_b = psd_eig(b, "B")
    c = np.asarray(c, dtype=float)
    denom = np.multiply.outer(eig_a.values, eig_b.values)
    denom += gamma
    ua, ub = eig_a.vectors, eig_b.vectors
    y = ua.T @ c @ ub
    y /= denom
    x = ua @ y @ ub.T
    if check or linalg.CHECK_SOLVES:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        resid = np.abs(a @ x @ b + gamma * x - c).max()
        bound = 1e-8 * max(1.0, np.abs(c).max())
        if not resid <= bound:
            raise SolverError(
                f"matrix-equation residual {resid:.3e} exceeds bound {bound:.3e}"
            )
    return x
