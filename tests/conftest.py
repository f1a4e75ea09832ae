import numpy as np
import pytest

from difftrace.linalg import psd_eig, range_values


def assert_solve_residual(a, b, c, gamma, x):
    """The residual contract of ``solve_axb_plus_gx``:
    ||A X B + gamma X - C||_inf <= 1e-8 * max(1, ||C||_inf)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    resid = np.abs(a @ x @ b + gamma * x - c).max()
    bound = 1e-8 * max(1.0, np.abs(c).max())
    assert resid <= bound, f"matrix-equation residual {resid:.3e} exceeds bound {bound:.3e}"


def checked(kernel):
    """``kernel`` followed by the residual check on its solution."""

    def solve(a, b, c, gamma, **kwargs):
        x = kernel(a, b, c, gamma, **kwargs)
        assert_solve_residual(a, b, c, gamma, x)
        return x

    return solve


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


def reference_solve_axb_plus_gx(a, b, c, gamma):
    """The full-eigenbasis kernel ``solve_axb_plus_gx`` used to run, body
    unchanged apart from its residual check, which always runs: the oracle
    for the rank-aware one."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    eig_a, eig_b = psd_eig(a, "A"), psd_eig(b, "B")
    c = np.asarray(c, dtype=float)
    denom = np.multiply.outer(eig_a.values, eig_b.values)
    denom += gamma
    ua, ub = eig_a.vectors, eig_b.vectors
    y = ua.T @ c @ ub
    y /= denom
    x = ua @ y @ ub.T
    assert_solve_residual(a, b, c, gamma, x)
    return x


def spectral_scale(a_eig, b_eig):
    """Geometric mean sqrt(a_1 b_1 a_r b_s) of the extreme curvatures a_i
    b_j of X -> A X B on the ``range_values`` of A and B, so always
    positive; scaling A and B by c scales it by c^2. The weight the
    paper's ADMM ran at inside ``admm_solve``, and the one the tests'
    reference ADMM runs at."""
    a, b = range_values(a_eig, b_eig)
    return float(np.sqrt(a[0]) * np.sqrt(a[-1]) * np.sqrt(b[0]) * np.sqrt(b[-1]))
