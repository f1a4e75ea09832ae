"""Difference-of-precisions estimator: quadratic trace loss minimized by a
three-block alternating-direction method with closed-form updates.

The loss for a candidate difference D given covariances (Sx, Sy) is

    L(D) = (1/4) (<Sx D, D Sy> + <Sy D, D Sx>) - <D, Sx - Sy>,

with <A, B> = tr(A B^T). Its unique minimizer over PD inputs is
Sy^-1 - Sx^-1, so adding an l1 penalty gives a sparse estimate of the
difference of the two precision matrices without inverting either
covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .covariance import CovariancePair
from .linalg import (
    EigenPair,
    NullSpace,
    SolverError,
    norm_entrywise_l1,
    norm_entrywise_linf,
    norm_frobenius,
    null_space,
    project_null,
    psd_eig,
    range_size,
    soft_threshold,
    solve_axb_plus_gx,
    solve_plan,
    spectral_scale,
)

DIVERGENCE_LIMIT = 1e12

# Sweeps between two recession checks on a singular pair.
RECESSION_CHECK_EVERY = 10


class NoMinimizerError(ValueError):
    """The penalized objective is unbounded below at ``lam``, and so at
    every smaller penalty. ``direction`` is the certificate: a symmetric S
    with ||S||_1 = 1 that the quadratic term does not see, along which the
    loss falls by ``gain`` > ``lam``. ``iterations`` counts the sweeps
    before it was found."""

    def __init__(self, lam: float, gain: float, direction: np.ndarray, iterations: int):
        super().__init__(
            f"penalty {lam:g} has no minimizer: the loss falls by {gain:g} per unit "
            f"l1 along a direction its quadratic term does not see"
        )
        self.lam = lam
        self.gain = gain
        self.direction = direction
        self.iterations = iterations


@dataclass(frozen=True)
class SolverConfig:
    """ADMM parameters: relative stopping tolerance 1e-3 and a 5000-sweep
    cap by default. The augmented-Lagrangian weight is not a parameter: it
    comes from the pair (see ``admm_solve``)."""

    tol: float = 1e-3
    max_iter: int = 5000

    def __post_init__(self):
        # Written so that NaN fails the comparison.
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolverState:
    """Primal blocks (delta1..3), dual multipliers (lambda1..3), iteration count.

    Transferable between solves for warm starting.
    """

    delta1: np.ndarray
    delta2: np.ndarray
    delta3: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    lambda3: np.ndarray
    iterations: int = 0


@dataclass
class DeltaEstimate:
    """A solved difference estimate and its solve metadata. ``rho`` is the
    absolute ADMM weight of the sweeps, None when no sweep ran."""

    delta: np.ndarray
    lam: float
    iterations: int
    converged: bool
    objective: float
    rho: Optional[float] = None

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.delta))


def dtrace_loss(delta, sigma_x, sigma_y) -> float:
    """Quadratic trace loss of a candidate difference matrix."""
    delta, sigma_x, sigma_y = _check_dims(delta, sigma_x, sigma_y)
    xd = sigma_x @ delta
    yd = sigma_y @ delta
    quad = 0.25 * (np.sum(xd * (delta @ sigma_y)) + np.sum(yd * (delta @ sigma_x)))
    return float(quad - np.sum(delta * (sigma_x - sigma_y)))


def dtrace_gradient(delta, sigma_x, sigma_y) -> np.ndarray:
    """Gradient of the trace loss: (Sx D Sy + Sy D Sx)/2 - (Sx - Sy)."""
    delta, sigma_x, sigma_y = _check_dims(delta, sigma_x, sigma_y)
    return 0.5 * (sigma_x @ delta @ sigma_y + sigma_y @ delta @ sigma_x) - (
        sigma_x - sigma_y
    )


def penalized_objective(delta, sigma_x, sigma_y, lam: float) -> float:
    """Trace loss plus lam * entrywise l1 penalty."""
    return dtrace_loss(delta, sigma_x, sigma_y) + lam * norm_entrywise_l1(delta)


def _check_dims(delta, sigma_x, sigma_y):
    delta = np.asarray(delta, dtype=float)
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_y = np.asarray(sigma_y, dtype=float)
    if not (delta.shape == sigma_x.shape == sigma_y.shape):
        raise ValueError(
            f"dimension mismatch: delta {delta.shape}, sigma_x {sigma_x.shape}, "
            f"sigma_y {sigma_y.shape}"
        )
    return delta, sigma_x, sigma_y


def _sq_norm(a: np.ndarray) -> float:
    flat = a.ravel()
    return float(flat.dot(flat))


def _zero_state(pair: CovariancePair) -> SolverState:
    # Fixed point of the iteration at the all-zero solution: the dual
    # differences must cancel the linear term of each block update.
    p = pair.p
    diff = pair.sigma_x - pair.sigma_y
    zeros = np.zeros((p, p))
    return SolverState(
        zeros, zeros.copy(), zeros.copy(), -diff / 2.0, diff / 2.0, zeros.copy()
    )


class PairFactors(NamedTuple):
    """Eigendecompositions of (sigma_x, sigma_y) and the projector onto the
    loss's flat directions (``linalg.null_space``), None for a pair of full
    numerical rank."""

    x: EigenPair
    y: EigenPair
    null: Optional[NullSpace]


def factor_pair(pair: CovariancePair) -> PairFactors:
    """The factors shared by every solve on the pair."""
    eig_x, eig_y = psd_eig(pair.sigma_x, "sigma_x"), psd_eig(pair.sigma_y, "sigma_y")
    return PairFactors(eig_x, eig_y, null_space(eig_x, eig_y))


def _recession(null, sx, sy, lam, delta, previous):
    """(gain, direction) of a certificate that the objective has no
    minimizer at ``lam`` (see ``NoMinimizerError``), found by projecting
    the step since ``previous`` or the iterate ``delta`` onto the flat
    directions N; None when neither certifies.

    Every S in N has H(S) = 0, so the loss is linear along it, falling by
    <sigma_x - sigma_y, S> per unit; when that beats lam ||S||_1 the
    objective falls without bound along S. The verdict is confirmed by an
    exact objective drop at a point 1e3 times farther out than delta.
    """
    delta = (delta + delta.T) / 2.0
    diff = sx - sy
    for candidate in (delta - previous, delta):
        direction = project_null(null, candidate)
        size = norm_entrywise_l1(direction)
        if size == 0.0:
            continue
        gain = float(np.vdot(diff, direction)) / size
        if gain < 0.0:
            direction, gain = -direction, -gain
        if gain <= lam:
            continue
        t = 1e3 * max(1.0, norm_frobenius(delta) / norm_frobenius(direction))
        far = penalized_objective(delta + t * direction, sx, sy, lam)
        if far < penalized_objective(delta, sx, sy, lam):
            return gain, direction / size
    return None


def admm_solve(
    pair: CovariancePair,
    lam: float,
    cfg: Optional[SolverConfig] = None,
    warm: Optional[SolverState] = None,
    factors: Optional[PairFactors] = None,
) -> Tuple[DeltaEstimate, SolverState]:
    """Minimize the penalized trace loss for one penalty value.

    Each sweep updates the three primal blocks in closed form -- two
    matrix-equation solves (see ``solve_axb_plus_gx``) and one soft
    threshold -- followed by the three dual ascent steps. Iteration stops
    when no block moves more than ``cfg.tol`` times the larger of its
    Frobenius norms before and after the sweep, or at ``cfg.max_iter`` with
    ``converged=False``. ``SolverError`` is raised when a block or the
    scaled dual lambda_1/rho grows beyond ``DIVERGENCE_LIMIT`` times the
    norm of (sigma_x - sigma_y)/2rho, the scaled dual of the zero solution:
    the limit is a ratio, both sides in the units of the estimate.

    The sweeps run at the weight rho = sqrt(a_1 b_1 a_r b_s)
    (``spectral_scale`` of the pair's eigenvalues): the geometric mean of
    the block equations' extreme curvatures. An exactly zero covariance
    takes the other's eigenvalues, so rho is always positive and finite.
    Scaling both samples by c scales rho by c^4 and every iterate by c^-2,
    and every test above is relative, so the sweeps do not depend on the
    data's units.

    Both covariances are factored and judged PSD (``psd_eig``) before any
    other work, so an indefinite pair is refused at every penalty.

    When ``lam`` is at least the max-abs entry of sigma_x - sigma_y, the
    zero matrix is certified optimal by the stationarity condition (the
    loss gradient at zero is sigma_y - sigma_x), and is returned directly
    with its fixed-point dual state. A cold solve (no ``warm``) starts from
    that state. ``lam = 0`` needs both covariances at full numerical rank
    (``range_size``), as the minimizer sigma_y^-1 - sigma_x^-1 does.

    On a singular pair (a covariance below full numerical rank) the loss
    is flat along the nonzero symmetric S with sigma_x S sigma_y = 0, and
    below some penalty the objective is unbounded below. Every
    ``RECESSION_CHECK_EVERY`` sweeps, the step since the last check and the
    iterate are projected onto those directions; when either certifies
    that no minimizer exists (``_recession``), ``NoMinimizerError``
    names the penalty. The check only reads the iterates, so it leaves the
    sweeps unchanged, and a full-rank pair skips it.

    ``factors`` is ``factor_pair(pair)``, passed by callers that solve
    the same pair at several penalties; it is computed here otherwise.

    Returns the estimate (final third block, symmetrized)
    together with the final state for warm-starting nearby penalties.
    """
    if not lam >= 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    cfg = cfg or SolverConfig()
    sx, sy = pair.sigma_x, pair.sigma_y
    diff = sx - sy
    eig_x, eig_y, null = factors if factors is not None else factor_pair(pair)

    if lam >= norm_entrywise_linf(diff):
        state = _zero_state(pair)
        delta = state.delta3.copy()
        return (
            DeltaEstimate(delta, float(lam), 0, True, 0.0),
            state,
        )

    ranks = range_size(eig_x.values), range_size(eig_y.values)
    if lam == 0 and min(ranks) < pair.p:
        raise ValueError(
            f"penalty 0 needs nonsingular sigma_x, sigma_y: ranks {ranks}, p={pair.p}"
        )
    rho = spectral_scale(eig_x, eig_y)
    state = warm if warm is not None else _zero_state(pair)
    d1, d2, d3 = state.delta1, state.delta2, state.delta3
    checked = d3
    # Scaled duals u_i = lambda_i / rho. Each block equation divided by
    # 2 rho reads (S/2rho) X S' + 2 X = rhs; the scale is folded into the
    # first factor and its eigenvalues once per call, and each block
    # solve's plan is built once per call.
    two_rho = 2.0 * rho
    u1, u2, u3 = state.lambda1 / rho, state.lambda2 / rho, state.lambda3 / rho
    ax, ay = sx / two_rho, sy / two_rho
    plan1 = solve_plan(EigenPair(eig_x.values / two_rho, eig_x.vectors), eig_y, 2.0)
    plan2 = solve_plan(EigenPair(eig_y.values / two_rho, eig_y.vectors), eig_x, 2.0)
    shift = diff / two_rho
    kappa = lam / two_rho
    tol_sq = cfg.tol**2
    limit_sq = DIVERGENCE_LIMIT**2 * _sq_norm(shift)
    shared, work = np.empty_like(diff), np.empty_like(diff)
    sq = [_sq_norm(d1), _sq_norm(d2), _sq_norm(d3)]

    converged = False
    iterations = 0
    for k in range(cfg.max_iter):
        iterations = k + 1
        # Both right-hand sides start from d3 + (sx - sy) / 2rho.
        np.add(d3, shift, out=shared)
        np.add(shared, d2, out=work)
        work += u1
        work -= u3
        d1_new = solve_axb_plus_gx(ax, sy, work, 2.0, plan=plan1)
        np.add(shared, d1_new, out=work)
        work += u3
        work -= u2
        d2_new = solve_axb_plus_gx(ay, sx, work, 2.0, plan=plan2)
        np.add(d1_new, d2_new, out=work)
        work -= u1
        work += u2
        work *= 0.5
        d3_new = soft_threshold(work, kappa)
        np.subtract(d3_new, d1_new, out=work)
        u1 += work
        np.subtract(d2_new, d3_new, out=work)
        u2 += work
        np.subtract(d1_new, d2_new, out=work)
        u3 += work

        # Relative-step test and divergence guard, both in squared norms;
        # once one block fails the test the other steps are not needed. The
        # strict test passes a block that is zero before and after.
        converged = True
        largest_sq = _sq_norm(u1)
        for i, (old, new) in enumerate(((d1, d1_new), (d2, d2_new), (d3, d3_new))):
            new_sq = _sq_norm(new)
            largest_sq = max(largest_sq, new_sq)
            if converged:
                np.subtract(new, old, out=work)
                if _sq_norm(work) > tol_sq * max(sq[i], new_sq):
                    converged = False
            sq[i] = new_sq
        d1, d2, d3 = d1_new, d2_new, d3_new

        if not np.isfinite(largest_sq) or largest_sq > limit_sq:
            raise SolverError(f"iterates diverged at iteration {iterations}")
        if null is not None and iterations % RECESSION_CHECK_EVERY == 0:
            found = _recession(null, sx, sy, lam, d3, checked)
            if found is not None:
                raise NoMinimizerError(lam, *found, iterations)
            checked = d3
        if converged:
            break

    delta = (d3 + d3.T) / 2.0
    objective = penalized_objective(delta, sx, sy, lam)
    if not np.isfinite(objective):
        raise SolverError(f"non-finite objective after {iterations} iterations")
    out_state = SolverState(
        d1, d2, d3, rho * u1, rho * u2, rho * u3, state.iterations + iterations
    )
    estimate = DeltaEstimate(delta, float(lam), iterations, converged, objective, rho)
    return estimate, out_state


def kkt_check(delta, pair: CovariancePair, lam: float) -> float:
    """Max-norm violation of the stationarity conditions at ``delta``.

    On nonzero entries the gradient must equal -lam * sign(delta); on zero
    entries its magnitude may not exceed lam. Returns the largest violation,
    zero exactly at a minimizer of the penalized objective.
    """
    if not lam >= 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    delta = np.asarray(delta, dtype=float)
    grad = dtrace_gradient(delta, pair.sigma_x, pair.sigma_y)
    nonzero = delta != 0
    violation = np.where(
        nonzero,
        np.abs(grad + lam * np.sign(delta)),
        np.maximum(0.0, np.abs(grad) - lam),
    )
    return float(violation.max())
