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
# Sweeps between the ADMM's KKT stopping checks.
KKT_PERIOD = 100
# Factor by which the predictor's step grows after each accepted iteration.
STEP_GROWTH = 1.25


class NoMinimizerError(ValueError):
    """The penalized objective is unbounded below at ``lam``, and so at
    every smaller penalty. ``direction`` is the certificate: a symmetric S
    with ||S||_1 = 1 that the quadratic term does not see, along which the
    loss falls by ``gain`` > ``lam``. ``iterations`` counts the bracket
    iterations the refusing solve ran (see ``ThresholdBracket``)."""

    def __init__(self, lam: float, gain: float, direction: np.ndarray, iterations: int):
        super().__init__(
            f"penalty {lam:g} has no minimizer: the loss falls by {gain:g} per unit "
            f"l1 along a direction its quadratic term does not see"
        )
        self.lam = lam
        self.gain = gain
        self.direction = direction
        self.iterations = iterations

    def __reduce__(self):
        # Pickle rebuilds an exception from its args, which here hold the
        # message alone.
        return type(self), (self.lam, self.gain, self.direction, self.iterations)


@dataclass(frozen=True)
class SolverConfig:
    """ADMM parameters: relative stopping tolerance 1e-3 and a 5000-sweep
    cap by default; the cap also bounds the bracket iterations that decide
    a penalty on a singular pair and the iterations of ``fista_predict``.
    The augmented-Lagrangian weight is not a parameter: it comes from the
    pair (see ``admm_solve``)."""

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
    """A solved difference estimate and its solve metadata."""

    delta: np.ndarray
    lam: float
    iterations: int
    converged: bool
    objective: float

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


def fixed_point_state(pair: CovariancePair, delta) -> SolverState:
    """The ADMM state that a sweep leaves in place when ``delta`` (symmetric)
    is a minimizer: every block at ``delta``, lambda_1 = (sigma_x delta
    sigma_y - D)/2, lambda_2 = (D - sigma_y delta sigma_x)/2 and lambda_3 =
    0, D = sigma_x - sigma_y. The dual differences then cancel the linear
    term of each block update, and the first sweep from any ``delta`` is a
    proximal-gradient step of size 1/2rho. ``delta`` = 0 is the cold start,
    the fixed point at lambda_max."""
    diff = pair.sigma_x - pair.sigma_y
    delta = np.array(delta, dtype=float)
    # sigma_y delta sigma_x = (sigma_x delta sigma_y)^T for symmetric delta;
    # -(D - m) rather than m - D keeps the sign of D's zeros at delta = 0.
    m = pair.sigma_x @ delta @ pair.sigma_y
    return SolverState(
        delta, delta.copy(), delta.copy(), -(diff - m) / 2.0, (diff - m.T) / 2.0,
        np.zeros_like(diff),
    )


class ThresholdBracket:
    """Bounds ``lower`` <= lambda_b <= ``upper`` on the smallest penalty at
    which a singular pair's objective has a minimizer, tightened on demand
    by ``separate``.

    Every S in the loss's flat directions N (``linalg.null_space``) has
    H(S) = 0, so the loss falls by <D, S> per unit along it, D = sigma_x -
    sigma_y, and the objective is unbounded below exactly when that beats
    lam ||S||_1 for some S in N. Hence lambda_b = max over S in N of
    <D, S> / ||S||_1, which by LP duality equals min over a in D + N^perp of
    ||a||_inf.

    The primal side is basis pursuit: minimize ||S||_1 over V = {S in N :
    <D, S> = 1}, by ADMM (Boyd et al. 2011, section 6.2) with the
    threshold ``tau`` fixed to the mean |entry| of the start point q /
    ||q||^2, q = P_N(D), so the iterates scale with the data. Each iterate
    x in V gives lower = <D, x> / ||x||_1 and is kept in ``best`` when it
    raises ``lower``. The dual side takes the scaled dual u: with t = <u,
    q> / ||q||^2 > 0, a = P_N^perp(u) / t + q lies in D + N^perp, and is
    kept in ``dual`` when ||a||_inf lowers ``upper``. q = 0 means
    lambda_b = 0.
    """

    def __init__(self, null: NullSpace, diff: np.ndarray):
        self.null, self.diff = null, diff
        self.q = project_null(null, diff)
        self.q_sq = _sq_norm(self.q)
        # a = D and a = q both lie in D + N^perp.
        self.dual = min(diff, self.q, key=norm_entrywise_linf)
        self.upper = norm_entrywise_linf(self.dual)
        self.lower = 0.0
        self.iterations = 0
        if self.q_sq == 0.0:
            return
        start = self.q / self.q_sq
        self.z, self.u = start, np.zeros_like(diff)
        self.tau = norm_entrywise_l1(start) / start.size
        self.best, self.lower = start, self._gain(start)

    def _gain(self, s: np.ndarray) -> float:
        return float(np.vdot(self.diff, s)) / norm_entrywise_l1(s)

    def separate(self, lam: float, max_iter: int) -> int:
        """Advance until ``lam`` < ``lower`` or ``lam`` >= ``upper``, for at
        most ``max_iter`` iterations; returns the iterations run."""
        null, q, q_sq = self.null, self.q, self.q_sq
        k = 0
        while self.lower <= lam < self.upper and k < max_iter:
            k += 1
            x = project_null(null, self.z - self.u)
            x += ((1.0 - float(np.vdot(q, x))) / q_sq) * q
            x_u = x + self.u
            self.z = soft_threshold(x_u, self.tau)
            self.u = x_u - self.z
            gain = self._gain(x)
            if gain > self.lower:
                self.lower, self.best = gain, x
            t = float(np.vdot(self.u, q)) / q_sq
            if t > 0.0:
                a = (self.u - project_null(null, self.u)) / t + q
                size = norm_entrywise_linf(a)
                if size < self.upper:
                    self.upper, self.dual = size, a
        self.iterations += k
        return k

    @property
    def direction(self) -> np.ndarray:
        """The certificate of ``lower``: a unit-l1 S in N with <D, S> =
        ``lower``."""
        return self.best / norm_entrywise_l1(self.best)


class PairFactors(NamedTuple):
    """Eigendecompositions of (sigma_x, sigma_y) and the no-minimizer
    bracket of the pair, None for a pair of full numerical rank. The
    bracket is advanced by the solves that share the factors."""

    x: EigenPair
    y: EigenPair
    bracket: Optional[ThresholdBracket]


def factor_pair(pair: CovariancePair) -> PairFactors:
    """The factors shared by every solve on the pair."""
    eig_x, eig_y = psd_eig(pair.sigma_x, "sigma_x"), psd_eig(pair.sigma_y, "sigma_y")
    null = null_space(eig_x, eig_y)
    bracket = None if null is None else ThresholdBracket(null, pair.sigma_x - pair.sigma_y)
    return PairFactors(eig_x, eig_y, bracket)


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
    Frobenius norms before and after the sweep, or, at a positive penalty,
    when the estimate's KKT residual (``kkt_check``, every ``KKT_PERIOD``
    sweeps) is at most ``cfg.tol`` times ``lam``: a minimizer sitting at
    the block solves' rounding level never passes the step test. Otherwise
    it stops at ``cfg.max_iter`` with ``converged=False``. ``SolverError``
    is raised when a block or the scaled dual lambda_1/rho grows beyond
    ``DIVERGENCE_LIMIT`` times the norm of (sigma_x - sigma_y)/2rho, the
    scaled dual of the zero solution: the limit is a ratio, both sides in
    the units of the estimate.

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
    below a threshold lambda_b the objective is unbounded below. Before
    its first sweep the solve advances the pair's ``ThresholdBracket``
    until it separates ``lam``, for at most ``cfg.max_iter`` iterations.
    Below the bracket's lower bound, confirmed by an exact objective drop
    along its certificate, ``NoMinimizerError`` names the penalty; at or
    above the upper bound, or when still undecided, the solve sweeps. The
    decision leaves the sweeps unchanged, and a full-rank pair has no
    bracket.

    A warm start at a positive penalty is certified before the first
    sweep: when its symmetrized third block passes ``kkt_check`` at
    ``cfg.tol`` * ``lam``, that block is returned with 0 sweeps,
    ``converged=True``, together with ``warm`` itself.
    Otherwise the sweeps run from ``warm`` as from any other state.

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
    eig_x, eig_y, bracket = factors if factors is not None else factor_pair(pair)

    if lam >= norm_entrywise_linf(diff):
        state = fixed_point_state(pair, np.zeros_like(diff))
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
    if bracket is not None:
        spent = bracket.separate(lam, cfg.max_iter)
        if lam < bracket.lower:
            gain, direction = bracket.lower, bracket.direction
            # <D, far> = 1e3: the loss falls by 1e3 there, the penalty
            # grows by 1e3 lam / gain.
            if penalized_objective(1e3 / gain * direction, sx, sy, lam) < 0.0:
                raise NoMinimizerError(lam, gain, direction, spent)
    if warm is not None and lam > 0:
        delta = (warm.delta3 + warm.delta3.T) / 2.0
        if kkt_check(delta, pair, lam) <= cfg.tol * lam:
            objective = penalized_objective(delta, sx, sy, lam)
            return DeltaEstimate(delta, float(lam), 0, True, objective), warm
    rho = spectral_scale(eig_x, eig_y)
    state = warm if warm is not None else fixed_point_state(pair, np.zeros_like(diff))
    d1, d2, d3 = state.delta1, state.delta2, state.delta3
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
        if converged:
            break
        if iterations % KKT_PERIOD == 0 and lam > 0:
            converged = kkt_check((d3 + d3.T) / 2.0, pair, lam) <= cfg.tol * lam
            if converged:
                break

    delta = (d3 + d3.T) / 2.0
    objective = penalized_objective(delta, sx, sy, lam)
    if not np.isfinite(objective):
        raise SolverError(f"non-finite objective after {iterations} iterations")
    out_state = SolverState(
        d1, d2, d3, rho * u1, rho * u2, rho * u3, state.iterations + iterations
    )
    return DeltaEstimate(delta, float(lam), iterations, converged, objective), out_state


def kkt_check(delta, pair: CovariancePair, lam: float, grad=None) -> float:
    """Max-norm violation of the stationarity conditions at ``delta``.

    On nonzero entries the gradient must equal -lam * sign(delta); on zero
    entries its magnitude may not exceed lam. Returns the largest violation,
    zero exactly at a minimizer of the penalized objective. ``grad`` is
    ``dtrace_gradient`` at ``delta``, passed by callers that also need it;
    it is computed here otherwise.
    """
    if not lam >= 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    delta = np.asarray(delta, dtype=float)
    if grad is None:
        grad = dtrace_gradient(delta, pair.sigma_x, pair.sigma_y)
    nonzero = delta != 0
    violation = np.where(
        nonzero,
        np.abs(grad + lam * np.sign(delta)),
        np.maximum(0.0, np.abs(grad) - lam),
    )
    return float(violation.max())


def fista_predict(
    pair: CovariancePair,
    lam: float,
    start,
    cfg: Optional[SolverConfig] = None,
    factors: Optional[PairFactors] = None,
) -> Tuple[np.ndarray, int]:
    """Approximate minimizer at ``lam`` > 0 from the symmetric ``start``, by
    accelerated proximal gradient (FISTA, Beck & Teboulle 2009) with the
    gradient restart of O'Donoghue & Candes (2015) and a step that
    backtracks and grows (Scheinberg, Goldfarb & Bai 2014). Returns it with
    the iterations run; ``admm_solve`` checks it again before any sweep.

    The loss is quadratic, so its gradient is affine: the Hessian product
    H(x) = (sigma_x x sigma_y + sigma_y x sigma_x)/2 of each iterate is
    kept, and the gradient at the extrapolated point y is the same affine
    combination of those products. An iteration's one product H(x+), two
    matrix products since sigma_y S sigma_x = (sigma_x S sigma_y)^T for
    symmetric S, then gives the next gradient, the curvature <d, Hd> of
    the step d = x+ - y, and, from the optimality of the proximal step,
    ||Hd - d/step||_inf, a bound on the KKT residual (``kkt_check``) at x+.
    The iteration stops at the first bound at most ``cfg.tol`` * ``lam``,
    which certifies x+, or after ``cfg.max_iter`` iterations.

    The step starts at 1/(a_1 b_1), from the covariances' largest
    eigenvalues, which bound the Hessian's norm, and never falls below it.
    It grows by ``STEP_GROWTH`` after each accepted iteration. A step along
    which the curvature exceeds 1/step is cut to the larger of 1/(a_1 b_1)
    and min(step/2, 0.9 ||d||^2 / <d, Hd>), and the iteration is redone;
    a redone iteration counts as one.

    On a singular pair the pair's ``ThresholdBracket`` is advanced first,
    and a penalty it does not certify to have a minimizer (below its upper
    bound) returns ``start`` with 0 iterations: there the objective may be
    unbounded below, and ``admm_solve`` decides it. ``factors`` is
    ``factor_pair(pair)``, computed here when not given.
    """
    if not lam > 0:
        raise ValueError(f"penalty must be positive, got {lam}")
    cfg = cfg or SolverConfig()
    eig_x, eig_y, bracket = factors if factors is not None else factor_pair(pair)
    x = np.asarray(start, dtype=float)
    if bracket is not None:
        bracket.separate(lam, cfg.max_iter)
        if lam < bracket.upper:
            return x, 0
    sx, sy = pair.sigma_x, pair.sigma_y
    diff = sx - sy
    floor = 1.0 / (eig_x.values[0] * eig_y.values[0])
    target = cfg.tol * lam
    # (sigma_x / 2) s sigma_y is exactly half of sigma_x s sigma_y: halving
    # commutes with rounding.
    half_x = 0.5 * sx

    def hessian(s):
        m = half_x @ s @ sy
        return m + m.T

    hx = hessian(x)
    y, hy = x, hx
    step, t = floor, 1.0
    for k in range(cfg.max_iter):
        work = hy - diff
        work *= -step
        work += y
        x_new = soft_threshold(work, step * lam)
        d = np.subtract(x_new, y, out=work)
        hx_new = hessian(x_new)
        hd = hx_new - hy
        d_sq, curvature = _sq_norm(d), float(np.vdot(d, hd))
        if curvature * step > d_sq and step > floor:
            step = max(floor, min(step / 2.0, 0.9 * d_sq / curvature))
            continue
        hd -= d / step
        if norm_entrywise_linf(hd) <= target:
            return x_new, k + 1
        move = x_new - x
        if np.vdot(d, move) < 0.0:
            # The step opposes the momentum: restart from x_new.
            y, hy, t = x_new, hx_new, 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            y = x_new + beta * move
            hy = hx_new + beta * (hx_new - hx)
            t = t_new
        x, hx = x_new, hx_new
        step *= STEP_GROWTH
    return x, cfg.max_iter
