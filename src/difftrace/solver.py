"""Difference-of-precisions estimator: quadratic trace loss minimized by
accelerated proximal gradient, each result certified by its KKT residual.

The loss for a candidate difference D given covariances (Sx, Sy) is

    L(D) = (1/4) (<Sx D, D Sy> + <Sy D, D Sx>) - <D, Sx - Sy>,

with <A, B> = tr(A B^T). Its unique minimizer over PD inputs is
Sy^-1 - Sx^-1, so adding an l1 penalty gives a sparse estimate of the
difference of the two precision matrices without inverting either
covariance. The paper minimizes it by a three-block ADMM whose block
updates solve A X B + gamma X = C (``solve_axb_plus_gx``); that method is
kept as the test suite's reference, not run here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .covariance import CovariancePair
from .linalg import (
    EigenPair,
    NullSpace,
    SolverError,
    as_symmetric,
    norm_entrywise_l1,
    norm_entrywise_linf,
    null_space,
    project_null,
    psd_eig,
    range_size,
    soft_threshold,
)
from .linalg import solve_axb_plus_gx  # noqa: F401  unused here, but perfbench/traced.py rebinds it

# Factor by which the predictor's step grows after each accepted iteration.
STEP_GROWTH = 1.25
# Fraction of the certificate's tol * lam at which the predictor stops, so
# that its rounding leaves the float64 KKT check a margin.
PREDICT_MARGIN = 0.75
# Where the predictor runs in float32 (see ``fista_predict``). Python
# floats, which data in large units cannot overflow.
EPS32 = float(np.finfo(np.float32).eps)
FLOAT32_FLOOR = 32 * EPS32
# A nonzero covariance whose largest eigenvalue lies outside [1/SCALE_LIMIT,
# SCALE_LIMIT] is refused: the iterations run on the pair divided by its
# scale, but the bracket's squared norms reach that scale's square, and the
# certificate's bound tol * lam shrinks with it, so float64 must hold both
# with room to spare.
SCALE_LIMIT = 1e50


class NoMinimizerError(ValueError):
    """The penalized objective is unbounded below at ``lam``, and so at
    every smaller penalty. ``direction`` is the certificate: a symmetric S
    with ||S||_1 = 1 that the quadratic term does not see, along which the
    loss falls by ``gain`` > ``lam``. ``iterations`` counts the bracket
    iterations the refusing solve spent (``ThresholdBracket.separate``)."""

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
    """Solve parameters: a penalty lam is certified at KKT residual at most
    ``tol`` * lam (1e-3 by default), and each ``admm_solve`` call spends at
    most ``max_iter`` (5000 by default) iterations on each of its stages:
    the bracket on a singular pair, the prediction (``fista_predict``) and
    the float64 continuation after a missed certificate."""

    tol: float = 1e-3
    max_iter: int = 5000

    def __post_init__(self):
        # Written so that NaN fails the comparison.
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class DeltaEstimate:
    """A solved difference estimate and its solve metadata."""

    delta: np.ndarray
    lam: float
    iterations: int  # float64 continuation iterations after a missed certificate
    converged: bool
    objective: float
    predict_iterations: int  # fista_predict iterations
    kkt: float  # kkt_check residual at delta over lam (lambda_max at lam = 0): unit-free

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.delta))


def dtrace_loss(delta, sigma_x, sigma_y) -> float:
    """Quadratic trace loss of a candidate difference matrix."""
    delta, sigma_x, sigma_y = _check_dims(delta, sigma_x, sigma_y)
    diff = sigma_x - sigma_y
    return _loss_from_gradient(delta, _hessian(delta, sigma_x, sigma_y) - diff, diff)


def dtrace_gradient(delta, sigma_x, sigma_y) -> np.ndarray:
    """Gradient of the trace loss: (Sx D Sy + Sy D Sx)/2 - (Sx - Sy)."""
    delta, sigma_x, sigma_y = _check_dims(delta, sigma_x, sigma_y)
    return _hessian(delta, sigma_x, sigma_y) - (sigma_x - sigma_y)


def lambda_max(pair: CovariancePair) -> float:
    """Smallest penalty at which the all-zero matrix is optimal.

    The loss gradient at zero is sigma_y - sigma_x, so zero satisfies the
    stationarity conditions exactly when the penalty dominates its largest
    entry; ``admm_solve`` returns zero there without iterating.
    """
    return norm_entrywise_linf(pair.sigma_x - pair.sigma_y)


def _hessian(delta, sigma_x, sigma_y) -> np.ndarray:
    """H(D) = (Sx D Sy + Sy D Sx)/2. For symmetric D the second product is
    the first's transpose, so two matrix products make it rather than four."""
    m = _product(delta, sigma_x, sigma_y)
    if np.array_equal(delta, delta.T):
        return 0.5 * (m + m.T)
    return 0.5 * (m + _product(delta, sigma_y, sigma_x))


def _product(delta, a, b) -> np.ndarray:
    """A D B, two matrix products: every float64 gradient of the loss is
    formed from one or two of them."""
    return a @ delta @ b


def _loss_from_gradient(delta, grad, diff) -> float:
    """The loss (1/2)<D, H(D)> - <D, Sx - Sy> from its gradient H(D) - (Sx - Sy)."""
    return float(0.5 * np.vdot(delta, grad + diff) - np.vdot(delta, diff))


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
    q> / ||q||^2 > 0, a = P_N^perp(u) / t + q lies in D + N^perp, and
    ``upper`` is lowered to ||a||_inf when that is lower. q = 0 means
    lambda_b = 0.
    """

    def __init__(self, null: NullSpace, diff: np.ndarray):
        self.null, self.diff = null, diff
        self.q = project_null(null, diff)
        self.q_sq = _sq_norm(self.q)
        # a = D and a = q both lie in D + N^perp.
        self.upper = min(norm_entrywise_linf(diff), norm_entrywise_linf(self.q))
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
        most ``max_iter`` iterations. Returns the iterations this call
        spent; ``iterations`` counts those of every call."""
        null, q, q_sq = self.null, self.q, self.q_sq
        spent = 0
        while self.lower <= lam < self.upper and spent < max_iter:
            spent += 1
            self.iterations += 1
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
                self.upper = min(self.upper, norm_entrywise_linf(a))
        return spent

    @property
    def direction(self) -> np.ndarray:
        """The certificate of ``lower``: a unit-l1 S in N with <D, S> =
        ``lower``."""
        return self.best / norm_entrywise_l1(self.best)


class PairFactors(NamedTuple):
    """The solve context of a pair: every constant that its solves share,
    derived once by ``factor_pair``. Only ``bracket`` changes: the solves
    that share the context advance it."""

    x: EigenPair  # psd_eig of sigma_x
    y: EigenPair  # psd_eig of sigma_y
    bracket: Optional[ThresholdBracket]  # None at full numerical rank
    diff: np.ndarray  # D = sigma_x - sigma_y
    lam_max: float  # lambda_max(pair) = ||D||_inf, the smallest penalty at which zero is optimal
    scale: float  # the predictor's c = sqrt(a_1) sqrt(b_1) (top eigenvalues), 1 when both are 0
    # np.float32 and np.float64 -> the predictor's operands in that dtype,
    # (sigma_x / 2a_1, sigma_y / b_1, D / c); halving commutes with rounding.
    operands: Dict[type, Tuple[np.ndarray, np.ndarray, np.ndarray]]
    pair: CovariancePair  # the pair these constants were derived from


def factor_pair(pair: CovariancePair) -> PairFactors:
    """The solve context of the pair (see ``PairFactors``). Both
    covariances are judged PSD first, so every solve refuses an indefinite
    pair; ValueError too when a covariance is nonzero and its largest
    eigenvalue lies outside [1/``SCALE_LIMIT``, ``SCALE_LIMIT``]."""
    eig_x, eig_y = psd_eig(pair.sigma_x, "sigma_x"), psd_eig(pair.sigma_y, "sigma_y")
    for name, eig in (("sigma_x", eig_x), ("sigma_y", eig_y)):
        top = eig.values[0]
        if top and not 1.0 / SCALE_LIMIT <= top <= SCALE_LIMIT:
            raise ValueError(
                f"{name} has largest eigenvalue {top:.3g}, outside the solvable scale "
                f"[{1.0 / SCALE_LIMIT:g}, {SCALE_LIMIT:g}]: rescale the data"
            )
    null, diff = null_space(eig_x, eig_y), pair.sigma_x - pair.sigma_y
    a, b = float(eig_x.values[0]), float(eig_y.values[0])
    a, b = a or b or 1.0, b or a or 1.0  # a zero covariance takes the other's top eigenvalue
    c = a**0.5 * b**0.5
    scaled = 0.5 * (pair.sigma_x / a), pair.sigma_y / b, diff / c
    return PairFactors(
        eig_x, eig_y, None if null is None else ThresholdBracket(null, diff),
        diff=diff, lam_max=lambda_max(pair), scale=c, pair=pair,
        operands={t: tuple(m.astype(t, copy=False) for m in scaled)
                  for t in (np.float32, np.float64)},
    )


def admm_solve(
    pair: CovariancePair,
    lam: float,
    cfg: Optional[SolverConfig] = None,
    start=None,
    factors: Optional[PairFactors] = None,
) -> Tuple[DeltaEstimate, np.ndarray]:
    """Minimize the penalized trace loss for one penalty value; the one
    place where a penalty is decided. The name is the paper's method's: it
    stays because it is the library's entry point and perfbench/traced.py
    rebinds it, while the paper's ADMM now serves only as the test suite's
    reference.

    When ``lam`` is at least lambda_max = ||sigma_x - sigma_y||_inf, the
    zero matrix is certified optimal by the stationarity condition (the
    loss gradient at zero is sigma_y - sigma_x), and is returned directly.
    ``lam = 0`` needs both covariances at full numerical rank
    (``range_size``), as the minimizer sigma_y^-1 - sigma_x^-1 does.

    On a singular pair (a covariance below full numerical rank) the loss
    is flat along the nonzero symmetric S with sigma_x S sigma_y = 0, and
    below a threshold lambda_b the objective is unbounded below. The solve
    asks the pair's ``ThresholdBracket`` once to separate ``lam``, within
    ``cfg.max_iter`` iterations. Below its lower bound, confirmed by an
    exact objective drop along its certificate, ``NoMinimizerError`` names
    the penalty. A full-rank pair has no bracket.

    Then a start. At ``lam = 0`` it is sigma_y^-1 - sigma_x^-1 in closed
    form, from the context's eigendecompositions. Above 0, where the
    bracket admits ``lam`` (no bracket, or ``lam`` at or above its upper
    bound), ``fista_predict`` predicts it from ``start``, a symmetric
    estimate (one off by rounding from symmetric is symmetrized), or from
    zero when ``start`` is None; on an undecided bracket the start is kept.
    One product m = sigma_x delta sigma_y of the start serves the rest. Its
    gradient (m + m^T)/2 - D, D = sigma_x - sigma_y, gives the one
    certificate, a unit-free number: the ``kkt_check`` residual over
    ``lam``, or over lambda_max at 0, where tol * 0 cannot be met. The
    estimate records it as ``kkt``, and ``converged`` is ``kkt <=
    cfg.tol``. A certified start is returned with ``iterations`` 0 and
    ``converged=True``, and the same gradient gives the objective.

    A start that misses the certificate at ``lam`` > 0 -- a float32
    prediction that rounding kept above it, one stopped at its cap, or a
    start kept on an undecided bracket -- is continued once: the
    predictor's iterations (``_accelerate``) run again from it in float64,
    with a fresh ``cfg.max_iter`` budget and the same ``PREDICT_MARGIN``
    stop, and the result takes the same certificate; ``converged=False``
    when it fails, and ``iterations`` counts the continuation's
    iterations. A closed form that misses at 0 is returned unconverged.
    ``SolverError`` is raised when the result's objective is not finite.

    ``factors`` is ``factor_pair(pair)``, the pair's solve context, passed
    by callers that solve it at several penalties; computed here otherwise.
    A context built from another pair object raises ValueError.

    Returns the estimate together with the loss gradient at it, bit for
    bit ``dtrace_gradient``: that of its certificate.
    """
    if not lam >= 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    cfg = cfg or SolverConfig()
    sx, sy = pair.sigma_x, pair.sigma_y
    factors = factors or factor_pair(pair)
    if factors.pair is not pair:
        raise ValueError("factors is the solve context of another pair")
    eig_x, eig_y, bracket, diff = factors.x, factors.y, factors.bracket, factors.diff

    if lam >= factors.lam_max:
        # H(0) - D, where H(0) is +0.0 throughout; each |D_ij| <= lam, so KKT is 0.
        return DeltaEstimate(np.zeros_like(diff), float(lam), 0, True, 0.0, 0, 0.0), 0.0 - diff

    if lam == 0 and bracket is not None:
        ranks = (range_size(eig_x.values), range_size(eig_y.values))
        raise ValueError(f"penalty 0 needs nonsingular sigma_x, sigma_y: ranks {ranks}, "
                         f"p={pair.p}")
    if bracket is not None:
        spent = bracket.separate(lam, cfg.max_iter)
        if lam < bracket.lower:
            gain, direction = bracket.lower, bracket.direction
            # <D, far> = 1e3: the loss falls by 1e3 there, the penalty
            # grows by 1e3 lam / gain.
            if penalized_objective(1e3 / gain * direction, sx, sy, lam) < 0.0:
                raise NoMinimizerError(lam, gain, direction, spent)
    delta = np.zeros_like(diff) if start is None else as_symmetric(start, "start")
    predicted = 0
    if lam == 0:
        # sigma_y^-1 - sigma_x^-1 from the context's eigendecompositions.
        (a, ux), (b, uy) = eig_x, eig_y
        delta = (uy / b) @ uy.T - (ux / a) @ ux.T
        delta = (delta + delta.T) / 2.0
    elif bracket is None or lam >= bracket.upper:
        delta, predicted = fista_predict(factors, lam, delta, cfg)
    # At lam = 0, where tol * lam cannot be met, lambda_max stands in for lam.
    unit = float(lam) or factors.lam_max

    def certify(delta):
        m = _product(delta, sx, sy)
        grad = 0.5 * (m + m.T) - diff
        kkt = kkt_check(delta, pair, lam, grad) / unit
        return grad, kkt, kkt <= cfg.tol

    grad, kkt, converged = certify(delta)
    iterations = 0
    if not converged and lam > 0:
        c = factors.scale
        x, iterations = _accelerate(factors.operands[np.float64], lam / c, c * delta,
                                    PREDICT_MARGIN * (cfg.tol * lam / c), cfg.max_iter)
        delta = x / c
        grad, kkt, converged = certify(delta)

    objective = _loss_from_gradient(delta, grad, diff) + lam * norm_entrywise_l1(delta)
    if not np.isfinite(objective):
        raise SolverError(f"non-finite objective after {iterations} iterations")
    return DeltaEstimate(delta, float(lam), iterations, converged, objective, predicted, kkt), grad


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
    factors: PairFactors, lam: float, start: np.ndarray, cfg: SolverConfig
) -> Tuple[np.ndarray, int]:
    """Approximate minimizer at ``lam`` > 0 from the symmetric float64
    ``start``, on the pair's solve context, by accelerated proximal
    gradient (FISTA, Beck & Teboulle 2009) with the gradient restart of
    O'Donoghue & Candes (2015) and a step that backtracks and grows
    (Scheinberg, Goldfarb & Bai 2014). Returns it in float64 with the
    iterations run, at most ``cfg.max_iter``, unchecked: ``admm_solve``
    calls it on penalties the bracket admits, certifies the result and
    continues a miss in float64.

    The iterations run on the pair divided by the context's c
    (``PairFactors``), where the Hessian H has norm at most 1, the estimate
    is c * delta and the penalty lam / c; the residuals scale by 1/c, as
    the penalty does. In those units the data's scale is gone. They stop at
    the first bound on the KKT residual at most ``PREDICT_MARGIN`` *
    ``cfg.tol`` * lam / c (see ``_accelerate``), in float32 when that is at
    least ``FLOAT32_FLOOR`` * lambda_max / c and ``EPS32`` times the scaled
    start's largest entry, where float32's bound can reach it, and in
    float64 otherwise.
    """
    c = factors.scale
    x = c * start
    stop = PREDICT_MARGIN * (cfg.tol * lam / c)
    reach = max(FLOAT32_FLOOR * (factors.lam_max / c), EPS32 * norm_entrywise_linf(x))
    dtype = np.float32 if stop >= reach else np.float64
    x, used = _accelerate(factors.operands[dtype], lam / c, x, stop, cfg.max_iter)
    return x.astype(float) / c, used


def _accelerate(operands, lam, x, target, max_iter) -> Tuple[np.ndarray, int]:
    """``fista_predict``'s iterations on the ``operands`` (sigma_x / 2,
    sigma_y, D) of a pair whose Hessian has norm at most 1, in their dtype,
    which the iterate, its Hessian products and every elementwise pass keep.
    Returns the last iterate, in that dtype, and the iterations run.

    The loss is quadratic, so its gradient is affine: the Hessian product
    H(x) = (sx x sy + sy x sx)/2 of each iterate is kept, and the gradient
    at the extrapolated point y is the same affine combination of those
    products. An iteration's one product H(x+), two matrix products since
    sy S sx = (sx S sy)^T for symmetric S, then gives the next gradient,
    the curvature <d, Hd> of the step d = x+ - y, and, from the optimality
    of the proximal step, ||Hd - d/step||_inf, a bound on the KKT residual
    at x+. The iteration stops at the first bound at most ``target``, or
    after ``max_iter`` iterations, or at the first iteration whose squared
    step norm or curvature is not finite, which returns that iterate.

    The step starts at 1, which bounds the Hessian's norm, and never falls
    below it. It grows by ``STEP_GROWTH`` after each accepted iteration. A
    step along which the curvature exceeds 1/step is cut to the larger of
    1 and min(step/2, 0.9 ||d||^2 / <d, Hd>), and the iteration is redone;
    a redone iteration counts as one.
    """
    half_x, sy, diff = operands
    x = x.astype(half_x.dtype, copy=False)

    def hessian(s):
        m = half_x @ s @ sy
        return m + m.T

    hx = hessian(x)
    y, hy = x, hx
    step, t = 1.0, 1.0
    for k in range(max_iter):
        work = hy - diff
        work *= -step
        work += y
        x_new = soft_threshold(work, step * lam)
        d = np.subtract(x_new, y, out=work)
        hx_new = hessian(x_new)
        hd = hx_new - hy
        d_sq, curvature = _sq_norm(d), float(np.vdot(d, hd))
        if not (math.isfinite(d_sq) and math.isfinite(curvature)):
            return x_new, k + 1
        if curvature * step > d_sq and step > 1.0:
            step = max(1.0, min(step / 2.0, 0.9 * d_sq / curvature))
            continue
        hd -= d / step
        if hd.max() <= target and -hd.min() <= target:
            return x_new, k + 1
        move = x_new - x
        if np.vdot(d, move) < 0.0:
            # The step opposes the momentum: restart from x_new.
            y, hy, t = x_new, hx_new, 1.0
        else:
            # Python floats, which keep the arrays in their dtype.
            t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
            beta = (t - 1.0) / t_new
            move *= beta
            y = x_new + move
            hy = np.subtract(hx_new, hx, out=hd)
            hy *= beta
            hy += hx_new
            t = t_new
        x, hx = x_new, hx_new
        step *= STEP_GROWTH
    return x, max_iter
