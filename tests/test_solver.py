import pickle
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from difftrace import model_selection, solver
from difftrace.covariance import CovariancePair, build_pair, pair_from_covariances
from difftrace.linalg import (
    SolverError,
    as_symmetric,
    project_null,
    norm_entrywise_linf,
    range_size,
    soft_threshold,
    solve_axb_plus_gx,
    solve_plan,
)
from difftrace.model_selection import lambda_grid, lambda_max, select_by_bic, solve_path
from difftrace.simulation import SimulationSpec, gen_sim1, generate, sample_gaussian
from difftrace.solver import (
    DeltaEstimate,
    NoMinimizerError,
    SolverConfig,
    admm_solve,
    factor_pair,
    fista_predict,
    dtrace_gradient,
    dtrace_loss,
    kkt_check,
    penalized_objective,
)
from conftest import (
    checked, random_psd, random_spd, reference_solve_axb_plus_gx, spectral_scale,
)

# The reference ADMM's divergence guard and the period of its KKT checks.
DIVERGENCE_LIMIT = 1e12
KKT_PERIOD = 100


def make_pair(p, rng, cond=8.0, n=100):
    return pair_from_covariances(random_spd(p, rng, cond), random_spd(p, rng, cond), n, n)


def prox_grad_oracle(pair, lam, tol=1e-10, max_iter=200_000):
    """Generic proximal-gradient minimizer of the penalized loss.

    Step size 1/L with L the largest eigenvalue of the explicit
    (Sx (x) Sy + Sy (x) Sx)/2 Hessian; runs until the objective change
    drops below tol. Independent of the ADMM path it checks.
    """
    sx, sy = pair.sigma_x, pair.sigma_y
    p = pair.p
    hessian = (np.kron(sx, sy) + np.kron(sy, sx)) / 2.0
    step = 1.0 / np.linalg.eigvalsh(hessian)[-1]
    delta = np.zeros((p, p))
    prev = penalized_objective(delta, sx, sy, lam)
    for _ in range(max_iter):
        grad = dtrace_gradient(delta, sx, sy)
        delta = soft_threshold(delta - step * grad, step * lam)
        cur = penalized_objective(delta, sx, sy, lam)
        if abs(prev - cur) < tol:
            break
        prev = cur
    return delta


def reference_soft_threshold(a, lam):
    return np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)


def effective_rho(pair):
    """The absolute weight the reference ADMM runs at on ``pair``."""
    factors = factor_pair(pair)
    return spectral_scale(factors.x, factors.y)


def zero_state(pair):
    """The cold-start state (delta1..3, lambda1..3) ``admm_solve`` used to
    build, body unchanged."""
    p = pair.p
    diff = pair.sigma_x - pair.sigma_y
    zeros = np.zeros((p, p))
    return zeros, zeros.copy(), zeros.copy(), -diff / 2.0, diff / 2.0, zeros.copy()


def fixed_point(pair, delta):
    """The state (delta1..3, lambda1..3) that a sweep leaves in place when
    the symmetric ``delta`` is a minimizer: every block at ``delta``,
    lambda_1 = (sigma_x delta sigma_y - D)/2, lambda_2 = (D - sigma_y delta
    sigma_x)/2 and lambda_3 = 0, D = sigma_x - sigma_y. The reference's
    start from ``delta``."""
    diff = pair.sigma_x - pair.sigma_y
    m = pair.sigma_x @ delta @ pair.sigma_y
    return delta, delta, delta, -(diff - m) / 2.0, (diff - m.T) / 2.0, np.zeros_like(diff)


def path_starts(pair, path):
    """The start ``solve_path`` gives ``admm_solve`` at each penalty of
    ``path``: the line through the last two estimates at that penalty, the
    last estimate at the second, zero at the first."""
    deltas = [np.zeros((pair.p, pair.p))] + [est.delta for est in path.estimates]
    starts = []
    for i, lam in enumerate(path.lambdas):
        starts.append(deltas[i] if i < 2 else deltas[i] + (
            (lam - path.lambdas[i - 1]) / (path.lambdas[i - 2] - path.lambdas[i - 1])
        ) * (deltas[i - 1] - deltas[i]))
    return starts


def without_prediction(monkeypatch):
    """Make ``admm_solve`` take a given start as it stands: the predictor
    returns its start after 0 iterations."""
    monkeypatch.setattr(solver, "fista_predict", lambda factors, lam, start, cfg: (start, 0))


def loose_prediction(monkeypatch):
    """Make every prediction stop 100 times above the certificate's stop,
    where it misses; the continuation keeps its own stop."""

    def predict(factors, lam, start, cfg):
        return fista_predict(factors, lam, start, SolverConfig(100 * cfg.tol, cfg.max_iter))

    monkeypatch.setattr(solver, "fista_predict", predict)


def record_accelerations(monkeypatch):
    """Record the dtype and iterations of every run of the predictor's
    iterations: the prediction's and the continuation's."""
    runs = []
    accelerate = solver._accelerate

    def recorded(operands, *args):
        x, used = accelerate(operands, *args)
        runs.append((operands[0].dtype, used))
        return x, used

    monkeypatch.setattr(solver, "_accelerate", recorded)
    return runs


def continuation(factors, lam, start, cfg):
    """The float64 continuation ``admm_solve`` runs from ``start`` after a
    missed certificate, formula unchanged."""
    c = factors.scale
    x, used = solver._accelerate(factors.operands[np.float64], lam / c, c * start,
                                 solver.PREDICT_MARGIN * (cfg.tol * lam / c), cfg.max_iter)
    return x / c, used


def strong_convexity(pair):
    """A lower bound on the loss's curvature over symmetric matrices:
    <S, H(S)> = ||sigma_x^1/2 S sigma_y^1/2||^2 >= a_p b_p ||S||^2. Two
    estimates with KKT residuals k1, k2 then lie within p (k1 + k2) / (a_p
    b_p) of each other in Frobenius norm."""
    return np.linalg.eigvalsh(pair.sigma_x)[0] * np.linalg.eigvalsh(pair.sigma_y)[0]


def assert_within_certificates(pair, est, ref):
    gap = np.linalg.norm(est.delta - ref.delta)
    residuals = (kkt_check(e.delta, pair, e.lam) for e in (est, ref))
    assert gap <= pair.p * sum(residuals) / strong_convexity(pair)


def reference_admm_solve(pair, lam, rho, cfg=None, start=None):
    """The paper's three-block ADMM, as an unscaled, allocating sweep loop
    with closed-form block updates (``solve_axb_plus_gx``), a relative step
    test, a KKT gate (after a failed check, the next one the step test
    prompts waits 1, 2, 4, ... sweeps, up to the periodic check's
    KKT_PERIOD) and a divergence guard: the oracle for ``admm_solve``. It
    runs at the absolute weight ``rho``, from the cold state or from the
    ``fixed_point`` of ``start``, without certifying ``start`` first, and
    returns the estimate with its final state (delta1..3, lambda1..3)."""
    cfg = cfg or SolverConfig()
    sx, sy = pair.sigma_x, pair.sigma_y
    diff = sx - sy

    if lam >= norm_entrywise_linf(diff):
        state = zero_state(pair)
        return DeltaEstimate(state[2].copy(), float(lam), 0, True, 0.0, 0, 0.0), state

    factors = factor_pair(pair)
    eig_x, eig_y = factors.x, factors.y
    state = zero_state(pair) if start is None else fixed_point(pair, start)
    d1, d2, d3, l1, l2, l3 = state
    plan1, plan2 = solve_plan(eig_x, eig_y, 4 * rho), solve_plan(eig_y, eig_x, 4 * rho)
    solve = checked(solve_axb_plus_gx)

    converged = False
    iterations, due, gap = 0, 0, 1
    for k in range(cfg.max_iter):
        iterations = k + 1
        c1 = 2 * rho * d3 + 2 * rho * d2 + diff + 2 * l1 - 2 * l3
        d1_new = solve(sx, sy, c1, 4 * rho, plan=plan1)
        c2 = 2 * rho * d3 + 2 * rho * d1_new + diff + 2 * l3 - 2 * l2
        d2_new = solve(sy, sx, c2, 4 * rho, plan=plan2)
        d3_new = reference_soft_threshold(
            (rho * d1_new + rho * d2_new - l1 + l2) / (2 * rho), lam / (2 * rho)
        )
        l1 = l1 + rho * (d3_new - d1_new)
        l2 = l2 + rho * (d2_new - d3_new)
        l3 = l3 + rho * (d1_new - d2_new)

        converged = True
        largest = float(np.linalg.norm(l1)) / rho
        for old, new in ((d1, d1_new), (d2, d2_new), (d3, d3_new)):
            old_norm = float(np.linalg.norm(old))
            new_norm = float(np.linalg.norm(new))
            largest = max(largest, new_norm)
            step = float(np.linalg.norm(new - old))
            if step > cfg.tol * max(old_norm, new_norm):
                converged = False
        d1, d2, d3 = d1_new, d2_new, d3_new

        limit = DIVERGENCE_LIMIT * float(np.linalg.norm(diff)) / (2 * rho)
        if not np.isfinite(largest) or largest > limit:
            raise SolverError(f"iterates diverged at iteration {iterations}")
        if lam > 0:
            check = iterations % KKT_PERIOD == 0 or (converged and iterations >= due)
            converged = check and kkt_check((d3 + d3.T) / 2.0, pair, lam) <= cfg.tol * lam
            if check and not converged:
                due, gap = iterations + gap, min(2 * gap, KKT_PERIOD)
        if converged:
            break

    delta = (d3 + d3.T) / 2.0
    objective = penalized_objective(delta, sx, sy, lam)
    state = (d1, d2, d3, l1, l2, l3)
    kkt = kkt_check(delta, pair, lam) / (lam or norm_entrywise_linf(diff))
    return DeltaEstimate(delta, float(lam), iterations, converged, objective, 0, kkt), state


def numerical_ranges(pair):
    """Orthonormal bases of the ranges of sigma_x and sigma_y, by SVD."""
    return [
        np.linalg.svd(a)[0][:, : np.linalg.matrix_rank(a)] for a in (pair.sigma_x, pair.sigma_y)
    ]


def sampled_pair(p, n, seed):
    truth = gen_sim1(p)
    x = sample_gaussian(truth.omega_x, n, seed)
    y = sample_gaussian(truth.omega_y, n, seed + 2)
    return build_pair(x, y)


class TestLoss:
    def test_zero_delta(self):
        rng = np.random.default_rng(0)
        pair = make_pair(4, rng)
        assert dtrace_loss(np.zeros((4, 4)), pair.sigma_x, pair.sigma_y) == 0.0

    def test_identity_covariances(self):
        rng = np.random.default_rng(1)
        delta = rng.standard_normal((5, 5))
        eye = np.eye(5)
        assert dtrace_loss(delta, eye, eye) == pytest.approx(
            0.5 * np.linalg.norm(delta) ** 2
        )

    def test_diagonal_hand_value(self):
        # Sx=diag(1,2), Sy=diag(3,1), delta=I: quadratic part
        # 0.25*(tr(diag(3,2)) + tr(diag(3,2))) = 2.5, linear part
        # -tr(diag(-2,1)) = 1, total 3.5.
        loss = dtrace_loss(np.eye(2), np.diag([1.0, 2.0]), np.diag([3.0, 1.0]))
        assert loss == pytest.approx(3.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dtrace_loss(np.eye(3), np.eye(2), np.eye(2))


class TestGradient:
    def test_zero_at_true_difference(self):
        rng = np.random.default_rng(2)
        sx = random_spd(5, rng)
        sy = random_spd(5, rng)
        delta = np.linalg.inv(sy) - np.linalg.inv(sx)
        grad = dtrace_gradient(delta, sx, sy)
        np.testing.assert_allclose(grad, np.zeros((5, 5)), atol=1e-10)

    def test_at_zero(self):
        rng = np.random.default_rng(3)
        sx = random_spd(4, rng)
        sy = random_spd(4, rng)
        np.testing.assert_allclose(
            dtrace_gradient(np.zeros((4, 4)), sx, sy), -(sx - sy)
        )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        sx = random_spd(4, rng)
        sy = random_spd(4, rng)
        delta = rng.standard_normal((4, 4))
        grad = dtrace_gradient(delta, sx, sy)
        step = 1e-5
        for i in range(4):
            for j in range(4):
                bump = np.zeros((4, 4))
                bump[i, j] = step
                fd = (
                    dtrace_loss(delta + bump, sx, sy)
                    - dtrace_loss(delta - bump, sx, sy)
                ) / (2 * step)
                assert abs(grad[i, j] - fd) < 1e-5

    def test_symmetric_delta_takes_two_products(self):
        # For symmetric delta, sigma_y delta sigma_x is the transpose of
        # sigma_x delta sigma_y and is not formed; any other delta takes the
        # general formula. The loss agrees with the four products to rounding.
        rng = np.random.default_rng(5)
        sx, sy = (as_symmetric(random_spd(6, rng)) for _ in range(2))
        general = rng.standard_normal((6, 6))
        symmetric = general + general.T
        four = 0.5 * (sx @ general @ sy + sy @ general @ sx) - (sx - sy)
        assert dtrace_gradient(general, sx, sy).tobytes() == four.tobytes()
        m = sx @ symmetric @ sy
        two = 0.5 * (m + m.T) - (sx - sy)
        assert dtrace_gradient(symmetric, sx, sy).tobytes() == two.tobytes()
        assert np.array_equal(two, two.T)
        for delta in (general, symmetric):
            quad = 0.25 * (np.sum(sx @ delta * (delta @ sy)) + np.sum(sy @ delta * (delta @ sx)))
            assert dtrace_loss(delta, sx, sy) == pytest.approx(
                quad - np.sum(delta * (sx - sy)), rel=1e-13
            )


class TestAdmmSolve:
    def test_identical_groups_give_zero(self):
        rng = np.random.default_rng(5)
        sigma = random_spd(6, rng)
        pair = pair_from_covariances(sigma, sigma, 50, 50)
        est, _ = admm_solve(pair, 0.01)
        assert est.converged
        np.testing.assert_array_equal(est.delta, np.zeros((6, 6)))

    def test_diagonal_closed_form(self):
        pair = pair_from_covariances(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), 50, 50)
        est, _ = admm_solve(pair, 0.0, SolverConfig(tol=1e-7, max_iter=20000))
        np.testing.assert_allclose(est.delta, np.diag([-0.5, 0.5]), atol=1e-4)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(6)
        pair = make_pair(4, rng)
        est, _ = admm_solve(pair, 0.05, SolverConfig(tol=1e-7, max_iter=20000))
        assert est.converged
        assert kkt_check(est.delta, pair, 0.05) <= 1e-3

    def test_zero_at_lambda_max_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pair = make_pair(5, rng)
            lam = np.abs(pair.sigma_x - pair.sigma_y).max()
            est, _ = admm_solve(pair, lam)
            assert est.nnz == 0
            assert est.converged

    def test_objective_not_above_initialization(self):
        rng = np.random.default_rng(8)
        for lam in (0.0, 0.05, 0.3):
            pair = make_pair(5, rng)
            d0 = np.diag(
                1.0 / (np.diag(pair.sigma_y) + 1.0)
                - 1.0 / (np.diag(pair.sigma_x) + 1.0)
            )
            init_obj = penalized_objective(d0, pair.sigma_x, pair.sigma_y, lam)
            est, _ = admm_solve(pair, lam)
            assert est.converged
            assert est.objective <= init_obj + 1e-12

    def test_matches_prox_gradient_oracle(self):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(tol=1e-8, max_iter=50000)
        for p in (3, 5):
            pair = make_pair(p, rng, cond=5.0)
            for lam in (0.0, 0.02, 0.1):
                est, _ = admm_solve(pair, lam, cfg)
                oracle = prox_grad_oracle(pair, lam)
                np.testing.assert_allclose(est.delta, oracle, atol=1e-4)

    def test_hessian_kronecker_psd(self):
        rng = np.random.default_rng(10)
        for p in (3, 4, 5):
            pair = make_pair(p, rng)
            hessian = (
                np.kron(pair.sigma_x, pair.sigma_y)
                + np.kron(pair.sigma_y, pair.sigma_x)
            ) / 2.0
            assert np.linalg.eigvalsh(hessian)[0] >= -1e-8

    def test_warm_start_matches_cold(self):
        # Solve tightly so each answer is well inside the 1e-3 agreement band.
        rng = np.random.default_rng(11)
        pair = make_pair(6, rng)
        cfg = SolverConfig(tol=1e-6, max_iter=50000)
        lam_top = np.abs(pair.sigma_x - pair.sigma_y).max()
        lams = [0.5 * lam_top, 0.25 * lam_top, 0.1 * lam_top]
        start = None
        for lam in lams:
            warm_est, _ = admm_solve(pair, lam, cfg, start=start)
            cold_est, _ = admm_solve(pair, lam, cfg)
            np.testing.assert_allclose(warm_est.delta, cold_est.delta, atol=1e-3)
            start = warm_est.delta

    def test_divergence_guard(self, monkeypatch):
        # A start taken as it stands fails the certificate and is continued:
        # from 1e13 to a certified estimate; from 1e200 the squared norms of
        # its steps leave float64, and the non-finite objective is refused.
        without_prediction(monkeypatch)
        rng = np.random.default_rng(13)
        pair = make_pair(3, rng)
        lam = 0.5 * lambda_max(pair)
        est, _ = admm_solve(pair, lam, start=np.full((3, 3), 1e13))
        assert est.converged and est.iterations > 0
        assert_converged_is_certified(pair, est, SolverConfig().tol)
        with np.errstate(all="ignore"), pytest.raises(SolverError, match="non-finite objective"):
            admm_solve(pair, lam, start=np.full((3, 3), 1e200))

    def test_non_finite_step_stops_the_continuation(self, monkeypatch):
        # From 1e200 the first step's squared norm leaves float64: the
        # continuation returns that iterate at once, and its non-finite
        # objective is refused after 1 iteration, not after max_iter.
        without_prediction(monkeypatch)
        runs = record_accelerations(monkeypatch)
        pair = make_pair(3, np.random.default_rng(13))
        with np.errstate(all="ignore"), pytest.raises(
                SolverError, match="^non-finite objective after 1 iterations$"):
            admm_solve(pair, 0.5 * lambda_max(pair), start=np.full((3, 3), 1e200))
        assert runs == [(np.float64, 1)]

    def test_negative_lambda_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="nonnegative"):
            admm_solve(make_pair(3, rng), -0.1)

    def test_nan_lambda_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            admm_solve(make_pair(3, rng), float("nan"))

    @pytest.mark.parametrize(
        "field, value",
        [("tol", v) for v in (0.0, -1.0, float("nan"), float("inf"))],
    )
    def test_config_rejects_nonpositive_or_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("singular", ["sigma_x", "sigma_y"])
    def test_zero_penalty_refused_on_singular_pair(self, singular):
        # Sigma_y^-1 - Sigma_x^-1 exists only when both are nonsingular.
        rng = np.random.default_rng(19)
        covs = {"sigma_x": random_spd(6, rng), "sigma_y": random_spd(6, rng)}
        covs[singular] = random_psd(6, rng, rank=3)
        pair = pair_from_covariances(covs["sigma_x"], covs["sigma_y"], 10, 10)
        ranks = (3, 6) if singular == "sigma_x" else (6, 3)
        with pytest.raises(ValueError) as err:
            admm_solve(pair, 0.0)
        assert str(err.value) == (
            f"penalty 0 needs nonsingular sigma_x, sigma_y: ranks {ranks}, p=6"
        )

    def test_non_psd_covariance_rejected(self):
        pair = CovariancePair(np.diag([1.0, -1.0]), np.eye(2), 10, 10)
        with pytest.raises(ValueError, match="positive semidefinite"):
            admm_solve(pair, 0.0)

    def test_estimate_records_iterations_and_lambda(self, monkeypatch):
        without_prediction(monkeypatch)
        rng = np.random.default_rng(15)
        pair = make_pair(4, rng)
        est, _ = admm_solve(pair, 0.07)
        assert est.lam == 0.07
        assert est.iterations > 0


class TestFallback:
    """A start that misses the certificate at lambda > 0 is continued once
    in float64, with a fresh budget and the predictor's stop: a float32
    miss, a prediction stopped at its cap and a start kept on an undecided
    bracket alike. ``converged`` holds exactly when the result's KKT
    residual over lambda is at most tol, and every penalty the paper's ADMM
    (``reference_admm_solve``) certifies from the same start is certified,
    within both certificates of its estimate."""

    def assert_continued(self, pair, est, runs, cfg):
        # The last run is the continuation, in float64.
        assert runs[-1] == (np.dtype(np.float64), est.iterations) and est.iterations > 0
        assert est.converged == (est.kkt <= cfg.tol)
        assert est.kkt == kkt_check(est.delta, pair, est.lam) / est.lam

    def test_float32_miss(self, monkeypatch):
        # A float32 stop 100 times above tol * lam misses the float64
        # certificate at every predicted penalty of a path, and the
        # continuation from it certifies each one.
        loose_prediction(monkeypatch)
        runs = record_accelerations(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        cfg = SolverConfig()
        factors = factor_pair(pair)
        path = solve_path(pair, lambda_grid(pair, count=7), cfg)
        assert [dtype for dtype, _ in runs] == [np.dtype(np.float32), np.dtype(np.float64)] * 6
        starts = path_starts(pair, path)
        for k, est in enumerate(path.estimates[1:]):
            guess, used = solver.fista_predict(factors, est.lam, starts[k + 1], cfg)
            assert kkt_check(guess, pair, est.lam) > cfg.tol * est.lam
            assert used == est.predict_iterations == runs[2 * k][1]
            self.assert_continued(pair, est, runs[: 2 * k + 2], cfg)
            assert est.converged
            finished, _ = continuation(factors, est.lam, guess, cfg)
            assert est.delta.tobytes() == finished.tobytes()

    @pytest.mark.parametrize("cap", [3, 10])
    def test_early_cap(self, monkeypatch, cap):
        # The prediction at 0.3 lambda_max needs 17 iterations. Capped at 3
        # or 10 it misses, and the continuation gets a fresh budget of the
        # same size: 3 more do not reach the certificate, 10 more do.
        runs = record_accelerations(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        cfg = SolverConfig(max_iter=cap)
        est, _ = admm_solve(pair, 0.3 * lambda_max(pair), cfg)
        assert runs[0] == (np.dtype(np.float32), cap) == (np.dtype(np.float32), est.predict_iterations)
        self.assert_continued(pair, est, runs, cfg)
        assert est.converged == (cap == 10)

    def test_undecided_bracket(self, monkeypatch):
        # One bracket iteration does not separate a penalty just below the
        # threshold, so the start is kept, not predicted, and continued up
        # to the same cap. Above the threshold, a bracket held undecided
        # keeps the start too, and the continuation certifies it.
        runs = record_accelerations(monkeypatch)
        pair = sampled_pair(12, 6, 34)
        bracket = factor_pair(pair).bracket
        close(bracket, 5000)
        lam = bracket.lower * (1 - 1e-6)
        factors = factor_pair(pair)
        cfg = SolverConfig(max_iter=1)
        est, _ = admm_solve(pair, lam, cfg, factors=factors)
        assert factors.bracket.iterations == 1
        assert factors.bracket.lower <= lam < factors.bracket.upper
        assert est.predict_iterations == 0 and not est.converged
        self.assert_continued(pair, est, runs, cfg)
        runs.clear()
        factors, cfg = factor_pair(pair), SolverConfig()
        factors.bracket.upper = 2.0 * lambda_max(pair)
        factors.bracket.separate = lambda lam, max_iter: 0
        lam = 0.8 * lambda_max(pair)
        assert factors.bracket.lower <= lam
        est, _ = admm_solve(pair, lam, cfg, factors=factors)
        assert est.predict_iterations == 0 and est.converged
        self.assert_continued(pair, est, runs, cfg)

    @pytest.mark.parametrize("scale", [1.0, 0.05])
    def test_well_posed_pair(self, monkeypatch, scale):
        # Zero, taken as it stands, is continued to a certified estimate
        # wherever the reference certifies from zero. At the small scale the
        # estimate's norm exceeds 1. At lambda = 0 the closed form is
        # certified without an iteration.
        without_prediction(monkeypatch)
        rng = np.random.default_rng(30)
        pair = pair_from_covariances(
            scale * random_spd(8, rng, 8.0), scale * random_spd(8, rng, 8.0), 100, 100
        )
        for lam in (0.0, 0.02, 0.1):
            lam *= scale
            est, _ = admm_solve(pair, lam)
            if lam == 0:
                inverse = np.linalg.inv(pair.sigma_y) - np.linalg.inv(pair.sigma_x)
                assert est.iterations == 0 and est.converged
                assert np.linalg.norm(est.delta - inverse) <= 1e-12 * np.linalg.norm(inverse)
            else:
                ref, _ = reference_admm_solve(pair, lam, effective_rho(pair))
                assert ref.converged and est.converged and est.iterations > 0
                assert_within_certificates(pair, est, ref)
            if scale < 1:
                assert np.linalg.norm(est.delta) > 1.0

    def test_singular_pair(self, monkeypatch):
        # The pair's threshold is lambda_b = 0.6378 lambda_max: none of the
        # grid's penalties below lambda_max has a minimizer, nor has 0.6
        # lambda_max. Above it, zero taken as it stands is continued to a
        # certified estimate, as the reference certifies it, with the same
        # objective to the certificates' accuracy: the loss is flat along
        # the pair's null space, so the estimates themselves may differ.
        without_prediction(monkeypatch)
        pair = sampled_pair(12, 6, 31)
        assert np.linalg.matrix_rank(pair.sigma_x) < pair.p
        cfg = SolverConfig(max_iter=2000)
        grid = lambda_grid(pair, count=4, ratio=0.1)
        for lam in [0.6 * grid[0]] + list(grid[1:]):
            with pytest.raises(NoMinimizerError) as err:
                admm_solve(pair, lam, cfg)
            assert err.value.lam == lam < err.value.gain
        assert str(err.value).startswith("penalty 0.0426708 has no minimizer")
        for lam in (0.8 * grid[0], 0.7 * grid[0]):
            est, _ = admm_solve(pair, lam, cfg)
            ref, _ = reference_admm_solve(pair, lam, effective_rho(pair), cfg)
            assert ref.converged and est.converged and est.iterations > 0
            assert est.objective == pytest.approx(ref.objective, rel=1e-4)

    def test_warm_started_path(self):
        # Each solve of a path predicts from its start, and a prediction
        # certified at tol is the estimate, bit for bit; the reference
        # certifies each penalty from the same start.
        pair = sampled_pair(10, 40, 32)
        grid = lambda_grid(pair, count=10, ratio=0.05)
        path = solve_path(pair, grid)
        assert len(path) == len(grid) and path.predict_iterations.sum() > 0
        assert not any(est.iterations for est in path.estimates)
        rho, factors = effective_rho(pair), factor_pair(pair)
        for lam, est, start in zip(grid[1:], path.estimates[1:], path_starts(pair, path)[1:]):
            predicted, used = fista_predict(factors, lam, start, SolverConfig())
            assert used == est.predict_iterations
            assert est.delta.tobytes() == predicted.tobytes()
            assert kkt_check(est.delta, pair, lam) <= SolverConfig().tol * lam
            ref, _ = reference_admm_solve(pair, lam, rho, start=start)
            assert ref.converged
            assert_within_certificates(pair, est, ref)


def reference_kernel(a, b, c, gamma, *, plan=None):
    # The old kernel takes no plan; it refactors A and B on every call.
    return reference_solve_axb_plus_gx(a, b, c, gamma)


def constant_column_pair(p, n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, p)), rng.standard_normal((n, p))
    x[:, 1] = 2.5
    return build_pair(x, y)


def constant_group_pair(p, n, seed):
    rng = np.random.default_rng(seed)
    # Dyadic values, so the centred data and the covariance are exactly zero.
    x = np.tile(rng.integers(-4, 5, p) / 4.0, (n, 1))
    return build_pair(x, rng.standard_normal((n, p)))


def certificate(pair, grid, stop):
    """The ``NoMinimizerError`` of the path's solve at ``grid[stop]``,
    warm-started along ``grid[:stop]``; None when ``stop`` is None."""
    if stop is None:
        return None
    start = None
    for lam in grid[:stop]:
        start = admm_solve(pair, lam, start=start)[0].delta
    with pytest.raises(NoMinimizerError) as err:
        admm_solve(pair, grid[stop], start=start)
    return err.value


class TestPathMatchesReferenceKernel:
    """Paths solved with the full-eigenbasis kernel in place of the
    range-restricted ``solve_axb_plus_gx`` are the same, bit for bit, as
    are their certificates: no solve reaches the block-solve kernel, which
    only the paper's ADMM (``reference_admm_solve``) uses.

    A path stops at its first penalty without a minimizer (index ``stop``);
    both kernels stop there, with the same certificate. The n < p pair's
    threshold is 0.6116 lambda_max, so the 0.05 grid stops at its third
    penalty, 0.425 lambda_max. The constant-column pair's threshold is
    0.9298 lambda_max, so its grid ends at 0.8 lambda_max to solve two
    penalties below lambda_max. The constant-group pair has no minimizer
    below lambda_max: its only work is the bracket's, and only its
    certificates are compared."""

    @pytest.mark.parametrize(
        "make_pair, rank_x, ratio, stop",
        [
            (lambda: sampled_pair(12, 6, 36), 5, 0.05, 2),
            (lambda: sampled_pair(10, 40, 37), 10, 0.05, None),
            (lambda: constant_column_pair(8, 30, 38), 7, 0.8, 3),
            (lambda: constant_group_pair(8, 30, 39), 0, 0.05, 1),
        ],
        ids=["n-below-p", "n-above-p", "constant-column", "constant-group"],
    )
    def test_path(self, monkeypatch, make_pair, rank_x, ratio, stop):
        pair = make_pair()
        assert np.linalg.matrix_rank(pair.sigma_x) == rank_x
        grid = lambda_grid(pair, count=8, ratio=ratio)
        path, cert = solve_path(pair, grid), certificate(pair, grid, stop)
        monkeypatch.setattr(solver, "solve_axb_plus_gx", reference_kernel)
        ref, ref_cert = solve_path(pair, grid), certificate(pair, grid, stop)
        work = sum(est.iterations for est in path.estimates)
        if stop is None:
            assert path.no_minimizer_at is ref.no_minimizer_at is None
            assert len(path) == len(ref) == len(grid)
        else:
            assert path.no_minimizer_at == ref.no_minimizer_at == grid[stop]
            assert len(path) == len(ref) == stop
            assert cert.iterations == ref_cert.iterations
            assert cert.gain == ref_cert.gain
            assert cert.direction.tobytes() == ref_cert.direction.tobytes()
            work += cert.iterations
        assert work + path.predict_iterations.sum() > 0
        for est, ref_est in zip(path.estimates, ref.estimates):
            assert est.iterations == ref_est.iterations
            assert est.converged == ref_est.converged
            assert est.delta.tobytes() == ref_est.delta.tobytes()


@pytest.mark.parametrize("ratio", [0.5, 0.1])
@pytest.mark.parametrize("n", [6, 60], ids=["n-below-p", "n-above-p"])
def test_cold_solve_is_second_solve_of_path(n, ratio):
    # A cold solve starts from zero, the lambda_max estimate, from which a
    # path's second solve starts its prediction. At n < p neither penalty
    # has a minimizer, and both solves reach the same certificate.
    pair = sampled_pair(12, n, 34)
    lam = ratio * lambda_max(pair)
    grid = [lambda_max(pair), lam]
    path = solve_path(pair, grid)
    if n < pair.p:
        # Both are refused by a fresh bracket, which at 0.1 lambda_max
        # needs no iteration: its start point already certifies it.
        assert path.no_minimizer_at == lam and len(path) == 1
        with pytest.raises(NoMinimizerError) as err:
            admm_solve(pair, lam)
        cold, second = err.value, certificate(pair, grid, 1)
        assert cold.lam == second.lam == lam
        assert cold.gain == second.gain
        assert cold.direction.tobytes() == second.direction.tobytes()
        assert cold.iterations == second.iterations
    else:
        # Taken as it stands, zero is continued alike, given or not.
        with pytest.MonkeyPatch.context() as mp:
            without_prediction(mp)
            cold, _ = admm_solve(pair, lam)
            at_zero, _ = admm_solve(pair, lam, start=np.zeros((12, 12)))
        assert cold.delta.tobytes() == at_zero.delta.tobytes()
        assert cold.iterations == at_zero.iterations > 0
        # The path's second solve is a lone solve from zero, which predicts,
        # and so is a cold solve.
        _, used = fista_predict(factor_pair(pair), lam, np.zeros((12, 12)), SolverConfig())
        second = path.estimates[1]
        for finish, _ in (admm_solve(pair, lam, start=np.zeros((12, 12))), admm_solve(pair, lam)):
            assert finish.delta.tobytes() == second.delta.tobytes()
            assert finish.iterations == second.iterations
            assert used == finish.predict_iterations == path.predict_iterations[1] > 0


class TestRecessionCertificate:
    """A penalty without a minimizer is refused with a direction S, in the
    loss's flat directions, along which the objective falls without bound."""

    def test_direction_is_sound(self):
        pair = sampled_pair(20, 10, 5)
        sx, sy = pair.sigma_x, pair.sigma_y
        lam = 0.1 * lambda_max(pair)
        with pytest.raises(NoMinimizerError) as err:
            admm_solve(pair, lam)
        s = err.value.direction
        assert np.array_equal(s, s.T)
        assert np.abs(s).sum() == pytest.approx(1.0, rel=1e-12)
        assert np.vdot(sx - sy, s) == pytest.approx(err.value.gain, rel=1e-12)
        assert err.value.gain > lam
        # S lies in the flat directions {S : Ux^T S Uy = 0} to rounding.
        ranges = numerical_ranges(pair)
        assert np.linalg.norm(ranges[0].T @ s @ ranges[1]) <= 1e-13 * np.linalg.norm(s)
        # The exact objective falls along S, from zero and from a solution.
        solved, _ = admm_solve(pair, 0.5 * lambda_max(pair))
        assert solved.nnz > 0
        for delta in (np.zeros_like(s), solved.delta):
            values = [penalized_objective(delta + t * s, sx, sy, lam) for t in 10.0 ** np.arange(7)]
            assert np.all(np.diff(values) < 0)
            assert values[0] < penalized_objective(delta, sx, sy, lam)

    def test_flat_loss_is_certified_at_first_check(self):
        # sigma_x = 0 makes the loss <sigma_y, delta>, linear: every penalty
        # below lambda_max = max |sigma_y| has no minimizer, and the gain of
        # any direction is at most lambda_max. Each is refused before any
        # predictor iteration.
        pair = constant_group_pair(8, 30, 39)
        assert not pair.sigma_x.any()
        top = lambda_max(pair)

        def refuse(*args, **kwargs):
            raise AssertionError("iteration at a penalty without a minimizer")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_accelerate", refuse)
            for lam in lambda_grid(pair, count=8, ratio=0.05)[1:]:
                with pytest.raises(NoMinimizerError) as err:
                    admm_solve(pair, lam)
                assert lam < err.value.gain <= top * (1 + 1e-12)

    def test_constant_column_threshold_is_its_variance(self):
        # With column 1 constant in X only, the flat directions are the
        # multiples of e1 e1^T, so a minimizer exists exactly from
        # lambda_b = var(Y_1) = -(sigma_x - sigma_y)_11 up.
        pair = constant_column_pair(8, 30, 38)
        lam_b = pair.sigma_y[1, 1]
        assert pair.sigma_x[1, 1] == 0 and lam_b < lambda_max(pair)
        with pytest.raises(NoMinimizerError) as err:
            admm_solve(pair, 0.9 * lam_b)
        assert err.value.gain == pytest.approx(lam_b, rel=1e-12)
        corner = np.zeros((8, 8))
        corner[1, 1] = -1.0
        np.testing.assert_allclose(err.value.direction, corner, rtol=0, atol=1e-12)
        est, _ = admm_solve(pair, (lam_b + lambda_max(pair)) / 2)
        assert est.converged

    def test_cold_solve_far_below_threshold_is_refused(self):
        # At p=12, n=6 a cold solve at 1e-6 lambda_max stopped with
        # converged=True and KKT/lambda about 1e6.
        pair = sampled_pair(12, 6, 34)
        lam = 1e-6 * lambda_max(pair)
        with pytest.raises(NoMinimizerError) as err:
            admm_solve(pair, lam)
        assert err.value.lam == lam
        assert str(err.value) == (
            f"penalty {lam:g} has no minimizer: the loss falls by {err.value.gain:g} "
            f"per unit l1 along a direction its quadratic term does not see"
        )

    def test_full_rank_pair_has_no_check(self, monkeypatch):
        pair = sampled_pair(10, 40, 37)
        assert factor_pair(pair).bracket is None

        def refuse(*args):
            raise AssertionError("null-space projection on a full-rank pair")

        monkeypatch.setattr(solver, "project_null", refuse)
        path = solve_path(pair, lambda_grid(pair, count=8, ratio=0.05))
        assert path.no_minimizer_at is None
        assert sum(est.iterations for est in path.estimates) + path.predict_iterations.sum() > 0

    def test_bracket_only_stops_the_path(self, monkeypatch):
        # The solved part of a singular path is the same, bit for bit, with
        # the bracket switched off.
        pair = sampled_pair(100, 50, 1)
        grid = lambda_grid(pair, count=6, ratio=0.1)
        path = solve_path(pair, grid)
        assert path.no_minimizer_at is not None
        monkeypatch.setattr(
            model_selection, "factor_pair", lambda pair: factor_pair(pair)._replace(bracket=None)
        )
        unchecked = solve_path(pair, grid)
        assert len(unchecked) == len(grid) > len(path)
        assert sum(est.iterations for est in path.estimates) + path.predict_iterations.sum() > 0
        for est, ref in zip(path.estimates, unchecked.estimates):
            assert est.iterations == ref.iterations
            assert est.delta.tobytes() == ref.delta.tobytes()

    def test_penalty_solved_without_minimizer_is_refused(self):
        # The threshold of this pair is 0.6594 lambda_max. A solve at 0.6518
        # lambda_max used to stop on the step test, reported converged with
        # KKT/lambda 0.083.
        pair = sampled_pair(12, 6, 34)
        lam = 0.6518 * lambda_max(pair)
        with pytest.raises(NoMinimizerError) as err:
            admm_solve(pair, lam)
        assert lam < err.value.gain <= 0.6595 * lambda_max(pair)

    def test_simulated_replicate_stops_at_its_threshold(self):
        # Replicate 0 of the sim2 p=100 n=50 run at seed 7: its threshold
        # lies between grid points 17 (0.2024 lambda_max), which has no
        # minimizer, and 16 (0.2223 lambda_max), which is proven to have one.
        truth = generate(SimulationSpec("sim2", 100, 50, 50, 7))
        pair = build_pair(
            sample_gaussian(truth.omega_x, 50, 8), sample_gaussian(truth.omega_y, 50, 9)
        )
        grid = lambda_grid(pair)
        assert grid[16] / grid[0] == pytest.approx(0.2223, abs=1e-4)
        assert grid[17] / grid[0] == pytest.approx(0.2024, abs=1e-4)
        bracket = factor_pair(pair).bracket
        bracket.separate(grid[16], 5000)
        assert bracket.upper <= grid[16]
        bracket.separate(grid[17], 5000)
        assert grid[17] < bracket.lower
        with pytest.raises(NoMinimizerError):
            admm_solve(pair, grid[17])


SINGULAR_PAIRS = [(12, 6, 31), (12, 6, 34), (12, 6, 36), (20, 10, 5), (30, 12, 3)]


def lp_threshold(pair):
    """lambda_b = max <D, S> over symmetric S with Ux^T S Uy = 0 and
    ||S||_1 <= 1, as a linear program over the upper triangle of S = P - M,
    P, M >= 0: the oracle for the bracket."""
    optimize = pytest.importorskip("scipy.optimize")
    p = pair.p
    ranges = numerical_ranges(pair)
    rows, cols = np.triu_indices(p)
    basis = np.zeros((rows.size, p, p))
    basis[np.arange(rows.size), rows, cols] = 1.0
    basis[np.arange(rows.size), cols, rows] = 1.0
    flat = np.einsum("ir,kij,js->krs", ranges[0], basis, ranges[1]).reshape(rows.size, -1).T
    weight = np.where(rows == cols, 1.0, 2.0)
    diff = (pair.sigma_x - pair.sigma_y)[rows, cols] * weight
    result = optimize.linprog(
        np.concatenate([-diff, diff]),
        A_ub=np.concatenate([weight, weight])[None, :],
        b_ub=[1.0],
        A_eq=np.hstack([flat, -flat]),
        b_eq=np.zeros(flat.shape[0]),
        bounds=(0, None),
    )
    assert result.status == 0
    return -result.fun


def close(bracket, iterations):
    """Advance ``bracket`` by ``iterations``, one at a time at the middle of
    its gap, each asked with a budget of one. Returns (lower, upper) after
    each one."""
    history = []
    for _ in range(iterations):
        lam = (bracket.lower + bracket.upper) / 2.0
        bracket.separate(lam, 1)
        history.append((bracket.lower, bracket.upper))
    return history


class TestThresholdBracket:
    """Bounds on lambda_b, the smallest penalty with a minimizer, from
    basis pursuit on the flat directions and its LP dual."""

    @pytest.mark.parametrize("args", SINGULAR_PAIRS)
    def test_weak_duality_at_every_iteration(self, args):
        bracket = factor_pair(sampled_pair(*args)).bracket
        assert bracket.lower <= bracket.upper
        for lower, upper in close(bracket, 300):
            assert lower <= upper

    @pytest.mark.parametrize("args", SINGULAR_PAIRS)
    def test_gap_closes_within_1000_iterations(self, args):
        bracket = factor_pair(sampled_pair(*args)).bracket
        close(bracket, 1000)
        assert bracket.upper - bracket.lower <= 1e-3 * bracket.upper

    @pytest.mark.parametrize("args", SINGULAR_PAIRS[:3])
    def test_matches_linear_program(self, args):
        pair = sampled_pair(*args)
        exact = lp_threshold(pair)
        bracket = factor_pair(pair).bracket
        close(bracket, 5000)
        assert bracket.lower <= exact * (1 + 1e-9)
        assert exact <= bracket.upper * (1 + 1e-9)
        assert bracket.upper - bracket.lower <= 1e-8 * exact

    def test_certificates(self, monkeypatch):
        # lower is <D, S> / ||S||_1 for its S in N; upper is ||a||_inf for
        # an a in D + N^perp, one of the matrices whose max-norm was taken.
        pair = sampled_pair(20, 10, 5)
        diff = pair.sigma_x - pair.sigma_y
        sized, linf = [], solver.norm_entrywise_linf

        def recording_linf(a):
            sized.append((linf(a), a))
            return sized[-1][0]

        monkeypatch.setattr(solver, "norm_entrywise_linf", recording_linf)
        bracket = factor_pair(pair).bracket
        close(bracket, 200)
        s = bracket.direction
        a = next(a for size, a in reversed(sized) if size == bracket.upper)
        ranges = numerical_ranges(pair)
        assert np.linalg.norm(ranges[0].T @ s @ ranges[1]) <= 1e-13 * np.linalg.norm(s)
        assert np.vdot(diff, s) == pytest.approx(bracket.lower, rel=1e-12)
        assert np.abs(a).max() == bracket.upper
        assert np.linalg.norm(project_null(bracket.null, a - diff)) <= 1e-12 * np.linalg.norm(diff)
        assert np.array_equal(a, a.T)

    def test_constant_column_closes_on_its_variance(self):
        pair = constant_column_pair(8, 30, 38)
        bracket = factor_pair(pair).bracket
        close(bracket, 100)
        lam_b = pair.sigma_y[1, 1]
        assert bracket.lower == pytest.approx(lam_b, rel=1e-12)
        assert bracket.upper == pytest.approx(lam_b, rel=1e-12)

    def test_zero_covariance_closes_on_lambda_max(self):
        pair = constant_group_pair(8, 30, 39)
        bracket = factor_pair(pair).bracket
        close(bracket, 1000)
        assert bracket.lower == pytest.approx(lambda_max(pair), rel=1e-12)
        assert bracket.upper == lambda_max(pair)

    def test_scales_by_c_squared(self):
        # Samples x4 scale the covariances, and so lambda_b, by 16; powers of
        # two keep the scaling exact in floating point.
        truth = gen_sim1(12)
        x, y = sample_gaussian(truth.omega_x, 6, 34), sample_gaussian(truth.omega_y, 6, 36)
        bounds = []
        for c in (1.0, 4.0):
            bracket = factor_pair(build_pair(c * x, c * y)).bracket
            close(bracket, 50)
            bounds.append(np.array([bracket.lower, bracket.upper]))
        np.testing.assert_allclose(bounds[1], 16.0 * bounds[0], rtol=1e-12)

    def test_refusal_needs_an_objective_drop(self):
        # A lower bound overstating lambda_b does not refuse a penalty that
        # has a minimizer: the exact objective does not fall along the
        # certificate there, so the kept start is continued.
        pair = sampled_pair(12, 6, 34)
        lam = 0.8 * lambda_max(pair)
        factors = factor_pair(pair)
        factors.bracket.lower = 2.0 * lambda_max(pair)
        est, _ = admm_solve(pair, lam, factors=factors)
        assert est.converged and est.iterations > 0

    def test_descending_path_advances_one_bracket(self):
        # The solves of a path share the bracket, so it runs only as far as
        # the hardest separation needs.
        pair = sampled_pair(12, 6, 36)
        factors = factor_pair(pair)
        grid = lambda_grid(pair, count=8, ratio=0.05)
        spent = []
        start = None
        for lam in grid[:2]:
            start = admm_solve(pair, lam, start=start, factors=factors)[0].delta
            spent.append(factors.bracket.iterations)
        with pytest.raises(NoMinimizerError) as err:
            admm_solve(pair, grid[2], start=start, factors=factors)
        assert spent[0] == 0
        assert factors.bracket.iterations == spent[1] + err.value.iterations
        fresh = factor_pair(pair).bracket
        fresh.separate(grid[1], 5000)
        assert fresh.iterations == spent[1]


def reference_context(pair, dtype):
    """The pair constants ``admm_solve`` and ``fista_predict`` derived at
    every penalty before ``factor_pair`` held them, formulas unchanged:
    lambda_max, c, the float32 rule's lambda_max / c and the predictor's
    operands in ``dtype``."""
    eig_x, eig_y = factor_pair(pair)[:2]
    a, b = float(eig_x.values[0]), float(eig_y.values[0])
    a, b = a or b or 1.0, b or a or 1.0
    c = a**0.5 * b**0.5
    sx, sy = pair.sigma_x, pair.sigma_y
    diff = (sx - sy) / c
    scaled_max = norm_entrywise_linf(diff)
    half_x = (0.5 * (sx / a)).astype(dtype)
    sy, diff = ((sy / b).astype(dtype, copy=False), diff.astype(dtype, copy=False))
    return norm_entrywise_linf(pair.sigma_x - pair.sigma_y), c, scaled_max, (half_x, sy, diff)


class TestSolveContext:
    """``factor_pair`` derives every constant of the pair once, bit for bit
    as the solves derived it at each penalty, and each penalty's one solve
    asks the bracket once."""

    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda: sampled_pair(12, 80, 23),
            lambda: sim2_replicate_zero(),
            lambda: constant_group_pair(8, 30, 39),
            lambda: scaled_wide_pair(1e-24),
        ],
        ids=["full-rank", "n-below-p", "zero-sigma-x", "tiny-scale"],
    )
    def test_constants_are_the_per_penalty_formulas(self, make_pair):
        pair = make_pair()
        factors = factor_pair(pair)
        diff = pair.sigma_x - pair.sigma_y
        assert factors.diff.tobytes() == diff.tobytes()
        full = [range_size(e.values) == pair.p for e in (factors.x, factors.y)]
        assert (factors.bracket is None) == all(full)
        for dtype in (np.float32, np.float64):
            lam_max, c, scaled_max, operands = reference_context(pair, dtype)
            assert factors.lam_max == lam_max == lambda_max(pair)
            assert factors.scale == c
            assert factors.lam_max / c == scaled_max
            for built, old in zip(factors.operands[dtype], operands):
                assert built.dtype == old.dtype == dtype
                assert built.tobytes() == old.tobytes()

    def test_context_of_another_pair_is_refused(self):
        # Two draws of one shape: the second's context would certify an
        # estimate of the first against the second's D.
        pair, other = (build_pair(rng.standard_normal((200, 10)),
                                  1.3 * rng.standard_normal((200, 10)))
                       for rng in (np.random.default_rng(1), np.random.default_rng(2)))
        lam = 0.3 * lambda_max(pair)
        with pytest.raises(ValueError, match="another pair"):
            admm_solve(pair, lam, factors=factor_pair(other))
        est, _ = admm_solve(pair, lam, factors=factor_pair(pair))
        assert est.converged and est.kkt == kkt_check(est.delta, pair, lam) / lam

    def test_path_penalty_spends_one_budget(self, monkeypatch):
        # The solve asks the bracket about this penalty once, which spends
        # max_iter = 5 iterations and leaves it undecided: the start is
        # continued in float64 without a prediction, for the same budget.
        pair = sim2_replicate_zero()
        made = []
        monkeypatch.setattr(
            model_selection, "factor_pair", lambda pair: made.append(factor_pair(pair)) or made[-1]
        )
        path = solve_path(pair, [0.32211], SolverConfig(max_iter=5))
        (factors,) = made
        assert factors.bracket.iterations == 5
        assert factors.bracket.lower <= 0.32211 < factors.bracket.upper
        assert path.estimates[0].iterations == 5 and not path.estimates[0].converged
        assert path.predict_iterations[0] == 0

    def test_path_asks_the_bracket_once_per_penalty(self, monkeypatch):
        # The sim2 replicate-0 path solves 16 penalties below lambda_max and
        # refuses the 17th; the predictor and the solve used to ask about
        # each, 34 asks in all.
        pair = sim2_replicate_zero()
        asked = []
        separate = solver.ThresholdBracket.separate

        def counting(bracket, lam, max_iter):
            asked.append(lam)
            return separate(bracket, lam, max_iter)

        monkeypatch.setattr(solver.ThresholdBracket, "separate", counting)
        grid = lambda_grid(pair)
        path = solve_path(pair, grid)
        assert len(path) == 17 and path.no_minimizer_at == grid[17]
        assert asked == list(grid[1:18])

    def test_refusal_through_a_path_reports_the_spend(self):
        # ``estimate --lambda 0.31`` on this replicate: the solve's one
        # advance of the bracket separates the penalty, and the refusal
        # reports what that took.
        pair = sim2_replicate_zero()
        with pytest.raises(NoMinimizerError) as err:
            solve_path(pair, [0.31])
        fresh = factor_pair(pair).bracket
        assert err.value.iterations == fresh.separate(0.31, SolverConfig().max_iter) > 0
        with pytest.raises(NoMinimizerError) as alone:
            admm_solve(pair, 0.31)
        assert alone.value.iterations == err.value.iterations


def test_solver_calls_go_through_solver_namespace(monkeypatch):
    # The benchmark's per-layer trace rebinds these names in ``solver``; a
    # call that bypasses them would vanish from the linalg layer. No solve
    # reaches the block-solve kernel.
    counts = Counter()
    for name in ("psd_eig", "solve_axb_plus_gx", "soft_threshold"):

        def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    pair = sampled_pair(10, 40, 35)
    grid = lambda_grid(pair, count=5, ratio=0.1)
    path = solve_path(pair, grid)
    # The path's predictions are certified without a continuation; zero
    # taken as it stands is continued.
    with pytest.MonkeyPatch.context() as mp:
        without_prediction(mp)
        cold, _ = admm_solve(pair, grid[-1])
    continued = sum(est.iterations for est in path.estimates) + cold.iterations
    predicted = int(path.predict_iterations.sum())
    assert cold.iterations > 0 and predicted > 0
    # The predictor's and the continuation's iterations, redone ones
    # included, each threshold once.
    assert counts == {"psd_eig": 4, "soft_threshold": continued + predicted}


def test_continuation_is_scale_equivariant():
    # Samples x4 scale the covariances by 16 and every iterate by 1/16;
    # powers of two keep the scaling exact in floating point. A tol no
    # solve meets runs the prediction and the continuation to their caps.
    truth = gen_sim1(20)
    x = sample_gaussian(truth.omega_x, 200, 40)
    y = sample_gaussian(truth.omega_y, 200, 41)
    cfg = SolverConfig(tol=1e-300, max_iter=30)
    deltas = []
    for c in (1.0, 4.0):
        pair = build_pair(c * x, c * y)
        est, _ = admm_solve(pair, 0.3 * lambda_max(pair), cfg)
        assert est.iterations == 30
        deltas.append(est.delta)
    assert np.count_nonzero(deltas[0]) > 0
    gap = np.linalg.norm(16.0 * deltas[1] - deltas[0])
    assert gap <= 1e-12 * np.linalg.norm(deltas[0])


def scaled_wide_pair(c):
    """A 40 x 10 pair with samples times ``c``."""
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((40, 10)), 1.3 * rng.standard_normal((40, 10))
    return build_pair(c * x, c * y)


@pytest.mark.parametrize("c", [1e-100, 1e100], ids=["1e-100", "1e100"])
def test_extreme_scale_is_refused(c):
    # Covariances near 1e-200 or 1e200, outside SCALE_LIMIT: refused
    # before any solve.
    pair = scaled_wide_pair(c)
    lam = 0.3 * lambda_max(pair)
    for solve in (lambda: admm_solve(pair, lam), lambda: solve_path(pair, lambda_grid(pair))):
        with pytest.raises(ValueError, match=r"sigma_x has largest eigenvalue .* outside the "
                           r"solvable scale \[1e-50, 1e\+50\]: rescale the data"):
            solve()


@pytest.mark.parametrize("c", [1e-24, 1e24], ids=["1e-24", "1e24"])
def test_scale_within_the_limit_is_solved(c):
    # Covariances near 1e-48 and 1e48, inside the limit: the cold solve
    # takes the iterations it takes at unit scale, and the path is
    # certified.
    base = scaled_wide_pair(1.0)
    pair = scaled_wide_pair(c)
    ref, _ = admm_solve(base, 0.3 * lambda_max(base))
    est, _ = admm_solve(pair, 0.3 * lambda_max(pair))
    assert est.converged and est.nnz == ref.nnz
    assert (est.iterations, est.predict_iterations) == (ref.iterations, ref.predict_iterations)
    gap = np.linalg.norm(c * c * est.delta - ref.delta)
    assert gap <= 1e-10 * np.linalg.norm(ref.delta)
    path = solve_path(pair, lambda_grid(pair))
    assert all(est.converged for est in path.estimates)
    assert path.kkt.max() <= SolverConfig().tol


@pytest.mark.parametrize("c", [1e-24, 1e24], ids=["1e-24", "1e24"])
def test_precision_choice_is_scale_free(monkeypatch, c):
    # At tol 1e-5 the default grid's upper penalties are predicted in
    # float32 and its lower ones in float64. Data in far units make the
    # same choice at every penalty, and the rule itself does not overflow.
    cfg = SolverConfig(tol=1e-5)
    calls, _ = record_predictions(monkeypatch)
    choices = []
    for pair in (scaled_wide_pair(1.0), scaled_wide_pair(c)):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve_path(pair, lambda_grid(pair), cfg)
        choices.append([set(call["dtypes"]) for call in calls])
    assert choices[0] == choices[1]
    assert {np.dtype(np.float32)} in choices[0] and {np.dtype(np.float64)} in choices[0]


def path_summary(path):
    return [
        (est.iterations, est.converged, est.nnz, used)
        for est, used in zip(path.estimates, path.predict_iterations)
    ]


@pytest.mark.parametrize("n", [50, 500], ids=["n-below-p", "n-above-p"])
def test_path_is_scale_free(n):
    # The PSD check and the predictor's step, backtracking and KKT bound
    # are relative to the pair, so data in other units give the same
    # predictor and continuation iterations and supports. Powers of two scale the covariances and the
    # grid exactly.
    truth = gen_sim1(100)
    x = sample_gaussian(truth.omega_x, n, 1)
    y = sample_gaussian(truth.omega_y, n, 101)
    pair = build_pair(x, y)
    grid = lambda_grid(pair, count=6, ratio=0.1)
    base = solve_path(pair, grid)
    assert sum(est.iterations for est in base.estimates) + base.predict_iterations.sum() > 0
    # At n < p the path stops at a certified penalty, at every scale.
    assert (base.no_minimizer_at is None) == (n > 100)
    for c in (2.0**-20, 2.0**-10, 2.0**10, 2.0**20):
        path = solve_path(build_pair(c * x, c * y), c * c * grid)
        assert path_summary(path) == path_summary(base)
        assert path.no_minimizer_at == (base.no_minimizer_at and c * c * base.no_minimizer_at)
        for est, ref in zip(path.estimates, base.estimates):
            gap = np.linalg.norm(c * c * est.delta - ref.delta)
            assert gap <= 1e-12 * np.linalg.norm(ref.delta)
    for c in (1e-8, 1e-6, 100.0, 1e4, 1e8):
        scaled = build_pair(c * x, c * y)
        path = solve_path(scaled, lambda_grid(scaled, count=6, ratio=0.1))
        assert list(path.nnz) == list(base.nnz)
    # At the scales the certificate tests use, not exact in floating point,
    # the predictor takes the same iterations, and the path keeps the same
    # supports and stops at the same index.
    for c in (1e-3, 1e3):
        scaled = build_pair(c * x, c * y)
        path = solve_path(scaled, lambda_grid(scaled, count=6, ratio=0.1))
        assert list(path.predict_iterations) == list(base.predict_iterations)
        assert [np.flatnonzero(est.delta).tolist() for est in path.estimates] == [
            np.flatnonzero(est.delta).tolist() for est in base.estimates
        ]
        assert (path.no_minimizer_at is None) == (base.no_minimizer_at is None)


@pytest.mark.parametrize("p", [20, 30])
def test_default_path_kkt_bound_when_n_above_p(p):
    # Every penalty of the default path is certified within tol lambda of
    # stationarity, by its prediction or by its float64 continuation.
    truth = gen_sim1(p)
    worst = 0.0
    for draw in range(3):
        x = sample_gaussian(truth.omega_x, 10 * p, 50 + 2 * draw)
        y = sample_gaussian(truth.omega_y, 10 * p, 51 + 2 * draw)
        pair = build_pair(x, y)
        path = solve_path(pair, lambda_grid(pair, count=20))
        assert all(est.converged for est in path.estimates)
        for est in path.estimates:
            worst = max(worst, kkt_check(est.delta, pair, est.lam) / est.lam)
    assert worst <= SolverConfig().tol


def test_default_path_kkt_bound_when_n_below_p():
    # Replicate 0 of the n < p simulate benchmark: every penalty the path
    # solves is within tol lambda of stationarity, and the path stops at
    # its first penalty without a minimizer, index 17.
    spec = SimulationSpec("sim2", 100, 50, 50, 7)
    truth = generate(spec)
    pair = build_pair(
        sample_gaussian(truth.omega_x, 50, 8), sample_gaussian(truth.omega_y, 50, 9)
    )
    grid = lambda_grid(pair)
    path = solve_path(pair, grid)
    assert len(path) == 17 and path.no_minimizer_at == grid[17]
    assert all(est.converged for est in path.estimates)
    worst = max(kkt_check(est.delta, pair, est.lam) / est.lam for est in path.estimates)
    assert worst <= SolverConfig().tol


@pytest.mark.parametrize("n", [50, 500], ids=["n-below-p", "n-above-p"])
def test_kkt_stop_certifies_a_minimizer_at_rounding_level(monkeypatch, n):
    # Just below lambda_max the minimizer is at rounding level. Zero, taken
    # as it stands, is continued: its residual lambda_max - lam, 1e-13 lam
    # or less, passes the default tol's certificate but not 1e-15's, and
    # the continuation's KKT bound stops it at a certified minimizer.
    without_prediction(monkeypatch)
    truth = gen_sim1(100)
    pair = build_pair(
        sample_gaussian(truth.omega_x, n, 1), sample_gaussian(truth.omega_y, n, 101)
    )
    for k in (13, 14):
        lam = lambda_max(pair) * (1.0 - 10.0**-k)
        est, _ = admm_solve(pair, lam, SolverConfig(tol=1e-15))
        assert est.converged and est.iterations > 0
        assert kkt_check(est.delta, pair, lam) <= 1e-15 * lam


class TestFixedPointState:
    """The reference ADMM starts from ``start`` in the state a sweep leaves
    in place when ``start`` is a minimizer; ``admm_solve`` continues the
    same start, and one iteration of either leaves a minimizer in place."""

    def test_zero_is_the_cold_start(self, monkeypatch):
        # The fixed point at zero is the reference's cold state, bit for
        # bit. A cold solve and a solve from zero taken as it stands are
        # continued alike, and both certify the penalty the reference
        # certifies from the cold state, at its objective.
        without_prediction(monkeypatch)
        for pair, ratio in ((make_pair(6, np.random.default_rng(41)), 0.3),
                            (sampled_pair(12, 6, 36), 0.8)):
            zeros = np.zeros((pair.p, pair.p))
            for built, old in zip(fixed_point(pair, zeros), zero_state(pair)):
                assert built.tobytes() == old.tobytes()
            lam = ratio * lambda_max(pair)
            cold, cold_grad = admm_solve(pair, lam)
            at_zero, zero_grad = admm_solve(pair, lam, start=zeros)
            assert cold.iterations == at_zero.iterations > 0
            assert cold.delta.tobytes() == at_zero.delta.tobytes()
            assert cold.objective == at_zero.objective
            assert cold_grad.tobytes() == zero_grad.tobytes()
            ref, _ = reference_admm_solve(pair, lam, effective_rho(pair))
            assert ref.converged and cold.converged
            assert cold.objective == pytest.approx(ref.objective, rel=1e-4)

    @pytest.mark.parametrize("ratio", [0.3, 0.1])
    def test_one_sweep_leaves_a_minimizer_in_place(self, monkeypatch, ratio):
        without_prediction(monkeypatch)
        pair = make_pair(5, np.random.default_rng(40))
        lam = ratio * lambda_max(pair)
        delta = prox_grad_oracle(pair, lam, tol=0.0, max_iter=5000)
        assert np.count_nonzero(delta) > 0
        # At the default tol the minimizer is certified before any
        # iteration; at tol 1e-300 the certificate fails and one
        # continuation iteration runs.
        est, _ = admm_solve(pair, lam, SolverConfig(max_iter=1), start=delta)
        assert est.iterations == 0 and est.converged
        est, _ = admm_solve(pair, lam, SolverConfig(tol=1e-300, max_iter=1), start=delta)
        assert est.iterations == 1 and not est.converged
        assert np.abs(est.delta - delta).max() <= 1e-10
        # In the reference's sweep from the same fixed point, the blocks and
        # multipliers stay within rounding of where they started.
        cfg = SolverConfig(tol=1e-300, max_iter=1)
        _, state = reference_admm_solve(pair, lam, effective_rho(pair), cfg, start=delta)
        for before, after in zip(fixed_point(pair, delta), state):
            assert np.abs(after - before).max() <= 1e-10


def sim2_replicate_zero():
    """Replicate 0 of the sim2 p=100 n=50 run at seed 7: the n < p
    benchmark's first path."""
    truth = generate(SimulationSpec("sim2", 100, 50, 50, 7))
    return build_pair(
        sample_gaussian(truth.omega_x, 50, 8), sample_gaussian(truth.omega_y, 50, 9)
    )


def record_predictions(monkeypatch):
    """Record every prediction a path makes: its penalty, the step floor 1
    times the penalty in the units of the pair divided by c = sqrt(a_1 b_1)
    (see ``fista_predict``), each iteration's soft threshold (its step
    times that penalty, redone iterations included) with the dtype it ran
    in, and what it returned. The bracket's and the continuation's own
    thresholds are left out.
    Returns the records and the recording predictor ``admm_solve`` calls."""
    calls = []

    def threshold(a, tau):
        if calls and "used" not in calls[-1] and sys._getframe(1).f_code.co_name == "_accelerate":
            calls[-1]["taus"].append(tau)
            calls[-1]["dtypes"].append(a.dtype)
        return soft_threshold(a, tau)

    def predict(factors, lam, start, cfg):
        a, b = float(factors.x.values[0]), float(factors.y.values[0])
        call = {"lam": lam, "floor_tau": lam / (a**0.5 * b**0.5), "taus": [], "dtypes": []}
        calls.append(call)
        call["x"], call["used"] = fista_predict(factors, lam, start, cfg)
        return call["x"], call["used"]

    monkeypatch.setattr(solver, "soft_threshold", threshold)
    monkeypatch.setattr(solver, "fista_predict", predict)
    return calls, predict


def backtracks(taus):
    """Iterations whose step is below the previous one's."""
    return sum(later < earlier for earlier, later in zip(taus, taus[1:]))


class TestFistaPredict:
    """The predictor's KKT bound, step floor and backtracking."""

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    @pytest.mark.parametrize("n", [50, 500], ids=["n-below-p", "n-above-p"])
    def test_returns_are_certified(self, monkeypatch, n, scale):
        # Every prediction that stops before max_iter passes the exact
        # float64 KKT check at tol from its float32 iterations alone, and no
        # step is below the scaled floor 1, where each starts.
        truth = gen_sim1(100)
        pair = build_pair(
            scale * sample_gaussian(truth.omega_x, n, 1),
            scale * sample_gaussian(truth.omega_y, n, 101),
        )
        calls, _ = record_predictions(monkeypatch)
        solve_path(pair, lambda_grid(pair))
        cfg = SolverConfig()
        stopped = [call for call in calls if 0 < call["used"] < cfg.max_iter]
        assert len(stopped) >= 10
        for call in stopped:
            assert kkt_check(call["x"], pair, call["lam"]) <= cfg.tol * call["lam"]
            assert len(call["taus"]) == call["used"]
            assert set(call["dtypes"]) == {np.dtype(np.float32)}
            assert call["taus"][0] == call["floor_tau"]
            assert min(call["taus"]) >= call["floor_tau"]
        assert sum(backtracks(call["taus"]) for call in calls) > 0

    def test_precision_follows_the_stop(self, monkeypatch):
        # Every penalty of the default grid at the default tol stops where
        # float32 reaches. A stop just below FLOAT32_FLOOR * lambda_max, or
        # just below one float32 rounding of the scaled start's largest
        # entry, runs in float64; one just above both, in float32.
        pair = sampled_pair(12, 80, 23)
        factors = factor_pair(pair)
        c = (factors.x.values[0] * factors.y.values[0]) ** 0.5
        grid = lambda_grid(pair)
        calls, predict = record_predictions(monkeypatch)
        solve_path(pair, grid)
        assert [call["lam"] for call in calls] == list(grid[1:])
        assert all(set(call["dtypes"]) == {np.dtype(np.float32)} for call in calls)

        def precision(lam, start, tol):
            calls.clear()
            predict(factors, lam, start, SolverConfig(tol=tol))
            (call,) = calls
            (dtype,) = set(call["dtypes"])
            return dtype

        lam, zero = grid[-1], np.zeros((12, 12))
        edge = solver.FLOAT32_FLOOR * lambda_max(pair) / (solver.PREDICT_MARGIN * lam)
        assert precision(lam, zero, (1 + 1e-9) * edge) == np.float32
        assert precision(lam, zero, (1 - 1e-9) * edge) == np.float64
        lam, tol = grid[1], SolverConfig().tol
        stop = solver.PREDICT_MARGIN * (tol * lam / c)
        for size, dtype in (((1 - 1e-9) * stop, np.float32), ((1 + 1e-9) * stop, np.float64)):
            start = size / (solver.EPS32 * c) * np.eye(12)
            assert precision(lam, start, tol) == dtype

    @pytest.mark.parametrize("tol", [1e-4, 3e-5])
    def test_large_start_is_predicted_in_float64(self, monkeypatch, tol):
        # Just above the n < p benchmark path's stop the estimate's entries
        # reach hundreds of times lambda_max / c. There float32 cannot
        # resolve these stops, which FLOAT32_FLOOR * lambda_max alone would
        # give it: the start's rounding moves those penalties to float64,
        # and every penalty is certified without a continuation.
        pair = sim2_replicate_zero()
        calls, _ = record_predictions(monkeypatch)
        path = solve_path(pair, lambda_grid(pair), SolverConfig(tol=tol))
        assert path.kkt.max() <= tol
        assert all(est.iterations == 0 for est in path.estimates)
        floor = solver.FLOAT32_FLOOR * lambda_max(pair)
        moved = [
            call for call in calls
            if call["used"] and solver.PREDICT_MARGIN * tol * call["lam"] >= floor
            and set(call["dtypes"]) == {np.dtype(np.float64)}
        ]
        assert moved

    def test_backtracks_before_the_stop(self, monkeypatch):
        # The last penalty before the n < p benchmark path's stop, just above
        # the no-minimizer threshold, is where the step is cut.
        pair = sim2_replicate_zero()
        grid = lambda_grid(pair)
        calls, _ = record_predictions(monkeypatch)
        path = solve_path(pair, grid)
        assert len(path) == 17
        (last,) = [call for call in calls if call["lam"] == grid[16]]
        assert 0 < last["used"] < SolverConfig().max_iter
        assert backtracks(last["taus"]) > 0
        assert min(last["taus"]) >= last["floor_tau"]

    def test_step_is_cut_to_its_floor(self, monkeypatch):
        # With both covariances' eigenvalues in [1, 1.1], every direction's
        # curvature is within 1.21 of a_1 b_1, so the step grown from
        # 1/(a_1 b_1) is too long and is cut back to that floor, not below.
        pair = make_pair(6, np.random.default_rng(42), cond=1.1)
        lam = 0.1 * lambda_max(pair)
        calls, predict = record_predictions(monkeypatch)
        x, used = predict(factor_pair(pair), lam, np.zeros((6, 6)), SolverConfig())
        (call,) = calls
        assert 1 < used < SolverConfig().max_iter
        assert kkt_check(x, pair, lam) <= SolverConfig().tol * lam
        assert backtracks(call["taus"]) > 0
        assert min(call["taus"]) == call["floor_tau"]

    def test_bound_is_the_proximal_residual(self):
        # The first iteration is the proximal-gradient step d from the start
        # at 1/(a_1 b_1), step 1 on the pair divided by c = sqrt(a_1 b_1).
        # Its bound is ||H d - d / step||_inf, over c in those units, and the
        # predictor returns after it exactly when the bound meets
        # PREDICT_MARGIN * tol * lam, to float32 rounding.
        pair = sampled_pair(12, 80, 23)
        sx, sy = pair.sigma_x, pair.sigma_y
        lam = 0.3 * lambda_max(pair)
        factors = factor_pair(pair)
        step = 1.0 / (factors.x.values[0] * factors.y.values[0])
        start = np.zeros((12, 12))
        first = soft_threshold(start - step * dtrace_gradient(start, sx, sy), step * lam)
        d = first - start
        hd = dtrace_gradient(first, sx, sy) - dtrace_gradient(start, sx, sy)
        bound = norm_entrywise_linf(hd - d / step)
        # The sign of d / step matters at this step.
        assert abs(norm_entrywise_linf(hd + d / step) - bound) > 1e-3 * bound
        stop = bound / (solver.PREDICT_MARGIN * lam)
        x, used = fista_predict(factors, lam, start, SolverConfig(tol=(1 + 1e-4) * stop))
        assert used == 1
        np.testing.assert_allclose(x, first, rtol=0, atol=1e-6 * np.abs(first).max())
        _, used = fista_predict(factors, lam, start, SolverConfig(tol=(1 - 1e-4) * stop))
        assert used > 1


class TestWarmCertificate:
    """``admm_solve`` predicts from a given start, returns a prediction
    certified at tol as it stands, and continues any other in float64."""

    def test_certified_warm_start_is_returned_without_a_sweep(self):
        pair = sampled_pair(12, 80, 23)
        lam = 0.3 * lambda_max(pair)
        factors, cfg = factor_pair(pair), SolverConfig()
        guess, _ = fista_predict(factors, lam, np.zeros((12, 12)), cfg)
        # A start off by rounding from symmetric is symmetrized, then
        # predicted from.
        start = guess * (1.0 + np.triu(np.full((12, 12), 1e-15), 1))
        symmetrized = (start + start.T) / 2.0
        assert not np.array_equal(start, start.T)
        predicted, used = fista_predict(factors, lam, symmetrized, cfg)
        assert 0 < used < cfg.max_iter
        est, grad = admm_solve(pair, lam, start=start)
        assert est.iterations == 0 and est.converged and est.predict_iterations == used
        assert est.delta.tobytes() == predicted.tobytes()
        assert est.objective == penalized_objective(est.delta, pair.sigma_x, pair.sigma_y, lam)
        assert grad.tobytes() == dtrace_gradient(est.delta, pair.sigma_x, pair.sigma_y).tobytes()

    def test_uncertified_warm_start_is_continued(self, monkeypatch):
        # A prediction stopped 100 times above the certificate's stop fails
        # the certificate, and the float64 continuation runs from it; the
        # reference certifies the penalty from the same start.
        loose_prediction(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        lam = 0.3 * lambda_max(pair)
        zeros, factors, cfg = np.zeros((12, 12)), factor_pair(pair), SolverConfig()
        guess, used = solver.fista_predict(factors, lam, zeros, cfg)
        assert kkt_check(guess, pair, lam) > cfg.tol * lam
        est, _ = admm_solve(pair, lam, start=zeros)
        finished, continued = continuation(factors, lam, guess, cfg)
        assert est.iterations == continued > 0 and est.predict_iterations == used > 0
        assert est.delta.tobytes() == finished.tobytes() and est.converged
        ref, _ = reference_admm_solve(pair, lam, effective_rho(pair), start=guess)
        assert ref.converged
        assert_within_certificates(pair, est, ref)

    def test_library_warm_call_is_a_certified_prediction(self):
        # The README's warm call, at 0.8 times the BIC-selected penalty from
        # the selected estimate, took 17 ADMM sweeps when the start was
        # swept as given.
        truth = gen_sim1(100)
        pair = build_pair(sample_gaussian(truth.omega_x, 500, 1),
                          sample_gaussian(truth.omega_y, 500, 2))
        _, est = select_by_bic(solve_path(pair, lambda_grid(pair, count=50)), "frobenius")
        lam = est.lam
        warm, _ = admm_solve(pair, 0.8 * lam, start=est.delta)
        assert warm.iterations == 0 and warm.converged and warm.predict_iterations > 0
        assert kkt_check(warm.delta, pair, 0.8 * lam) <= SolverConfig().tol * 0.8 * lam


class TestReturnedGradient:
    """``admm_solve`` returns the loss gradient at its estimate, bit for
    bit ``dtrace_gradient``, and the estimate's ``kkt``, bit for bit
    ``kkt_check`` over lambda (lambda_max at 0), however the estimate was
    reached."""

    def assert_gradient(self, pair, est, grad):
        assert grad.tobytes() == dtrace_gradient(est.delta, pair.sigma_x, pair.sigma_y).tobytes()
        unit = est.lam or lambda_max(pair)
        assert est.kkt == kkt_check(est.delta, pair, est.lam, grad) / unit

    def test_at_lambda_max(self):
        pair = sampled_pair(12, 80, 23)
        for lam in (lambda_max(pair), 2.0 * lambda_max(pair)):
            est, grad = admm_solve(pair, lam, start=np.ones((12, 12)))
            assert est.nnz == 0
            self.assert_gradient(pair, est, grad)

    def test_certified_start(self):
        pair = sampled_pair(12, 80, 23)
        lam = 0.3 * lambda_max(pair)
        est, grad = admm_solve(pair, lam, start=np.zeros((12, 12)))
        assert est.iterations == 0 and est.converged and est.predict_iterations > 0
        self.assert_gradient(pair, est, grad)

    @pytest.mark.parametrize("lam_ratio", [0.3, 0.0])
    def test_continued_start(self, monkeypatch, lam_ratio):
        # At 0.3 lambda_max a prediction stopped 100 times above the
        # certificate's stop is continued; at lambda = 0 the closed form,
        # under a tol that it cannot meet, is returned unconverged.
        loose_prediction(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        lam = lam_ratio * lambda_max(pair)
        cfg = SolverConfig(tol=1e-300, max_iter=3) if lam == 0 else SolverConfig()
        guess, _ = fista_predict(factor_pair(pair), 0.3 * lambda_max(pair), np.zeros((12, 12)),
                                 SolverConfig(max_iter=3))
        est, grad = admm_solve(pair, lam, cfg, start=guess)
        assert (est.iterations > 0) == (lam > 0) == est.converged
        self.assert_gradient(pair, est, grad)

    def test_cold_solve(self, monkeypatch):
        without_prediction(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        est, grad = admm_solve(pair, 0.3 * lambda_max(pair))
        assert est.iterations > 0
        self.assert_gradient(pair, est, grad)

    def test_unconverged_solve(self):
        pair = sampled_pair(12, 80, 23)
        est, grad = admm_solve(pair, 0.3 * lambda_max(pair), SolverConfig(max_iter=3))
        assert est.iterations == 3 and not est.converged
        self.assert_gradient(pair, est, grad)

    def test_cold_solve_forms_one_product_per_check(self, monkeypatch):
        # The solve returns its last KKT check's gradient, and each check
        # forms its gradient from the context's D: the certificate of zero
        # and that of its continuation take 2 products, none through
        # dtrace_gradient.
        without_prediction(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        products, checks = [], []
        product = solver._product
        monkeypatch.setattr(solver, "_product", lambda *args: products.append(1) or product(*args))
        monkeypatch.setattr(solver, "kkt_check",
                            lambda *args: checks.append(args) or kkt_check(*args))

        def refuse(*args):
            raise AssertionError("gradient formed through dtrace_gradient")

        monkeypatch.setattr(solver, "dtrace_gradient", refuse)
        est, grad = admm_solve(pair, 0.3 * lambda_max(pair))
        assert est.converged and est.iterations > 0 and est.predict_iterations == 0
        assert len(checks) == len(products) == 2
        assert all(len(args) == 4 for args in checks)
        self.assert_gradient(pair, est, grad)


def assert_converged_is_certified(pair, est, tol):
    # lambda_max stands in for lambda at 0, where tol * 0 cannot be met.
    if est.converged:
        assert kkt_check(est.delta, pair, est.lam) <= tol * (est.lam or lambda_max(pair))


class TestConvergedIsCertified:
    """``converged=True`` means KKT <= tol * lambda, with lambda_max in
    place of lambda at 0: a stop on the predictor's own bound only
    prompts the check."""

    def test_every_kind_of_call(self):
        # The lambda_max shortcut, lambda = 0, a cold call, a warm path, a
        # singular pair's path and a float64 continuation, each certified by
        # the one check.
        cfg = SolverConfig()
        pair, singular = sampled_pair(12, 80, 23), sampled_pair(12, 6, 36)
        top = lambda_max(pair)
        shortcut, zero, cold = (admm_solve(pair, lam, cfg)[0] for lam in (top, 0.0, 0.3 * top))
        assert zero.iterations == cold.iterations == 0 and cold.predict_iterations > 0
        with pytest.MonkeyPatch.context() as mp:
            without_prediction(mp)
            fallback, _ = admm_solve(pair, 0.3 * top, cfg)
        assert fallback.iterations > 0
        warm = solve_path(pair, lambda_grid(pair, count=7), cfg)
        stopped = solve_path(singular, lambda_grid(singular, count=8, ratio=0.05), cfg)
        assert len(stopped) == 2 and stopped.no_minimizer_at is not None
        solves = [(pair, est) for est in [shortcut, zero, cold, fallback] + warm.estimates]
        solves += [(singular, est) for est in stopped.estimates]
        for solved, est in solves:
            assert est.converged
            assert_converged_is_certified(solved, est, cfg.tol)

    def test_continued_path(self, monkeypatch):
        # Predictions stopped 100 times above the certificate's stop miss
        # it at every penalty below lambda_max, and their continuations
        # finish them. The ADMM's step test alone once passed them at KKT
        # up to 0.066 lambda.
        loose_prediction(monkeypatch)
        pair = sampled_pair(12, 80, 23)
        cfg = SolverConfig()
        path = solve_path(pair, lambda_grid(pair, count=7), cfg)
        assert all(est.iterations > 0 for est in path.estimates[1:])
        assert all(est.converged for est in path.estimates)
        for est in path.estimates:
            assert_converged_is_certified(pair, est, cfg.tol)

    def test_cold_solve(self):
        # The benchmark's smoke instance of the fixed-penalty workload: the
        # ADMM's step test alone once passed it at 9.89e-3 lambda after 19
        # sweeps.
        truth = generate(SimulationSpec("sim3", 100, 200, 200, 7))
        seed_x, seed_y = np.random.SeedSequence(7).generate_state(2)
        pair = build_pair(sample_gaussian(truth.omega_x, 200, int(seed_x)),
                          sample_gaussian(truth.omega_y, 200, int(seed_y)))
        est, _ = admm_solve(pair, 0.2 * lambda_max(pair))
        assert_converged_is_certified(pair, est, SolverConfig().tol)
        assert est.converged


class TestKktCheck:
    def test_zero_delta_when_penalty_dominates(self):
        rng = np.random.default_rng(16)
        pair = make_pair(4, rng)
        lam = np.abs(pair.sigma_x - pair.sigma_y).max()
        assert kkt_check(np.zeros((4, 4)), pair, lam) == 0.0
        assert kkt_check(np.zeros((4, 4)), pair, 2 * lam) == 0.0

    def test_unpenalized_true_minimizer(self):
        rng = np.random.default_rng(17)
        sx = random_spd(4, rng)
        sy = random_spd(4, rng)
        pair = pair_from_covariances(sx, sy, 10, 10)
        delta = np.linalg.inv(pair.sigma_y) - np.linalg.inv(pair.sigma_x)
        assert kkt_check(delta, pair, 0.0) <= 1e-10

    def test_perturbed_minimizer_is_flagged(self):
        rng = np.random.default_rng(18)
        sx = random_spd(4, rng)
        sy = random_spd(4, rng)
        pair = pair_from_covariances(sx, sy, 10, 10)
        delta = np.linalg.inv(pair.sigma_y) - np.linalg.inv(pair.sigma_x)
        delta[1, 2] += 0.1
        assert kkt_check(delta, pair, 0.0) > 1e-3


def test_no_minimizer_error_survives_pickling():
    # A forked worker sends its error back pickled; the CLI's exit code 2
    # needs the same exception, fields and message on the other side.
    direction = np.array([[0.0, 0.5], [0.5, 0.0]])
    err = NoMinimizerError(0.5, 0.7, direction, 3)
    back = pickle.loads(pickle.dumps(err, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is NoMinimizerError
    assert (back.lam, back.gain, back.iterations) == (0.5, 0.7, 3)
    assert back.direction.tobytes() == direction.tobytes()
    assert str(back) == str(err)
