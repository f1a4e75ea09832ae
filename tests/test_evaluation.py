import numpy as np
import pytest

from difftrace.covariance import build_pair, pair_from_covariances
from difftrace.evaluation import (
    curve_from_path,
    irrepresentability_alpha,
    naive_baseline,
    support_metrics,
    threshold_curve,
)
from difftrace.linalg import as_symmetric
from difftrace.model_selection import RegPath, lambda_grid, solve_path
from difftrace.simulation import gen_sim1, sample_gaussian
from difftrace.solver import DeltaEstimate
from conftest import random_spd


def fake_path(deltas):
    lams = np.linspace(1.0, 0.1, len(deltas))
    ests = [
        DeltaEstimate(d, float(lam), 1, True, 0.0, 0, 0.0) for d, lam in zip(deltas, lams)
    ]
    zeros = np.zeros(len(deltas))
    return RegPath(ests, zeros, zeros, 1.0)


class TestSupportMetrics:
    def test_perfect_estimate(self):
        truth = gen_sim1(10).delta_star
        report = support_metrics(truth.copy(), truth)
        assert report.tp_rate == report.tn_rate == report.td_rate == 1.0
        assert report.sign_consistent

    def test_empty_estimate_convention(self):
        truth = gen_sim1(10).delta_star
        report = support_metrics(np.zeros_like(truth), truth)
        assert report.tp_rate == 0.0
        assert report.tn_rate == 1.0
        assert report.td_rate == 1.0
        assert not report.sign_consistent

    def test_counting_example(self):
        # p=10: truth has 16 nonzeros; estimate detects 10 entries of which
        # 8 are true -> TP=0.5, TD=0.8, TN=(84-2)/84.
        truth = np.zeros((10, 10))
        flat_truth = [(i, i + 1) for i in range(8)] + [(i + 1, i) for i in range(8)]
        for i, j in flat_truth:
            truth[i, j] = 1.0
        est = np.zeros((10, 10))
        for i, j in flat_truth[:8]:
            est[i, j] = 1.0
        est[9, 0] = 1.0
        est[0, 9] = 1.0
        report = support_metrics(est, truth)
        assert report.tp_rate == pytest.approx(0.5)
        assert report.td_rate == pytest.approx(0.8)
        assert report.tn_rate == pytest.approx(82 / 84)
        assert report.nnz_est == 10
        assert report.nnz_true == 16

    def test_rate_products_are_counts(self):
        rng = np.random.default_rng(0)
        truth = np.where(rng.random((8, 8)) < 0.3, 1.0, 0.0)
        est = np.where(rng.random((8, 8)) < 0.4, 1.0, 0.0)
        report = support_metrics(est, truth)
        if report.nnz_true:
            assert report.tp_rate * report.nnz_true == pytest.approx(
                round(report.tp_rate * report.nnz_true)
            )
        if report.nnz_est:
            assert report.td_rate * report.nnz_est == pytest.approx(
                round(report.td_rate * report.nnz_est)
            )

    def test_sign_consistency_implies_perfect_support(self):
        rng = np.random.default_rng(1)
        truth = np.where(rng.random((6, 6)) < 0.3, 1.0, 0.0) - np.where(
            rng.random((6, 6)) < 0.3, 2.0, 0.0
        )
        report = support_metrics(truth.copy(), truth)
        assert report.sign_consistent
        assert report.tp_rate == 1.0 and report.td_rate == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            support_metrics(np.eye(3), np.eye(4))


class TestCurveFromPath:
    def test_degenerate_zero_path(self):
        truth = gen_sim1(10).delta_star
        points, auc = curve_from_path(fake_path([np.zeros((10, 10))]), truth)
        assert len(points) == 1
        assert points[0].fp_rate == 0.0 and points[0].tp_rate == 0.0
        assert auc == pytest.approx(0.5)

    def test_perfect_path(self):
        truth = gen_sim1(10).delta_star
        points, auc = curve_from_path(fake_path([truth.copy()]), truth)
        assert auc == pytest.approx(1.0)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(2)
        truth = gen_sim1(12).delta_star
        deltas = [
            np.where(np.abs(truth) + 0.1 * rng.random(truth.shape) > t, 1.0, 0.0)
            for t in (0.2, 0.4, 0.6)
        ]
        _, auc_forward = curve_from_path(fake_path(deltas), truth)
        _, auc_reverse = curve_from_path(fake_path(deltas[::-1]), truth)
        assert auc_forward == pytest.approx(auc_reverse)

    def test_auc_in_unit_interval(self):
        rng = np.random.default_rng(3)
        truth = gen_sim1(10).delta_star
        deltas = [np.where(rng.random((10, 10)) < q, 1.0, 0.0) for q in (0.1, 0.5, 0.9)]
        _, auc = curve_from_path(fake_path(deltas), truth)
        assert 0.0 <= auc <= 1.0


class TestNaiveBaseline:
    def test_identical_groups_vanish(self):
        rng = np.random.default_rng(4)
        sigma = random_spd(6, rng)
        pair = pair_from_covariances(sigma, sigma, 50, 50)
        base = naive_baseline(pair)
        np.testing.assert_allclose(base, np.zeros((6, 6)), atol=1e-12)

    def test_diagonal_limit(self):
        pair = pair_from_covariances(np.diag([2.0, 4.0]), np.diag([1.0, 2.0]), 50, 50)
        base = naive_baseline(pair, ridge=1e-10)
        np.testing.assert_allclose(base, np.diag([1 / 1 - 1 / 2, 1 / 2 - 1 / 4]), atol=1e-6)

    def test_threshold_curve_perfect_scores(self):
        truth = gen_sim1(10).delta_star
        points, auc = threshold_curve(truth * 3.0, truth)
        assert auc == pytest.approx(1.0)

    def test_threshold_curve_random_scores_near_half(self):
        rng = np.random.default_rng(5)
        truth = gen_sim1(20).delta_star
        points, auc = threshold_curve(rng.standard_normal((20, 20)), truth)
        assert 0.3 < auc < 0.7


class TestIrrepresentability:
    def test_identity_pair(self):
        alpha, kappa = irrepresentability_alpha(np.eye(4), np.eye(4), {(0, 1), (1, 0)})
        assert alpha == 1.0
        assert kappa == 1.0

    def test_block_diagonal_construction(self):
        # Shared leading block, differing trailing blocks: the operator rows
        # linking off-support to support entries vanish identically, so the
        # slack is exactly 1.
        rng = np.random.default_rng(6)
        a = random_spd(3, rng)
        bx = random_spd(2, rng)
        by = random_spd(2, rng)
        p = 5
        sigma_x = np.zeros((p, p))
        sigma_y = np.zeros((p, p))
        sigma_x[:3, :3] = sigma_y[:3, :3] = a
        sigma_x[3:, 3:] = bx
        sigma_y[3:, 3:] = by
        support = {(i, j) for i in range(3, 5) for j in range(3, 5)}
        alpha, kappa = irrepresentability_alpha(sigma_x, sigma_y, support)
        assert alpha == 1.0
        assert kappa > 0.0

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(7)
        p = 4
        sigma_x = random_spd(p, rng)
        sigma_y = random_spd(p, rng)
        dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        support = {tuple(idx) for idx in np.argwhere(dist == 1)}

        # oracle: assemble the operator entry by entry
        gamma = np.empty((p * p, p * p))
        for j in range(p):
            for k in range(p):
                for l in range(p):
                    for m in range(p):
                        gamma[j * p + k, l * p + m] = (
                            sigma_x[j, l] * sigma_y[k, m]
                            + sigma_y[j, l] * sigma_x[k, m]
                        ) / 2.0
        s = sorted(i * p + j for i, j in support)
        comp = [e for e in range(p * p) if e not in s]
        inv_ss = np.linalg.inv(gamma[np.ix_(s, s)])
        expect_alpha = 1.0 - np.abs(gamma[np.ix_(comp, s)] @ inv_ss).sum(axis=1).max()
        expect_kappa = np.abs(inv_ss).sum(axis=1).max()

        alpha, kappa = irrepresentability_alpha(sigma_x, sigma_y, support)
        assert alpha == pytest.approx(expect_alpha, abs=1e-10)
        assert kappa == pytest.approx(expect_kappa, abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        p = 5
        sigma_x = random_spd(p, rng)
        sigma_y = random_spd(p, rng)
        support = {(0, 1), (1, 0), (2, 3), (3, 2)}
        alpha, kappa = irrepresentability_alpha(sigma_x, sigma_y, support)

        perm = rng.permutation(p)
        px = sigma_x[np.ix_(perm, perm)]
        py = sigma_y[np.ix_(perm, perm)]
        inv = np.argsort(perm)
        perm_support = {(int(inv[i]), int(inv[j])) for i, j in support}
        alpha_p, kappa_p = irrepresentability_alpha(px, py, perm_support)
        assert alpha_p == pytest.approx(alpha, abs=1e-9)
        assert kappa_p == pytest.approx(kappa, abs=1e-9)

    def test_p41_identity_pair(self):
        alpha, kappa = irrepresentability_alpha(np.eye(41), np.eye(41), {(0, 1)})
        assert alpha == 1.0
        assert kappa == 1.0

    @pytest.mark.parametrize("p", [30, 40])
    def test_matches_kronecker_oracle(self, p):
        # The full p^2 x p^2 operator, built in the test only.
        truth = gen_sim1(p)
        sigma_x, sigma_y = (as_symmetric(np.linalg.inv(o)) for o in (truth.omega_x, truth.omega_y))
        support = {tuple(idx) for idx in np.argwhere(truth.omega_y != truth.omega_x)}
        gamma = (np.kron(sigma_x, sigma_y) + np.kron(sigma_y, sigma_x)) / 2.0
        s = sorted(i * p + j for i, j in support)
        comp = np.setdiff1d(np.arange(p * p), s)
        inv_ss = np.linalg.inv(gamma[np.ix_(s, s)])
        expect_alpha = 1.0 - np.abs(gamma[np.ix_(comp, s)] @ inv_ss).sum(axis=1).max()
        expect_kappa = np.abs(inv_ss).sum(axis=1).max()

        alpha, kappa = irrepresentability_alpha(sigma_x, sigma_y, support)
        assert kappa == expect_kappa
        assert abs(alpha - expect_alpha) <= 1e-12

    @pytest.mark.parametrize(
        "entry", [(0, 4), (1, -1), (4, 0), (-1, 2)],
        ids=["column-past-end", "negative-column", "row-past-end", "negative-row"],
    )
    def test_support_outside_the_matrix_refused(self, entry):
        with pytest.raises(ValueError) as err:
            irrepresentability_alpha(np.eye(4), np.eye(4), {(0, 1), entry})
        assert str(err.value) == f"support entry {entry} lies outside a 4 x 4 matrix"

    @pytest.mark.parametrize(
        "entry", [(0.7, 1.9), (1, 2.5), (np.nan, 1)], ids=["both", "column", "nan"]
    )
    def test_fractional_support_entry_refused(self, entry):
        # A fractional index is refused rather than truncated to another entry.
        with pytest.raises(ValueError) as err:
            irrepresentability_alpha(np.eye(4), np.eye(4), {(0, 1), entry})
        assert str(err.value) == f"support entry {entry} is not a pair of integer indices"

    def test_integral_float_support_entries_accepted(self):
        rng = np.random.default_rng(10)
        sigma_x, sigma_y = random_spd(4, rng), random_spd(4, rng)
        assert irrepresentability_alpha(sigma_x, sigma_y, {(2.0, 1.0), (0, 3)}) == (
            irrepresentability_alpha(sigma_x, sigma_y, {(2, 1), (0, 3)})
        )

    @pytest.mark.parametrize(
        "sigma_x, sigma_y, message",
        [
            (np.ones((3, 4)), np.ones((3, 4)), "sigma_x must be square, got shape (3, 4)"),
            (np.eye(4), np.where(np.eye(4, k=1) == 1, np.nan, np.eye(4)),
             "sigma_y contains non-finite entries"),
            (np.ones(4), np.ones(4), "sigma_x must be square, got shape (4,)"),
        ],
        ids=["three-by-four", "nan", "one-dimensional"],
    )
    def test_invalid_covariance_refused(self, sigma_x, sigma_y, message):
        with pytest.raises(ValueError) as err:
            irrepresentability_alpha(sigma_x, sigma_y, {(0, 1)})
        assert str(err.value) == message

    def test_covariances_are_symmetrized(self):
        rng = np.random.default_rng(9)
        sigma_x = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        sigma_y = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        support = {(0, 1), (1, 0)}
        assert irrepresentability_alpha(sigma_x, sigma_y, support) == irrepresentability_alpha(
            (sigma_x + sigma_x.T) / 2.0, (sigma_y + sigma_y.T) / 2.0, support
        )

    def test_empty_support_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            irrepresentability_alpha(np.eye(3), np.eye(3), set())


class TestEndToEndOrdering:
    def test_dtl_curve_beats_naive_on_small_benchmark(self):
        # Scaled-down version of the figure-style comparison: the penalized
        # path should dominate naive inverse differencing.
        truth = gen_sim1(40)
        x = sample_gaussian(truth.omega_x, 60, 21)
        y = sample_gaussian(truth.omega_y, 60, 22)
        pair = build_pair(x, y)
        path = solve_path(pair, lambda_grid(pair, count=20))
        _, auc_dtl = curve_from_path(path, truth.delta_star)
        _, auc_naive = threshold_curve(naive_baseline(pair), truth.delta_star)
        assert auc_dtl > auc_naive
