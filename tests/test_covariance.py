import re

import numpy as np
import pytest

from difftrace import covariance
from difftrace.covariance import (
    CovariancePair,
    build_pair,
    pair_from_covariances,
    sample_covariance,
)
from difftrace.model_selection import lambda_max, solve_path
from difftrace.solver import admm_solve


class TestSampleCovariance:
    def test_two_point_hand_example(self):
        data = np.array([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(
            sample_covariance(data), np.array([[1.0, 0.0], [0.0, 0.0]])
        )

    def test_constant_data_gives_zero(self):
        data = np.full((5, 3), 7.3)
        np.testing.assert_array_equal(sample_covariance(data), np.zeros((3, 3)))

    def test_monte_carlo_diagonal(self):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((1000, 2)) * np.array([1.0, 2.0])
        cov = sample_covariance(data)
        assert abs(cov[0, 0] - 1.0) < 0.2
        assert abs(cov[1, 1] - 4.0) < 0.2

    def test_normalization_is_one_over_n(self):
        # np.cov multiplies by the reciprocal 1/n, which at n = 16 is the
        # same float operation as dividing by n, so the match is exact.
        rng = np.random.default_rng(1)
        data = 3.0 * rng.standard_normal((16, 5)) + 1.0
        np.testing.assert_array_equal(
            sample_covariance(data), np.cov(data, rowvar=False, ddof=0)
        )

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_covariance(np.ones((1, 3)))

    def test_nonfinite_names_position(self):
        data = np.ones((3, 3))
        data[1, 2] = np.inf
        with pytest.raises(ValueError, match="row 2, column 3"):
            sample_covariance(data)

    def test_centering_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((30, 4))
        shifted = data + rng.uniform(-5, 5, 4)
        np.testing.assert_allclose(
            sample_covariance(data), sample_covariance(shifted), atol=1e-10
        )

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((30, 4))
        np.testing.assert_allclose(
            sample_covariance(3.0 * data), 9.0 * sample_covariance(data), atol=1e-10
        )

    def test_output_psd_when_singular(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((4, 10))  # n < p: singular but PSD
        cov = sample_covariance(data)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-8
        np.testing.assert_array_equal(cov, cov.T)


class TestBuildPair:
    def test_identical_groups(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((20, 3))
        pair = build_pair(data, data.copy())
        np.testing.assert_array_equal(pair.sigma_x, pair.sigma_y)
        assert pair.n_x == pair.n_y == 20

    def test_p_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="mismatch"):
            build_pair(rng.standard_normal((10, 3)), rng.standard_normal((10, 4)))

    def test_each_group_is_validated_once(self, monkeypatch):
        names, check = [], covariance.check_observations
        monkeypatch.setattr(covariance, "check_observations",
                            lambda data, name="data": names.append(name) or check(data, name))
        pair = build_pair([[0.0, 1.0], [2.0, 3.0]], np.ones((3, 2)))
        assert names == ["group X", "group Y"]
        assert (pair.n_x, pair.n_y) == (2, 3)

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (np.full((2, 3), np.nan), np.ones((1, 4)),
             "group X has a non-finite value at row 1, column 1"),
            (np.ones((2, 3)), np.ones((1, 4)), "group Y needs at least 2 observations, got 1"),
            (np.ones((2, 3)), np.ones(4), "group Y must be 2-d (rows = observations), got ndim=1"),
            (np.ones((2, 3)), np.ones((2, 4)),
             "variable-count mismatch: group X has p=3, group Y has p=4"),
        ],
        ids=["x-first", "y-rows", "y-ndim", "mismatch-last"],
    )
    def test_errors_come_in_group_order(self, x, y, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            build_pair(x, y)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal((12, 4))
        first = build_pair(x, y)
        second = build_pair(x.copy(), y.copy())
        assert first.sigma_x.tobytes() == second.sigma_x.tobytes()
        assert first.sigma_y.tobytes() == second.sigma_y.tobytes()

    def test_pair_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            CovariancePair(np.eye(3), np.eye(4), 10, 10)

    def test_pair_from_covariances_symmetrizes(self):
        a = np.array([[2.0, 0.1], [0.3, 1.0]])
        pair = pair_from_covariances(a, np.eye(2), 5, 5)
        np.testing.assert_array_equal(pair.sigma_x, pair.sigma_x.T)
        assert pair.sigma_x[0, 1] == pytest.approx(0.2)

    def test_indefinite_pair_refused_when_solved(self):
        # The pair is judged once, when a solve factors it, at every penalty.
        pair = pair_from_covariances(np.diag([1.0, -1.0]), np.eye(2), 5, 5)
        top = lambda_max(pair)
        message = re.escape("sigma_x is not positive semidefinite: min eigenvalue -1.000e+00")
        for lam in (0.5 * top, top, np.inf):
            with pytest.raises(ValueError, match=message):
                admm_solve(pair, lam)
        with pytest.raises(ValueError, match=message):
            solve_path(pair, [top, 0.5 * top])
