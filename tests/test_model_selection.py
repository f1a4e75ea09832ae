import io

import numpy as np
import pytest

from difftrace.covariance import build_pair, pair_from_covariances
from difftrace.linalg import SolverError
from difftrace.model_selection import (
    PATH_CSV_COLUMNS,
    RegPath,
    bic_score,
    lambda_grid,
    lambda_max,
    select_by_bic,
    solve_path,
    write_path_csv,
)
import difftrace
from difftrace import model_selection, solver
from difftrace.simulation import gen_sim1, sample_gaussian
from difftrace.solver import (
    DeltaEstimate,
    NoMinimizerError,
    SolverConfig,
    admm_solve,
    kkt_check,
)
from conftest import random_spd
from test_solver import path_starts


def sampled_pair(p, n, seed):
    truth = gen_sim1(max(p, 8))
    x = sample_gaussian(truth.omega_x, n, seed)
    y = sample_gaussian(truth.omega_y, n, seed + 1)
    return build_pair(x, y)


class TestLambdaMax:
    def test_identical_covariances(self):
        pair = pair_from_covariances(np.eye(3), np.eye(3), 10, 10)
        assert lambda_max(pair) == 0.0

    def test_hand_example(self):
        sx = np.eye(2)
        sy = sx - np.array([[0.0, 0.3], [0.3, -0.1]])
        pair = pair_from_covariances(sx, sy, 10, 10)
        assert lambda_max(pair) == pytest.approx(0.3)

    def test_solver_returns_zero_at_lambda_max(self):
        rng = np.random.default_rng(0)
        pair = pair_from_covariances(random_spd(4, rng), random_spd(4, rng), 10, 10)
        lam = lambda_max(pair)
        est, _ = admm_solve(pair, lam)
        assert est.nnz == 0
        assert kkt_check(est.delta, pair, lam) == 0.0

    @pytest.mark.parametrize("n, singular", [(50, False), (8, True)], ids=["full-rank", "singular"])
    def test_grid_top_is_the_solver_shortcut(self, n, singular):
        # One definition, in the solver: the grid starts at the penalty
        # where admm_solve returns zero without iterating, bit for bit.
        assert difftrace.lambda_max is model_selection.lambda_max is solver.lambda_max
        pair = sampled_pair(12, n, 21)
        factors = solver.factor_pair(pair)
        assert (factors.bracket is not None) == singular
        assert lambda_grid(pair)[0] == factors.lam_max == lambda_max(pair)


class TestLambdaGrid:
    def test_two_point_endpoints(self):
        pair = pair_from_covariances(np.eye(2), np.eye(2) * 0.0, 10, 10)
        grid = lambda_grid(pair, count=2, ratio=0.01)
        np.testing.assert_allclose(grid, [1.0, 0.01])

    def test_log_midpoint(self):
        pair = pair_from_covariances(np.eye(2), np.eye(2) * 0.0, 10, 10)
        grid = lambda_grid(pair, count=3, ratio=0.01)
        np.testing.assert_allclose(grid, [1.0, 0.1, 0.01])

    def test_zero_lambda_max_is_error(self):
        pair = pair_from_covariances(np.eye(2), np.eye(2), 10, 10)
        with pytest.raises(ValueError, match="indistinguishable"):
            lambda_grid(pair)

    def test_strictly_descending(self):
        pair = sampled_pair(10, 50, 1)
        grid = lambda_grid(pair, count=25)
        assert np.all(np.diff(grid) < 0)


def reference_bic_score(delta, pair, norm):
    """The criterion as one norm per call, with its own copy of the
    stationarity residual: the formula ``bic_score`` replaced."""
    sx, sy = pair.sigma_x, pair.sigma_y
    n = pair.n_x + pair.n_y
    resid = 0.5 * (sx @ delta @ sy + sy @ delta @ sx) - sx + sy
    size = np.linalg.norm(resid) if norm == "frobenius" else np.abs(resid).max()
    return float(n * size + np.log(n) * np.count_nonzero(delta))


class TestBicScore:
    def test_zero_delta(self):
        pair = sampled_pair(10, 50, 2)
        n = pair.n_x + pair.n_y
        expect_f = n * np.linalg.norm(pair.sigma_y - pair.sigma_x)
        expect_i = n * np.abs(pair.sigma_y - pair.sigma_x).max()
        bic_f, bic_inf = bic_score(np.zeros((pair.p,) * 2), pair)
        assert bic_f == pytest.approx(expect_f)
        assert bic_inf == pytest.approx(expect_i)

    def test_exact_minimizer_leaves_only_penalty(self):
        rng = np.random.default_rng(3)
        sx = random_spd(4, rng)
        sy = random_spd(4, rng)
        pair = pair_from_covariances(sx, sy, 30, 20)
        delta = np.linalg.inv(pair.sigma_y) - np.linalg.inv(pair.sigma_x)
        n = 50
        expect = np.log(n) * np.count_nonzero(delta)
        for score in bic_score(delta, pair):
            assert score == pytest.approx(expect, abs=1e-6)

    def test_penalty_counts_support_not_magnitude(self):
        pair = sampled_pair(10, 50, 4)
        delta = np.zeros((pair.p, pair.p))
        delta[0, 1] = delta[1, 0] = 0.2
        n = pair.n_x + pair.n_y
        # same nonzero count: scores differ only through the residual term
        for small, large in zip(bic_score(delta, pair), bic_score(delta * 5.0, pair)):
            assert small - np.log(n) * 2 != large - np.log(n) * 2
            assert small != large

    def test_refuses_fewer_than_two_samples(self):
        pair = pair_from_covariances(np.eye(2), 2 * np.eye(2), 1, 0)
        with pytest.raises(ValueError, match=r"need n_x \+ n_y >= 2"):
            bic_score(np.zeros((2, 2)), pair)

    def test_transpose_invariance_for_symmetric_inputs(self):
        pair = sampled_pair(10, 60, 5)
        rng = np.random.default_rng(6)
        delta = rng.standard_normal((pair.p, pair.p))
        delta = (delta + delta.T) / 2
        np.testing.assert_allclose(bic_score(delta, pair), bic_score(delta.T, pair))

    @pytest.mark.parametrize("p, n, seed", [(10, 50, 20), (12, 8, 21), (30, 200, 22)])
    def test_matches_reference_formula(self, p, n, seed):
        # Path estimates and a dense symmetric matrix, at n > p and n < p.
        pair = sampled_pair(p, n, seed)
        path = solve_path(pair, lambda_grid(pair, count=6))
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((pair.p, pair.p))
        for delta in [est.delta for est in path.estimates] + [dense + dense.T]:
            bic_f, bic_inf = bic_score(delta, pair)
            for score, norm in ((bic_f, "frobenius"), (bic_inf, "max")):
                expect = reference_bic_score(delta, pair, norm)
                assert abs(score - expect) <= 1e-12 * abs(expect)

    def test_dimension_mismatch_rejected(self):
        pair = sampled_pair(10, 50, 7)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bic_score(np.zeros((3, 3)), pair)


class TestSolvePath:
    def test_single_lambda_max_path(self):
        pair = sampled_pair(10, 50, 8)
        path = solve_path(pair, [lambda_max(pair)])
        assert len(path) == 1
        assert path.nnz[0] == 0
        assert path.estimates[0].nnz == 0

    def test_endpoint_sparsity_ordering(self):
        pair = sampled_pair(20, 100, 9)
        path = solve_path(pair, lambda_grid(pair, count=12))
        assert path.nnz[0] <= path.nnz[-1]

    def test_nnz_matches_recount(self):
        pair = sampled_pair(12, 80, 10)
        path = solve_path(pair, lambda_grid(pair, count=8))
        for i, est in enumerate(path.estimates):
            assert path.nnz[i] == np.count_nonzero(est.delta)

    def test_warm_path_matches_cold_solves(self):
        # The step-size stopping rule can halt ~1e-3 short of the optimum at
        # loose tolerances; solve tightly so both answers sit well inside the
        # 1e-3 agreement band.
        pair = sampled_pair(20, 120, 11)
        cfg = SolverConfig(tol=1e-8, max_iter=200000)
        lams = lambda_grid(pair, count=3)
        path = solve_path(pair, lams, cfg)
        for lam, est in zip(lams, path.estimates):
            cold, _ = admm_solve(pair, float(lam), cfg)
            np.testing.assert_allclose(est.delta, cold.delta, atol=1e-3)

    def test_path_factors_the_pair_once(self, monkeypatch):
        pair = sampled_pair(12, 80, 12)
        lams = lambda_grid(pair, count=10)
        calls = []
        psd_eig = solver.psd_eig

        def counting(a, name):
            calls.append(name)
            return psd_eig(a, name)

        monkeypatch.setattr(solver, "psd_eig", counting)
        path = solve_path(pair, lams)
        assert calls == ["sigma_x", "sigma_y"]
        # Bitwise the same as refactoring the pair in every solve, each
        # from the start the path gave it.
        starts = path_starts(pair, path)
        del calls[:]
        for lam, est, start in zip(lams, path.estimates, starts):
            alone, _ = admm_solve(pair, float(lam), start=start)
            assert alone.delta.tobytes() == est.delta.tobytes()
        # Each lone solve factors the pair, the one at lambda_max included.
        assert len(calls) == 2 * len(lams)

    def test_path_builds_the_null_space_once(self, monkeypatch):
        pair = sampled_pair(12, 6, 31)
        calls = []
        null_space = solver.null_space

        def counting(a_eig, b_eig):
            calls.append(a_eig)
            return null_space(a_eig, b_eig)

        monkeypatch.setattr(solver, "null_space", counting)
        path = solve_path(pair, lambda_grid(pair, count=10, ratio=0.1))
        assert len(calls) == 1
        assert path.no_minimizer_at is not None
        assert sum(est.iterations for est in path.estimates) + path.predict_iterations.sum() > 0

    def test_stops_at_first_penalty_without_minimizer(self):
        pair = sampled_pair(12, 6, 31)
        grid = lambda_grid(pair, count=10, ratio=0.1)
        path = solve_path(pair, grid)
        stop = len(path)
        assert 1 < stop < len(grid)
        assert path.no_minimizer_at == grid[stop]
        assert np.array_equal(path.lambdas, grid[:stop])
        assert len(path.bic_f) == len(path.bic_inf) == len(path.nnz) == stop
        with pytest.raises(NoMinimizerError):
            admm_solve(pair, grid[stop])
        lines = io.StringIO()
        write_path_csv(path, lines)
        assert len(lines.getvalue().splitlines()) == 1 + stop

    def test_refuses_a_grid_whose_first_penalty_has_no_minimizer(self):
        pair = sampled_pair(12, 6, 31)
        lam = 0.1 * lambda_max(pair)
        with pytest.raises(NoMinimizerError) as err:
            solve_path(pair, [lam, lam / 2])
        assert err.value.lam == lam

    def test_scores_each_penalty_once(self, monkeypatch):
        pair = sampled_pair(12, 80, 23)
        calls = []

        def counting(delta, pair, grad=None):
            calls.append(delta)
            return bic_score(delta, pair, grad)

        monkeypatch.setattr(model_selection, "bic_score", counting)
        path = solve_path(pair, lambda_grid(pair, count=7))
        assert len(calls) == len(path) == 7
        for delta, est, f, inf in zip(calls, path.estimates, path.bic_f, path.bic_inf):
            assert delta is est.delta
            assert (f, inf) == bic_score(est.delta, pair)

    def test_one_gradient_per_penalty(self, monkeypatch):
        # One float64 Hessian product per penalty below lambda_max, in
        # admm_solve, gives the prediction's certificate, its objective, the
        # scores and the KKT residual; none is taken at lambda_max or in
        # model_selection. The predictor's own products are float32.
        pair = sampled_pair(12, 80, 23)
        products = []
        product = solver._product

        def counting(delta, a, b):
            products.append(delta.dtype)
            return product(delta, a, b)

        monkeypatch.setattr(solver, "_product", counting)
        gradients = []
        for module in (model_selection, solver):
            monkeypatch.setattr(module, "dtrace_gradient", lambda *args: gradients.append(args))
        losses = []
        monkeypatch.setattr(solver, "dtrace_loss", lambda *args: losses.append(args))
        path = solve_path(pair, lambda_grid(pair, count=7))
        assert len(path) == 7
        assert sum(est.iterations for est in path.estimates) == 0
        assert products == [np.dtype(np.float64)] * 6
        assert gradients == losses == []

    @pytest.mark.parametrize("p, n, seed", [(12, 80, 23), (12, 6, 31)])
    def test_kkt_is_residual_over_penalty(self, p, n, seed):
        pair = sampled_pair(p, n, seed)
        path = solve_path(pair, lambda_grid(pair, count=7))
        assert path.kkt.shape == (len(path),)
        assert path.kkt[0] == 0.0
        for lam, est, kkt in zip(path.lambdas, path.estimates, path.kkt):
            assert kkt == kkt_check(est.delta, pair, lam) / lam

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("p, n, seed", [(12, 80, 23), (12, 6, 31)])
    def test_tight_tol_is_certified_without_a_sweep(self, p, n, seed, tol):
        # A stop below float32's reach is predicted in float64, which reaches
        # it: every penalty is certified at tol before any sweep, and no
        # prediction runs out of iterations.
        cfg = SolverConfig(tol=tol)
        pair = sampled_pair(p, n, seed)
        path = solve_path(pair, lambda_grid(pair), cfg)
        assert len(path) > 1
        assert path.kkt.max() <= tol
        assert all(est.converged and est.iterations == 0 for est in path.estimates)
        assert 0 < path.predict_iterations.max() < cfg.max_iter

    def test_kkt_at_zero_penalty_is_over_lambda_max(self):
        # lambda_max, the scale of the certificate at 0, makes the column
        # unit-free there too: the raw residual grows with the data's units.
        rng = np.random.default_rng(24)
        sx, sy = random_spd(4, rng), random_spd(4, rng)
        for c in (1.0, 1e3):
            pair = pair_from_covariances(c * sx, c * sy, 30, 30)
            path = solve_path(pair, [lambda_max(pair), 0.0])
            assert path.kkt[1] == kkt_check(path.estimates[1].delta, pair, 0.0) / lambda_max(pair)
            assert path.kkt[1] <= 1e-14

    def test_rejects_ascending_grid(self):
        pair = sampled_pair(10, 50, 12)
        with pytest.raises(ValueError, match="descending"):
            solve_path(pair, [0.1, 0.2])

    def test_rejects_empty_grid(self):
        pair = sampled_pair(10, 50, 13)
        with pytest.raises(ValueError, match="empty"):
            solve_path(pair, [])

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([np.inf], "penalty must be finite, got inf"),
            ([np.inf, 0.5], "penalty must be finite, got inf"),
            ([0.5, np.inf], "penalty must be finite, got inf"),
            ([0.5, -0.1], "penalty must be nonnegative, got -0.1"),
            ([0.5, np.nan], "penalty must be nonnegative, got nan"),
            ([np.nan, 0.1], "penalty must be nonnegative, got nan"),
        ],
        ids=["alone", "leading", "trailing", "negative", "trailing-nan", "leading-nan"],
    )
    def test_rejects_infinite_penalty_before_solving(self, monkeypatch, grid, message):
        # The whole grid is checked before its first solve: infinity first,
        # then NaN and negatives in admm_solve's wording, then the order.
        def unreachable(*args, **kwargs):
            raise AssertionError("a grid holding a bad penalty was solved")

        monkeypatch.setattr(model_selection, "admm_solve", unreachable)
        with pytest.raises(ValueError) as err:
            solve_path(sampled_pair(10, 50, 14), grid)
        assert str(err.value) == message

    def test_failed_solve_names_its_penalty(self, monkeypatch):
        def failing(pair, lam, cfg, start, factors):
            raise SolverError("iterates diverged at iteration 3")

        monkeypatch.setattr(model_selection, "admm_solve", failing)
        with pytest.raises(SolverError) as err:
            solve_path(sampled_pair(10, 50, 15), [0.25])
        assert str(err.value) == (
            "path solve failed at lambda=0.25: iterates diverged at iteration 3"
        )


class TestSelectByBic:
    def test_single_entry_path(self):
        pair = sampled_pair(10, 50, 14)
        path = solve_path(pair, [lambda_max(pair)])
        best, est = select_by_bic(path, "frobenius")
        assert best == 0 and est.lam == lambda_max(pair)
        assert est is path.estimates[0]

    def test_zero_model_selected_when_best(self):
        # With identical underlying groups, every nonzero model pays the
        # penalty for noise: the lambda_max entry must win.
        rng = np.random.default_rng(15)
        truth = gen_sim1(10)
        x = sample_gaussian(truth.omega_x, 400, 16)
        y = sample_gaussian(truth.omega_x, 400, 17)
        pair = build_pair(x, y)
        path = solve_path(pair, lambda_grid(pair, count=10))
        best, est = select_by_bic(path, "frobenius")
        assert best == 0 and est.lam == path.lambdas[0]
        assert est.nnz == 0

    def test_ties_break_to_larger_lambda(self):
        scores = np.array([5.0, 3.0, 3.0, 4.0])
        estimates = [
            DeltaEstimate(np.zeros((2, 2)), lam, 0, True, 0.0, 0, 0.0)
            for lam in (0.4, 0.3, 0.2, 0.1)
        ]
        path = RegPath(estimates, bic_f=scores, bic_inf=scores)
        best, est = select_by_bic(path, "frobenius")
        assert best == 1 and est.lam == 0.3
        assert est is estimates[1]

    def test_selected_score_is_minimal(self):
        pair = sampled_pair(15, 90, 18)
        path = solve_path(pair, lambda_grid(pair, count=9))
        for norm, scores in (("frobenius", path.bic_f), ("max", path.bic_inf)):
            best, est = select_by_bic(path, norm)
            assert est is path.estimates[best]
            assert scores[best] == scores.min()

    def test_empty_path_rejected(self):
        # A path holds one estimate at least, so select_by_bic and
        # curve_from_path need no check of their own.
        empty = np.array([])
        with pytest.raises(ValueError, match="^empty path$"):
            RegPath([], empty, empty)


class TestPathCsv:
    def test_columns_and_rows(self):
        # The second pair is singular (n < p): its path stops at no_minimizer_at.
        for p, n, seed, count, ratio, stops in ((10, 60, 19, 4, 0.01, False),
                                                (12, 6, 31, 10, 0.1, True)):
            pair = sampled_pair(p, n, seed)
            path = solve_path(pair, lambda_grid(pair, count=count, ratio=ratio))
            assert (path.no_minimizer_at is not None) == stops == (len(path) < count)
            buf = io.StringIO()
            write_path_csv(path, buf)
            lines = buf.getvalue().strip().splitlines()
            assert lines[0] == ",".join(PATH_CSV_COLUMNS)
            assert len(lines) == 1 + len(path)
            columns = (path.lambdas, path.nnz, path.bic_f, path.bic_inf, path.kkt,
                       path.predict_iterations)
            assert [len(column) for column in columns] == [len(path)] * len(columns)
            assert [column.dtype.kind for column in columns] == ["f", "i", "f", "f", "f", "i"]
            rows = [dict(zip(PATH_CSV_COLUMNS, line.split(","))) for line in lines[1:]]
            for row, est, f, inf in zip(rows, path.estimates, path.bic_f, path.bic_inf):
                assert float(row["lambda"]) == est.lam
                assert int(row["nnz"]) == est.nnz
                assert (float(row["bic_f"]), float(row["bic_inf"])) == (f, inf)
                assert (f, inf) == bic_score(est.delta, pair)
                assert row["converged"] == str(est.converged)
                assert int(row["iterations"]) == est.iterations
                assert float(row["kkt"]) == est.kkt
                assert int(row["predict_iterations"]) == est.predict_iterations
            predicted = [int(row["predict_iterations"]) for row in rows]
            assert predicted[0] == 0 and sum(predicted) > 0
