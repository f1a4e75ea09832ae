import numpy as np
import pytest

from difftrace.cli import write_ground_truth
from difftrace.simulation import (
    PD_MARGIN,
    GroundTruth,
    SimulationSpec,
    _signed_uniform,
    gen_sim1,
    gen_sim2,
    gen_sim3,
    generate,
    sample_gaussian,
)


def min_eig(a):
    return float(np.linalg.eigvalsh(a)[0])


def reference_gen_sim3(p, seed, min_signal=0.0, margin=PD_MARGIN):
    """``gen_sim3`` with its PD shift inline, as it was before it called
    ``_finalize``: the oracle for the folded one."""
    rng = np.random.default_rng(seed)
    block_size = 100
    omega_x = np.zeros((p, p))
    iu, ju = np.triu_indices(block_size, k=1)
    n_pairs = iu.size
    n_fill = int(round(0.6 * n_pairs))
    for start in range(0, p, block_size):
        chosen = rng.choice(n_pairs, size=n_fill, replace=False)
        values = rng.uniform(-0.1, 0.1, n_fill)
        block = np.zeros((block_size, block_size))
        block[iu[chosen], ju[chosen]] = values
        block += block.T
        sl = slice(start, start + block_size)
        omega_x[sl, sl] = block

    fi, fj = np.triu_indices(p, k=1)
    picked = rng.choice(fi.size, size=50, replace=False)
    delta = np.zeros((p, p))
    delta[fi[picked], fj[picked]] = _signed_uniform(rng, 50, min_signal, 0.5)
    delta += delta.T
    omega_y = omega_x + delta

    shift = max(
        0.0,
        -float(np.linalg.eigvalsh(omega_x)[0]),
        -float(np.linalg.eigvalsh(omega_y)[0]),
    ) + margin
    eye = np.eye(p)
    omega_x = omega_x + shift * eye
    omega_y = omega_y + shift * eye
    return GroundTruth(omega_x, omega_y, omega_y - omega_x)


class TestSpecValidation:
    def test_scenario_names(self):
        with pytest.raises(ValueError, match="scenario"):
            SimulationSpec("sim9", 100, 50, 50, 0)

    def test_sim2_block_multiple(self):
        with pytest.raises(ValueError, match="multiple of 50"):
            SimulationSpec("sim2", 60, 50, 50, 0)

    def test_sim3_block_multiple(self):
        with pytest.raises(ValueError, match="multiple of 100"):
            SimulationSpec("sim3", 150, 50, 50, 0)

    @pytest.mark.parametrize(
        "scenario, p, message",
        [
            ("sim1", 7, "sim1 needs p >= 8, got 7"),
            ("sim2", 75, "sim2 needs p to be a positive multiple of 50, got 75"),
            ("sim2", 0, "sim2 needs p to be a positive multiple of 50, got 0"),
            ("sim3", 120, "sim3 needs p to be a positive multiple of 100, got 120"),
            ("sim3", -100, "sim3 needs p to be a positive multiple of 100, got -100"),
        ],
    )
    def test_dimension_rule_has_one_text(self, scenario, p, message):
        generators = {
            "sim1": lambda: gen_sim1(p),
            "sim2": lambda: gen_sim2(p, 0),
            "sim3": lambda: gen_sim3(p, 0),
        }
        for build in (lambda: SimulationSpec(scenario, p, 50, 50, 0), generators[scenario]):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    @pytest.mark.parametrize("scenario, p", [("sim1", 12), ("sim2", 50), ("sim3", 100)])
    def test_negative_seed_refused(self, scenario, p):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SimulationSpec(scenario, p, 50, 50, -1)

    def test_dispatch(self):
        assert generate(SimulationSpec("sim1", 12, 50, 50, 3)).p == 12
        assert generate(SimulationSpec("sim2", 50, 50, 50, 3)).p == 50
        assert generate(SimulationSpec("sim3", 100, 50, 50, 3)).p == 100


class TestSim1:
    def test_band_difference_p8(self):
        truth = gen_sim1(8)
        band = np.abs(np.subtract.outer(np.arange(8), np.arange(8))) == 2
        np.testing.assert_allclose(truth.delta_star[band], 0.65)
        assert np.all(truth.delta_star[~band] == 0.0)

    def test_base_entries_before_shift(self):
        # Off-diagonal entries are untouched by the joint diagonal repair.
        truth = gen_sim1(100)
        assert truth.omega_x[0, 1] == 0.5
        assert truth.omega_x[0, 2] == 0.25
        assert truth.omega_y[0, 25] == 0.9

    def test_support_size(self):
        for p in (8, 100):
            truth = gen_sim1(p)
            assert len(truth.support) == 2 * (p - p // 4)

    def test_support_symmetric(self):
        truth = gen_sim1(16)
        assert all((j, i) in truth.support for i, j in truth.support)

    def test_positive_definite_after_repair(self):
        for p in (8, 40, 100):
            truth = gen_sim1(p)
            assert min_eig(truth.omega_x) > 1e-8
            assert min_eig(truth.omega_y) > 1e-8

    def test_shift_cancels_in_difference(self):
        truth = gen_sim1(20)
        np.testing.assert_array_equal(
            truth.delta_star, truth.omega_y - truth.omega_x
        )
        assert np.all(np.diag(truth.delta_star) == 0.0)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError, match="p >= 8"):
            gen_sim1(7)


class TestSim2:
    def test_edge_budget_per_block(self):
        truth = gen_sim2(50, seed=4)
        off_upper = np.triu(truth.omega_x, k=1)
        assert np.count_nonzero(off_upper) == 245

    def test_difference_is_hub_negation(self):
        truth = gen_sim2(50, seed=5)
        np.testing.assert_array_equal(truth.delta_star, truth.delta_star.T)
        nz = truth.delta_star != 0
        # wherever the difference is nonzero it equals -2 * omega_x
        np.testing.assert_allclose(
            truth.delta_star[nz], -2.0 * truth.omega_x[nz], atol=1e-12
        )
        # nonzeros live only in the rows/columns of the two hubs
        rows = {i for i, _ in truth.support}
        cols = {j for _, j in truth.support}
        hubs = rows & cols
        assert all(i in hubs or j in hubs for i, j in truth.support)

    def test_block_structure(self):
        truth = gen_sim2(100, seed=6)
        assert np.all(truth.omega_x[:50, 50:] == 0.0)
        assert np.all(truth.omega_x[50:, :50] == 0.0)

    def test_deterministic(self):
        a = gen_sim2(50, seed=7)
        b = gen_sim2(50, seed=7)
        assert a.omega_x.tobytes() == b.omega_x.tobytes()
        assert a.omega_y.tobytes() == b.omega_y.tobytes()

    def test_positive_definite(self):
        truth = gen_sim2(100, seed=8)
        assert min_eig(truth.omega_x) > 1e-8
        assert min_eig(truth.omega_y) > 1e-8

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="multiple of 50"):
            gen_sim2(75, seed=0)


class TestSim3:
    def test_support_size_and_symmetry(self):
        truth = gen_sim3(100, seed=9)
        assert len(truth.support) == 100
        assert all((j, i) in truth.support for i, j in truth.support)
        assert all(i != j for i, j in truth.support)

    def test_value_range(self):
        truth = gen_sim3(100, seed=10)
        values = truth.delta_star[truth.delta_star != 0]
        assert np.all(np.abs(values) < 0.5)
        assert np.all(np.abs(values) > 0.0)

    def test_min_signal_floor(self):
        truth = gen_sim3(100, seed=11, min_signal=0.4)
        values = truth.delta_star[truth.delta_star != 0]
        assert np.all(np.abs(values) >= 0.4)
        assert np.all(np.abs(values) <= 0.5)

    def test_positive_definite_by_construction(self):
        truth = gen_sim3(100, seed=12)
        assert min_eig(truth.omega_x) > 1e-8
        assert min_eig(truth.omega_y) > 1e-8

    def test_difference_exactness(self):
        truth = gen_sim3(100, seed=13)
        np.testing.assert_array_equal(truth.delta_star, truth.omega_y - truth.omega_x)

    def test_deterministic(self):
        a = gen_sim3(100, seed=14)
        b = gen_sim3(100, seed=14)
        assert a.delta_star.tobytes() == b.delta_star.tobytes()

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="multiple of 100"):
            gen_sim3(120, seed=0)

    @pytest.mark.parametrize("p", [100, 200])
    @pytest.mark.parametrize("kwargs", [{}, {"min_signal": 0.4, "margin": 1.5}])
    def test_matches_inline_shift(self, p, kwargs):
        # Seed 7 is the benchmark's fixed sim3 instance.
        for seed in (0, 1, 2, 7):
            truth = gen_sim3(p, seed, **kwargs)
            ref = reference_gen_sim3(p, seed, **kwargs)
            for name in ("omega_x", "omega_y", "delta_star"):
                assert getattr(truth, name).tobytes() == getattr(ref, name).tobytes()
            assert truth.support == set(zip(*np.nonzero(ref.delta_star)))


class TestSampleGaussian:
    def test_identity_precision_monte_carlo(self):
        data = sample_gaussian(np.eye(3), 10_000, seed=15)
        cov = data.T @ data / data.shape[0]
        np.testing.assert_allclose(cov, np.eye(3), atol=0.1)

    def test_deterministic(self):
        a = sample_gaussian(np.eye(4), 100, seed=16)
        b = sample_gaussian(np.eye(4), 100, seed=16)
        assert a.tobytes() == b.tobytes()

    def test_precision_inverts_variance(self):
        data = sample_gaussian(np.diag([4.0, 1.0]), 10_000, seed=17)
        var0 = data[:, 0].var()
        assert abs(var0 - 0.25) < 0.05

    def test_correlation_structure(self):
        truth = gen_sim1(10)
        data = sample_gaussian(truth.omega_x, 50_000, seed=18)
        cov = np.cov(data, rowvar=False)
        np.testing.assert_allclose(cov, np.linalg.inv(truth.omega_x), atol=0.05)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            sample_gaussian(np.diag([1.0, -1.0]), 10, seed=0)


class TestGroundTruthExport:
    def test_files_round_trip(self, tmp_path):
        truth = gen_sim1(10)
        write_ground_truth(truth, tmp_path)
        delta = np.loadtxt(tmp_path / "truth_delta.csv", delimiter=",")
        np.testing.assert_allclose(delta, truth.delta_star)
        lines = (tmp_path / "truth_support.csv").read_text().strip().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) - 1 == len(truth.support)
        i, j, value = lines[1].split(",")
        assert truth.delta_star[int(i) - 1, int(j) - 1] == float(value)
