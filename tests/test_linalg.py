import numpy as np
import pytest

from difftrace.linalg import (
    as_symmetric,
    norm_entrywise_l1,
    norm_entrywise_linf,
    norm_frobenius,
    null_space,
    pd_cholesky,
    project_null,
    psd_eig,
    soft_threshold,
    solve_plan,
    spectral_scale,
    sym_eig,
)
from difftrace.linalg import solve_axb_plus_gx as kernel
from conftest import checked, random_psd, random_spd, reference_solve_axb_plus_gx

# Every direct solve below also asserts the residual contract.
solve_axb_plus_gx = checked(kernel)


def kron_solve(a, b, c, gamma):
    """Brute-force oracle: solve (B^T (x) A + gamma I) vec(X) = vec(C)
    column-major, by dense linear solve."""
    p = a.shape[0]
    system = np.kron(b.T, a) + gamma * np.eye(p * p)
    return np.linalg.solve(system, c.flatten(order="F")).reshape((p, p), order="F")


class TestSymEig:
    def test_identity(self):
        pair = sym_eig(np.eye(3))
        np.testing.assert_allclose(pair.values, np.ones(3))
        recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        np.testing.assert_allclose(recon, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        pair = sym_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(pair.values, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(pair.vectors), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_solve(self):
        # [[2,1],[1,2]] has eigenvalues 3, 1 with eigenvectors (1,1), (1,-1).
        pair = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(pair.values, [3.0, 1.0], atol=1e-12)
        v = 1 / np.sqrt(2)
        expect = np.array([[v, v], [v, -v]])
        for col in range(2):
            got = pair.vectors[:, col]
            sign = np.sign(got @ expect[:, col])
            np.testing.assert_allclose(got, sign * expect[:, col], atol=1e-12)

    def test_descending_order_and_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = int(rng.integers(2, 12))
            a = as_symmetric(rng.standard_normal((p, p)))
            values, vectors = sym_eig(a)
            assert np.all(np.diff(values) <= 1e-12)
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(p), atol=1e-10)
            np.testing.assert_allclose(
                vectors @ np.diag(values) @ vectors.T, a, atol=1e-10
            )

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(bad)

    def test_psd_eig_rejects_negative(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_eig(np.diag([1.0, -0.5]))

    def test_psd_eig_clamps_tiny_negative(self):
        pair = psd_eig(np.diag([1.0, -5e-9]))
        assert pair.values[-1] == 0.0

    def test_psd_eig_tolerance_is_relative(self):
        # The tolerance is 1e-8 times the largest eigenvalue.
        assert psd_eig(np.diag([1e8, -0.5])).values.tolist() == [1e8, 0.0]
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_eig(np.diag([1e-8, -1e-12]))

    def test_pd_cholesky_factors_the_symmetrized_matrix(self):
        a = np.array([[4.0, 1.0], [3.0, 5.0]])
        chol = pd_cholesky(a, "omega")
        np.testing.assert_allclose(chol @ chol.T, as_symmetric(a), rtol=1e-15)
        assert chol[0, 1] == 0.0

    @pytest.mark.parametrize(
        "a, message",
        [
            ([[1.0, 2.0], [2.0, 1.0]], "omega is not positive definite"),
            ([[1.0, 0.0], [0.0, 0.0]], "omega is not positive definite"),
            ([[1.0, np.nan], [np.nan, 1.0]], "omega contains non-finite entries"),
        ],
    )
    def test_pd_cholesky_rejects(self, a, message):
        with pytest.raises(ValueError, match=message):
            pd_cholesky(a, "omega")


class TestSolveAxbPlusGx:
    def test_zero_matrices_reduce_to_scaling(self):
        z = np.zeros((2, 2))
        c = np.array([[2.0, 4.0], [6.0, 8.0]])
        x = solve_axb_plus_gx(z, z, c, 2.0)
        np.testing.assert_allclose(x, [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_case(self):
        eye = np.eye(2)
        x = solve_axb_plus_gx(eye, eye, 2 * eye, 1.0)
        np.testing.assert_allclose(x, eye)

    def test_diagonal_entrywise(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        c = np.ones((2, 2))
        x = solve_axb_plus_gx(a, b, c, 1.0)
        np.testing.assert_allclose(x, [[1 / 4, 1 / 5], [1 / 7, 1 / 9]])

    def test_gamma_must_be_positive(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="gamma"):
            solve_axb_plus_gx(eye, eye, eye, 0.0)

    def test_definiteness_error(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            solve_axb_plus_gx(np.diag([1.0, -1.0]), np.eye(2), np.eye(2), 1.0)

    def test_residual_property_random(self):
        # 60 random PSD pairs across the gamma range; the full 500-instance
        # sweep runs in the acceptance suite.
        rng = np.random.default_rng(11)
        for trial in range(60):
            p = int(rng.integers(2, 13))
            rank = int(rng.integers(1, p + 1)) if trial % 3 == 0 else p
            a = random_psd(p, rng, rank)
            b = random_psd(p, rng)
            c = rng.standard_normal((p, p)) * 10.0 ** rng.integers(-2, 3)
            gamma = float(rng.choice([0.1, 1.0, 50.0]))
            x = solve_axb_plus_gx(a, b, c, gamma)
            resid = np.abs(a @ x @ b + gamma * x - c).max()
            assert resid <= 1e-8 * max(1.0, np.abs(c).max())

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = int(rng.integers(2, 7))
            a = random_spd(p, rng)
            b = random_spd(p, rng)
            c = rng.standard_normal((p, p))
            gamma = float(rng.uniform(0.05, 60.0))
            x = solve_axb_plus_gx(a, b, c, gamma)
            np.testing.assert_allclose(x, kron_solve(a, b, c, gamma), atol=1e-7)

    def test_precomputed_eigs_match(self):
        rng = np.random.default_rng(17)
        a = random_spd(5, rng)
        b = random_spd(5, rng)
        c = rng.standard_normal((5, 5))
        direct = solve_axb_plus_gx(a, b, c, 4.0)
        cached = solve_axb_plus_gx(a, b, c, 4.0, plan=solve_plan(psd_eig(a), psd_eig(b), 4.0))
        np.testing.assert_allclose(direct, cached)


def max_rel_diff(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestSolveMatchesReference:
    """The range-restricted kernel against the full-eigenbasis one."""

    GAMMAS = (0.1, 1.0, 2.0, 50.0)

    def check_pairs(self, rng, make_a, make_b, trials=40):
        for _ in range(trials):
            p = int(rng.integers(2, 15))
            a, b = make_a(p), make_b(p)
            c = rng.standard_normal((p, p)) * 10.0 ** rng.integers(-2, 3)
            gamma = float(rng.choice(self.GAMMAS))
            x = solve_axb_plus_gx(a, b, c, gamma)
            assert max_rel_diff(x, reference_solve_axb_plus_gx(a, b, c, gamma)) <= 1e-12

    def test_full_rank_pairs(self):
        rng = np.random.default_rng(41)
        self.check_pairs(rng, lambda p: random_spd(p, rng), lambda p: random_spd(p, rng))

    def test_rank_deficient_pairs(self):
        rng = np.random.default_rng(42)

        def deficient(p):
            return random_psd(p, rng, int(rng.integers(1, p)))

        self.check_pairs(rng, deficient, deficient)
        self.check_pairs(rng, deficient, lambda p: random_spd(p, rng))

    def test_zero_matrix_gives_scaled_rhs_exactly(self):
        rng = np.random.default_rng(43)
        for p in (1, 4, 9):
            z = np.zeros((p, p))
            c = rng.standard_normal((p, p))
            for b in (z, random_spd(p, rng), random_psd(p, rng, max(1, p // 2))):
                for gamma in self.GAMMAS:
                    x = solve_axb_plus_gx(z, b, c, gamma)
                    np.testing.assert_array_equal(x, c / gamma)
                    ref = reference_solve_axb_plus_gx(z, b, c, gamma)
                    assert max_rel_diff(x, ref) <= 1e-12

    def test_diagonal_with_exact_zero_eigenvalues(self):
        rng = np.random.default_rng(44)
        a = np.diag([3.0, 0.0, 1.0, 0.0, 0.5])
        b = np.diag([0.0, 2.0, 0.0, 5.0, 1.0])
        plan = solve_plan(psd_eig(a), psd_eig(b), 1.0)
        assert plan.left.shape == (5, 3) and plan.right.shape == (5, 3)
        for gamma in self.GAMMAS:
            c = rng.standard_normal((5, 5))
            x = solve_axb_plus_gx(a, b, c, gamma)
            # Diagonal A and B make the solve entrywise.
            np.testing.assert_allclose(
                x, c / (np.multiply.outer(np.diag(a), np.diag(b)) + gamma), rtol=1e-13
            )
            ref = reference_solve_axb_plus_gx(a, b, c, gamma)
            assert max_rel_diff(x, ref) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_residual_contract_across_scales(self, scale):
        # The block equation of the ADMM at rho = 50, (S/2rho) X S' + 2 X = C,
        # for covariances S, S' at the given scale, singular or not.
        rng = np.random.default_rng(45)
        for trial in range(60):
            p = int(rng.integers(2, 15))
            rank = int(rng.integers(1, p + 1)) if trial % 2 else p
            a = scale * random_psd(p, rng, rank) / 100.0
            b = scale * (random_spd(p, rng) if trial % 3 else random_psd(p, rng, rank))
            c = rng.standard_normal((p, p)) * 10.0 ** rng.integers(-2, 3)
            x = solve_axb_plus_gx(a, b, c, 2.0)
            resid = np.abs(a @ x @ b + 2.0 * x - c).max()
            assert resid <= 1e-8 * max(1.0, np.abs(c).max())

    def test_rank_rule_is_matrix_rank_default(self):
        # An eigenvalue at most p * eps * largest counts as zero.
        eps = np.finfo(float).eps
        one = psd_eig(np.eye(1))
        for small, kept in ((2 * eps, False), (3 * eps, True), (0.0, False)):
            plan = solve_plan(psd_eig(np.diag([1.0, small])), one, 1.0)
            assert plan.left.shape == (2, 1 + kept)
            assert plan.scale.shape == (1 + kept, 1)
            assert np.linalg.matrix_rank(np.diag([1.0, small])) == 1 + kept

    def test_rank_zero_plan(self):
        plan = solve_plan(psd_eig(np.zeros((3, 3))), psd_eig(np.eye(3)), 2.0)
        assert plan.left.shape == (3, 0) and plan.scale.shape == (0, 3)

    def test_plan_gamma_must_match(self):
        eye = np.eye(3)
        plan = solve_plan(psd_eig(eye), psd_eig(eye), 2.0)
        np.testing.assert_allclose(solve_axb_plus_gx(eye, eye, eye, 2.0, plan=plan), eye / 3)
        with pytest.raises(ValueError, match="gamma"):
            solve_axb_plus_gx(eye, eye, eye, 1.0, plan=plan)
        with pytest.raises(ValueError, match="gamma"):
            solve_plan(psd_eig(eye), psd_eig(eye), 0.0)


@pytest.mark.parametrize(
    "a, b, scale",
    [
        ([4.0, 1.0, 0.0], [9.0, 1.0, 1.0], 6.0),  # sqrt(4 * 9 * 1 * 1)
        ([0.0, 0.0, 0.0], [9.0, 4.0, 1.0], 9.0),  # a zero A takes B's eigenvalues
        ([9.0, 4.0, 1.0], [0.0, 0.0, 0.0], 9.0),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.0),
        ([1.0, 1e-17, 0.0], [1.0, 1.0, 1.0], 1.0),  # 1e-17 is below the range rule
    ],
)
def test_spectral_scale(a, b, scale):
    assert spectral_scale(psd_eig(np.diag(a)), psd_eig(np.diag(b))) == scale


def symmetric_basis(p):
    """Orthonormal basis of the symmetric p x p matrices, one per row."""
    basis = []
    for i in range(p):
        for j in range(i, p):
            e = np.zeros((p, p))
            e[i, j] = e[j, i] = 1.0 if i == j else np.sqrt(0.5)
            basis.append(e.ravel())
    return np.array(basis)


def null_projection_oracle(a, b, x):
    """Projection of sym(x) onto {S symmetric : A S B = 0}, from an SVD of
    the map's explicit matrix on the symmetric basis."""
    p = a.shape[0]
    basis = symmetric_basis(p)
    images = np.array([(a @ e.reshape(p, p) @ b).ravel() for e in basis])
    _, sing, vt = np.linalg.svd(images.T)
    rank = int(np.sum(sing > 1e-10 * sing.max(initial=0.0)))
    null = vt[rank:] @ basis
    coords = null @ ((x + x.T) / 2).ravel()
    return (coords @ null).reshape(p, p)


class TestNullSpace:
    """``project_null`` is the orthogonal projection onto the symmetric S
    with A S B = 0: the directions along which the trace loss is flat."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(41)
        shared = rng.standard_normal((6, 6))
        shared[:, 0] = 0.0
        yield "both-singular", random_psd(6, rng, rank=3), random_psd(6, rng, rank=4)
        yield "one-singular", random_spd(6, rng), random_psd(6, rng, rank=2)
        yield "shared-null", shared.T @ shared, random_psd(6, rng, rank=5)
        overlap = random_psd(6, rng, rank=3)
        yield "nested-ranges", overlap, overlap + random_psd(6, rng, rank=1)
        yield "zero", np.zeros((6, 6)), random_psd(6, rng, rank=4)

    def test_matches_explicit_oracle(self):
        rng = np.random.default_rng(42)
        for name, a, b in self.pairs():
            space = null_space(psd_eig(a), psd_eig(b))
            assert space is not None, name
            for _ in range(3):
                x = rng.standard_normal((6, 6))
                out = project_null(space, x)
                np.testing.assert_allclose(
                    out, null_projection_oracle(a, b, x), rtol=0, atol=1e-12, err_msg=name
                )
                assert np.array_equal(out, out.T), name
                np.testing.assert_allclose(project_null(space, out), out, rtol=0, atol=1e-13)
                assert np.linalg.norm(a @ out @ b) <= 1e-13 * np.linalg.norm(out), name

    def test_full_rank_pair_has_no_space(self):
        rng = np.random.default_rng(43)
        assert null_space(psd_eig(random_spd(5, rng)), psd_eig(random_spd(5, rng))) is None

    def test_projection_is_unchanged_by_scale(self):
        # Only the numerical ranges enter.
        rng = np.random.default_rng(44)
        a, b = random_psd(6, rng, rank=3), random_psd(6, rng, rank=4)
        x = rng.standard_normal((6, 6))
        base = project_null(null_space(psd_eig(a), psd_eig(b)), x)
        for c in (1e-8, 1e8):
            scaled = project_null(null_space(psd_eig(c * a), psd_eig(c * b)), x)
            np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-12)


class TestSoftThreshold:
    def test_piecewise_definition(self):
        a = np.array([[3.0, -0.5], [0.5, -3.0]])
        np.testing.assert_array_equal(
            soft_threshold(a, 1.0), np.array([[2.0, 0.0], [0.0, -2.0]])
        )

    def test_zero_threshold_is_identity(self):
        a = np.array([[1.5, -2.0], [0.0, 0.25]])
        np.testing.assert_array_equal(soft_threshold(a, 0.0), a)

    def test_full_shrinkage(self):
        a = np.array([[0.9, -0.3], [0.1, 0.5]])
        assert np.count_nonzero(soft_threshold(a, 1.0)) == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.eye(2), -0.1)

    def test_matches_sign_formula_without_negative_zeros(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((40, 40))
        a[:5] = np.round(a[:5], 1)  # entries exactly at the threshold
        a[5, :4] = (-0.0, 0.0, 0.5, -0.5)
        for lam in (0.0, 0.1, 0.5, 1.0, 3.0):
            out = soft_threshold(a, lam)
            old = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
            nonzero = old != 0
            np.testing.assert_array_equal(out[nonzero], old[nonzero])
            np.testing.assert_array_equal(out[~nonzero], 0.0)
            assert not np.any(np.signbit(out[out == 0]))

    def test_float32_stays_float32(self):
        # The same contract in float32, with lam rounded to float32.
        rng = np.random.default_rng(30)
        a = rng.standard_normal((40, 40)).astype(np.float32)
        a[:5] = np.round(a[:5], 1)
        a[5, :4] = (-0.0, 0.0, 0.5, -0.5)
        for lam in (0.0, 0.1, 0.5, 1.0, 3.0):
            out = soft_threshold(a, lam)
            assert out.dtype == np.float32
            old = np.sign(a) * np.maximum(np.abs(a) - np.float32(lam), np.float32(0.0))
            assert old.dtype == np.float32
            nonzero = old != 0
            np.testing.assert_array_equal(out[nonzero], old[nonzero])
            np.testing.assert_array_equal(out[~nonzero], 0.0)
            assert not np.any(np.signbit(out[out == 0]))
        assert soft_threshold(np.arange(4).reshape(2, 2), 1.5).dtype == np.float64

    def test_is_prox_minimizer(self):
        # The output must minimize 0.5||D||_F^2 - <D, A> + lam ||D||_1,
        # which separates per entry; compare against a per-entry grid search.
        rng = np.random.default_rng(19)
        a = rng.standard_normal((4, 4)) * 2
        lam = 0.7
        out = soft_threshold(a, lam)

        def entry_objective(d, target):
            return 0.5 * d**2 - d * target + lam * abs(d)

        grid = np.linspace(-5, 5, 20001)
        for i in range(4):
            for j in range(4):
                best = grid[np.argmin(entry_objective(grid, a[i, j]))]
                assert abs(out[i, j] - best) < 1e-3


class TestNorms:
    def test_hand_example(self):
        a = np.array([[1.0, -2.0], [0.0, 3.0]])
        assert norm_entrywise_l1(a) == 6.0
        assert norm_entrywise_linf(a) == 3.0
        assert norm_frobenius(a) == pytest.approx(np.sqrt(14.0))

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert norm_entrywise_l1(z) == 0.0
        assert norm_entrywise_linf(z) == 0.0
        assert norm_frobenius(z) == 0.0

    def test_identity(self):
        eye = np.eye(5)
        assert norm_entrywise_l1(eye) == 5.0
        assert norm_entrywise_linf(eye) == 1.0
        assert norm_frobenius(eye) == pytest.approx(np.sqrt(5.0))

    def test_homogeneity_and_definiteness(self):
        rng = np.random.default_rng(23)
        norms = (norm_entrywise_l1, norm_entrywise_linf, norm_frobenius)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            scale = float(rng.uniform(0.1, 10))
            for norm in norms:
                assert norm(a) > 0.0
                assert norm(scale * a) == pytest.approx(scale * norm(a), rel=1e-12)
                assert norm(-a) == pytest.approx(norm(a))

