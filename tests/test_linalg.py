import numpy as np
import pytest

from realqm.linalg import (
    ConstraintError,
    Tolerance,
    anticommutes,
    commutes,
    expm,
    frobenius,
    is_antisymmetric,
    is_symmetric,
    sym_eig,
)

from helpers import rand_symmetric

SEED = 20240811

J4 = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])


class TestSymEig:
    def test_diagonal_input(self):
        vals, vecs = sym_eig(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(vecs, np.eye(3))

    def test_position_operator_spectrum(self):
        # diag(xi1, -xi1, xi2, -xi2) with xi1=1, xi2=2
        x = np.diag([1.0, -1.0, 2.0, -2.0])
        vals, _ = sym_eig(x)
        np.testing.assert_array_equal(vals, [-2.0, -1.0, 1.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(SEED)
        a = rand_symmetric(rng, 8)
        vals, vecs = sym_eig(a)
        err = np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - a)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 16])
    def test_reconstruction_and_orthonormality_up_to_16(self, n):
        rng = np.random.default_rng(SEED + n)
        a = rand_symmetric(rng, n)
        vals, vecs = sym_eig(a)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - a) \
            <= 1e-9 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) <= 1e-10
        assert np.all(np.diff(vals) >= 0)

    def test_residual_per_vector(self):
        rng = np.random.default_rng(SEED)
        a = rand_symmetric(rng, 10)
        vals, vecs = sym_eig(a)
        scale = max(1.0, np.linalg.norm(a))
        for k in range(10):
            assert np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-9 * scale

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(SEED)
        a = rand_symmetric(rng, 12)
        vals, _ = sym_eig(a)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(a), atol=1e-11)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_quarter_turn(self):
        j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(expm(np.pi / 2 * j2), expected, atol=1e-14)

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(SEED)
        a = rng.standard_normal((6, 6))
        a = 1.5 * a / np.linalg.norm(a)  # scaled so 30 Taylor terms converge
        series = np.zeros((6, 6))
        term = np.eye(6)
        for k in range(1, 31):
            series = series + term
            term = term @ a / k
        assert np.linalg.norm(expm(a) - series) <= 1e-9

    def test_group_property_antisymmetric(self):
        rng = np.random.default_rng(SEED)
        g = rng.standard_normal((6, 6))
        a = (g - g.T) / 2.0
        for s, t in rng.uniform(-2.0, 2.0, size=(10, 2)):
            err = np.linalg.norm(expm(s * a) @ expm(t * a) - expm((s + t) * a))
            assert err <= 1e-8

    def test_antisymmetric_gives_orthogonal(self):
        rng = np.random.default_rng(SEED)
        g = rng.standard_normal((8, 8))
        u = expm((g - g.T) / 2.0)
        assert np.linalg.norm(u.T @ u - np.eye(8)) <= 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("a", [np.diag([1e307, 1e307]), np.diag([1e308, 1e308]),
                                   np.diag([-1e308, 1e308]), np.diag([800.0, 0.0])])
    def test_an_exponential_past_the_float_range_is_a_domain_error(self, a):
        # 1e307 overflows in the squarings; 2 |a| overflows before they are counted.
        with pytest.raises(ConstraintError, match="^matrix exponential is not finite$"):
            expm(a)

    def test_a_large_finite_exponential_is_returned(self):
        want = np.diag(np.exp([700.0, -700.0]))
        np.testing.assert_allclose(expm(np.diag([700.0, -700.0])), want, rtol=1e-10, atol=0.0)


class TestPredicates:
    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(SEED)
        assert commutes(np.eye(6), rng.standard_normal((6, 6)))

    def test_position_anticommutes_with_j(self):
        x = np.diag([1.0, -1.0, 2.0, -2.0])
        assert anticommutes(x, J4)
        assert not commutes(x, J4)

    def test_conjugation_does_not_commute_with_j(self):
        c = np.diag([1.0, -1.0, 1.0, -1.0])
        assert not commutes(J4, c)
        assert anticommutes(J4, c)

    def test_symmetry_flags(self):
        assert is_symmetric(np.diag([1.0, 2.0]))
        assert is_antisymmetric(np.array([[0.0, 3.0], [-3.0, 0.0]]))
        assert not is_symmetric(np.array([[0.0, 3.0], [-3.0, 0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutes(np.eye(2), np.eye(4))

    def test_scaling_of_residual(self):
        # residual is scaled by the product of norms, so magnifying both
        # arguments must not flip the verdict
        rng = np.random.default_rng(SEED)
        a = rand_symmetric(rng, 4)
        big = 1e6 * a
        assert commutes(big, big @ big)

    def test_overflowing_sum_of_squares_warns_nothing(self):
        # Runs under the error::RuntimeWarning filter: an "overflow
        # encountered in dot" warning would raise here.
        m = 1e200 * np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert not is_symmetric(m)
        assert not is_antisymmetric(m)
        assert is_symmetric(m + m.T)
        assert frobenius(m) == 2e200


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1e-10
        assert tol.spectral_gap_tol == 1e-8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1.0)

    def test_gap_derives_from_abs_tol(self):
        assert [Tolerance(t).spectral_gap_tol for t in (0.0, 1e-6, np.inf)] == [1e-8, 1e-6, np.inf]
