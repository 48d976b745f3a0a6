import numpy as np
import pytest

from realqm.linalg import sym_eig
from realqm.oscillator import OscillatorParams, build_canonical_pair
from realqm.realify import ComplexMatrixRep, embed_matrix, standard_complex_structure
from realqm.states import physical_from_complex
from realqm.tensor import (
    FactorSpace,
    build_product_space,
    kron,
    lift_operator,
    physical_basis,
    physical_escape_check,
    subspace_projector,
    subspace_unit_relation,
    validate_product_density,
)

SEED = 8293


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rand_hermitean(rng, d):
    g = rand_complex(rng, d)
    return (g + g.conj().T) / 2.0


def embed_c(a):
    return embed_matrix(ComplexMatrixRep.from_complex(a))


def two_factor_space(da, db):
    return build_product_space([FactorSpace.standard(da), FactorSpace.standard(db)])


class TestKron:
    def test_identity_factor(self):
        rng = np.random.default_rng(SEED)
        b = rng.standard_normal((3, 3))
        out = kron(np.eye(2), b)
        np.testing.assert_array_equal(out[:3, :3], b)
        np.testing.assert_array_equal(out[3:, 3:], b)
        np.testing.assert_array_equal(out[:3, 3:], np.zeros((3, 3)))

    def test_dimension(self):
        da, db = 2, 3
        a = np.eye(2 * da)
        b = np.eye(2 * db)
        assert kron(a, b).shape == (4 * da * db, 4 * da * db)

    def test_mixed_product(self):
        rng = np.random.default_rng(SEED)
        a, c = rng.standard_normal((2, 3, 3))
        b, d = rng.standard_normal((2, 2, 2))
        np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d),
                                   atol=1e-12)


class TestProductSpace:
    def test_minimal_case(self):
        space = two_factor_space(1, 1)
        assert space.dim == 4
        p_plus = space.physical_projector
        p_minus = np.eye(4) - p_plus
        assert np.trace(p_plus) == pytest.approx(2.0, abs=1e-12)
        assert np.trace(p_minus) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("da,db", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_projector_algebra(self, da, db):
        space = two_factor_space(da, db)
        p_plus = space.physical_projector
        p_minus = subspace_projector(space, [-1])
        eye = np.eye(space.dim)
        np.testing.assert_allclose(p_plus + p_minus, eye, atol=1e-12)
        assert np.linalg.norm(p_plus @ p_minus) <= 1e-12
        assert np.linalg.norm(p_plus @ p_plus - p_plus) <= 1e-12
        assert np.linalg.norm(p_plus - p_plus.T) <= 1e-12
        assert round(float(np.trace(p_plus))) == 2 * da * db
        assert round(float(np.trace(p_minus))) == 2 * da * db

    @pytest.mark.parametrize("da,db", [(1, 1), (1, 3), (2, 2)])
    def test_units_commute_and_square(self, da, db):
        space = two_factor_space(da, db)
        ja, jb = space.units
        eye = np.eye(space.dim)
        assert np.linalg.norm(ja @ jb - jb @ ja) <= 1e-12
        np.testing.assert_array_equal(ja @ ja, -eye)
        np.testing.assert_array_equal(jb @ jb, -eye)

    def test_unit_relations_on_halves(self):
        space = two_factor_space(2, 2)
        assert subspace_unit_relation(space, [1])   # J_a = J_b on the plus half
        assert subspace_unit_relation(space, [-1])  # J_a = -J_b on the minus half
        ja, jb = space.units
        p_plus = space.physical_projector
        assert np.linalg.norm((ja - jb) @ p_plus) <= 1e-12
        assert np.linalg.norm((ja + jb) @ subspace_projector(space, [-1])) <= 1e-12

    def test_rejects_single_factor(self):
        with pytest.raises(ValueError):
            build_product_space([FactorSpace.standard(2)])

    def test_rejects_oversided_product(self):
        with pytest.raises(ValueError, match="cap"):
            build_product_space([FactorSpace.standard(4)] * 3)

    def test_three_factors(self):
        space = build_product_space([FactorSpace.standard(1)] * 3)
        assert space.dim == 8
        assert round(float(np.trace(space.physical_projector))) == 2
        assert physical_basis(space).shape == (8, 2)
        # on the fully physical subspace all three units coincide
        assert subspace_unit_relation(space, [1, 1])
        for eps in (1, -1):
            for eta in (1, -1):
                assert subspace_unit_relation(space, [eps, eta])
                p_eps = subspace_projector(space, [eps, 1])
                q_eta = subspace_projector(space, [1, eta])
                assert np.linalg.norm(p_eps @ q_eta - q_eta @ p_eps) <= 1e-12

    def test_four_factors_by_the_same_recipe(self):
        space = build_product_space([FactorSpace.standard(1)] * 4)
        assert space.dim == 16
        assert round(float(np.trace(space.physical_projector))) == 2
        assert subspace_unit_relation(space, [1, 1, 1])


class TestLiftOperator:
    def test_lift_of_unit_is_unit(self):
        space = two_factor_space(2, 3)
        j_a = standard_complex_structure(2).matrix
        np.testing.assert_array_equal(lift_operator(j_a, 0, space), space.units[0])

    def test_commutation_inheritance(self):
        space = two_factor_space(2, 2)
        pair = build_canonical_pair([1.0, 2.0], OscillatorParams())
        x_a = lift_operator(pair.x, 0, space)
        ja, jb = space.units
        assert np.linalg.norm(x_a @ ja + ja @ x_a) <= 1e-12
        assert np.linalg.norm(x_a @ jb - jb @ x_a) <= 1e-12

    def test_respects_products(self):
        rng = np.random.default_rng(SEED)
        space = two_factor_space(2, 2)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lifted = lift_operator(a, 1, space) @ lift_operator(b, 1, space)
        np.testing.assert_allclose(lifted, lift_operator(a @ b, 1, space), atol=1e-12)

    def test_rejects_bad_index_and_dim(self):
        space = two_factor_space(1, 2)
        with pytest.raises(ValueError):
            lift_operator(np.eye(2), 2, space)
        with pytest.raises(ValueError):
            lift_operator(np.eye(6), 0, space)


class TestEscapeCheck:
    def test_embedded_observable_stays_inside(self):
        rng = np.random.default_rng(SEED)
        space = two_factor_space(2, 2)
        lifted = lift_operator(embed_c(rand_hermitean(rng, 2)), 0, space)
        check = physical_escape_check(lifted, space)
        assert check.maps_within
        assert not check.maps_across

    def test_anticommuting_position_escapes(self):
        space = two_factor_space(2, 2)
        pair = build_canonical_pair([1.0, 2.0], OscillatorParams())
        x_a = lift_operator(pair.x, 0, space)
        check = physical_escape_check(x_a, space)
        assert check.maps_across
        assert not check.maps_within

    def test_square_returns(self):
        space = two_factor_space(2, 2)
        pair = build_canonical_pair([1.0, 2.0], OscillatorParams())
        x_a = lift_operator(pair.x, 0, space)
        check = physical_escape_check(x_a @ x_a, space)
        assert check.maps_within


class TestPhysicalBasis:
    def test_minimal_dimension_count(self):
        space = two_factor_space(1, 1)
        basis = physical_basis(space)
        assert basis.shape == (4, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        p_plus = space.physical_projector
        np.testing.assert_allclose(p_plus @ basis, basis, atol=1e-12)

    @pytest.mark.parametrize("da,db", [(1, 2), (2, 2), (2, 3)])
    def test_count_matches_complex_dimension(self, da, db):
        space = two_factor_space(da, db)
        basis = physical_basis(space)
        assert basis.shape == (4 * da * db, 2 * da * db)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2 * da * db), atol=1e-10)

    def test_largest_dense_product(self):
        space = two_factor_space(8, 8)
        basis = physical_basis(space)
        assert basis.shape == (256, space.physical_rank)
        np.testing.assert_allclose(basis.T @ basis, np.eye(space.physical_rank),
                                   atol=1e-12)
        np.testing.assert_allclose(space.physical_projector @ basis, basis, atol=1e-12)

    def test_restricted_unit_is_complex_structure(self):
        space = two_factor_space(2, 2)
        basis = physical_basis(space)
        restricted = basis.T @ space.units[0] @ basis
        np.testing.assert_allclose(restricted @ restricted, -np.eye(8), atol=1e-10)

    @pytest.mark.parametrize("da,db", [(1, 2), (2, 2), (2, 3)])
    def test_spectra_match_embedded_complex_tensor_product(self, da, db):
        rng = np.random.default_rng(SEED + 10 * da + db)
        space = two_factor_space(da, db)
        a_c = rand_hermitean(rng, da)
        b_c = rand_hermitean(rng, db)
        lifted = lift_operator(embed_c(a_c), 0, space) @ lift_operator(
            embed_c(b_c), 1, space)
        basis = physical_basis(space)
        restricted = basis.T @ lifted @ basis
        vals_real, _ = sym_eig(restricted)
        vals_complex, _ = sym_eig(embed_c(np.kron(a_c, b_c)))
        np.testing.assert_allclose(vals_real, vals_complex, atol=1e-9)


class TestProductDensity:
    def test_normalized_projector_is_physical(self):
        space = two_factor_space(1, 2)
        p_plus = space.physical_projector
        rho = p_plus / np.trace(p_plus)
        assert validate_product_density(rho, space)

    def test_compressed_kron_of_factor_states(self):
        rng = np.random.default_rng(SEED)
        space = two_factor_space(2, 2)
        factor_states = []
        for _ in range(2):
            g = rand_complex(rng, 2)
            rho_c = g @ g.conj().T
            rho_c = rho_c / np.trace(rho_c).real
            factor_states.append(
                physical_from_complex(ComplexMatrixRep.from_complex(rho_c)).matrix)
        p_plus = space.physical_projector
        compressed = p_plus @ kron(factor_states[0], factor_states[1]) @ p_plus
        rho = compressed / np.trace(compressed)
        assert validate_product_density(rho, space)

    def test_full_mixture_is_not_physical(self):
        space = two_factor_space(1, 1)
        assert not validate_product_density(np.eye(4) / 4.0, space)


class TestVectorIndependence:
    def test_four_products_are_independent(self):
        # over the reals, psi (x) phi and its J-images span four dimensions
        rng = np.random.default_rng(SEED)
        j2 = standard_complex_structure(1).matrix
        for _ in range(10):
            phi = rng.standard_normal(2)
            psi = rng.standard_normal(2)
            phi = phi / np.linalg.norm(phi)
            psi = psi / np.linalg.norm(psi)
            vecs = np.array([
                np.kron(phi, psi),
                np.kron(j2 @ phi, psi),
                np.kron(phi, j2 @ psi),
                np.kron(j2 @ phi, j2 @ psi),
            ])
            gram = vecs @ vecs.T
            gvals, _ = sym_eig(gram)
            assert int(np.sum(gvals > 1e-8 * max(1.0, gvals[-1]))) == 4
