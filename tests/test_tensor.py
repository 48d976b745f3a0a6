import itertools
from functools import reduce

import numpy as np
import pytest

from realqm.linalg import DEFAULT_TOL, sym_eig
from realqm.oscillator import CanonicalPair, OscillatorParams
from realqm.realify import embed_matrix, standard_complex_structure
from realqm.states import physical_from_complex
from realqm.tensor import (
    FactorSpace,
    ProductSpace,
    _apply_lifted,
    build_product_space,
    lift_operator,
    physical_basis,
    physical_escape_check,
    subspace_projector,
    subspace_unit_relation,
    validate_product_density,
)

from helpers import rand_complex, rand_hermitean, random_structure

SEED = 8293


def two_factor_space(da, db):
    return build_product_space([FactorSpace.standard(da), FactorSpace.standard(db)])


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

    def test_rejects_inconsistent_dimension(self):
        # The dimension is derived from the factors, so no space can state a
        # wrong one: a stated dimension is not an argument at all.
        factors = (FactorSpace.standard(1),) * 2
        with pytest.raises(TypeError):
            ProductSpace(factors=factors, dim=8)
        assert ProductSpace(factors=factors).dim == 4

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
        pair = CanonicalPair([1.0, 2.0], OscillatorParams())
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

    @pytest.mark.parametrize("ds", [[1, 1], [2, 2], [4, 4], [1, 1, 1], [1, 2, 2]])
    def test_lifts_and_units_equal_the_kronecker_chain(self, ds):
        rng = np.random.default_rng(SEED + sum(ds))
        space = rotated_space(rng, ds)
        dims = [f.dim for f in space.factors]
        for k, (unit, want_unit) in enumerate(zip(space.units, _dense_units(space))):
            np.testing.assert_array_equal(unit, want_unit)
            m = rng.standard_normal((dims[k], dims[k]))
            want = reduce(np.kron, [m if i == k else np.eye(d) for i, d in enumerate(dims)])
            np.testing.assert_array_equal(lift_operator(m, k, space), want)

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
        lifted = lift_operator(embed_matrix(rand_hermitean(rng, 2)), 0, space)
        check = physical_escape_check(lifted, space)
        assert check.maps_within
        assert not check.maps_across

    def test_anticommuting_position_escapes(self):
        space = two_factor_space(2, 2)
        pair = CanonicalPair([1.0, 2.0], OscillatorParams())
        x_a = lift_operator(pair.x, 0, space)
        check = physical_escape_check(x_a, space)
        assert check.maps_across
        assert not check.maps_within

    def test_square_returns(self):
        space = two_factor_space(2, 2)
        pair = CanonicalPair([1.0, 2.0], OscillatorParams())
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
        lifted = lift_operator(embed_matrix(a_c), 0, space) @ lift_operator(
            embed_matrix(b_c), 1, space)
        basis = physical_basis(space)
        restricted = basis.T @ lifted @ basis
        vals_real, _ = sym_eig(restricted)
        vals_complex, _ = sym_eig(embed_matrix(np.kron(a_c, b_c)))
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
                physical_from_complex(rho_c).matrix)
        p_plus = space.physical_projector
        compressed = p_plus @ np.kron(factor_states[0], factor_states[1]) @ p_plus
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


# ---------------------------------------------------------------------------
# The factor-wise layer against the dense formulas it replaced.  The
# reference builds every lifted unit and projector as a full n x n matrix.

FACTOR_LISTS = [[1, 1], [2, 3], [2, 2, 2], [1, 2, 3]]


def _dense_units(space):
    dims = [f.dim for f in space.factors]
    units = []
    for k, f in enumerate(space.factors):
        mats = [np.eye(n) for n in dims]
        mats[k] = f.j.matrix
        units.append(reduce(np.kron, mats))
    return units


def _dense_projector(space, signs):
    units = _dense_units(space)
    eye = np.eye(space.dim)
    projector = eye
    for k, sign in enumerate(signs, start=1):
        projector = projector @ ((eye - sign * units[0] @ units[k]) / 2.0)
    return projector


def _dense_escape(lifted, space, tol=DEFAULT_TOL):
    p_plus = _dense_projector(space, [1] * (len(space.factors) - 1))
    p_minus = np.eye(space.dim) - p_plus
    scale = max(1.0, np.linalg.norm(lifted))
    within = np.linalg.norm(lifted @ p_plus - p_plus @ lifted) <= tol.abs_tol * scale
    across = (
        np.linalg.norm(p_plus @ lifted @ p_plus) <= tol.abs_tol * scale
        and np.linalg.norm(p_minus @ lifted @ p_plus - lifted @ p_plus)
        <= tol.abs_tol * scale
    )
    return within, across


def _dense_validate(rho, space, tol=DEFAULT_TOL):
    p = _dense_projector(space, [1] * (len(space.factors) - 1))
    scale = max(1.0, np.linalg.norm(rho))
    for compressed in (p @ rho, rho @ p, p @ rho @ p):
        if np.linalg.norm(rho - compressed) > tol.abs_tol * scale:
            return False
    for unit in _dense_units(space):
        if np.linalg.norm(rho @ unit - unit @ rho) > tol.abs_tol * scale:
            return False
    return True


def rotated_space(rng, ds):
    return build_product_space([FactorSpace(random_structure(rng, d)) for d in ds])


def _split(rng, j):
    """A random J-commuting and a random J-anticommuting operator."""
    m = rng.standard_normal(j.shape)
    return (m - j @ m @ j) / 2.0, (m + j @ m @ j) / 2.0


class TestFactorwiseLayer:
    def test_dense_fields_are_built_on_first_read(self):
        space = build_product_space([FactorSpace.standard(2), FactorSpace.standard(2)])
        assert "units" not in vars(space) and "physical_projector" not in vars(space)
        physical_basis(space)
        validate_product_density(np.eye(space.dim) / space.dim, space)
        assert "units" not in vars(space) and "physical_projector" not in vars(space)
        assert space.units is space.units
        assert space.physical_projector is space.physical_projector

    @pytest.mark.parametrize("ds", FACTOR_LISTS)
    def test_projectors_match_dense_products(self, ds):
        rng = np.random.default_rng(SEED + sum(ds))
        space = rotated_space(rng, ds)
        for unit, want in zip(space.units, _dense_units(space)):
            np.testing.assert_array_equal(unit, want)
        np.testing.assert_allclose(space.physical_projector,
                                   _dense_projector(space, [1] * (len(ds) - 1)),
                                   rtol=0, atol=1e-14)
        for signs in itertools.product((1, -1), repeat=len(ds) - 1):
            np.testing.assert_allclose(subspace_projector(space, signs),
                                       _dense_projector(space, signs), rtol=0, atol=1e-14)
            assert subspace_unit_relation(space, signs)

    @pytest.mark.parametrize("ds", FACTOR_LISTS)
    def test_escape_flags_match_dense_reference(self, ds):
        rng = np.random.default_rng(SEED + 7 * sum(ds))
        space = rotated_space(rng, ds)
        operators = list(space.units)
        for k, f in enumerate(space.factors):
            linear, antilinear = _split(rng, f.j.matrix)
            operators += [lift_operator(linear, k, space), lift_operator(antilinear, k, space)]
        operators.append(operators[-1] @ operators[-1])
        operators.append(rng.standard_normal((space.dim, space.dim)))
        flags = set()
        for op in operators:
            check = physical_escape_check(op, space)
            got = (check.maps_within, check.maps_across)
            assert got == _dense_escape(op, space)
            flags.add(got)
        assert flags == {(True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("ds", FACTOR_LISTS)
    def test_density_verdicts_match_dense_reference(self, ds):
        rng = np.random.default_rng(SEED + 11 * sum(ds))
        space = rotated_space(rng, ds)
        p = space.physical_projector
        u0 = space.units[0]
        g = rng.standard_normal((space.dim, space.dim))
        inside = p @ (g @ g.T) @ p
        physical = (inside - u0 @ inside @ u0) / 2.0
        candidates = {
            "physical": physical / np.trace(physical),
            "projector": p / np.trace(p),
            "inside, not J-commuting": inside / np.trace(inside),
            "asymmetric": p @ g / np.trace(p @ g),
            "full mixture": np.eye(space.dim) / space.dim,
        }
        verdicts = {}
        for name, rho in candidates.items():
            verdicts[name] = validate_product_density(rho, space)
            assert verdicts[name] == _dense_validate(rho, space), name
        assert verdicts["physical"] and verdicts["projector"]
        assert not verdicts["asymmetric"] and not verdicts["full mixture"]

    @pytest.mark.parametrize("ds", FACTOR_LISTS)
    def test_basis_for_rotated_structures(self, ds):
        rng = np.random.default_rng(SEED + 13 * sum(ds))
        space = rotated_space(rng, ds)
        basis = physical_basis(space)
        rank = space.physical_rank
        assert basis.shape == (space.dim, rank)
        assert np.linalg.matrix_rank(basis) == rank
        np.testing.assert_allclose(basis.T @ basis, np.eye(rank), rtol=0, atol=1e-14)
        np.testing.assert_allclose(space.physical_projector @ basis, basis,
                                   rtol=0, atol=1e-14)
        j_std = standard_complex_structure(rank // 2).matrix
        for unit in space.units:
            restricted = basis.T @ unit @ basis
            np.testing.assert_allclose(restricted @ restricted, -np.eye(rank),
                                       rtol=0, atol=1e-14)
            # the columns pair up as (b, U_0 b): every unit restricts to J_std
            np.testing.assert_allclose(restricted, j_std, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("ds", [[8, 8], [2, 4, 4]])
    def test_largest_products_match_dense_projector(self, ds):
        space = build_product_space([FactorSpace.standard(d) for d in ds])
        np.testing.assert_allclose(space.physical_projector,
                                   _dense_projector(space, [1] * (len(ds) - 1)),
                                   rtol=0, atol=1e-14)
        minus = [-1] * (len(ds) - 1)
        np.testing.assert_allclose(subspace_projector(space, minus),
                                   _dense_projector(space, minus), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("right", [False, True])
    def test_unit_helper_matches_kron_lift(self, right):
        rng = np.random.default_rng(SEED)
        space = rotated_space(rng, [1, 2, 3])
        dims = [f.dim for f in space.factors]
        x = rng.standard_normal((space.dim, space.dim))
        for k, n in enumerate(dims):
            m = rng.standard_normal((n, n))
            lifted = reduce(np.kron, [m if i == k else np.eye(d) for i, d in enumerate(dims)])
            want = x @ lifted if right else lifted @ x
            np.testing.assert_allclose(_apply_lifted(m, k, dims, x, right), want,
                                       rtol=0, atol=1e-12)
        block = x[:, :5] if not right else x[:5]
        unit = _dense_units(space)[1]
        want = block @ unit if right else unit @ block
        np.testing.assert_allclose(
            _apply_lifted(space.factors[1].j.matrix, 1, dims, block, right), want,
            rtol=0, atol=1e-14)
