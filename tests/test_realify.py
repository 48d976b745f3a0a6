import numpy as np
import pytest

from realqm.linalg import commutes
from realqm.realify import (
    ComplexStructure,
    classify,
    conjugation_operator,
    embed_matrix,
    embed_vector,
    extract_matrix,
    generator_space_ranks,
    matrix_set_rank,
    scalar_products,
    split_linear_antilinear,
    standard_complex_structure,
)

from helpers import rand_complex, rand_unitary

SEED = 7041


class TestStandardComplexStructure:
    def test_d1(self):
        np.testing.assert_array_equal(
            standard_complex_structure(1).matrix, [[0.0, -1.0], [1.0, 0.0]])

    def test_d2_block_layout(self):
        expected = np.array([
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        np.testing.assert_array_equal(standard_complex_structure(2).matrix, expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_square_and_orthogonality(self, d):
        j = standard_complex_structure(d).matrix
        np.testing.assert_array_equal(j @ j, -np.eye(2 * d))
        np.testing.assert_array_equal(j.T @ j, np.eye(2 * d))
        np.testing.assert_array_equal(j.T, -j)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            standard_complex_structure(0)


class TestEmbedVector:
    def test_basis_vector(self):
        np.testing.assert_array_equal(embed_vector([1.0 + 0j, 0.0]), [1, 0, 0, 0])

    def test_interleaving(self):
        psi = np.array([1.0 + 2.0j, 3.0 + 4.0j])
        np.testing.assert_array_equal(embed_vector(psi), [1, 2, 3, 4])

    def test_multiplication_by_i_becomes_j(self):
        rng = np.random.default_rng(SEED)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        j = standard_complex_structure(6).matrix
        np.testing.assert_allclose(embed_vector(1j * psi), j @ embed_vector(psi))

    def test_norm_preserved(self):
        rng = np.random.default_rng(SEED)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.linalg.norm(embed_vector(psi)) == pytest.approx(np.linalg.norm(psi))


class TestEmbedMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(embed_matrix(np.eye(2)), np.eye(4))

    def test_generic_2x2_block_layout(self):
        a = np.array([[1.0, 3.0], [5.0, 7.0]]) + 1j * np.array([[2.0, 4.0], [6.0, 8.0]])
        expected = np.array([
            [1.0, -2.0, 3.0, -4.0],
            [2.0, 1.0, 4.0, 3.0],
            [5.0, -6.0, 7.0, -8.0],
            [6.0, 5.0, 8.0, 7.0],
        ])
        np.testing.assert_array_equal(embed_matrix(a), expected)

    def test_pauli_y(self):
        pauli_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        embedded = embed_matrix(pauli_y)
        expected = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(embedded, expected)
        np.testing.assert_array_equal(embedded, embedded.T)
        np.testing.assert_array_equal(embedded @ embedded, np.eye(4))

    def test_homomorphism(self):
        rng = np.random.default_rng(SEED)
        for d in (1, 2, 3, 4):
            a = rand_complex(rng, d)
            b = rand_complex(rng, d)
            assert np.linalg.norm(embed_matrix(a @ b) - embed_matrix(a) @ embed_matrix(b)) <= 1e-10

    def test_adjoint_becomes_transpose(self):
        rng = np.random.default_rng(SEED)
        a = rand_complex(rng, 3)
        np.testing.assert_array_equal(embed_matrix(a.conj().T), embed_matrix(a).T)

    def test_action_matches_complex_product(self):
        rng = np.random.default_rng(SEED)
        a = rand_complex(rng, 3)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(embed_matrix(a) @ embed_vector(psi),
                                   embed_vector(a @ psi))


class TestExtractMatrix:
    def test_round_trip(self):
        rng = np.random.default_rng(SEED)
        a = rand_complex(rng, 4)
        back = extract_matrix(embed_matrix(a))
        assert np.abs(back - a).max() <= 1e-12

    def test_extract_j_is_i_times_identity(self):
        back = extract_matrix(standard_complex_structure(3).matrix)
        np.testing.assert_array_equal(back.real, np.zeros((3, 3)))
        np.testing.assert_array_equal(back.imag, np.eye(3))

    def test_rejects_antilinear_input(self):
        with pytest.raises(ValueError):
            extract_matrix(conjugation_operator(2))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_rejects_an_odd_dimension(self, n):
        with pytest.raises(ValueError, match=f"^a real {n} x {n} matrix has no complex form$"):
            extract_matrix(np.eye(n))

    def test_rejects_a_non_standard_structure(self):
        # a = Q embed(c) Q^T commutes with J' = Q J Q^T, but its complex form
        # in J's frame is not in the interleaved layout: read as if it were,
        # it missed a by 1.41 in Frobenius norm after embedding back.  Only
        # the standard J is read, so a is not complex linear, and a J is no
        # argument: in the tolerance's place it would be misread.
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = q @ embed_matrix(c) @ q.T
        j = ComplexStructure(q @ standard_complex_structure(2).matrix @ q.T)
        assert commutes(a, j.matrix)
        with pytest.raises(ValueError, match="not complex linear"):
            extract_matrix(a)
        with pytest.raises(TypeError):
            extract_matrix(a, j)


class TestSplit:
    def test_split_of_j(self):
        j = standard_complex_structure(2)
        split = split_linear_antilinear(j.matrix, j)
        np.testing.assert_array_equal(split.plus, j.matrix)
        np.testing.assert_array_equal(split.minus, np.zeros((4, 4)))

    def test_split_of_conjugation(self):
        j = standard_complex_structure(2)
        split = split_linear_antilinear(conjugation_operator(2), j)
        np.testing.assert_array_equal(split.plus, np.zeros((4, 4)))
        np.testing.assert_array_equal(split.minus, conjugation_operator(2))

    def test_reconstruction_and_commutation(self):
        rng = np.random.default_rng(SEED)
        for d in (1, 2, 4, 8):
            j = standard_complex_structure(d)
            a = rng.standard_normal((2 * d, 2 * d))
            split = split_linear_antilinear(a, j)
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(split.plus + split.minus - a) <= 1e-13 * scale
            assert np.linalg.norm(
                split.plus @ j.matrix - j.matrix @ split.plus) <= 1e-10
            assert np.linalg.norm(
                split.minus @ j.matrix + j.matrix @ split.minus) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_subspace_dimensions(self, d):
        # projecting the full matrix basis must give 2d^2 directions each way;
        # the rank rule is relative, so a basis scaled by 2^k gives the same
        j = standard_complex_structure(d)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        for k in (-500, -30, 0, 500):
            basis = []
            for r in range(2 * d):
                for c in range(2 * d):
                    e = np.zeros((2 * d, 2 * d))
                    e[r, c] = 2.0 ** k
                    basis.append(e)
            plus = [split_linear_antilinear(e, j).plus for e in basis]
            minus = [split_linear_antilinear(e, j).minus for e in basis]
            assert matrix_set_rank(plus) == 2 * d * d
            assert matrix_set_rank(minus) == 2 * d * d
            assert matrix_set_rank([2.0 ** k * np.eye(2), 2.0 ** k * sigma_x]) == 2


class TestConjugation:
    def test_d1(self):
        np.testing.assert_array_equal(conjugation_operator(1), np.diag([1.0, -1.0]))

    def test_conjugates_embedded_vectors(self):
        rng = np.random.default_rng(SEED)
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c = conjugation_operator(5)
        np.testing.assert_array_equal(c @ embed_vector(psi), embed_vector(psi.conj()))

    def test_structure(self):
        c = conjugation_operator(3)
        j = standard_complex_structure(3).matrix
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(c @ c, np.eye(6))
        np.testing.assert_array_equal(c @ j, -(j @ c))


class TestScalarProducts:
    def test_unit_vector(self):
        j = standard_complex_structure(2)
        phi = np.array([1.0, 0.0, 0.0, 0.0])
        assert scalar_products(phi, phi, j) == (1.0, 0.0)

    def test_j_rotates_phase(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        phi = rng.standard_normal(6)
        psi = rng.standard_normal(6)
        re, im = scalar_products(phi, psi, j)
        re_j, im_j = scalar_products(phi, j.matrix @ psi, j)
        assert re_j == pytest.approx(-im, abs=1e-12)
        assert im_j == pytest.approx(re, abs=1e-12)

    def test_matches_complex_inner_product(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        re, im = scalar_products(embed_vector(phi), embed_vector(psi), j)
        inner = np.vdot(phi, psi)
        assert re == pytest.approx(inner.real, abs=1e-12)
        assert im == pytest.approx(inner.imag, abs=1e-12)

    def test_hermitean_symmetry(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        phi = rng.standard_normal(6)
        psi = rng.standard_normal(6)
        re1, im1 = scalar_products(phi, psi, j)
        re2, im2 = scalar_products(psi, phi, j)
        assert re1 == pytest.approx(re2, abs=1e-12)
        assert im1 == pytest.approx(-im2, abs=1e-12)


class TestClassify:
    def test_embedded_unitary(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        flags = classify(embed_matrix(rand_unitary(rng, 3)), j)
        assert flags.orthogonal and flags.symplectic and flags.complex_linear
        assert not flags.complex_antilinear

    def test_symplectic_but_not_orthogonal(self):
        # diag(s, 1/s) preserves the symplectic product but not lengths
        j = standard_complex_structure(1)
        flags = classify(np.diag([2.0, 0.5]), j)
        assert flags.symplectic and not flags.orthogonal

    def test_conjugation(self):
        j = standard_complex_structure(2)
        flags = classify(conjugation_operator(2), j)
        assert flags.orthogonal and not flags.symplectic
        assert flags.complex_antilinear and not flags.complex_linear

    def test_orthogonal_symplectic_iff_commuting(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            flags = classify(q, j)
            assert flags.orthogonal
            assert flags.symplectic == flags.complex_linear
        for _ in range(5):
            flags = classify(embed_matrix(rand_unitary(rng, 3)), j)
            assert flags.symplectic == flags.complex_linear == True  # noqa: E712


class TestGeneratorSpaces:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_classical_group_dimensions(self, d):
        ranks = generator_space_ranks(standard_complex_structure(d))
        assert ranks.orthogonal == 2 * d * d - d
        assert ranks.symplectic == 2 * d * d + d
        assert ranks.unitary == d * d
