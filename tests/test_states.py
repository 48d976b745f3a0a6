import numpy as np
import pytest

from realqm.linalg import ConstraintError, commutes, sym_eig
from realqm.realify import embed_matrix, standard_complex_structure
from realqm.states import (
    are_orthogonal_states,
    density_matrix,
    expectation,
    measurement_statistics,
    physical_density_4d,
    physical_from_complex,
    sharp_realizability,
    spectral_decompose,
    state_stack,
    variance,
)

from helpers import rand_complex, rand_physical, rand_symmetric

SEED = 90125


def rand_complex_density(rng, d):
    g = rand_complex(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def position_matrix(xi1, xi2):
    return np.diag([xi1, -xi1, xi2, -xi2])


class TestSpectralDecompose:
    def test_identity(self):
        decomp = spectral_decompose(np.eye(4))
        assert decomp.outcomes == 1
        assert decomp.eigenvalues[0] == pytest.approx(1.0)
        np.testing.assert_allclose(decomp.projectors[0], np.eye(4), atol=1e-12)

    def test_equal_length_position_operator(self):
        decomp = spectral_decompose(position_matrix(1.5, 1.5))
        np.testing.assert_allclose(decomp.eigenvalues, [-1.5, 1.5])
        for proj in decomp.projectors:
            assert np.trace(proj) == pytest.approx(2.0)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(SEED)
        a = rand_symmetric(rng, 8)
        decomp = spectral_decompose(a)
        rebuilt = sum(v * p for v, p in zip(decomp.eigenvalues, decomp.projectors))
        assert np.linalg.norm(rebuilt - a) <= 1e-9
        total = sum(decomp.projectors)
        np.testing.assert_allclose(total, np.eye(8), atol=1e-10)
        for i, p in enumerate(decomp.projectors):
            assert np.linalg.norm(p @ p - p) <= 1e-10
            assert np.linalg.norm(p - p.T) <= 1e-12
            for q in decomp.projectors[:i]:
                assert np.linalg.norm(p @ q) <= 1e-10

    def test_distinct_count_bounded(self):
        rng = np.random.default_rng(SEED)
        a = rand_symmetric(rng, 10)
        assert spectral_decompose(a).outcomes <= 10


class TestExpectationVariance:
    def test_unit_trace(self):
        rng = np.random.default_rng(SEED)
        rho = rand_physical(rng, 3)
        assert expectation(rho, np.eye(6)) == pytest.approx(1.0, abs=1e-12)

    def test_position_mean_vanishes(self):
        rho = physical_density_4d(0.3, 0.2, 0.1, 0.05)
        assert expectation(rho, position_matrix(1.0, 2.0)) == pytest.approx(0.0, abs=1e-14)

    def test_position_variance_closed_form(self):
        alpha, beta, gamma, delta = 0.3, 0.2, 0.1, 0.05
        xi1, xi2 = 1.0, 2.0
        rho = physical_density_4d(alpha, beta, gamma, delta)
        expected = 2.0 * (alpha * xi1**2 + beta * xi2**2)
        assert variance(rho, position_matrix(xi1, xi2)) == pytest.approx(expected, abs=1e-12)

    def test_variance_of_identity_is_zero(self):
        rng = np.random.default_rng(SEED)
        rho = rand_physical(rng, 4)
        assert variance(rho, np.eye(8)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_spectral_sums(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = rand_physical(rng, d)
            a = rand_symmetric(rng, 2 * d)
            stats = measurement_statistics(rho, a)
            probs = np.array([p for _, p in stats.outcomes])
            vals = np.array([v for v, _ in stats.outcomes])
            assert expectation(rho, a) == pytest.approx(float(probs @ vals), abs=1e-10)
            spectral_var = float(probs @ (vals - stats.mean) ** 2)
            assert variance(rho, a) == pytest.approx(spectral_var, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(SEED)
        rho = rand_physical(rng, 2)
        with pytest.raises(ValueError):
            expectation(rho, np.eye(6))


class TestMeasurementStatistics:
    def test_maximally_mixed_weights_by_rank(self):
        rho = density_matrix(np.eye(8) / 8.0)
        a = np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        stats = measurement_statistics(rho, a)
        by_value = {round(v, 6): p for v, p in stats.outcomes}
        assert by_value[2.0] == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert by_value[1.0] == pytest.approx(2.0 / 8.0, abs=1e-12)
        assert by_value[0.0] == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_position_outcomes_quarter_each(self):
        rho = physical_density_4d(0.25, 0.25, 0.0, 0.0)
        stats = measurement_statistics(rho, position_matrix(1.0, 2.0))
        assert sorted(v for v, _ in stats.outcomes) == [-2.0, -1.0, 1.0, 2.0]
        for _, p in stats.outcomes:
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            stats = measurement_statistics(rand_physical(rng, d),
                                           rand_symmetric(rng, 2 * d))
            total = sum(p for _, p in stats.outcomes)
            assert total == pytest.approx(1.0, abs=1e-10)
            assert all(p >= -1e-12 for _, p in stats.outcomes)


class TestPhysicalFromComplex:
    def test_pure_state(self):
        rho = physical_from_complex(np.diag([1.0 + 0j, 0.0]))
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5, 0.0, 0.0]))
        assert commutes(rho.matrix, standard_complex_structure(2).matrix)

    def test_maximally_mixed(self):
        d = 3
        rho = physical_from_complex(np.eye(d, dtype=complex) / d)
        np.testing.assert_allclose(rho.matrix, np.eye(2 * d) / (2 * d))

    def test_eigenvalues_halved_and_doubled(self):
        rng = np.random.default_rng(SEED)
        rho_c = rand_complex_density(rng, 3)
        rho = physical_from_complex(rho_c)
        complex_vals = np.sort(np.linalg.eigvalsh(rho_c))
        real_vals, _ = sym_eig(rho.matrix)
        np.testing.assert_allclose(real_vals, np.repeat(complex_vals, 2) / 2.0,
                                   atol=1e-10)
        assert real_vals[-1] <= 0.5 + 1e-12

    def test_commutes_with_j(self):
        rng = np.random.default_rng(SEED)
        rho = rand_physical(rng, 3)
        j = standard_complex_structure(3).matrix
        assert np.linalg.norm(rho.matrix @ j - j @ rho.matrix) <= 1e-12

    # The messages are those of any state, about the real image rho/2.
    def test_rejects_non_hermitean(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ConstraintError, match="^density matrix must be symmetric$"):
            physical_from_complex(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ConstraintError, match="must have unit trace, got 2.0$"):
            physical_from_complex(np.eye(2, dtype=complex))

    def test_wrong_trace_message_is_the_complex_trace(self):
        bad = np.diag([0.6 + 0j, 0.5])
        with pytest.raises(ConstraintError, match="must have unit trace, got 1.1$"):
            physical_from_complex(bad)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5 + 0j, -0.5])
        with pytest.raises(ConstraintError, match="minimum eigenvalue -0.25$"):
            physical_from_complex(bad)


class TestPhysicalDensity4d:
    def test_quarter_parameters_give_scaled_identity(self):
        rho = physical_density_4d(0.25, 0.25, 0.0, 0.0)
        np.testing.assert_array_equal(rho.matrix, np.eye(4) / 4.0)

    def test_boundary_state(self):
        # alpha*beta = delta^2 puts the state on the positivity boundary
        rho = physical_density_4d(0.25, 0.25, 0.0, 0.25)
        expected = np.array([
            [0.25, 0.0, 0.0, 0.25],
            [0.0, 0.25, -0.25, 0.0],
            [0.0, -0.25, 0.25, 0.0],
            [0.25, 0.0, 0.0, 0.25],
        ])
        np.testing.assert_array_equal(rho.matrix, expected)
        vals, _ = sym_eig(rho.matrix)
        assert vals[0] >= -1e-10

    def test_trace_constraint_violation(self):
        with pytest.raises(ConstraintError, match="2\\*\\(alpha\\+beta\\)"):
            physical_density_4d(0.5, 0.5, 0.0, 0.0)

    def test_negative_alpha(self):
        with pytest.raises(ConstraintError, match="alpha"):
            physical_density_4d(-0.1, 0.6, 0.0, 0.0)

    def test_positivity_violation(self):
        with pytest.raises(ConstraintError, match="gamma"):
            physical_density_4d(0.25, 0.25, 0.3, 0.0)

    @pytest.mark.parametrize("args,tail", [
        ((0.6, 0.0, 0.0, 0.0), "2*(alpha+beta) = 1.2 != 1"),
        ((-0.1, 0.6, 0.0, 0.0), "alpha = -0.1 < 0"),
        ((0.6, -0.1, 0.0, 0.0), "beta = -0.1 < 0"),
        ((0.25, 0.25, 0.5, 0.0), "gamma^2 - delta^2 = -0.1875 < 0"),
    ])
    def test_numpy_scalars_print_as_floats(self, args, tail):
        with pytest.raises(ConstraintError) as info:
            physical_density_4d(*map(np.float64, args))
        assert str(info.value).endswith(tail)

    def test_commutes_with_j_for_random_parameters(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2).matrix
        for _ in range(20):
            alpha = 0.5 * rng.random()
            beta = 0.5 - alpha
            r = np.sqrt(rng.random() * alpha * beta)
            ang = 2 * np.pi * rng.random()
            rho = physical_density_4d(alpha, beta, r * np.cos(ang), r * np.sin(ang))
            assert np.linalg.norm(rho.matrix @ j - j @ rho.matrix) <= 1e-12


class TestOrthogonalStates:
    def test_disjoint_pure_states(self):
        rho0 = physical_from_complex(np.diag([1.0 + 0j, 0.0]))
        rho1 = physical_from_complex(np.diag([0.0j, 1.0]))
        assert are_orthogonal_states(rho0, rho1)

    def test_state_not_orthogonal_to_itself(self):
        rng = np.random.default_rng(SEED)
        rho = rand_physical(rng, 2)
        assert not are_orthogonal_states(rho, rho)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximal_orthogonal_family_has_size_d(self, d):
        # greedy construction: the d embedded basis states are mutually
        # orthogonal, and their supports exhaust R^(2d), so nothing extends
        # the family
        family = []
        for k in range(d):
            basis_state = np.zeros((d, d), dtype=complex)
            basis_state[k, k] = 1.0
            family.append(physical_from_complex(basis_state))
        for i in range(d):
            for k in range(i):
                assert are_orthogonal_states(family[i], family[k])
        support_ranks = []
        for rho in family:
            vals, _ = sym_eig(rho.matrix)
            support_ranks.append(int(np.sum(vals > 1e-8)))
        assert all(r >= 2 for r in support_ranks)
        assert sum(support_ranks) == 2 * d
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            candidate = rand_physical(rng, d)
            assert not all(are_orthogonal_states(candidate, rho) for rho in family)


class TestSharpRealizability:
    def test_embedded_hermitean_all_sharp(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        g = rand_complex(rng, 3)
        a = embed_matrix((g + g.conj().T) / 2.0)
        assert all(flag for _, flag in sharp_realizability(a, j))

    def test_distinct_lengths_nothing_sharp(self):
        j = standard_complex_structure(2)
        flags = sharp_realizability(position_matrix(1.0, 2.0), j)
        assert len(flags) == 4
        assert not any(flag for _, flag in flags)

    def test_equal_lengths_still_not_sharp(self):
        j = standard_complex_structure(2)
        flags = sharp_realizability(position_matrix(1.0, 1.0), j)
        assert len(flags) == 2
        assert not any(flag for _, flag in flags)

    def test_j_invariant_eigenspace_gives_sharp_state(self):
        # constructive direction: rho = (v v^T + (Jv)(Jv)^T)/2 is physical and
        # concentrates the statistics on one outcome
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        g = rand_complex(rng, d)
        a = embed_matrix((g + g.conj().T) / 2.0)
        _, vecs = sym_eig(a)
        v = vecs[:, 0]
        jv = j.matrix @ v
        rho = density_matrix((np.outer(v, v) + np.outer(jv, jv)) / 2.0, j=j)
        assert commutes(rho.matrix, j.matrix)
        stats = measurement_statistics(rho, a)
        assert variance(rho, a) == pytest.approx(0.0, abs=1e-9)
        assert max(p for _, p in stats.outcomes) >= 1.0 - 1e-9


class TestStructuralInvariants:
    def test_trace_correspondence_with_complex_side(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho_c = rand_complex_density(rng, d)
            g = rand_complex(rng, d)
            a_c = (g + g.conj().T) / 2.0
            rho_r = physical_from_complex(rho_c)
            a_r = embed_matrix(a_c)
            assert expectation(rho_r, a_r) == pytest.approx(
                float(np.trace(rho_c @ a_c).real), abs=1e-10)

    def test_degeneracy_doubling(self):
        rng = np.random.default_rng(SEED)
        for d in (2, 3, 4):
            g = rand_complex(rng, d)
            a = embed_matrix((g + g.conj().T) / 2.0)
            for proj in spectral_decompose(a).projectors:
                mult = round(float(np.trace(proj)))
                assert mult % 2 == 0

    def test_variance_zero_iff_concentrated(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = rand_physical(rng, d)
            a = rand_symmetric(rng, 2 * d)
            stats = measurement_statistics(rho, a)
            top = max(p for _, p in stats.outcomes)
            if stats.variance <= 1e-12:
                assert top >= 1.0 - 1e-9
            if top >= 1.0 - 1e-12:
                assert stats.variance <= 1e-9

    def test_general_states_accepted_without_physicality(self):
        # the wider state option: symmetric PSD unit trace, no J condition
        j = standard_complex_structure(2)
        rho = density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]), j=j)
        assert not commutes(rho.matrix, j.matrix)


class TestStateStack:
    """The batched validation behind density_matrix and the evolve grid."""

    @staticmethod
    def stack(rng, d, count):
        return np.stack([rand_physical(rng, d).matrix for _ in range(count)])

    def test_statistics_match_single_matrix_checks(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        matrices = self.stack(rng, 3, 5)
        matrices[2] = np.diag([1.0, 0, 0, 0, 0, 0])  # a state, but not a physical one
        stack = state_stack(matrices, j)
        for k, m in enumerate(matrices):
            assert stack.trace[k] == pytest.approx(np.trace(m), abs=1e-15)
            assert stack.min_eigenvalue[k] == pytest.approx(sym_eig(m)[0][0], abs=1e-15)
            assert stack.physicality_residual[k] == pytest.approx(
                np.linalg.norm(m @ j.matrix - j.matrix @ m), abs=1e-15)
            assert stack.physical[k] == commutes(density_matrix(m, j=j).matrix, j.matrix)
        assert list(stack.physical) == [True, True, False, True, True]

    @pytest.mark.parametrize("index,bad,message", [
        (3, lambda m: m * 1.5, "unit trace"),
        (1, lambda m: m + np.diag([0.2, -0.2, 0, 0]), "positive semidefinite"),
        (2, lambda m: m + np.triu(np.ones((4, 4)), 1), "symmetric"),
        (4, lambda m: m * np.nan, "not finite"),
        (4, lambda m: m * np.inf, "not finite"),
    ])
    def test_first_failing_matrix_names_its_time(self, index, bad, message):
        rng = np.random.default_rng(SEED)
        matrices = self.stack(rng, 2, 6)
        matrices[index] = bad(matrices[index])
        matrices[5] = matrices[5] * 2.0  # a later failure is not the one reported
        times = np.arange(6) * 0.5
        with pytest.raises(ConstraintError, match=message) as info:
            state_stack(matrices, standard_complex_structure(2), times=times)
        assert str(info.value).endswith(f"at t = {float(times[index])!r}")

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.5, 1.0], []])
    def test_times_of_another_length_are_rejected_before_judging(self, times):
        # The second matrix fails: a short `times` raised IndexError naming its time.
        matrices = np.stack([np.eye(2) / 2.0, [[1.0, 2.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match=f"expected 2 times for the stack, got {len(times)}"):
            state_stack(matrices, times=times)

    def test_measure_only_accepts_non_states(self):
        rng = np.random.default_rng(SEED)
        matrices = self.stack(rng, 2, 3) * 3.0
        stack = state_stack(matrices, standard_complex_structure(2), density=False)
        np.testing.assert_allclose(stack.trace, 3.0, atol=1e-14)
        with pytest.raises(ConstraintError, match="unit trace"):
            state_stack(matrices, standard_complex_structure(2))

    def test_without_complex_structure_nothing_is_physical(self):
        stack = state_stack(np.eye(4)[np.newaxis] / 4.0)
        assert not stack.physical[0]
        assert np.isnan(stack.physicality_residual[0])
