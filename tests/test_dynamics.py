from types import SimpleNamespace

import numpy as np
import pytest

from realqm import dynamics
from realqm.dynamics import (
    Hamiltonian,
    SymplecticForm,
    evolve,
    expectation_grid,
    hamiltonian,
    jacobi_residual,
    liouville_grid,
    liouville_rhs,
    poisson_bracket,
    propagator,
    symplectic_lie_form_check,
)
from realqm.linalg import ConstraintError, _trusted, expm, sym_eig
from realqm.oscillator import (
    CanonicalPair,
    OscillatorParams,
    design_spectrum,
    oscillator_hamiltonian,
)
from realqm.realify import (
    ComplexStructure,
    embed_matrix,
    extract_matrix,
    standard_complex_structure,
)
from realqm.states import (
    DensityMatrix,
    density_matrix,
    physical_density_4d,
    physical_from_complex,
)

from helpers import rand_hermitean, rand_physical, rand_symmetric

SEED = 3177


class TestPoissonBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(3))
        a = rand_symmetric(rng, 6)
        np.testing.assert_allclose(poisson_bracket(a, a, w), np.zeros((6, 6)), atol=0)

    def test_canonical_pair(self):
        params = OscillatorParams(hbar=0.7)
        pair = CanonicalPair([1.0, 2.0, 0.5], params)
        w = SymplecticForm(standard_complex_structure(3), hbar=0.7)
        np.testing.assert_allclose(poisson_bracket(pair.x, pair.p, w), np.eye(6),
                                   atol=1e-15)

    def test_matches_complex_commutator(self):
        # on embedded Hermitean matrices the bracket is -(i/hbar)[A, B]
        rng = np.random.default_rng(SEED)
        hbar = 2.0
        d = 3
        w = SymplecticForm(standard_complex_structure(d), hbar=hbar)
        a_c = rand_hermitean(rng, d)
        b_c = rand_hermitean(rng, d)
        bracket = poisson_bracket(embed_matrix(a_c), embed_matrix(b_c), w)
        oracle = embed_matrix(-1j / hbar * (a_c @ b_c - b_c @ a_c))
        np.testing.assert_allclose(bracket, oracle, atol=1e-12)

    def test_symmetric_output_and_antisymmetry(self):
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(4))
        a = rand_symmetric(rng, 8)
        b = rand_symmetric(rng, 8)
        br = poisson_bracket(a, b, w)
        scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
        assert np.linalg.norm(br - br.T) <= 1e-10 * scale
        np.testing.assert_array_equal(br, -poisson_bracket(b, a, w))

    def test_rejects_nonsymmetric(self):
        w = SymplecticForm(standard_complex_structure(1))
        with pytest.raises(ValueError):
            poisson_bracket(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), w)


class TestJacobiIdentity:
    def test_repeated_argument(self):
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(2))
        a = rand_symmetric(rng, 4)
        b = rand_symmetric(rng, 4)
        assert jacobi_residual(a, a, b, w) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_random_triples(self, n):
        rng = np.random.default_rng(SEED + n)
        w = SymplecticForm(standard_complex_structure(n // 2))
        for _ in range(10):
            a = rand_symmetric(rng, n)
            b = rand_symmetric(rng, n)
            c = rand_symmetric(rng, n)
            scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c))
            assert jacobi_residual(a, b, c, w) <= 1e-9 * scale

    def test_canonical_triple(self):
        params = OscillatorParams()
        pair = CanonicalPair([1.0, 2.0], params)
        h = oscillator_hamiltonian(pair)
        w = SymplecticForm(standard_complex_structure(2))
        assert jacobi_residual(pair.x, pair.p, h.matrix, w) <= 1e-9


class TestSymplecticLieForm:
    def test_equal_arguments(self):
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(2))
        a = rand_symmetric(rng, 4)
        assert symplectic_lie_form_check(a, a, np.zeros((4, 4)), w)

    def test_canonical_pair_with_identity(self):
        params = OscillatorParams()
        pair = CanonicalPair([1.0, 0.5], params)
        w = SymplecticForm(standard_complex_structure(2), hbar=params.hbar)
        assert symplectic_lie_form_check(pair.x, pair.p, np.eye(4), w)

    def test_random_brackets(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        hbar = 1.3
        w = SymplecticForm(j, hbar=hbar)
        for _ in range(5):
            a = rand_symmetric(rng, 6)
            b = rand_symmetric(rng, 6)
            c = poisson_bracket(a, b, w)
            assert symplectic_lie_form_check(a, b, c, w)


class TestLiouvilleRhs:
    def test_scaled_identity_is_stationary(self):
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho = physical_from_complex(np.eye(d, dtype=complex) / d)
        np.testing.assert_allclose(liouville_rhs(h, rho, w), np.zeros((2 * d, 2 * d)),
                                   atol=1e-14)

    def test_traceless_for_complex_linear_hamiltonian(self):
        rng = np.random.default_rng(SEED)
        d = 4
        j = standard_complex_structure(d)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho = rand_physical(rng, d)
        assert abs(np.trace(liouville_rhs(h, rho, w))) <= 1e-12

    def test_matches_finite_difference_of_flow(self):
        rng = np.random.default_rng(SEED)
        d = 2
        j = standard_complex_structure(d)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho = rand_physical(rng, d)
        dt = 1e-4
        fwd = evolve(rho, h, dt, w).matrix
        bwd = evolve(rho, h, -dt, w).matrix
        centered = (fwd - bwd) / (2.0 * dt)
        # centered difference is exact to O(dt^2)
        assert np.linalg.norm(liouville_rhs(h, rho, w) - centered) <= 1e-6


class TestPropagator:
    def test_time_zero(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, 2)), j)
        np.testing.assert_array_equal(propagator(h, 0.0, SymplecticForm(j)).u, np.eye(4))

    def test_oscillator_blocks_rotate(self):
        params = OscillatorParams(hbar=0.5)
        pair = CanonicalPair([1.0, 2.0], params)
        h = oscillator_hamiltonian(pair)
        j = standard_complex_structure(2)
        t = 0.8
        u = propagator(h, t, SymplecticForm(j, params.hbar)).u
        levels = np.diag(h.matrix)[::2]
        expected = np.zeros((4, 4))
        for i, e in enumerate(levels):
            angle = e * t / params.hbar
            expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [
                [np.cos(angle), np.sin(angle)],
                [-np.sin(angle), np.cos(angle)],
            ]
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_one_parameter_group(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, 3)), j)
        for s, t in rng.uniform(-3.0, 3.0, size=(5, 2)):
            lhs = propagator(h, s, w).u @ propagator(h, t, w).u
            np.testing.assert_allclose(lhs, propagator(h, s + t, w).u, atol=1e-10)

    def test_orthogonal_and_symplectic_over_long_times(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, 3)), j)
        t = 50.0 / np.linalg.norm(h.matrix)
        u = propagator(h, t, w).u
        assert np.linalg.norm(u.T @ u - np.eye(6)) <= 1e-8
        assert np.linalg.norm(u.T @ j.matrix @ u - j.matrix) <= 1e-8
        np.testing.assert_allclose(u @ propagator(h, -t, w).u, np.eye(6), atol=1e-10)

    def test_rejects_non_commuting_hamiltonian(self):
        j = standard_complex_structure(2)
        x = np.diag([1.0, -1.0, 2.0, -2.0])  # anticommutes with J
        h = hamiltonian(x, j)
        assert not h.complex_linear
        with pytest.raises(ConstraintError):
            propagator(h, 1.0, SymplecticForm(j))

    def test_degenerate_oscillator_spectrum(self):
        # duplicate targets give fourfold-degenerate levels on the real side
        params = OscillatorParams(hbar=0.7)
        targets = [1.5, 1.5, 0.9]
        h = oscillator_hamiltonian(
            CanonicalPair(design_spectrum(targets, params), params))
        j = standard_complex_structure(3)
        t = 2.3
        u = propagator(h, t, SymplecticForm(j, params.hbar)).u
        expected = np.zeros((6, 6))
        for i, e in enumerate(targets):
            angle = e * t / params.hbar
            expected[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [
                [np.cos(angle), np.sin(angle)],
                [-np.sin(angle), np.cos(angle)],
            ]
        np.testing.assert_allclose(u, expected, atol=1e-12)
        assert np.linalg.norm(u @ j.matrix - j.matrix @ u) <= 1e-14

    @pytest.mark.parametrize("t", [1e300, -1e300, np.inf, np.nan])
    def test_rejects_phase_beyond_float_precision(self, t):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, 2)), j)
        with pytest.raises(ConstraintError, match="phase"):
            propagator(h, t, SymplecticForm(j))

    def test_zero_hamiltonian_accepts_huge_time(self):
        j = standard_complex_structure(2)
        h = hamiltonian(np.zeros((4, 4)), j)
        np.testing.assert_array_equal(propagator(h, 1e300, SymplecticForm(j)).u, np.eye(4))


class TestEvolve:
    def test_stationary_state(self):
        d = 3
        j = standard_complex_structure(d)
        h_c = np.diag([1.0 + 0j, 2.0, 3.0])
        h = hamiltonian(embed_matrix(h_c), j)
        rho0 = physical_from_complex(np.diag([0.5 + 0j, 0.3, 0.2]))
        rho_t = evolve(rho0, h, 2.7, SymplecticForm(j))
        np.testing.assert_allclose(rho_t.matrix, rho0.matrix, atol=1e-12)

    def test_trace_and_physicality_preserved(self):
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        for t in rng.uniform(-10.0, 10.0, size=8):
            rho_t = evolve(rho0, h, float(t), SymplecticForm(j))
            assert np.trace(rho_t.matrix) == pytest.approx(1.0, abs=1e-10)
            assert rho_t.physical
            assert np.linalg.norm(rho_t.matrix @ j.matrix
                                  - j.matrix @ rho_t.matrix) <= 1e-9

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(SEED)
        d = 2
        j = standard_complex_structure(d)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        before, _ = sym_eig(rho0.matrix)
        after, _ = sym_eig(evolve(rho0, h, 3.3, SymplecticForm(j)).matrix)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_conserved_observable(self):
        # [A, H] = 0 and [A, J] = 0 make Tr(rho A) time independent
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        h_c = rand_hermitean(rng, d)
        h = hamiltonian(embed_matrix(h_c), j)
        a = embed_matrix(h_c @ h_c)  # a polynomial in H commutes with it
        rho0 = rand_physical(rng, d)
        reference = float(np.trace(rho0.matrix @ a))
        for t in (0.5, 2.0, 7.5):
            value = float(np.trace(evolve(rho0, h, t, SymplecticForm(j)).matrix @ a))
            assert value == pytest.approx(reference, abs=1e-9)


def generic_hamiltonian(j):
    rng = np.random.default_rng(SEED + 1)
    return hamiltonian(embed_matrix(rand_hermitean(rng, j.d)), j)


def oscillator_1_2(j):
    params = OscillatorParams()
    return oscillator_hamiltonian(CanonicalPair([1.0, 2.0], params))


class TestLongTimeEvolve:
    """Evolution at phases |t| ||H||_2 / hbar far beyond one period."""

    @staticmethod
    def reference(rho_c, h, t, j):
        # complex e^{-iHt} rho e^{iHt}, embedded with the halved trace
        w, v = np.linalg.eigh(extract_matrix(h.matrix))
        u_c = (v * np.exp(-1j * w * t)) @ v.conj().T
        return embed_matrix(u_c @ rho_c @ u_c.conj().T) / 2.0

    @pytest.mark.parametrize("build,d", [(generic_hamiltonian, 4), (oscillator_1_2, 2)])
    @pytest.mark.parametrize("phase", [3.7, 1e6, 1e12])
    def test_trace_and_physicality_hold(self, build, d, phase):
        rng = np.random.default_rng(SEED + 2)
        j = standard_complex_structure(d)
        h = build(j)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho_c = g @ g.conj().T / np.trace(g @ g.conj().T).real
        rho0 = physical_from_complex(rho_c)
        t = -phase / np.linalg.norm(h.matrix, 2)
        rho_t = evolve(rho0, h, t, SymplecticForm(j)).matrix
        assert abs(np.trace(rho_t) - 1.0) <= 1e-12
        assert np.linalg.norm(rho_t @ j.matrix - j.matrix @ rho_t) <= 1e-12
        # phase roundoff grows like phase * eps, so the comparison with the
        # complex reference is tight only at moderate times
        err = np.linalg.norm(rho_t - self.reference(rho_c, h, t, j))
        assert err <= max(1e-12, 1e-14 * phase)


def flow_at(rho_matrix, h_matrix, t, w):
    """The one flowed matrix of a one-point `liouville_grid`, from a state
    and a generator built directly (`physical` and `complex_linear` False)."""
    (_, stack), = liouville_grid(DensityMatrix(rho_matrix), Hamiltonian(h_matrix), [t], w)
    return stack.matrices[0]


class TestLiouvilleFlow:
    def test_matches_evolve_for_complex_linear_hamiltonian(self):
        rng = np.random.default_rng(SEED)
        d = 2
        j = standard_complex_structure(d)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        flowed = flow_at(rho0.matrix, h.matrix, 1.7, w)
        np.testing.assert_allclose(flowed, evolve(rho0, h, 1.7, w).matrix, atol=1e-12)

    def test_non_commuting_generator_drifts_trace(self):
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(2))
        x = np.diag([1.0, -1.0, 2.0, -2.0])
        rho0 = rand_physical(rng, 2)
        flowed = flow_at(rho0.matrix, x, 1.0, w)
        assert abs(np.trace(flowed) - 1.0) > 1e-3
        # still symmetric even though unphysical
        assert np.linalg.norm(flowed - flowed.T) <= 1e-12


class TestEvolveGrid:
    """`expectation_grid` over a whole time grid, in blocks, against the
    complex reference and against `evolve`, the one-point reference."""

    @staticmethod
    def grid(rho0, h, observables, times, w):
        blocks = list(expectation_grid(rho0, h, observables, times, w))
        columns = [np.concatenate(c) for c in zip(*(cols for _, cols in blocks))]
        return blocks, columns

    @staticmethod
    def check_against_reference(h_c, rho_c, times, w):
        rng = np.random.default_rng(SEED)
        j, hbar = w.j, w.hbar
        h = hamiltonian(embed_matrix(h_c), j)
        rho0 = physical_from_complex(rho_c)
        # H, an embedded observable and a generic symmetric one (antilinear part included)
        observables = [h.matrix, embed_matrix(rand_hermitean(rng, j.d)),
                       rand_symmetric(rng, j.dim)]
        blocks, columns = TestEvolveGrid.grid(rho0, h, observables, times, w)
        np.testing.assert_array_equal(np.concatenate([t for t, _ in blocks]), times)
        e, v = np.linalg.eigh(h_c)
        min_eig = np.linalg.eigvalsh(rho_c)[0] / 2.0
        phases = np.abs(times) * np.linalg.norm(h_c, 2) / hbar
        for k, (t, phase) in enumerate(zip(times, phases)):
            u_c = (v * np.exp(-1j * e * t / hbar)) @ v.conj().T
            reference = embed_matrix(u_c @ rho_c @ u_c.conj().T) / 2.0
            # phase roundoff grows like phase * eps
            bound = max(1e-12, 1e-14 * phase)
            for a, column in zip(observables, columns):
                assert abs(column[k] - np.trace(reference @ a)) <= bound * np.linalg.norm(a)
            m = evolve(rho0, h, float(t), w).matrix
            assert abs(np.trace(m) - 1.0) <= 1e-12
            assert np.linalg.norm(m @ j.matrix - j.matrix @ m) <= 1e-12
            assert abs(np.linalg.eigvalsh(m)[0] - min_eig) <= 1e-12
            assert np.linalg.norm(m - reference) <= bound

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_matches_complex_reference_at_long_times(self, d):
        # real dimensions 4, 16 and 64
        rng = np.random.default_rng(SEED + d)
        h_c = rand_hermitean(rng, d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho_c = g @ g.conj().T / np.trace(g @ g.conj().T).real
        phases = np.array([0.0, 3.7, -1e6, 1e6, -1e12, 1e12])
        self.check_against_reference(h_c, rho_c, phases / np.linalg.norm(h_c, 2),
                                     SymplecticForm(standard_complex_structure(d), 0.8))

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(SEED)
        d = 6
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        h_c = (q * np.array([1.0, 1.0, 1.0, -2.5, -2.5, 4.0])) @ q.conj().T
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho_c = g @ g.conj().T / np.trace(g @ g.conj().T).real
        phases = np.array([0.0, 2.9, 1e6, -1e12])
        self.check_against_reference(h_c, rho_c, phases / np.linalg.norm(h_c, 2),
                                     SymplecticForm(standard_complex_structure(d)))

    def test_evolve_is_the_matching_slice_of_the_grid(self):
        rng = np.random.default_rng(SEED)
        d = 4
        j = standard_complex_structure(d)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        observables = [h.matrix, rand_symmetric(rng, 2 * d)]
        times = np.linspace(-4.0, 9.0, 2 * dynamics._GRID_BLOCK + 3)
        blocks, columns = self.grid(rho0, h, observables, times, w)
        assert len(blocks) == 3
        for k in (0, 1, dynamics._GRID_BLOCK - 1, dynamics._GRID_BLOCK, len(times) - 1):
            rho_t = evolve(rho0, h, float(times[k]), w)
            assert rho_t.physical
            u = propagator(h, float(times[k]), w).u
            np.testing.assert_array_equal(rho_t.matrix, u @ rho0.matrix @ u.T)
            for a, column in zip(observables, columns):
                expected = np.trace(rho_t.matrix @ a)
                assert abs(column[k] - expected) <= 1e-13 * np.linalg.norm(a, 2)

    def test_phase_guard_names_first_offending_time(self):
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(2))
        h = hamiltonian(embed_matrix(rand_hermitean(rng, 2)), w.j)
        with pytest.raises(ConstraintError, match=r"at t = 1e\+300"):
            expectation_grid(rand_physical(rng, 2), h, [h.matrix], [0.0, 1.0, 1e300, np.inf], w)

    def test_rejects_non_commuting_hamiltonian(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        w = SymplecticForm(j)
        h = hamiltonian(np.diag([1.0, -1.0, 2.0, -2.0]), j)
        with pytest.raises(ConstraintError):
            expectation_grid(rand_physical(rng, 2), h, [h.matrix], [0.0, 1.0], w)
        with pytest.raises(ConstraintError):
            evolve(rand_physical(rng, 2), h, 1.0, w)

    def test_state_flagged_physical_that_is_not_is_rejected(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(np.diag([1.0, -0.5]).astype(complex)), j)
        m = np.diag([0.4, 0.1, 0.3, 0.2])  # each J pair has unequal diagonal entries
        assert np.linalg.norm(m @ j.matrix - j.matrix @ m) > 0.1
        # A direct build cannot flag it; flagged as if judged against another J,
        # evolve names the state, not the motion.
        flagged = _trusted(DensityMatrix, matrix=m, physical=True)
        with pytest.raises(ConstraintError, match="initial state does not commute"):
            evolve(flagged, h, 0.5, w)
        # Unflagged, it evolves; the grid carries its large antilinear part exactly.
        a = rand_symmetric(rng, 4)
        times = np.linspace(0.5, 3.0, dynamics._GRID_BLOCK + 5)
        _, (column,) = self.grid(DensityMatrix(matrix=m), h, [a], times, w)
        for k in (0, dynamics._GRID_BLOCK, len(times) - 1):
            rho_t = evolve(DensityMatrix(matrix=m), h, float(times[k]), w)
            assert not rho_t.physical
            assert abs(column[k] - np.trace(rho_t.matrix @ a)) <= 1e-13 * np.linalg.norm(a, 2)

    def test_unphysical_input_is_named_not_only_the_evolved_state(self):
        j = standard_complex_structure(2)
        h = hamiltonian(embed_matrix(np.diag([1.0, -0.5]).astype(complex)), j)
        m = np.diag([1.0, 0.0, 0.0, 0.0])
        # Its validator names it unphysical, so evolve blames nothing on the motion.
        rho0 = density_matrix(m, j)
        assert not rho0.physical and not evolve(rho0, h, 0.5, SymplecticForm(j)).physical

    def test_physical_input_judged_once_and_drift_names_the_evolved_state(self, monkeypatch):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, 2)), j)
        rho0 = rand_physical(rng, 2)
        calls = []
        stack = dynamics.state_stack
        monkeypatch.setattr(dynamics, "state_stack",
                            lambda *a, **k: calls.append(1) or stack(*a, **k))
        assert evolve(rho0, h, 0.5, w).physical
        assert len(calls) == 1
        # An orthogonal U that does not commute with J: the input is physical, its image not.
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        monkeypatch.setattr(dynamics, "propagator", lambda *a: SimpleNamespace(u=q))
        with pytest.raises(ConstraintError, match=r"not physical at t = 0\.5: \|\|\[rho, J\]\|\|"):
            evolve(rho0, h, 0.5, w)
        assert len(calls) == 2

    def test_state_judged_against_another_j_is_named(self, monkeypatch):
        rng = np.random.default_rng(SEED)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        j_rot = ComplexStructure(q @ standard_complex_structure(2).matrix @ q.T)
        w = SymplecticForm(j_rot)
        h = hamiltonian(q @ np.diag([1.0, 1.0, 2.0, 2.0]) @ q.T, j_rot)
        rho0 = physical_density_4d(0.25, 0.25, 0.1, 0.05)  # physical under the standard J
        assert rho0.physical and h.complex_linear
        calls = []
        stack = dynamics.state_stack
        monkeypatch.setattr(dynamics, "state_stack",
                            lambda *a, **k: calls.append(1) or stack(*a, **k))
        for t in (0.0, 0.5):
            with pytest.raises(ConstraintError, match=r"^the initial state does not commute "
                                                      r"with this complex structure"):
                evolve(rho0, h, t, w)
        assert len(calls) == 2
        # The same state judged against the rotated J evolves under it.
        rotated = density_matrix(q @ rho0.matrix @ q.T, j_rot)
        assert rotated.physical and evolve(rotated, h, 0.5, w).physical


class TestLiouvilleGrid:
    def test_rows_match_the_public_exponential(self):
        # Each row is exp(t H Omega) rho exp(t H Omega)^T bit for bit, through
        # the public expm, measured at the form's J.
        rng = np.random.default_rng(SEED)
        w = SymplecticForm(standard_complex_structure(2))
        x = np.diag([1.0, -1.0, 2.0, -2.0])
        rho0 = rand_physical(rng, 2)
        times = np.linspace(0.0, 1.0, 5)
        (block, stack), = liouville_grid(rho0, Hamiltonian(x), times, w)
        np.testing.assert_array_equal(block, times)
        for t, m, tr in zip(times, stack.matrices, stack.trace):
            v = expm(float(t) * (x @ w.omega))
            assert m.tobytes() == (v @ rho0.matrix @ v.T).tobytes()
            assert tr == pytest.approx(np.trace(m), abs=1e-15)
        assert stack.physical[0] and np.isfinite(stack.physicality_residual).all()
        assert abs(stack.trace[-1] - 1.0) > 1e-3

    @pytest.mark.parametrize("t", [1e300, np.inf, np.nan])
    def test_non_finite_generator_is_a_constraint_error(self, t):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        rho0 = rand_physical(rng, 2)
        with pytest.raises(ConstraintError, match="not finite"):
            flow_at(rho0.matrix, embed_matrix(rand_hermitean(rng, 2)), t, SymplecticForm(j))

    def test_asymmetric_generator_is_named_as_the_hamiltonian(self):
        # A raw asymmetric H was accepted and flowed as if it were a generator.
        rng = np.random.default_rng(SEED)
        h = rand_symmetric(rng, 4)
        h[0, 1] += 1e-3
        w = SymplecticForm(standard_complex_structure(2))
        with pytest.raises(ConstraintError, match="^Hamiltonian must be symmetric$"):
            flow_at(rand_physical(rng, 2).matrix, h, 0.1, w)

    def test_overflowing_exponential_is_a_constraint_error(self):
        # ||t H Omega|| = 800 sqrt(2) is finite, but exp(t H Omega) overflows.
        w = SymplecticForm(standard_complex_structure(1))
        with pytest.raises(ConstraintError, match=r"^flowed matrix is not finite at t = 800\.0$"):
            flow_at(np.eye(2) / 2.0, np.diag([1.0, -1.0]), 800.0, w)
