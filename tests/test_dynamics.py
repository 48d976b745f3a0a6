import numpy as np
import pytest

from realqm.dynamics import (
    evolve,
    hamiltonian,
    jacobi_residual,
    liouville_flow,
    liouville_rhs,
    poisson_bracket,
    propagator,
    symplectic_form,
    symplectic_lie_form_check,
)
from realqm.linalg import ConstraintError, sym_eig
from realqm.oscillator import (
    OscillatorParams,
    build_canonical_pair,
    design_spectrum,
    oscillator_hamiltonian,
)
from realqm.realify import (
    ComplexMatrixRep,
    embed_matrix,
    extract_matrix,
    standard_complex_structure,
)
from realqm.states import physical_from_complex

SEED = 3177


def rand_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def rand_hermitean(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def rand_physical(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return physical_from_complex(ComplexMatrixRep.from_complex(rho / np.trace(rho).real))


def embed_c(a):
    return embed_matrix(ComplexMatrixRep.from_complex(a))


class TestPoissonBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(SEED)
        w = symplectic_form(standard_complex_structure(3))
        a = rand_symmetric(rng, 6)
        np.testing.assert_allclose(poisson_bracket(a, a, w), np.zeros((6, 6)), atol=0)

    def test_canonical_pair(self):
        params = OscillatorParams(hbar=0.7)
        pair = build_canonical_pair([1.0, 2.0, 0.5], params)
        w = symplectic_form(standard_complex_structure(3), hbar=0.7)
        np.testing.assert_allclose(poisson_bracket(pair.x, pair.p, w), np.eye(6),
                                   atol=1e-15)

    def test_matches_complex_commutator(self):
        # on embedded Hermitean matrices the bracket is -(i/hbar)[A, B]
        rng = np.random.default_rng(SEED)
        hbar = 2.0
        d = 3
        w = symplectic_form(standard_complex_structure(d), hbar=hbar)
        a_c = rand_hermitean(rng, d)
        b_c = rand_hermitean(rng, d)
        bracket = poisson_bracket(embed_c(a_c), embed_c(b_c), w)
        oracle = embed_c(-1j / hbar * (a_c @ b_c - b_c @ a_c))
        np.testing.assert_allclose(bracket, oracle, atol=1e-12)

    def test_symmetric_output_and_antisymmetry(self):
        rng = np.random.default_rng(SEED)
        w = symplectic_form(standard_complex_structure(4))
        a = rand_symmetric(rng, 8)
        b = rand_symmetric(rng, 8)
        br = poisson_bracket(a, b, w)
        scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
        assert np.linalg.norm(br - br.T) <= 1e-10 * scale
        np.testing.assert_array_equal(br, -poisson_bracket(b, a, w))

    def test_rejects_nonsymmetric(self):
        w = symplectic_form(standard_complex_structure(1))
        with pytest.raises(ValueError):
            poisson_bracket(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), w)


class TestJacobiIdentity:
    def test_repeated_argument(self):
        rng = np.random.default_rng(SEED)
        w = symplectic_form(standard_complex_structure(2))
        a = rand_symmetric(rng, 4)
        b = rand_symmetric(rng, 4)
        assert jacobi_residual(a, a, b, w) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_random_triples(self, n):
        rng = np.random.default_rng(SEED + n)
        w = symplectic_form(standard_complex_structure(n // 2))
        for _ in range(10):
            a = rand_symmetric(rng, n)
            b = rand_symmetric(rng, n)
            c = rand_symmetric(rng, n)
            scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c))
            assert jacobi_residual(a, b, c, w) <= 1e-9 * scale

    def test_canonical_triple(self):
        params = OscillatorParams()
        pair = build_canonical_pair([1.0, 2.0], params)
        h = oscillator_hamiltonian(pair, params)
        w = symplectic_form(standard_complex_structure(2))
        assert jacobi_residual(pair.x, pair.p, h.matrix, w) <= 1e-9


class TestSymplecticLieForm:
    def test_equal_arguments(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        a = rand_symmetric(rng, 4)
        assert symplectic_lie_form_check(a, a, np.zeros((4, 4)), j)

    def test_canonical_pair_with_identity(self):
        params = OscillatorParams()
        pair = build_canonical_pair([1.0, 0.5], params)
        j = standard_complex_structure(2)
        assert symplectic_lie_form_check(pair.x, pair.p, np.eye(4), j, hbar=params.hbar)

    def test_random_brackets(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        hbar = 1.3
        w = symplectic_form(j, hbar=hbar)
        for _ in range(5):
            a = rand_symmetric(rng, 6)
            b = rand_symmetric(rng, 6)
            c = poisson_bracket(a, b, w)
            assert symplectic_lie_form_check(a, b, c, j, hbar=hbar)


class TestLiouvilleRhs:
    def test_scaled_identity_is_stationary(self):
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        w = symplectic_form(j)
        h = hamiltonian(embed_c(rand_hermitean(rng, d)), j)
        rho = physical_from_complex(
            ComplexMatrixRep.from_complex(np.eye(d, dtype=complex) / d))
        np.testing.assert_allclose(liouville_rhs(h, rho, w), np.zeros((2 * d, 2 * d)),
                                   atol=1e-14)

    def test_traceless_for_complex_linear_hamiltonian(self):
        rng = np.random.default_rng(SEED)
        d = 4
        j = standard_complex_structure(d)
        w = symplectic_form(j)
        h = hamiltonian(embed_c(rand_hermitean(rng, d)), j)
        rho = rand_physical(rng, d)
        assert abs(np.trace(liouville_rhs(h, rho, w))) <= 1e-12

    def test_matches_finite_difference_of_flow(self):
        rng = np.random.default_rng(SEED)
        d = 2
        j = standard_complex_structure(d)
        w = symplectic_form(j)
        h = hamiltonian(embed_c(rand_hermitean(rng, d)), j)
        rho = rand_physical(rng, d)
        dt = 1e-4
        fwd = evolve(rho, h, dt, j).matrix
        bwd = evolve(rho, h, -dt, j).matrix
        centered = (fwd - bwd) / (2.0 * dt)
        # centered difference is exact to O(dt^2)
        assert np.linalg.norm(liouville_rhs(h, rho, w) - centered) <= 1e-6


class TestPropagator:
    def test_time_zero(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        h = hamiltonian(embed_c(rand_hermitean(rng, 2)), j)
        np.testing.assert_array_equal(propagator(h, 0.0, j).u, np.eye(4))

    def test_oscillator_blocks_rotate(self):
        params = OscillatorParams(hbar=0.5)
        pair = build_canonical_pair([1.0, 2.0], params)
        h = oscillator_hamiltonian(pair, params)
        j = standard_complex_structure(2)
        t = 0.8
        u = propagator(h, t, j, hbar=params.hbar).u
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
        h = hamiltonian(embed_c(rand_hermitean(rng, 3)), j)
        for s, t in rng.uniform(-3.0, 3.0, size=(5, 2)):
            lhs = propagator(h, s, j).u @ propagator(h, t, j).u
            np.testing.assert_allclose(lhs, propagator(h, s + t, j).u, atol=1e-10)

    def test_orthogonal_and_symplectic_over_long_times(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(3)
        h = hamiltonian(embed_c(rand_hermitean(rng, 3)), j)
        t = 50.0 / np.linalg.norm(h.matrix)
        u = propagator(h, t, j).u
        assert np.linalg.norm(u.T @ u - np.eye(6)) <= 1e-8
        assert np.linalg.norm(u.T @ j.matrix @ u - j.matrix) <= 1e-8
        np.testing.assert_allclose(u @ propagator(h, -t, j).u, np.eye(6), atol=1e-10)

    def test_rejects_non_commuting_hamiltonian(self):
        j = standard_complex_structure(2)
        x = np.diag([1.0, -1.0, 2.0, -2.0])  # anticommutes with J
        h = hamiltonian(x, j)
        assert not h.complex_linear
        with pytest.raises(ConstraintError):
            propagator(h, 1.0, j)

    def test_degenerate_oscillator_spectrum(self):
        # duplicate targets give fourfold-degenerate levels on the real side
        params = OscillatorParams(hbar=0.7)
        targets = [1.5, 1.5, 0.9]
        h = oscillator_hamiltonian(
            build_canonical_pair(design_spectrum(targets, params), params), params)
        j = standard_complex_structure(3)
        t = 2.3
        u = propagator(h, t, j, hbar=params.hbar).u
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
        h = hamiltonian(embed_c(rand_hermitean(rng, 2)), j)
        with pytest.raises(ConstraintError, match="phase"):
            propagator(h, t, j)

    def test_zero_hamiltonian_accepts_huge_time(self):
        j = standard_complex_structure(2)
        h = hamiltonian(np.zeros((4, 4)), j)
        np.testing.assert_array_equal(propagator(h, 1e300, j).u, np.eye(4))


class TestEvolve:
    def test_stationary_state(self):
        d = 3
        j = standard_complex_structure(d)
        h_c = np.diag([1.0 + 0j, 2.0, 3.0])
        h = hamiltonian(embed_c(h_c), j)
        rho0 = physical_from_complex(
            ComplexMatrixRep.from_complex(np.diag([0.5 + 0j, 0.3, 0.2])))
        rho_t = evolve(rho0, h, 2.7, j)
        np.testing.assert_allclose(rho_t.matrix, rho0.matrix, atol=1e-12)

    def test_trace_and_physicality_preserved(self):
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        h = hamiltonian(embed_c(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        for t in rng.uniform(-10.0, 10.0, size=8):
            rho_t = evolve(rho0, h, float(t), j)
            assert np.trace(rho_t.matrix) == pytest.approx(1.0, abs=1e-10)
            assert rho_t.physical
            assert np.linalg.norm(rho_t.matrix @ j.matrix
                                  - j.matrix @ rho_t.matrix) <= 1e-9

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(SEED)
        d = 2
        j = standard_complex_structure(d)
        h = hamiltonian(embed_c(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        before, _ = sym_eig(rho0.matrix)
        after, _ = sym_eig(evolve(rho0, h, 3.3, j).matrix)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_conserved_observable(self):
        # [A, H] = 0 and [A, J] = 0 make Tr(rho A) time independent
        rng = np.random.default_rng(SEED)
        d = 3
        j = standard_complex_structure(d)
        h_c = rand_hermitean(rng, d)
        h = hamiltonian(embed_c(h_c), j)
        a = embed_c(h_c @ h_c)  # a polynomial in H commutes with it
        rho0 = rand_physical(rng, d)
        reference = float(np.trace(rho0.matrix @ a))
        for t in (0.5, 2.0, 7.5):
            value = float(np.trace(evolve(rho0, h, t, j).matrix @ a))
            assert value == pytest.approx(reference, abs=1e-9)


def generic_hamiltonian(j):
    rng = np.random.default_rng(SEED + 1)
    return hamiltonian(embed_c(rand_hermitean(rng, j.d)), j)


def oscillator_1_2(j):
    params = OscillatorParams()
    return oscillator_hamiltonian(build_canonical_pair([1.0, 2.0], params), params)


class TestLongTimeEvolve:
    """Evolution at phases |t| ||H||_2 / hbar far beyond one period."""

    @staticmethod
    def reference(rho_c, h, t, j):
        # complex e^{-iHt} rho e^{iHt}, embedded with the halved trace
        w, v = np.linalg.eigh(extract_matrix(h.matrix, j).to_complex())
        u_c = (v * np.exp(-1j * w * t)) @ v.conj().T
        return embed_c(u_c @ rho_c @ u_c.conj().T) / 2.0

    @pytest.mark.parametrize("build,d", [(generic_hamiltonian, 4), (oscillator_1_2, 2)])
    @pytest.mark.parametrize("phase", [3.7, 1e6, 1e12])
    def test_trace_and_physicality_hold(self, build, d, phase):
        rng = np.random.default_rng(SEED + 2)
        j = standard_complex_structure(d)
        h = build(j)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho_c = g @ g.conj().T / np.trace(g @ g.conj().T).real
        rho0 = physical_from_complex(ComplexMatrixRep.from_complex(rho_c))
        t = -phase / np.linalg.norm(h.matrix, 2)
        rho_t = evolve(rho0, h, t, j).matrix
        assert abs(np.trace(rho_t) - 1.0) <= 1e-12
        assert np.linalg.norm(rho_t @ j.matrix - j.matrix @ rho_t) <= 1e-12
        # phase roundoff grows like phase * eps, so the comparison with the
        # complex reference is tight only at moderate times
        err = np.linalg.norm(rho_t - self.reference(rho_c, h, t, j))
        assert err <= max(1e-12, 1e-14 * phase)


class TestLiouvilleFlow:
    def test_matches_evolve_for_complex_linear_hamiltonian(self):
        rng = np.random.default_rng(SEED)
        d = 2
        j = standard_complex_structure(d)
        w = symplectic_form(j)
        h = hamiltonian(embed_c(rand_hermitean(rng, d)), j)
        rho0 = rand_physical(rng, d)
        flowed = liouville_flow(rho0.matrix, h.matrix, 1.7, w)
        np.testing.assert_allclose(flowed, evolve(rho0, h, 1.7, j).matrix, atol=1e-12)

    def test_non_commuting_generator_drifts_trace(self):
        rng = np.random.default_rng(SEED)
        j = standard_complex_structure(2)
        w = symplectic_form(j)
        x = np.diag([1.0, -1.0, 2.0, -2.0])
        rho0 = rand_physical(rng, 2)
        flowed = liouville_flow(rho0.matrix, x, 1.0, w)
        assert abs(np.trace(flowed) - 1.0) > 1e-3
        # still symmetric even though unphysical
        assert np.linalg.norm(flowed - flowed.T) <= 1e-12
