import decimal
import re

import numpy as np
import pytest

from realqm.dynamics import poisson_bracket, symplectic_form
from realqm.linalg import ConstraintError, expm, sym_eig
from realqm.oscillator import (
    OscillatorParams,
    build_canonical_pair,
    build_fermionic,
    design_spectrum,
    dual_picture,
    energy_levels,
    fermionic_propagator,
    lengths_from_energy,
    oscillator_hamiltonian,
    translation_operator,
    uncertainty_product,
)
from realqm.realify import classify, standard_complex_structure
from realqm.states import physical_density_4d, variance

SEED = 61424


def rand_state_params(rng):
    alpha = 0.5 * rng.random()
    beta = 0.5 - alpha
    r = np.sqrt(rng.random() * alpha * beta)
    ang = 2 * np.pi * rng.random()
    return alpha, beta, r * np.cos(ang), r * np.sin(ang)


class TestCanonicalPair:
    def test_four_dimensional_matrices(self):
        pair = build_canonical_pair([1.0, 2.0], OscillatorParams(hbar=1.0))
        np.testing.assert_array_equal(pair.x, np.diag([1.0, -1.0, 2.0, -2.0]))
        expected_p = 0.5 * np.array([
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.5, 0.0],
        ])
        np.testing.assert_array_equal(pair.p, expected_p)

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_canonical_bracket_exact(self, d):
        rng = np.random.default_rng(SEED + d)
        params = OscillatorParams(hbar=1.7)
        pair = build_canonical_pair(rng.uniform(0.1, 5.0, size=d), params)
        w = symplectic_form(standard_complex_structure(d), hbar=params.hbar)
        bracket = poisson_bracket(pair.x, pair.p, w)
        assert np.linalg.norm(bracket - np.eye(2 * d)) <= 1e-12

    def test_anticommutes_with_j(self):
        pair = build_canonical_pair([1.0, 0.3, 2.2], OscillatorParams())
        j = standard_complex_structure(3).matrix
        np.testing.assert_array_equal(pair.x @ j + j @ pair.x, np.zeros((6, 6)))
        np.testing.assert_array_equal(pair.p @ j + j @ pair.p, np.zeros((6, 6)))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConstraintError):
            build_canonical_pair([1.0, -0.5], OscillatorParams())


class TestHamiltonianAndLevels:
    def test_ground_level_at_matched_length(self):
        params = OscillatorParams()
        pair = build_canonical_pair([1.0 / np.sqrt(2.0)], params)
        h = oscillator_hamiltonian(pair, params)
        np.testing.assert_allclose(np.diag(h.matrix), [0.5, 0.5], atol=1e-15)

    def test_commutes_with_j_though_x_p_do_not(self):
        params = OscillatorParams()
        pair = build_canonical_pair([1.0, 2.0], params)
        h = oscillator_hamiltonian(pair, params)
        j = standard_complex_structure(2).matrix
        assert np.linalg.norm(h.matrix @ j - j @ h.matrix) == 0.0
        assert np.linalg.norm(pair.x @ j - j @ pair.x) > 1.0
        assert h.complex_linear

    def test_levels_formula(self):
        params = OscillatorParams()
        assert energy_levels([1.0], params)[0] == pytest.approx(0.625, abs=1e-15)

    def test_eigenvalues_match_levels(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(mass=1.5, omega=0.8, hbar=1.2)
        xis = rng.uniform(0.3, 3.0, size=4)
        pair = build_canonical_pair(xis, params)
        h = oscillator_hamiltonian(pair, params)
        vals, _ = sym_eig(h.matrix)
        expected = np.sort(np.repeat(energy_levels(xis, params), 2))
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_lower_bound_and_equality_point(self):
        params = OscillatorParams(mass=2.0, omega=3.0, hbar=0.5)
        rng = np.random.default_rng(SEED)
        xis = rng.uniform(0.05, 5.0, size=50)
        levels = energy_levels(xis, params)
        assert np.all(levels >= params.ground_energy - 1e-12)
        xi_star = np.sqrt(params.hbar / (2.0 * params.mass * params.omega))
        assert energy_levels([xi_star], params)[0] == pytest.approx(
            params.ground_energy, rel=1e-15)

    def test_two_lengths_per_energy(self):
        params = OscillatorParams()
        for xi in (0.3, 0.9, 2.4):
            partner = params.hbar / (2.0 * params.mass * params.omega * xi)
            assert energy_levels([xi], params)[0] == pytest.approx(
                energy_levels([partner], params)[0], rel=1e-13)


class TestLengthsFromEnergy:
    def test_degenerate_at_bound(self):
        params = OscillatorParams()
        xi_star = np.sqrt(params.hbar / (2.0 * params.mass * params.omega))
        for branch in ("plus", "minus"):
            assert lengths_from_energy(params.ground_energy, params, branch) \
                == pytest.approx(xi_star, rel=1e-12)

    def test_plus_branch_value(self):
        xi = lengths_from_energy(1.0, OscillatorParams(), "plus")
        assert xi == pytest.approx(np.sqrt((2.0 + np.sqrt(3.0)) / 2.0), rel=1e-15)
        assert xi == pytest.approx(1.3660254037844386, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(mass=0.7, omega=1.9, hbar=1.1)
        for energy in rng.uniform(params.ground_energy, 10.0, size=20):
            for branch in ("plus", "minus"):
                xi = lengths_from_energy(float(energy), params, branch)
                back = energy_levels([xi], params)[0]
                assert abs(back - energy) <= 1e-10 * energy

    def test_below_bound_rejected(self):
        with pytest.raises(ConstraintError, match="spectral bound"):
            lengths_from_energy(0.4, OscillatorParams())

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            lengths_from_energy(1.0, OscillatorParams(), "middle")

    @staticmethod
    def _exact(energy, params, branch):
        """xi from the textbook formula in 320-digit decimal arithmetic.

        hbar*w enters as its float product: next to the bound xi is so
        ill-conditioned that one rounding of that product shows."""
        with decimal.localcontext() as ctx:
            ctx.prec = 320
            e, m, w, hw = (decimal.Decimal(v) for v in
                           (energy, params.mass, params.omega, params.hbar * params.omega))
            root = (4 * e * e - hw * hw).sqrt()
            return float(((2 * e + (root if branch == "plus" else -root))
                          / (2 * m * w * w)).sqrt())

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_full_precision_from_bound_to_1e100(self, branch):
        rng = np.random.default_rng(SEED)
        for params in (OscillatorParams(), OscillatorParams(mass=0.7, omega=1.9, hbar=1.1)):
            bound = params.ground_energy
            energies = [bound, bound * (1 + 1e-15), bound * (1 + 1e-8)]
            energies += [float(e) for e in bound * 10.0 ** rng.uniform(0, 100, size=40)]
            for energy in energies:
                want = self._exact(energy, params, branch)
                got = lengths_from_energy(energy, params, branch)
                assert abs(got - want) <= 4e-16 * want, (energy, got, want)

    def test_minus_branch_keeps_its_digits(self):
        params = OscillatorParams()
        for energy in (1e6, 1e10, 1e100, 1e300):
            xi = lengths_from_energy(energy, params, "minus")
            # Both roots multiply to (hbar / (2 m w))^2.
            partner = lengths_from_energy(energy, params, "plus")
            assert xi * partner == pytest.approx(0.5, rel=1e-15)
            assert energy_levels([xi], params)[0] == pytest.approx(energy, rel=1e-14)

    @pytest.mark.parametrize("energy,params", [
        (1e308, OscillatorParams()),
        (1.0, OscillatorParams(omega=1e-308)),
        (1e200, OscillatorParams(mass=1e-200, omega=1e-100)),
    ], ids=["energy-1e308", "omega-1e-308", "mass-omega-tiny"])
    def test_length_outside_float_range_names_the_target(self, energy, params):
        with pytest.raises(ConstraintError, match=re.escape(f"target energy {energy!r} gives a length")):
            lengths_from_energy(energy, params, "plus")

    def test_minus_root_needs_no_finite_plus_root(self):
        # The plus length squared overflows; the minus one is hbar^2 / (8 m E) here.
        xi = lengths_from_energy(1.0, OscillatorParams(omega=1e-308), "minus")
        assert xi == pytest.approx(np.sqrt(1.0 / 8.0), rel=1e-15)


class TestDesignSpectrum:
    def test_single_ground_target(self):
        xis = design_spectrum([0.5], OscillatorParams())
        np.testing.assert_allclose(xis, [1.0 / np.sqrt(2.0)], rtol=1e-15)

    def test_two_targets(self):
        params = OscillatorParams()
        xis = design_spectrum([0.625, 2.0], params)
        assert xis[0] == pytest.approx(1.0, rel=1e-12)  # plus branch of 0.625
        pair = build_canonical_pair(xis, params)
        h = oscillator_hamiltonian(pair, params)
        vals, _ = sym_eig(h.matrix)
        np.testing.assert_allclose(vals, [0.625, 0.625, 2.0, 2.0], rtol=1e-12)

    def test_standard_ladder_as_special_case(self):
        params = OscillatorParams()
        targets = [(n + 0.5) * params.hbar * params.omega for n in range(5)]
        xis = design_spectrum(targets, params)
        back = energy_levels(xis, params)
        np.testing.assert_allclose(back, targets, rtol=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams()
        for _ in range(20):
            size = int(rng.integers(1, 9))
            targets = rng.uniform(params.ground_energy, 10.0 * params.hbar
                                  * params.omega, size=size)
            back = energy_levels(design_spectrum(targets, params), params)
            assert np.max(np.abs(back - targets) / targets) <= 1e-10

    def test_per_level_branch_list(self):
        params = OscillatorParams()
        xis = design_spectrum([2.0, 2.0], params, ["plus", "minus"])
        assert xis[0] > xis[1]
        np.testing.assert_allclose(energy_levels(xis, params), [2.0, 2.0], rtol=1e-12)

    def test_rejects_target_below_bound(self):
        with pytest.raises(ConstraintError):
            design_spectrum([0.5, 0.4], OscillatorParams())


class TestUncertainty:
    def test_equal_lengths_reach_the_floor(self):
        params = OscillatorParams(hbar=1.4)
        value = uncertainty_product(0.3, 0.2, 0.1, 0.05, [1.7, 1.7], params)
        assert value == pytest.approx(params.hbar / 2.0, abs=1e-12)

    def test_reference_value(self):
        value = uncertainty_product(0.25, 0.25, 0.0, 0.0, [1.0, 2.0],
                                    OscillatorParams())
        assert value == pytest.approx(0.625, abs=1e-15)

    def test_closed_form_matches_direct_variances(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams()
        for _ in range(1000):
            alpha, beta, gamma, delta = rand_state_params(rng)
            xis = rng.uniform(0.2, 3.0, size=2)
            closed = uncertainty_product(alpha, beta, gamma, delta, xis, params)
            rho = physical_density_4d(alpha, beta, gamma, delta)
            pair = build_canonical_pair(xis, params)
            direct = np.sqrt(variance(rho, pair.x) * variance(rho, pair.p))
            assert abs(closed - direct) <= 1e-10
            assert closed >= params.hbar / 2.0 - 1e-12

    def test_invalid_state_rejected(self):
        with pytest.raises(ConstraintError):
            uncertainty_product(0.3, 0.3, 0.0, 0.0, [1.0, 1.0], OscillatorParams())


class TestTranslation:
    def test_zero_distance(self):
        params = OscillatorParams()
        pair = build_canonical_pair([1.0, 1.0], params)
        j = standard_complex_structure(2)
        np.testing.assert_array_equal(translation_operator(pair, 0.0, j), np.eye(4))

    def test_symplectic_but_far_from_orthogonal(self):
        params = OscillatorParams()
        pair = build_canonical_pair([1.0, 1.0], params)
        j = standard_complex_structure(2)
        u = translation_operator(pair, 1.0, j, hbar=1.0)
        flags = classify(u, j)
        assert flags.symplectic
        assert not flags.orthogonal
        assert np.linalg.norm(u.T @ u - np.eye(4)) > 0.1
        assert np.linalg.norm(u.T @ j.matrix @ u - j.matrix) <= 1e-9

    def test_generator_is_symmetric(self):
        pair = build_canonical_pair([0.7, 1.3], OscillatorParams())
        j = standard_complex_structure(2)
        jp = j.matrix @ pair.p
        assert np.linalg.norm(jp.T - jp) <= 1e-12


class TestFermionicStructure:
    def test_commuting_unit_matrix(self):
        fs = build_fermionic(1.0, OscillatorParams())
        expected = np.array([
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(fs.commuting_unit, expected)
        np.testing.assert_array_equal(fs.commuting_unit @ fs.commuting_unit, -np.eye(4))
        np.testing.assert_array_equal(fs.commuting_unit.T, -fs.commuting_unit)

    def test_unit_commutes_with_pair(self):
        fs = build_fermionic(0.8, OscillatorParams())
        k = fs.commuting_unit
        np.testing.assert_array_equal(k @ fs.x, fs.x @ k)
        np.testing.assert_array_equal(k @ fs.p, fs.p @ k)

    def test_square_relations(self):
        params = OscillatorParams(hbar=1.3)
        fs = build_fermionic(0.9, params)
        eye = np.eye(4)
        assert np.linalg.norm(fs.x @ fs.x - fs.xi**2 * eye) <= 1e-12
        assert np.linalg.norm(fs.p @ fs.p
                              - (params.hbar**2 / (4.0 * fs.xi**2)) * eye) <= 1e-12
        assert np.linalg.norm(fs.x @ fs.p + fs.p @ fs.x) <= 1e-12

    def test_anticommutation_relations(self):
        fs = build_fermionic(1.4, OscillatorParams(hbar=0.6))
        eye = np.eye(4)
        np.testing.assert_array_equal(fs.raising, fs.lowering.T)
        assert np.linalg.norm(fs.lowering @ fs.raising
                              + fs.raising @ fs.lowering - eye) <= 1e-12
        assert np.linalg.norm(fs.lowering @ fs.lowering) <= 1e-12
        assert np.linalg.norm(fs.raising @ fs.raising) <= 1e-12

    def test_three_hamiltonian_forms_agree(self):
        params = OscillatorParams(mass=1.1, omega=2.3, hbar=0.7)
        fs = build_fermionic(1.2, params)
        eye = np.eye(4)
        ladder = params.hbar * params.omega * (fs.raising @ fs.lowering - eye / 2.0)
        bracket = -(params.omega / 2.0) * fs.commuting_unit @ (
            fs.x @ fs.p - fs.p @ fs.x)
        unit = 0.5 * params.hbar * params.omega * (
            standard_complex_structure(2).matrix @ fs.commuting_unit)
        assert np.linalg.norm(ladder - bracket) <= 1e-12
        assert np.linalg.norm(bracket - unit) <= 1e-12
        assert np.linalg.norm(ladder - unit) <= 1e-12
        np.testing.assert_allclose(fs.hamiltonian, unit, atol=1e-15)

    def test_hamiltonian_spectrum(self):
        params = OscillatorParams(omega=2.0, hbar=1.5)
        fs = build_fermionic(1.0, params)
        vals, _ = sym_eig(fs.hamiltonian)
        half = params.hbar * params.omega / 2.0
        np.testing.assert_allclose(vals, [-half, -half, half, half], atol=1e-12)

    def test_swap_conjugates_the_units(self):
        fs = build_fermionic(1.0, OscillatorParams())
        s = fs.basis_swap
        np.testing.assert_array_equal(s @ s, np.eye(4))
        j = standard_complex_structure(2).matrix
        np.testing.assert_array_equal(s @ j @ s, fs.commuting_unit)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConstraintError):
            build_fermionic(0.0, OscillatorParams())


class TestFermionicPropagator:
    def test_time_zero(self):
        fs = build_fermionic(1.0, OscillatorParams())
        np.testing.assert_array_equal(fermionic_propagator(fs, 0.0), np.eye(4))

    def test_both_exponential_forms_agree(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(omega=1.7, hbar=0.9)
        fs = build_fermionic(1.1, params)
        j = standard_complex_structure(2).matrix
        for t in rng.uniform(-6.0, 6.0, size=10):
            via_k = fermionic_propagator(fs, float(t))
            via_h = expm(-(t / params.hbar) * (j @ fs.hamiltonian))
            assert np.linalg.norm(via_k - via_h) <= 1e-10

    def test_closed_form_matches_expm(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(omega=1.7, hbar=0.9)
        fs = build_fermionic(1.1, params)
        j = standard_complex_structure(2).matrix
        for t in rng.uniform(-6.0, 6.0, size=10):
            via_h = expm(-(t / params.hbar) * (j @ fs.hamiltonian))
            u = fermionic_propagator(fs, float(t))
            assert np.linalg.norm(u - via_h) <= 1e-14
            np.testing.assert_array_equal(fermionic_propagator(fs, -float(t)), u.T)

    def test_orthogonal(self):
        fs = build_fermionic(1.0, OscillatorParams())
        u = fermionic_propagator(fs, 2.9)
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-9

    def test_period(self):
        params = OscillatorParams(omega=1.3)
        fs = build_fermionic(1.0, params)
        u = fermionic_propagator(fs, 4.0 * np.pi / params.omega)
        assert np.linalg.norm(u - np.eye(4)) <= 1e-8


class TestDualPicture:
    def test_energy_trace(self):
        fs = build_fermionic(1.0, OscillatorParams())
        report = dual_picture(0.25, 0.25, 0.0, 0.25, fs, 0.0)
        assert report.energy == pytest.approx(0.5, abs=1e-14)
        assert report.energy_tilde == pytest.approx(0.5, abs=1e-14)

    def test_position_expectations_differ(self):
        fs = build_fermionic(1.0, OscillatorParams())
        report = dual_picture(0.5, 0.0, 0.0, 0.0, fs, 0.0)
        assert report.x_expectation == pytest.approx(0.0, abs=1e-14)
        assert report.x_expectation_tilde == pytest.approx(1.0, abs=1e-14)

    def test_swapped_state_commutes_with_k(self):
        rng = np.random.default_rng(SEED)
        fs = build_fermionic(1.0, OscillatorParams())
        for _ in range(10):
            alpha, beta, gamma, delta = rand_state_params(rng)
            report = dual_picture(alpha, beta, gamma, delta, fs, 0.0)
            k = fs.commuting_unit
            assert np.linalg.norm(report.rho_tilde @ k - k @ report.rho_tilde) <= 1e-12
            assert report.energy == pytest.approx(2.0 * delta, abs=1e-12)
            assert report.energy_tilde == pytest.approx(2.0 * delta, abs=1e-12)
            assert report.x_expectation == pytest.approx(0.0, abs=1e-12)
            assert report.x_expectation_tilde == pytest.approx(
                2.0 * (alpha - beta) * fs.xi, abs=1e-12)

    def test_diagonal_case_swaps_the_unit(self):
        # gamma = delta = 0: the swap turns diag(a, a, b, b) into
        # diag(a, b, a, b), which commutes with K instead of with J
        fs = build_fermionic(1.0, OscillatorParams())
        report = dual_picture(0.3, 0.2, 0.0, 0.0, fs, 0.0)
        np.testing.assert_array_equal(report.rho_tilde, np.diag([0.3, 0.2, 0.3, 0.2]))
        j = standard_complex_structure(2).matrix
        k = fs.commuting_unit
        assert np.linalg.norm(report.rho @ j - j @ report.rho) <= 1e-12
        assert np.linalg.norm(report.rho_tilde @ k - k @ report.rho_tilde) <= 1e-12
        assert np.linalg.norm(report.rho_tilde @ j - j @ report.rho_tilde) > 0.1

    def test_maximally_mixed_case_commutes_with_both_units(self):
        fs = build_fermionic(1.0, OscillatorParams())
        report = dual_picture(0.25, 0.25, 0.0, 0.0, fs, 0.0)
        j = standard_complex_structure(2).matrix
        k = fs.commuting_unit
        for state in (report.rho, report.rho_tilde):
            assert np.linalg.norm(state @ j - j @ state) <= 1e-12
            assert np.linalg.norm(state @ k - k @ state) <= 1e-12

    def test_evolution_consistency(self):
        # the swapped picture evolves with the swapped propagator
        rng = np.random.default_rng(SEED)
        fs = build_fermionic(1.0, OscillatorParams(omega=0.8))
        s = fs.basis_swap
        for t in rng.uniform(-5.0, 5.0, size=5):
            alpha, beta, gamma, delta = rand_state_params(rng)
            report = dual_picture(alpha, beta, gamma, delta, fs, float(t))
            np.testing.assert_allclose(s @ report.rho_t @ s, report.rho_tilde_t,
                                       atol=1e-12)
            assert np.trace(report.rho_t @ fs.hamiltonian) == pytest.approx(
                np.trace(report.rho_tilde_t @ fs.hamiltonian), abs=1e-10)
