import decimal
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from realqm.dynamics import SymplecticForm, hamiltonian, poisson_bracket
from realqm.linalg import ConstraintError, expm, sym_eig
from realqm.oscillator import (
    _check_lengths,
    CanonicalPair,
    FermionicStructure,
    OscillatorParams,
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

from helpers import rand_state_params

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SEED = 61424
EPS = float(np.finfo(float).eps)

# The fields a FermionicStructure derives from its length and params.
FERMIONIC_MATRICES = ("x", "p", "commuting_unit", "lowering", "raising", "hamiltonian",
                      "basis_swap")

# A natural log, up to e^+-300, of a length or a parameter.
log_scale = st.floats(-300.0, 300.0)


# The stated-matrix routes the derived types replaced, kept verbatim as the
# references of the bit-for-bit tests; each returns its fields by name
# where it built a `CanonicalPair` or `FermionicStructure`.
def ref_canonical_pair(xis, params: OscillatorParams):
    xis = _check_lengths(xis)
    d = xis.size
    x = np.zeros((2 * d, 2 * d))
    p = np.zeros((2 * d, 2 * d))
    for i, xi in enumerate(xis):
        x[2 * i, 2 * i] = xi
        x[2 * i + 1, 2 * i + 1] = -xi
        p[2 * i, 2 * i + 1] = params.hbar / (2.0 * xi)
        p[2 * i + 1, 2 * i] = params.hbar / (2.0 * xi)
    return SimpleNamespace(x=x, p=p)


def ref_oscillator_hamiltonian(pair, params: OscillatorParams):
    with np.errstate(over="ignore", invalid="ignore"):
        m = pair.p @ pair.p / (2.0 * params.mass)
        m = m + 0.5 * params.mass * (params.omega * params.omega) * (pair.x @ pair.x)
    if not np.isfinite(m).all():
        raise ConstraintError("the oscillator Hamiltonian is not finite at these parameters")
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        return hamiltonian(m, standard_complex_structure(m.shape[0] // 2))


def ref_fermionic(xi: float, params: OscillatorParams):
    xi = float(xi)
    if not 0.0 < xi < np.inf:
        raise ConstraintError("length must be positive")
    pair = ref_canonical_pair([xi, xi], params)
    k = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    swap = np.eye(4)[[0, 2, 1, 3]]
    kp = k @ pair.p
    lowering = pair.x / (2.0 * xi) - (xi / params.hbar) * kp
    raising = pair.x / (2.0 * xi) + (xi / params.hbar) * kp
    j4 = standard_complex_structure(2).matrix
    h_prime = 0.5 * params.hbar * params.omega * (j4 @ k)
    return SimpleNamespace(
        xi=xi,
        params=params,
        x=pair.x,
        p=pair.p,
        commuting_unit=k,
        lowering=lowering,
        raising=raising,
        hamiltonian=h_prime,
        basis_swap=swap,
    )


def ref_translation_operator(pair, distance, w: SymplecticForm):
    # The eigensolver route, with J and hbar from the form: the norm-wise
    # reference of the closed form.
    k, v = sym_eig(w.j.matrix @ pair.p)
    return np.eye(pair.dim) + (v * np.expm1(-(distance / w.hbar) * k)) @ v.T


def mp_translation(pair, distance):
    """The diagonal of exp(-(d/hbar) J p) in 50-digit arithmetic, from the
    exact generator of the pair's float lengths, its hbar and the standard J;
    that generator is checked to be diagonal first."""
    n, hbar = pair.dim, pair.params.hbar
    j = standard_complex_structure(n // 2).matrix
    with mpmath.workdps(50):
        p = mpmath.zeros(n, n)
        for i, xi in enumerate(pair.lengths):
            p[2 * i, 2 * i + 1] = p[2 * i + 1, 2 * i] = mpmath.mpf(hbar) / (2 * mpmath.mpf(xi))
        g = -(mpmath.mpf(distance) / mpmath.mpf(hbar)) * (mpmath.matrix(j.tolist()) * p)
        assert all(g[a, b] == 0 for a in range(n) for b in range(n) if a != b)
        return [mpmath.exp(g[a, a]) for a in range(n)]


def assert_translation_per_entry(u, pair, distance):
    """Each diagonal entry within 2 (1 + |d/(2 xi)|) eps of the 50-digit
    value, relative, and every other entry exactly zero."""
    want = mp_translation(pair, distance)
    assert not (u - np.diag(np.diag(u))).any()
    for a, w in enumerate(want):
        bound = 2.0 * (1.0 + abs(distance / (2.0 * pair.lengths[a // 2]))) * EPS
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(u[a, a]) - w) <= bound * w, (a, u[a, a], w)


def raises_alike(reference, *calls):
    """The reference's value, after checking that it raises exactly when each
    call does, with the same ConstraintError message."""
    try:
        want = reference()
    except ConstraintError as exc:
        for call in calls:
            with pytest.raises(ConstraintError, match=f"^{re.escape(str(exc))}$"):
                call()
        return None
    return want


class TestCanonicalPair:
    def test_four_dimensional_matrices(self):
        pair = CanonicalPair([1.0, 2.0], OscillatorParams(hbar=1.0))
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
        pair = CanonicalPair(rng.uniform(0.1, 5.0, size=d), params)
        w = SymplecticForm(standard_complex_structure(d), hbar=params.hbar)
        bracket = poisson_bracket(pair.x, pair.p, w)
        assert np.linalg.norm(bracket - np.eye(2 * d)) <= 1e-12

    def test_anticommutes_with_j(self):
        pair = CanonicalPair([1.0, 0.3, 2.2], OscillatorParams())
        j = standard_complex_structure(3).matrix
        np.testing.assert_array_equal(pair.x @ j + j @ pair.x, np.zeros((6, 6)))
        np.testing.assert_array_equal(pair.p @ j + j @ pair.p, np.zeros((6, 6)))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConstraintError):
            CanonicalPair([1.0, -0.5], OscillatorParams())


class TestHamiltonianAndLevels:
    def test_ground_level_at_matched_length(self):
        params = OscillatorParams()
        pair = CanonicalPair([1.0 / np.sqrt(2.0)], params)
        h = oscillator_hamiltonian(pair)
        np.testing.assert_allclose(np.diag(h.matrix), [0.5, 0.5], atol=1e-15)

    def test_commutes_with_j_though_x_p_do_not(self):
        params = OscillatorParams()
        pair = CanonicalPair([1.0, 2.0], params)
        h = oscillator_hamiltonian(pair)
        j = standard_complex_structure(2).matrix
        assert np.linalg.norm(h.matrix @ j - j @ h.matrix) == 0.0
        assert np.linalg.norm(pair.x @ j - j @ pair.x) > 1.0
        assert h.complex_linear

    @pytest.mark.parametrize("xi, omega", [(1e200, 1.0), (1e-200, 1.0), (1.0, 1e160)])
    def test_hamiltonian_that_overflows_is_a_domain_error(self, xi, omega):
        params = OscillatorParams(omega=omega)
        pair = CanonicalPair([xi, 1.0], params)
        with pytest.raises(ConstraintError, match="^the oscillator Hamiltonian is not "
                                                  "finite at these parameters$"):
            oscillator_hamiltonian(pair)
        with pytest.raises(ConstraintError, match="^the oscillator Hamiltonian is not "
                                                  "finite at these parameters$"):
            energy_levels([xi, 1.0], params)  # each level, one of them inf, was returned

    @pytest.mark.parametrize("name", ["x", "p"])
    def test_a_pair_takes_lengths_not_matrices(self, name):
        # x and p are derived from the lengths, so no build can state them inconsistently.
        with pytest.raises(TypeError, match=f"'{name}'"):
            CanonicalPair([1.0, 2.0], OscillatorParams(), **{name: np.eye(4)})
        pair = CanonicalPair([1.0, 2.0], OscillatorParams())
        with pytest.raises(AttributeError):
            setattr(pair, name, np.eye(4))
        with pytest.raises(ValueError, match="read-only"):
            getattr(pair, name)[0, 0] = 5.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(log_scale, min_size=1, max_size=6), log_scale, log_scale, log_scale)
    def test_diagonal_is_the_dense_diagonal_bit_for_bit(self, log_xis, log_m, log_w, log_hbar):
        # The reference is the dense route `spectrum` and `oscillator_hamiltonian`
        # took, from the pair the loop built, kept above: its x, p and H, or its
        # ConstraintError where H is not finite.
        params = OscillatorParams(*np.exp([log_m, log_w, log_hbar]))
        xis = np.exp(log_xis)
        ref, pair = ref_canonical_pair(xis, params), CanonicalPair(xis, params)
        assert pair.x.tobytes() == ref.x.tobytes() and pair.p.tobytes() == ref.p.tobytes()
        assert pair.dim == ref.x.shape[0]
        want = raises_alike(lambda: ref_oscillator_hamiltonian(ref, params),
                            lambda: energy_levels(xis, params),
                            lambda: oscillator_hamiltonian(pair))
        if want is not None:
            h = oscillator_hamiltonian(pair)
            assert h.matrix.tobytes() == want.matrix.tobytes()
            assert h.complex_linear is want.complex_linear is True
            assert energy_levels(xis, params).repeat(2).tobytes() == np.diag(want.matrix).tobytes()

    @pytest.mark.parametrize("xis", [[1.0, 0.0], [-1.0], [1.0, np.nan], [np.inf], [-0.0]])
    def test_bad_lengths_raise_as_the_loop_did(self, xis):
        with pytest.raises(ConstraintError, match="^all lengths must be positive$"):
            ref_canonical_pair(xis, OscillatorParams())
        with pytest.raises(ConstraintError, match="^all lengths must be positive$"):
            CanonicalPair(xis, OscillatorParams())

    def test_levels_formula(self):
        params = OscillatorParams()
        assert energy_levels([1.0], params)[0] == pytest.approx(0.625, abs=1e-15)

    def test_eigenvalues_match_levels(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(mass=1.5, omega=0.8, hbar=1.2)
        xis = rng.uniform(0.3, 3.0, size=4)
        pair = CanonicalPair(xis, params)
        h = oscillator_hamiltonian(pair)
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

    @pytest.mark.parametrize("energy", [0.4, np.inf, 1e308])
    def test_numpy_scalar_energy_prints_as_float(self, energy):
        # and warns nothing: a RuntimeWarning fails this suite
        with pytest.raises(ConstraintError, match="^" + re.escape(f"target energy {energy!r} ")):
            lengths_from_energy(np.float64(energy), OscillatorParams(), "plus")

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
        pair = CanonicalPair(xis, params)
        h = oscillator_hamiltonian(pair)
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
            pair = CanonicalPair(xis, params)
            direct = np.sqrt(variance(rho, pair.x) * variance(rho, pair.p))
            assert abs(closed - direct) <= 1e-10
            assert closed >= params.hbar / 2.0 - 1e-12

    def test_invalid_state_rejected(self):
        with pytest.raises(ConstraintError):
            uncertainty_product(0.3, 0.3, 0.0, 0.0, [1.0, 1.0], OscillatorParams())


class TestTranslation:
    def test_zero_distance(self):
        pair = CanonicalPair([1.0, 1.0], OscillatorParams())
        np.testing.assert_array_equal(translation_operator(pair, 0.0), np.eye(4))

    def test_symplectic_but_far_from_orthogonal(self):
        params = OscillatorParams()
        pair = CanonicalPair([1.0, 1.0], params)
        j = standard_complex_structure(2)
        u = translation_operator(pair, 1.0)
        flags = classify(u, j)
        assert flags.symplectic
        assert not flags.orthogonal
        assert np.linalg.norm(u.T @ u - np.eye(4)) > 0.1
        assert np.linalg.norm(u.T @ j.matrix @ u - j.matrix) <= 1e-9

    @pytest.mark.parametrize("distance", [0.3, 5.0, 40.0, -2.0])
    def test_matches_mpmath_per_entry(self, distance):
        pair = CanonicalPair([0.7, 1.3], OscillatorParams(hbar=0.8))
        assert_translation_per_entry(translation_operator(pair, distance), pair, distance)

    def test_small_entry_and_symplecticity_at_distance_40(self):
        # I + V expm1 V^T cancelled here: the entry exp(-28.6) = 3.9e-13 was
        # off by 8.4e-6 relative, and ||U^T J U - J|| read 1.18e-5.
        pair = CanonicalPair([0.7, 1.3], OscillatorParams(hbar=0.8))
        u = translation_operator(pair, 40.0)
        small = mp_translation(pair, 40.0)[1]
        assert float(small) == pytest.approx(3.9047e-13, rel=1e-4)
        assert abs(u[1, 1] - small) <= 2.0 * (1.0 + 40.0 / 1.4) * EPS * small
        j = standard_complex_structure(2).matrix
        assert np.linalg.norm(u.T @ j @ u - j) <= 4.0 * EPS * np.linalg.norm(j)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4), st.floats(-50.0, 50.0),
           st.one_of(st.just(1.054571817e-34), st.floats(-30.0, 30.0).map(math.exp)))
    def test_closed_form_against_mpmath_and_the_eigensolver_route(self, log_xis, distance,
                                                                  hbar):
        # hbar cancels from the closed form; the references both carry it.
        xis = np.exp(log_xis)
        phase = float(np.max(np.abs(distance / (2.0 * xis))))
        assume(phase <= 700.0)  # exp(+-phase) stays in the float range
        pair = CanonicalPair(xis, OscillatorParams(hbar=hbar))
        u = translation_operator(pair, distance)
        assert_translation_per_entry(u, pair, distance)
        ref = ref_translation_operator(
            pair, distance, SymplecticForm(standard_complex_structure(xis.size), hbar))
        assert np.abs(u - ref).max() <= 4.0 * (1.0 + phase) * EPS * np.abs(ref).max()
        j = standard_complex_structure(xis.size).matrix
        assert np.linalg.norm(u.T @ j @ u - j) <= 4.0 * EPS * np.linalg.norm(j)

    @pytest.mark.parametrize("lengths, distance", [
        ([1.0], 2000.0), ([1.0], -2000.0), ([1.0], float("nan")), ([1.0, 2.0], float("inf")),
        ([1e-300], 1e300)])
    def test_result_past_the_float_range_raises_without_a_warning(self, lengths, distance):
        pair = CanonicalPair(lengths, OscillatorParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintError, match="^matrix exponential is not finite$"):
                translation_operator(pair, distance)

    def test_generator_is_symmetric(self):
        pair = CanonicalPair([0.7, 1.3], OscillatorParams())
        j = standard_complex_structure(2)
        jp = j.matrix @ pair.p
        assert np.linalg.norm(jp.T - jp) <= 1e-12


class TestFermionicStructure:
    def test_commuting_unit_matrix(self):
        fs = FermionicStructure(1.0, OscillatorParams())
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
        fs = FermionicStructure(0.8, OscillatorParams())
        k = fs.commuting_unit
        np.testing.assert_array_equal(k @ fs.x, fs.x @ k)
        np.testing.assert_array_equal(k @ fs.p, fs.p @ k)

    def test_square_relations(self):
        params = OscillatorParams(hbar=1.3)
        fs = FermionicStructure(0.9, params)
        eye = np.eye(4)
        assert np.linalg.norm(fs.x @ fs.x - fs.xi**2 * eye) <= 1e-12
        assert np.linalg.norm(fs.p @ fs.p
                              - (params.hbar**2 / (4.0 * fs.xi**2)) * eye) <= 1e-12
        assert np.linalg.norm(fs.x @ fs.p + fs.p @ fs.x) <= 1e-12

    def test_anticommutation_relations(self):
        fs = FermionicStructure(1.4, OscillatorParams(hbar=0.6))
        eye = np.eye(4)
        np.testing.assert_array_equal(fs.raising, fs.lowering.T)
        assert np.linalg.norm(fs.lowering @ fs.raising
                              + fs.raising @ fs.lowering - eye) <= 1e-12
        assert np.linalg.norm(fs.lowering @ fs.lowering) <= 1e-12
        assert np.linalg.norm(fs.raising @ fs.raising) <= 1e-12

    def test_three_hamiltonian_forms_agree(self):
        params = OscillatorParams(mass=1.1, omega=2.3, hbar=0.7)
        fs = FermionicStructure(1.2, params)
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
        fs = FermionicStructure(1.0, params)
        vals, _ = sym_eig(fs.hamiltonian)
        half = params.hbar * params.omega / 2.0
        np.testing.assert_allclose(vals, [-half, -half, half, half], atol=1e-12)

    def test_swap_conjugates_the_units(self):
        fs = FermionicStructure(1.0, OscillatorParams())
        s = fs.basis_swap
        np.testing.assert_array_equal(s @ s, np.eye(4))
        j = standard_complex_structure(2).matrix
        np.testing.assert_array_equal(s @ j @ s, fs.commuting_unit)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConstraintError):
            FermionicStructure(0.0, OscillatorParams())

    @pytest.mark.parametrize("name", FERMIONIC_MATRICES)
    def test_matrices_are_derived_not_arguments(self, name):
        with pytest.raises(TypeError, match=f"'{name}'"):
            FermionicStructure(1.0, OscillatorParams(), **{name: np.eye(4)})

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.one_of(log_scale.map(np.exp), st.sampled_from([0.0, -1.0, np.inf, np.nan])),
           log_scale, log_scale, log_scale)
    def test_fields_are_the_stated_route_bit_for_bit(self, xi, log_m, log_w, log_hbar):
        params = OscillatorParams(*np.exp([log_m, log_w, log_hbar]))
        want = raises_alike(lambda: ref_fermionic(xi, params),
                            lambda: FermionicStructure(xi, params))
        if want is not None:
            fs = FermionicStructure(xi, params)
            assert type(fs.xi) is float and fs.xi == want.xi and fs.params is params
            for name in FERMIONIC_MATRICES:
                assert getattr(fs, name).tobytes() == getattr(want, name).tobytes(), name


class TestFermionicPropagator:
    def test_time_zero(self):
        fs = FermionicStructure(1.0, OscillatorParams())
        np.testing.assert_array_equal(fermionic_propagator(fs, 0.0), np.eye(4))

    def test_both_exponential_forms_agree(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(omega=1.7, hbar=0.9)
        fs = FermionicStructure(1.1, params)
        j = standard_complex_structure(2).matrix
        for t in rng.uniform(-6.0, 6.0, size=10):
            via_k = fermionic_propagator(fs, float(t))
            via_h = expm(-(t / params.hbar) * (j @ fs.hamiltonian))
            assert np.linalg.norm(via_k - via_h) <= 1e-10

    def test_closed_form_matches_expm(self):
        rng = np.random.default_rng(SEED)
        params = OscillatorParams(omega=1.7, hbar=0.9)
        fs = FermionicStructure(1.1, params)
        j = standard_complex_structure(2).matrix
        for t in rng.uniform(-6.0, 6.0, size=10):
            via_h = expm(-(t / params.hbar) * (j @ fs.hamiltonian))
            u = fermionic_propagator(fs, float(t))
            assert np.linalg.norm(u - via_h) <= 1e-14
            np.testing.assert_array_equal(fermionic_propagator(fs, -float(t)), u.T)

    def test_orthogonal(self):
        fs = FermionicStructure(1.0, OscillatorParams())
        u = fermionic_propagator(fs, 2.9)
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-9

    def test_period(self):
        params = OscillatorParams(omega=1.3)
        fs = FermionicStructure(1.0, params)
        u = fermionic_propagator(fs, 4.0 * np.pi / params.omega)
        assert np.linalg.norm(u - np.eye(4)) <= 1e-8


class TestDualPicture:
    def test_energy_trace(self):
        fs = FermionicStructure(1.0, OscillatorParams())
        report = dual_picture(0.25, 0.25, 0.0, 0.25, fs, 0.0)
        assert report.energy == pytest.approx(0.5, abs=1e-14)
        assert report.energy_tilde == pytest.approx(0.5, abs=1e-14)

    def test_position_expectations_differ(self):
        fs = FermionicStructure(1.0, OscillatorParams())
        report = dual_picture(0.5, 0.0, 0.0, 0.0, fs, 0.0)
        assert report.x_expectation == pytest.approx(0.0, abs=1e-14)
        assert report.x_expectation_tilde == pytest.approx(1.0, abs=1e-14)

    def test_swapped_state_commutes_with_k(self):
        rng = np.random.default_rng(SEED)
        fs = FermionicStructure(1.0, OscillatorParams())
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
        fs = FermionicStructure(1.0, OscillatorParams())
        report = dual_picture(0.3, 0.2, 0.0, 0.0, fs, 0.0)
        np.testing.assert_array_equal(report.rho_tilde, np.diag([0.3, 0.2, 0.3, 0.2]))
        j = standard_complex_structure(2).matrix
        k = fs.commuting_unit
        assert np.linalg.norm(report.rho @ j - j @ report.rho) <= 1e-12
        assert np.linalg.norm(report.rho_tilde @ k - k @ report.rho_tilde) <= 1e-12
        assert np.linalg.norm(report.rho_tilde @ j - j @ report.rho_tilde) > 0.1

    def test_maximally_mixed_case_commutes_with_both_units(self):
        fs = FermionicStructure(1.0, OscillatorParams())
        report = dual_picture(0.25, 0.25, 0.0, 0.0, fs, 0.0)
        j = standard_complex_structure(2).matrix
        k = fs.commuting_unit
        for state in (report.rho, report.rho_tilde):
            assert np.linalg.norm(state @ j - j @ state) <= 1e-12
            assert np.linalg.norm(state @ k - k @ state) <= 1e-12

    def test_evolution_consistency(self):
        # the swapped picture evolves with the swapped propagator
        rng = np.random.default_rng(SEED)
        fs = FermionicStructure(1.0, OscillatorParams(omega=0.8))
        s = fs.basis_swap
        for t in rng.uniform(-5.0, 5.0, size=5):
            alpha, beta, gamma, delta = rand_state_params(rng)
            report = dual_picture(alpha, beta, gamma, delta, fs, float(t))
            np.testing.assert_allclose(s @ report.rho_t @ s, report.rho_tilde_t,
                                       atol=1e-12)
            assert np.trace(report.rho_t @ fs.hamiltonian) == pytest.approx(
                np.trace(report.rho_tilde_t @ fs.hamiltonian), abs=1e-10)
