"""Acceptance suite: one test per quantitative criterion, each printing a
single PASS/FAIL line (run with -s to see them on success)."""

import time

import numpy as np

from realqm import cli
from realqm.dynamics import (
    SymplecticForm,
    evolve,
    hamiltonian,
    jacobi_residual,
    propagator,
)
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
    translation_operator,
    uncertainty_product,
)
from realqm.realify import (
    classify,
    embed_matrix,
    generator_space_ranks,
    matrix_set_rank,
    split_linear_antilinear,
    standard_complex_structure,
)
from realqm.states import (
    expectation,
    measurement_statistics,
    spectral_decompose,
    variance,
)
from realqm.tensor import (
    FactorSpace,
    build_product_space,
    lift_operator,
    subspace_projector,
)

from helpers import (
    rand_complex,
    rand_hermitean,
    rand_physical,
    rand_state_params,
    rand_unitary,
)

SEED = 271828


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_realification_homomorphism():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3, 4):
        for _ in range(25):
            a = rand_complex(rng, d)
            b = rand_complex(rng, d)
            ea, eb = embed_matrix(a), embed_matrix(b)
            worst = max(worst, np.linalg.norm(embed_matrix(a @ b) - ea @ eb))
            worst = max(worst, np.linalg.norm(embed_matrix(a.conj().T) - ea.T))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"100 pairs, worst residual {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_split_correctness():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    ranks_ok = True
    for d in range(1, 9):
        j = standard_complex_structure(d)
        for _ in range(13):
            a = rng.standard_normal((2 * d, 2 * d))
            split = split_linear_antilinear(a, j)
            worst = max(
                worst,
                np.linalg.norm(split.plus + split.minus - a),
                np.linalg.norm(split.plus @ j.matrix - j.matrix @ split.plus),
                np.linalg.norm(split.minus @ j.matrix + j.matrix @ split.minus),
            )
        basis = []
        for r in range(2 * d):
            for c in range(2 * d):
                e = np.zeros((2 * d, 2 * d))
                e[r, c] = 1.0
                basis.append(e)
        plus_rank = matrix_set_rank([split_linear_antilinear(e, j).plus for e in basis])
        minus_rank = matrix_set_rank([split_linear_antilinear(e, j).minus for e in basis])
        ranks_ok = ranks_ok and plus_rank == 2 * d * d and minus_rank == 2 * d * d
    ok = worst <= 1e-10 and ranks_ok
    report(2, ok, f"worst split residual {worst:.2e}, subspace ranks 2D^2: {ranks_ok}")


def test_criterion_03_group_characterization():
    rng = np.random.default_rng(SEED)
    classified = True
    for d in (1, 2, 3, 4):
        j = standard_complex_structure(d)
        for _ in range(10):
            flags = classify(embed_matrix(rand_unitary(rng, d)), j)
            classified = classified and flags.orthogonal and flags.symplectic \
                and flags.complex_linear
    ranks_ok = True
    for d in (1, 2, 3):
        ranks = generator_space_ranks(standard_complex_structure(d))
        ranks_ok = ranks_ok and ranks.orthogonal == 2 * d * d - d \
            and ranks.symplectic == 2 * d * d + d and ranks.unitary == d * d
    ok = classified and ranks_ok
    report(3, ok, f"unitaries classified: {classified}, generator ranks exact: {ranks_ok}")


def test_criterion_04_spectral_statistics():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 9))  # real dimension 2..16
        rho = rand_physical(rng, d)
        a = rng.standard_normal((2 * d, 2 * d))
        a = (a + a.T) / 2.0
        stats = measurement_statistics(rho, a)
        probs = np.array([p for _, p in stats.outcomes])
        vals = np.array([v for v, _ in stats.outcomes])
        worst = max(worst, abs(probs.sum() - 1.0))
        worst = max(worst, abs(stats.mean - expectation(rho, a)))
        worst = max(worst, abs(variance(rho, a)
                               - float(probs @ (vals - stats.mean) ** 2)))
    even_ok = True
    for d in (2, 3, 4):
        a = embed_matrix(rand_hermitean(rng, d))
        for proj in spectral_decompose(a).projectors:
            even_ok = even_ok and round(float(np.trace(proj))) % 2 == 0
    ok = worst <= 1e-10 and even_ok
    report(4, ok, f"100 states, worst statistic residual {worst:.2e}, "
                  f"even multiplicities: {even_ok}")


def test_criterion_05_canonical_bracket():
    rng = np.random.default_rng(SEED)
    params = OscillatorParams()
    worst = 0.0
    for d in range(1, 9):
        xis = rng.uniform(0.1, 4.0, size=d)
        pair = build_canonical_pair(xis, params)
        w = SymplecticForm(standard_complex_structure(d), params.hbar)
        bracket = pair.x @ w.omega @ pair.p - pair.p @ w.omega @ pair.x
        worst = max(worst, np.linalg.norm(bracket - np.eye(2 * d)))
    ok = worst <= 1e-12
    report(5, ok, f"worst canonical bracket deviation {worst:.2e}")


def test_criterion_06_jacobi_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))  # dims 4..16
        w = SymplecticForm(standard_complex_structure(d))
        mats = []
        for _ in range(3):
            g = rng.standard_normal((2 * d, 2 * d))
            mats.append((g + g.T) / 2.0)
        a, b, c = mats
        scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c))
        worst = max(worst, jacobi_residual(a, b, c, w) / scale)
    ok = worst <= 1e-9
    report(6, ok, f"100 triples, worst scaled residual {worst:.2e}")


def test_criterion_07_propagator_invariants():
    rng = np.random.default_rng(SEED)
    worst_u = 0.0
    worst_state = 0.0
    min_eig = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        j = standard_complex_structure(d)
        w = SymplecticForm(j)
        h = hamiltonian(embed_matrix(rand_hermitean(rng, d)), j)
        t = rng.uniform(-50.0, 50.0) / max(1.0, np.linalg.norm(h.matrix))
        u = propagator(h, t, w).u
        worst_u = max(worst_u,
                      np.linalg.norm(u.T @ u - np.eye(2 * d)),
                      np.linalg.norm(u.T @ j.matrix @ u - j.matrix))
        rho_t = evolve(rand_physical(rng, d), h, t, w)
        worst_state = max(worst_state,
                          abs(float(np.trace(rho_t.matrix)) - 1.0),
                          np.linalg.norm(rho_t.matrix @ j.matrix
                                         - j.matrix @ rho_t.matrix))
        vals, _ = sym_eig(rho_t.matrix)
        min_eig = min(min_eig, float(vals[0]))
    ok = worst_u <= 1e-8 and worst_state <= 1e-9 and min_eig >= -1e-9
    report(7, ok, f"worst propagator drift {worst_u:.2e}, state residual "
                  f"{worst_state:.2e}, min eigenvalue {min_eig:.2e}")


def test_criterion_08_spectrum_design_round_trip():
    rng = np.random.default_rng(SEED)
    params = OscillatorParams()
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(1, 9))
        targets = rng.uniform(params.ground_energy,
                              10.0 * params.hbar * params.omega, size=size)
        xis = design_spectrum(targets, params)
        back = energy_levels(xis, params)
        worst = max(worst, float(np.max(np.abs(back - targets) / targets)))
    rejected = False
    try:
        lengths_from_energy(0.99 * params.ground_energy, params)
    except ConstraintError:
        rejected = True
    ok = worst <= 1e-10 and rejected
    report(8, ok, f"50 sets, worst relative error {worst:.2e}, "
                  f"below-bound rejected: {rejected}")


def test_criterion_09_uncertainty_floor_and_closed_form():
    rng = np.random.default_rng(SEED)
    params = OscillatorParams()
    hbar = params.hbar
    n = 10000
    alpha, beta, gamma, delta = rand_state_params(rng, n)
    xi1 = rng.uniform(0.2, 3.0, size=n)
    xi2 = rng.uniform(0.2, 3.0, size=n)
    # direct route: stacked matrix arithmetic, independent of the closed form
    rho = np.zeros((n, 4, 4))
    rho[:, 0, 0] = rho[:, 1, 1] = alpha
    rho[:, 2, 2] = rho[:, 3, 3] = beta
    rho[:, 0, 2] = rho[:, 2, 0] = rho[:, 1, 3] = rho[:, 3, 1] = gamma
    rho[:, 0, 3] = rho[:, 3, 0] = delta
    rho[:, 1, 2] = rho[:, 2, 1] = -delta
    x = np.zeros((n, 4, 4))
    x[:, 0, 0], x[:, 1, 1], x[:, 2, 2], x[:, 3, 3] = xi1, -xi1, xi2, -xi2
    p = np.zeros((n, 4, 4))
    p[:, 0, 1] = p[:, 1, 0] = hbar / (2.0 * xi1)
    p[:, 2, 3] = p[:, 3, 2] = hbar / (2.0 * xi2)
    var_x = np.einsum("nii->n", rho @ (x @ x)) - np.einsum("nii->n", rho @ x) ** 2
    var_p = np.einsum("nii->n", rho @ (p @ p)) - np.einsum("nii->n", rho @ p) ** 2
    direct = np.sqrt(var_x * var_p)
    ratio = xi1 / xi2 - xi2 / xi1
    closed = hbar * np.sqrt((alpha + beta) ** 2 + alpha * beta * ratio**2)
    worst_match = float(np.max(np.abs(direct - closed)))
    floor_gap = max(0.0, hbar / 2.0 - float(direct.min()))
    worst_equal = 0.0
    for k in range(200):
        xi = float(xi1[k])
        value = uncertainty_product(alpha[k], beta[k], gamma[k], delta[k],
                                    [xi, xi], params)
        worst_equal = max(worst_equal, abs(value - hbar / 2.0))
    ok = worst_match <= 1e-10 and floor_gap <= 1e-12 and worst_equal <= 1e-12
    report(9, ok, f"10^4 states: closed-form mismatch {worst_match:.2e}, floor gap "
                  f"{floor_gap:.2e}, equal-length deviation {worst_equal:.2e}")


def test_criterion_10_translation_operator():
    # At distance 40 the translation's entries span exp(+-28.6).
    j = standard_complex_structure(2)
    worst_residual, least_gap = 0.0, np.inf
    for lengths, hbar, distance in (([1.0, 1.0], 1.0, 1.0), ([0.7, 1.3], 0.8, 40.0)):
        pair = build_canonical_pair(lengths, OscillatorParams(hbar=hbar))
        u = translation_operator(pair, distance)
        worst_residual = max(worst_residual, np.linalg.norm(u.T @ j.matrix @ u - j.matrix))
        least_gap = min(least_gap, np.linalg.norm(u.T @ u - np.eye(4)))
    ok = worst_residual <= 1e-9 and least_gap > 0.01
    report(10, ok, f"symplectic residual {worst_residual:.2e}, "
                   f"orthogonality gap {least_gap:.2e}")


def test_criterion_11_fermionic_block():
    rng = np.random.default_rng(SEED)
    params = OscillatorParams()
    hbar, omega = params.hbar, params.omega
    fs = build_fermionic(1.0, params)
    eye = np.eye(4)
    worst_identity = max(
        np.linalg.norm(fs.x @ fs.x - fs.xi**2 * eye),
        np.linalg.norm(fs.x @ fs.p + fs.p @ fs.x),
        np.linalg.norm(fs.lowering @ fs.raising + fs.raising @ fs.lowering - eye),
        np.linalg.norm(fs.lowering @ fs.lowering),
    )
    j4 = standard_complex_structure(2).matrix
    ladder = hbar * omega * (fs.raising @ fs.lowering - eye / 2.0)
    bracket = -(omega / 2.0) * fs.commuting_unit @ (fs.x @ fs.p - fs.p @ fs.x)
    unit = 0.5 * hbar * omega * (j4 @ fs.commuting_unit)
    worst_forms = max(np.linalg.norm(ladder - bracket),
                      np.linalg.norm(bracket - unit),
                      np.linalg.norm(ladder - unit))
    worst_trace = 0.0
    alpha, beta, gamma, delta = rand_state_params(rng, 100)
    for k in range(100):
        rep = dual_picture(alpha[k], beta[k], gamma[k], delta[k], fs, 0.0)
        expected_energy = 2.0 * delta[k] * hbar * omega
        worst_trace = max(worst_trace,
                          abs(rep.energy - expected_energy),
                          abs(rep.energy_tilde - expected_energy),
                          abs(rep.x_expectation),
                          abs(rep.x_expectation_tilde
                              - 2.0 * (alpha[k] - beta[k]) * fs.xi))
    worst_prop = 0.0
    for t in rng.uniform(-6.0, 6.0, size=10):
        via_k = fermionic_propagator(fs, float(t))
        via_h = expm(-(t / hbar) * (j4 @ fs.hamiltonian))
        worst_prop = max(worst_prop, np.linalg.norm(via_k - via_h))
    ok = worst_identity <= 1e-12 and worst_forms <= 1e-12 \
        and worst_trace <= 1e-10 and worst_prop <= 1e-10
    report(11, ok, f"identities {worst_identity:.2e}, H' forms {worst_forms:.2e}, "
                   f"traces {worst_trace:.2e}, propagator forms {worst_prop:.2e}")


def test_criterion_12_tensor_structure():
    ranks_ok = True
    worst = 0.0
    for da in (1, 2, 3):
        for db in (1, 2, 3):
            space = build_product_space(
                [FactorSpace.standard(da), FactorSpace.standard(db)])
            p_plus = space.physical_projector
            p_minus = subspace_projector(space, [-1])
            ranks_ok = ranks_ok and round(float(np.trace(p_plus))) == 2 * da * db \
                and round(float(np.trace(p_minus))) == 2 * da * db
            ja, jb = space.units
            worst = max(worst,
                        np.linalg.norm((ja - jb) @ p_plus),
                        np.linalg.norm((ja + jb) @ p_minus))
    three = build_product_space([FactorSpace.standard(1)] * 3)
    ja, jb, jc = three.units
    for eps in (1, -1):
        for eta in (1, -1):
            proj = subspace_projector(three, [eps, eta])
            worst = max(worst,
                        np.linalg.norm((ja - eps * jb) @ proj),
                        np.linalg.norm((ja - eta * jc) @ proj))
    params = OscillatorParams()
    space = build_product_space([FactorSpace.standard(2), FactorSpace.standard(2)])
    pair = build_canonical_pair([1.0, 2.0], params)
    x_a = lift_operator(pair.x, 0, space)
    p_plus = space.physical_projector
    worst = max(worst, np.linalg.norm(p_plus @ x_a @ p_plus))
    ok = ranks_ok and worst <= 1e-10
    report(12, ok, f"projector ranks exact: {ranks_ok}, worst relation residual "
                   f"{worst:.2e}")


def test_criterion_13_end_to_end_determinism(capsys):
    start = time.perf_counter()
    code_first = cli.main(["check", "--seed", "123"])
    first = capsys.readouterr().out
    code_second = cli.main(["check", "--seed", "123"])
    second = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    identical = first.encode() == second.encode()
    ok = code_first == 0 and code_second == 0 and identical and elapsed < 60.0
    with capsys.disabled():
        report(13, ok, f"two check runs exit {code_first}/{code_second}, "
                       f"byte-identical: {identical}, {elapsed:.2f}s")
