"""Seeded invariant sweeps over every library module.

Each suite replays the structural identities its module promises (bracket
symmetry, propagator orthogonality, projector ranks, ...) on pseudorandom
samples and reports one residual per named check.  Sampling uses numpy's
default_rng (PCG64) seeded per suite as (seed, suite_index), so a fixed
seed reproduces the exact same report bytes.

A check passes when its residual is at most its threshold.  Thresholds are
the module-documented ones; `threshold_override` replaces them wholesale,
which is useful for deliberately over-tightened diagnostic runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, linalg, oscillator, realify, states, tensor, trace

__all__ = ["CheckResult", "SUITE_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def _rand_symmetric(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def _rand_antisymmetric(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g - g.T) / 2.0


def _rand_complex(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _rand_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_rand_complex(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rand_hermitean(rng, d: int) -> np.ndarray:
    g = _rand_complex(rng, d)
    return (g + g.conj().T) / 2.0


def _rand_physical_density(rng, d: int) -> states.DensityMatrix:
    g = _rand_complex(rng, d)
    rho_c = g @ g.conj().T
    rho_c = rho_c / np.trace(rho_c).real
    return states.physical_from_complex(rho_c)


def _rand_state_params_4d(rng, n: int) -> tuple[np.ndarray, ...]:
    alpha = 0.5 * rng.random(n)
    beta = 0.5 - alpha
    radius = np.sqrt(rng.random(n) * alpha * beta)
    angle = 2.0 * np.pi * rng.random(n)
    return alpha, beta, radius * np.cos(angle), radius * np.sin(angle)


# Samples per block of `_uncertainty_sweep`.  A (4, 4, 500) float64 stack is
# 62.5 KiB, below glibc's 128 KiB mmap threshold, so the stacks come from
# the heap, not from fresh mmaps.  In a repeated mix of `check` suites the
# oscillator suite then faults in no pages a call; at 1000 samples a block
# outgrew the heap's free space and still faulted in ~150.
_SWEEP_BLOCK = 500


def _closed_uncertainty(alpha, beta, xi1, xi2, hbar):
    """hbar sqrt((a + b)^2 + a b (xi1/xi2 - xi2/xi1)^2) per sample: the
    sweep's `closed`, within an ulp of `oscillator.uncertainty_product`."""
    ratio = xi1 / xi2 - xi2 / xi1
    return hbar * np.sqrt((alpha + beta) ** 2 + alpha * beta * ratio**2)


def _uncertainty_sweep(alpha, beta, gamma, delta, xi1, xi2, hbar) -> tuple[float, float]:
    """max |direct - closed| and min direct of the R^4 uncertainty product.

    `direct` is sqrt(Var x * Var p) from dense rho, x and p, x.x and p.p as
    generic 4x4 products and traces; `closed` is the paper's closed form,
    `_closed_uncertainty`.  The matrices are
    stored entry-major, (4, 4, samples), one block at a time.
    """
    def product(u, v):
        return np.einsum("ikn,kjn->ijn", u, v)

    def trace(u, v):
        return np.einsum("ijn,jin->n", u, v)

    worst, floor = 0.0, np.inf
    for start in range(0, alpha.size, _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        a, b, g, d = alpha[block], beta[block], gamma[block], delta[block]
        x1, x2 = xi1[block], xi2[block]
        rho = np.zeros((4, 4, a.size))
        rho[0, 0] = rho[1, 1] = a
        rho[2, 2] = rho[3, 3] = b
        rho[0, 2] = rho[2, 0] = rho[1, 3] = rho[3, 1] = g
        rho[0, 3] = rho[3, 0] = d
        rho[1, 2] = rho[2, 1] = -d
        x = np.zeros((4, 4, a.size))
        x[0, 0] = x1
        x[1, 1] = -x1
        x[2, 2] = x2
        x[3, 3] = -x2
        p = np.zeros((4, 4, a.size))
        p[0, 1] = p[1, 0] = hbar / (2.0 * x1)
        p[2, 3] = p[3, 2] = hbar / (2.0 * x2)
        var_x = trace(rho, product(x, x)) - trace(rho, x) ** 2
        var_p = trace(rho, product(p, p)) - trace(rho, p) ** 2
        direct = np.sqrt(var_x * var_p)
        closed = _closed_uncertainty(a, b, x1, x2, hbar)
        # np.maximum and np.minimum carry a NaN through, as one np.max would.
        worst = np.maximum(worst, np.max(np.abs(direct - closed)))
        floor = np.minimum(floor, direct.min())
    return float(worst), float(floor)


def _check_linalg(rng) -> list[tuple[str, float, float]]:
    out = []
    for n in (2, 4, 8, 16):
        worst_rec = 0.0
        worst_orth = 0.0
        for _ in range(3):
            a = _rand_symmetric(rng, n)
            vals, vecs = linalg.sym_eig(a)
            rec = linalg.frobenius(vecs @ np.diag(vals) @ vecs.T - a)
            worst_rec = max(worst_rec, rec / max(1.0, linalg.frobenius(a)))
            worst_orth = max(worst_orth, linalg.frobenius(vecs.T @ vecs - np.eye(n)))
        out.append((f"eig_reconstruction_dim{n}", worst_rec, 1e-9))
        out.append((f"eig_orthonormality_dim{n}", worst_orth, 1e-10))
    worst_group = 0.0
    worst_orth = 0.0
    for _ in range(5):
        a = _rand_antisymmetric(rng, 6)
        s, t = rng.uniform(-2.0, 2.0, size=2)
        lhs = linalg.expm(s * a) @ linalg.expm(t * a)
        worst_group = max(worst_group, linalg.frobenius(lhs - linalg.expm((s + t) * a)))
        u = linalg.expm(a)
        worst_orth = max(worst_orth, linalg.frobenius(u.T @ u - np.eye(6)))
    out.append(("expm_group_property", worst_group, 1e-8))
    out.append(("expm_antisymmetric_orthogonality", worst_orth, 1e-9))
    return out


def _check_realify(rng) -> list[tuple[str, float, float]]:
    out = []
    worst_rec = worst_comm = worst_anti = 0.0
    for d in (1, 2, 4, 8):
        j = realify.standard_complex_structure(d)
        for _ in range(4):
            a = rng.standard_normal((2 * d, 2 * d))
            split = realify.split_linear_antilinear(a, j)
            scale = max(1.0, linalg.frobenius(a))
            worst_rec = max(
                worst_rec, linalg.frobenius(split.plus + split.minus - a) / scale)
            worst_comm = max(worst_comm, linalg.frobenius(
                split.plus @ j.matrix - j.matrix @ split.plus))
            worst_anti = max(worst_anti, linalg.frobenius(
                split.minus @ j.matrix + j.matrix @ split.minus))
    out.append(("split_reconstruction", worst_rec, 1e-13))
    out.append(("split_plus_commutator", worst_comm, 1e-10))
    out.append(("split_minus_anticommutator", worst_anti, 1e-10))

    for d in (1, 2, 3):
        j = realify.standard_complex_structure(d)
        basis = []
        for r in range(2 * d):
            for c in range(2 * d):
                e = np.zeros((2 * d, 2 * d))
                e[r, c] = 1.0
                basis.append(e)
        splits = [realify.split_linear_antilinear(e, j) for e in basis]
        plus_rank = realify.matrix_set_rank([s.plus for s in splits])
        minus_rank = realify.matrix_set_rank([s.minus for s in splits])
        residual = abs(plus_rank - 2 * d * d) + abs(minus_rank - 2 * d * d)
        out.append((f"split_subspace_ranks_d{d}", float(residual), 0.0))
        ranks = realify.generator_space_ranks(j)
        residual = (abs(ranks.orthogonal - (2 * d * d - d))
                    + abs(ranks.symplectic - (2 * d * d + d))
                    + abs(ranks.unitary - d * d))
        out.append((f"generator_space_ranks_d{d}", float(residual), 0.0))

    worst_hom = worst_adj = 0.0
    for d in (1, 2, 3, 4):
        for _ in range(4):
            a = _rand_complex(rng, d)
            b = _rand_complex(rng, d)
            ea = realify.embed_matrix(a)
            eb = realify.embed_matrix(b)
            eab = realify.embed_matrix(a @ b)
            worst_hom = max(worst_hom, linalg.frobenius(eab - ea @ eb))
            ead = realify.embed_matrix(a.conj().T)
            worst_adj = max(worst_adj, linalg.frobenius(ead - ea.T))
    out.append(("embed_homomorphism", worst_hom, 1e-10))
    out.append(("embed_adjoint", worst_adj, 1e-12))

    misclassified = 0
    for d in (1, 2, 3):
        j = realify.standard_complex_structure(d)
        for _ in range(4):
            u = realify.embed_matrix(_rand_unitary(rng, d))
            flags = realify.classify(u, j)
            if not (flags.orthogonal and flags.symplectic and flags.complex_linear):
                misclassified += 1
        conj = realify.conjugation_operator(d)
        flags = realify.classify(conj, j)
        if not (flags.orthogonal and flags.complex_antilinear) or flags.symplectic:
            misclassified += 1
    out.append(("unitary_classification", float(misclassified), 0.0))

    worst = 0.0
    j = realify.standard_complex_structure(3)
    for _ in range(6):
        phi = rng.standard_normal(6)
        psi = rng.standard_normal(6)
        re1, im1 = realify.scalar_products(phi, psi, j)
        re2, im2 = realify.scalar_products(psi, phi, j)
        worst = max(worst, abs(re1 - re2), abs(im1 + im2))
    out.append(("scalar_product_symmetry", worst, 1e-12))
    return out


def _check_states(rng) -> list[tuple[str, float, float]]:
    out = []
    worst_sum = worst_mean = worst_var = worst_floor = 0.0
    samples = []
    for _ in range(8):
        d = int(rng.integers(2, 5))  # real dimension 4..8
        rho = _rand_physical_density(rng, d)
        a = _rand_symmetric(rng, 2 * d)
        samples.append((d, rho, a))
        stats = states.measurement_statistics(rho, a)
        probs = np.array([p for _, p in stats.outcomes])
        vals = np.array([v for v, _ in stats.outcomes])
        worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
        worst_mean = max(worst_mean, abs(stats.mean - states.expectation(rho, a)))
        worst_var = max(worst_var, abs(
            stats.variance - float(probs @ (vals - stats.mean) ** 2)))
        worst_floor = max(worst_floor, max(0.0, -states.variance(rho, a)))
    out.append(("probability_sum", worst_sum, 1e-10))
    out.append(("spectral_mean_consistency", worst_mean, 1e-10))
    out.append(("spectral_variance_consistency", worst_var, 1e-10))
    out.append(("variance_nonnegative", worst_floor, 1e-12))

    # The antilinear part of an observable is invisible to physical states.
    worst = 0.0
    for d, rho, a in samples[:4]:
        minus = realify.split_linear_antilinear(a, realify.standard_complex_structure(d)).minus
        worst = max(worst, abs(states.expectation(rho, minus)) / linalg.frobenius(a))
    out.append(("antilinear_expectation_vanishes", worst, 1e-12))

    worst = 0.0
    for _ in range(6):
        d = int(rng.integers(2, 5))
        g = _rand_complex(rng, d)
        rho_c = g @ g.conj().T
        rho_c = rho_c / np.trace(rho_c).real
        a_c = _rand_hermitean(rng, d)
        rho_r = states.physical_from_complex(rho_c)
        a_r = realify.embed_matrix(a_c)
        worst = max(worst, abs(
            states.expectation(rho_r, a_r) - float(np.trace(rho_c @ a_c).real)))
    out.append(("trace_correspondence", worst, 1e-10))

    odd_clusters = 0
    for d in (2, 3, 4):
        a_r = realify.embed_matrix(_rand_hermitean(rng, d))
        decomp = states.spectral_decompose(a_r)
        for proj in decomp.projectors:
            if round(float(np.trace(proj))) % 2 != 0:
                odd_clusters += 1
    out.append(("degeneracy_doubling", float(odd_clusters), 0.0))

    j4 = realify.standard_complex_structure(2)
    alpha, beta, gamma, delta = _rand_state_params_4d(rng, 8)
    worst = 0.0
    for k in range(alpha.size):
        rho = states.physical_density_4d(alpha[k], beta[k], gamma[k], delta[k])
        worst = max(worst, linalg.frobenius(
            rho.matrix @ j4.matrix - j4.matrix @ rho.matrix))
    out.append(("physical_4d_commutes", worst, 1e-10))

    # J-invariant eigenspace supplies an explicit sharp physical state.
    worst = 0.0
    for _ in range(3):
        d = 3
        j = realify.standard_complex_structure(d)
        a_r = realify.embed_matrix(_rand_hermitean(rng, d))
        _, vecs = linalg.sym_eig(a_r)
        v = vecs[:, 0]
        jv = j.matrix @ v
        rho = states.density_matrix((np.outer(v, v) + np.outer(jv, jv)) / 2.0, j=j)
        stats = states.measurement_statistics(rho, a_r)
        top = max(p for _, p in stats.outcomes)
        worst = max(worst, abs(stats.variance), 1.0 - top)
    out.append(("sharp_state_construction", worst, 1e-9))
    return out


def _check_dynamics(rng) -> list[tuple[str, float, float]]:
    out = []
    worst_sym = worst_anti = worst_jacobi = 0.0
    for n in (4, 8, 16):
        d = n // 2
        j = realify.standard_complex_structure(d)
        w = dynamics.SymplecticForm(j)
        for _ in range(4):
            a = _rand_symmetric(rng, n)
            b = _rand_symmetric(rng, n)
            c = _rand_symmetric(rng, n)
            br = dynamics.poisson_bracket(a, b, w)
            scale = max(1.0, linalg.frobenius(a) * linalg.frobenius(b))
            worst_sym = max(worst_sym, linalg.frobenius(br - br.T) / scale)
            worst_anti = max(worst_anti, linalg.frobenius(
                br + dynamics.poisson_bracket(b, a, w)))
            scale3 = max(1.0, linalg.frobenius(a) * linalg.frobenius(b)
                         * linalg.frobenius(c))
            worst_jacobi = max(
                worst_jacobi, dynamics.jacobi_residual(a, b, c, w) / scale3)
    out.append(("bracket_symmetry", worst_sym, 1e-10))
    out.append(("bracket_antisymmetry", worst_anti, 0.0))
    out.append(("jacobi_identity", worst_jacobi, 1e-9))

    worst_orth = worst_symp = worst_comm = worst_trace = 0.0
    for _ in range(4):
        d = int(rng.integers(2, 5))
        j = realify.standard_complex_structure(d)
        h_c = _rand_hermitean(rng, d)
        h = dynamics.hamiltonian(realify.embed_matrix(h_c), j)
        t = 50.0 / max(1.0, linalg.frobenius(h.matrix))
        u = dynamics.propagator(h, t, dynamics.SymplecticForm(j)).u
        eye = np.eye(2 * d)
        worst_orth = max(worst_orth, linalg.frobenius(u.T @ u - eye))
        worst_symp = max(worst_symp, linalg.frobenius(u.T @ j.matrix @ u - j.matrix))
        rho0 = _rand_physical_density(rng, d)
        rho_t = u @ rho0.matrix @ u.T  # not `evolve`, which raises on this failure
        worst_comm = max(worst_comm, linalg.frobenius(rho_t @ j.matrix - j.matrix @ rho_t))
        worst_trace = max(worst_trace, abs(float(np.trace(rho_t)) - 1.0))
    out.append(("propagator_orthogonality", worst_orth, 1e-8))
    out.append(("propagator_symplecticity", worst_symp, 1e-8))
    out.append(("evolved_state_physicality", worst_comm, 1e-9))
    out.append(("evolved_state_trace", worst_trace, 1e-9))

    # Time reversal: conjugation T commutes with an H whose complex form is
    # real and turns U(t) into U(-t).  One sample: propagators dominate.
    d = 3
    w = dynamics.SymplecticForm(realify.standard_complex_structure(d))
    # A real complex form embeds as its Kronecker product with I_2.
    h = dynamics.hamiltonian(np.kron(_rand_symmetric(rng, d), np.eye(2)), w.j)
    conj = realify.conjugation_operator(d)
    t = float(rng.uniform(-5.0, 5.0))
    worst_h = linalg.frobenius(conj @ h.matrix @ conj - h.matrix)
    worst_u = linalg.frobenius(
        conj @ dynamics.propagator(h, t, w).u @ conj - dynamics.propagator(h, -t, w).u)
    out.append(("time_reversal_hamiltonian", worst_h, 0.0))
    out.append(("time_reversal_propagator", worst_u, 1e-10))
    return out


def _check_oscillator(rng) -> list[tuple[str, float, float]]:
    out = []
    params = oscillator.OscillatorParams()
    worst = 0.0
    for d in (1, 2, 8, 16):
        xis = rng.uniform(0.2, 3.0, size=d)
        pair = oscillator.CanonicalPair(xis, params)
        j = realify.standard_complex_structure(d)
        w = dynamics.SymplecticForm(j, params.hbar)
        bracket = dynamics.poisson_bracket(pair.x, pair.p, w)
        worst = max(worst, linalg.frobenius(bracket - np.eye(2 * d)))
    out.append(("canonical_bracket", worst, 1e-12))

    worst = 0.0
    for _ in range(5):
        size = int(rng.integers(1, 9))
        targets = np.sort(rng.uniform(params.ground_energy, 10.0 * params.hbar
                                      * params.omega, size=size))
        xis = oscillator.design_spectrum(targets, params)
        back = oscillator.energy_levels(xis, params)
        worst = max(worst, float(np.max(np.abs(back - targets) / targets)))
    out.append(("spectrum_roundtrip", worst, 1e-10))

    n = 10000
    alpha, beta, gamma, delta = _rand_state_params_4d(rng, n)
    xi1 = rng.uniform(0.2, 3.0, size=n)
    xi2 = rng.uniform(0.2, 3.0, size=n)
    hbar = params.hbar
    worst, floor = _uncertainty_sweep(alpha, beta, gamma, delta, xi1, xi2, hbar)
    out.append(("uncertainty_closed_form", worst, 1e-10))
    out.append(("uncertainty_floor", max(0.0, hbar / 2.0 - floor), 1e-12))

    fs = oscillator.FermionicStructure(1.3, params)
    eye = np.eye(4)
    xi2_ = fs.xi * fs.xi
    worst = max(
        linalg.frobenius(fs.x @ fs.x - xi2_ * eye),
        linalg.frobenius(fs.p @ fs.p - (hbar**2 / (4.0 * xi2_)) * eye),
        linalg.frobenius(fs.x @ fs.p + fs.p @ fs.x),
        linalg.frobenius(fs.lowering @ fs.lowering),
        linalg.frobenius(fs.lowering @ fs.raising + fs.raising @ fs.lowering - eye),
    )
    out.append(("fermionic_identities", worst, 1e-12))

    j4 = realify.standard_complex_structure(2).matrix
    ho = params.hbar * params.omega
    ladder = ho * (fs.raising @ fs.lowering - eye / 2.0)
    bracket_form = -(params.omega / 2.0) * fs.commuting_unit @ (
        fs.x @ fs.p - fs.p @ fs.x)
    unit_form = (ho / 2.0) * (j4 @ fs.commuting_unit)
    worst = max(
        linalg.frobenius(ladder - bracket_form),
        linalg.frobenius(bracket_form - unit_form),
        linalg.frobenius(ladder - unit_form),
    )
    out.append(("number_hamiltonian_forms", worst, 1e-12))

    worst = 0.0
    alpha, beta, gamma, delta = _rand_state_params_4d(rng, 5)
    for k in range(alpha.size):
        t = float(rng.uniform(-8.0, 8.0))
        report = oscillator.dual_picture(alpha[k], beta[k], gamma[k], delta[k], fs, t)
        e1 = float(np.trace(report.rho_t @ fs.hamiltonian))
        e2 = float(np.trace(report.rho_tilde_t @ fs.hamiltonian))
        worst = max(worst, abs(e1 - e2))
    out.append(("picture_equivalence", worst, 1e-10))
    return out


def _check_tensor(rng) -> list[tuple[str, float, float]]:
    out = []
    worst_comm = worst_square = worst_rank = 0.0
    for da, db in ((1, 1), (1, 2), (2, 2), (2, 3)):
        space = tensor.build_product_space(
            [tensor.FactorSpace.standard(da), tensor.FactorSpace.standard(db)])
        ja, jb = space.units
        worst_comm = max(worst_comm, linalg.frobenius(ja @ jb - jb @ ja))
        eye = np.eye(space.dim)
        worst_square = max(worst_square, linalg.frobenius(ja @ ja + eye),
                           linalg.frobenius(jb @ jb + eye))
        p_plus = space.physical_projector
        p_minus = eye - p_plus
        expected = 2 * da * db
        worst_rank = max(worst_rank,
                         abs(float(np.trace(p_plus)) - expected),
                         abs(float(np.trace(p_minus)) - expected))
    out.append(("unit_commutation", worst_comm, 1e-12))
    out.append(("unit_squares", worst_square, 1e-12))
    out.append(("projector_ranks", worst_rank, 1e-6))

    params = oscillator.OscillatorParams()
    space = tensor.build_product_space(
        [tensor.FactorSpace.standard(2), tensor.FactorSpace.standard(2)])
    pair = oscillator.CanonicalPair(rng.uniform(0.5, 2.0, size=2), params)
    lifted_x = tensor.lift_operator(pair.x, 0, space)
    p_plus = space.physical_projector
    worst_escape = linalg.frobenius(p_plus @ lifted_x @ p_plus)
    h_c = _rand_hermitean(rng, 2)
    lifted_h = tensor.lift_operator(realify.embed_matrix(h_c), 1, space)
    worst_within = linalg.frobenius(lifted_h @ p_plus - p_plus @ lifted_h)
    out.append(("antilinear_lift_escapes", worst_escape, 1e-10))
    out.append(("linear_lift_stays", worst_within, 1e-10))

    bad_rank = 0
    j2 = realify.standard_complex_structure(1).matrix
    for _ in range(4):
        phi = rng.standard_normal(2)
        psi = rng.standard_normal(2)
        phi = phi / np.linalg.norm(phi)
        psi = psi / np.linalg.norm(psi)
        vecs = [np.kron(phi, psi), np.kron(j2 @ phi, psi),
                np.kron(phi, j2 @ psi), np.kron(j2 @ phi, j2 @ psi)]
        if realify.matrix_set_rank(vecs) != 4:
            bad_rank += 1
    out.append(("four_vector_independence", float(bad_rank), 0.0))

    three = tensor.build_product_space([tensor.FactorSpace.standard(1)] * 3)
    worst = 0.0
    bad_relation = 0
    for eps in (1, -1):
        for eta in (1, -1):
            p_eps = tensor.subspace_projector(three, [eps, 1])
            q_eta = tensor.subspace_projector(three, [1, eta])
            worst = max(worst, linalg.frobenius(p_eps @ q_eta - q_eta @ p_eps))
            if not tensor.subspace_unit_relation(three, [eps, eta]):
                bad_relation += 1
    out.append(("three_factor_projector_commutation", worst, 1e-12))
    out.append(("three_factor_unit_relations", float(bad_relation), 0.0))
    return out


_SUITES = (
    ("linalg", _check_linalg),
    ("realify", _check_realify),
    ("states", _check_states),
    ("dynamics", _check_dynamics),
    ("oscillator", _check_oscillator),
    ("tensor", _check_tensor),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_checks(suites=None, seed: int = 0,
               threshold_override: float | None = None) -> list[CheckResult]:
    """Run the requested suites (all by default) and return their results."""
    selected = SUITE_NAMES if suites is None else tuple(suites)
    unknown = [s for s in selected if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    results: list[CheckResult] = []
    for index, (name, runner) in enumerate(_SUITES):
        if name not in selected:
            continue
        rng = np.random.default_rng([seed, index])
        with trace.span("check", suite=name) as fields:
            rows = [CheckResult(suite=name, name=check_name, residual=float(residual),
                                threshold=float(threshold if threshold_override is None
                                                else threshold_override))
                    for check_name, residual, threshold in runner(rng)]
            worst = max((r.residual / r.threshold for r in rows if r.threshold > 0),
                        default=0.0)
            fields.update(checks=len(rows), failures=sum(not r.passed for r in rows),
                          worst_margin=worst if math.isfinite(worst) else None)
        results += rows
    return results
