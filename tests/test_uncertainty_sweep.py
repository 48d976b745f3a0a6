"""The blocked uncertainty sweep of `check --suite oscillator`, bit for bit.

`checks._uncertainty_sweep` takes the uncertainty product of 10 000 R^4
states in entry-major blocks.  `one_pass` below is the former formulation,
kept verbatim: one (n, 4, 4) stack per matrix for the whole sweep.  The
kernel must give exactly its max |direct - closed| and min direct on the
samples the suite draws, and the suite must report exactly the residuals
it reported with `one_pass` (the table below).  Its peak traced memory
stays far below that of the whole-sweep stacks.
"""

import tracemalloc

import numpy as np
import pytest

from realqm import checks, oscillator
from realqm.checks import run_checks

SEEDS = (0, 1, 2, 3, 4, 5, 2**32 + 1, 2**62 + 11)

# Residuals of the oscillator suite with the one-pass sweep, in check order.
NAMES = ("canonical_bracket", "spectrum_roundtrip", "uncertainty_closed_form",
         "uncertainty_floor", "fermionic_identities", "number_hamiltonian_forms",
         "picture_equivalence")
ONE_PASS_RESIDUALS = {
    0: ("0x1.3988e1409212ep-52", "0x1.64ec78216fb86p-52", "0x1.0000000000000p-50", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    1: ("0x1.3988e1409212ep-52", "0x1.e58f6beb2a7ffp-53", "0x1.0000000000000p-50", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-54"),
    2: ("0x1.0000000000000p-52", "0x1.f63ea1b51a6e5p-53", "0x1.0000000000000p-50", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    3: ("0x1.3988e1409212ep-52", "0x1.2b7c32c3b8f6fp-52", "0x1.0000000000000p-50", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    4: ("0x1.3988e1409212ep-52", "0x1.eb7fc1382cecdp-53", "0x1.0000000000000p-50", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    5: ("0x1.6a09e667f3bcdp-53", "0x1.01ea15ac3b34fp-52", "0x1.8000000000000p-50", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    2**32 + 1: ("0x1.3988e1409212ep-52", "0x1.510ee1c0044cbp-52", "0x1.0000000000000p-50",
                "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-58"),
    2**62 + 11: ("0x1.0000000000000p-52", "0x1.b5006472ac055p-52", "0x1.8000000000000p-50",
                 "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
}
THRESHOLDS = (1e-12, 1e-10, 1e-10, 1e-12, 1e-12, 1e-12, 1e-10)


def one_pass(alpha, beta, gamma, delta, xi1, xi2, hbar):
    n = alpha.size
    rho = np.zeros((n, 4, 4))
    rho[:, 0, 0] = rho[:, 1, 1] = alpha
    rho[:, 2, 2] = rho[:, 3, 3] = beta
    rho[:, 0, 2] = rho[:, 2, 0] = rho[:, 1, 3] = rho[:, 3, 1] = gamma
    rho[:, 0, 3] = rho[:, 3, 0] = rho[:, 2, 1] = rho[:, 1, 2] = delta
    rho[:, 1, 2] *= -1.0
    rho[:, 2, 1] *= -1.0
    x = np.zeros((n, 4, 4))
    x[:, 0, 0] = xi1
    x[:, 1, 1] = -xi1
    x[:, 2, 2] = xi2
    x[:, 3, 3] = -xi2
    p = np.zeros((n, 4, 4))
    p[:, 0, 1] = p[:, 1, 0] = hbar / (2.0 * xi1)
    p[:, 2, 3] = p[:, 3, 2] = hbar / (2.0 * xi2)
    var_x = np.einsum("nij,nji->n", rho, x @ x) - np.einsum("nij,nji->n", rho, x) ** 2
    var_p = np.einsum("nij,nji->n", rho, p @ p) - np.einsum("nij,nji->n", rho, p) ** 2
    direct = np.sqrt(var_x * var_p)
    ratio = xi1 / xi2 - xi2 / xi1
    closed = hbar * np.sqrt((alpha + beta) ** 2 + alpha * beta * ratio**2)
    return float(np.max(np.abs(direct - closed))), float(direct.min())


def suite_samples(seed):
    """The arguments the oscillator suite at `seed` hands the sweep."""
    calls = []
    sweep = checks._uncertainty_sweep

    def record(*args):
        calls.append(args)
        return sweep(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_uncertainty_sweep", record)
        run_checks(suites=["oscillator"], seed=seed)
    assert len(calls) == 1
    return calls[0]


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_one_pass_on_the_suite_samples(seed):
    args = suite_samples(seed)
    assert args[0].size == 10000
    assert bits(checks._uncertainty_sweep(*args)) == bits(one_pass(*args))


@pytest.mark.parametrize("n", [1, checks._SWEEP_BLOCK - 1, checks._SWEEP_BLOCK + 1, 2345])
def test_kernel_matches_one_pass_on_a_partial_last_block(n):
    args = tuple(a[:n] if isinstance(a, np.ndarray) else a for a in suite_samples(7))
    assert bits(checks._uncertainty_sweep(*args)) == bits(one_pass(*args))


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_reports_the_one_pass_residuals(seed):
    results = run_checks(suites=["oscillator"], seed=seed)
    assert [(r.suite, r.name, r.residual.hex(), r.threshold) for r in results] == [
        ("oscillator", name, float.fromhex(value).hex(), threshold)
        for name, value, threshold in zip(NAMES, ONE_PASS_RESIDUALS[seed], THRESHOLDS,
                                          strict=True)]


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_closed_form_is_the_library_uncertainty_product(seed):
    alpha, beta, gamma, delta, xi1, xi2, hbar = suite_samples(seed)
    params = oscillator.OscillatorParams(hbar=hbar)
    closed = checks._closed_uncertainty(alpha, beta, xi1, xi2, hbar)
    library = [oscillator.uncertainty_product(*state, xis, params) for *state, xis in
               zip(alpha, beta, gamma, delta, np.column_stack([xi1, xi2]), strict=True)]
    # Bit for bit: both square by multiplication (libm's pow, which the
    # library once used, put 1 to 3 of the 10 000 samples an ulp off).
    assert closed.tobytes() == np.array(library).tobytes()


def test_block_stacks_stay_below_the_mmap_threshold():
    assert np.zeros((4, 4, checks._SWEEP_BLOCK)).nbytes < 128 * 1024


@pytest.mark.parametrize("seed", range(6))
def test_suite_peak_traced_memory_stays_below_2_mib(seed):
    # The one-pass sweep peaked at ~5.5 MiB: three (10000, 4, 4) stacks.
    tracemalloc.start()
    try:
        run_checks(suites=["oscillator"], seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
