"""Random draws and a CLI runner shared by the test modules.

Each draw takes a numpy Generator and consumes it in a fixed order, so a
test that seeds its generator sees the same values wherever it draws them.
"""

import numpy as np

from realqm.cli import main
from realqm.realify import ComplexStructure, standard_complex_structure
from realqm.states import physical_from_complex


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rand_hermitean(rng, d):
    g = rand_complex(rng, d)
    return (g + g.conj().T) / 2.0


def rand_unitary(rng, d):
    q, r = np.linalg.qr(rand_complex(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_physical(rng, d):
    g = rand_complex(rng, d)
    rho = g @ g.conj().T
    return physical_from_complex(rho / np.trace(rho).real)


def rand_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def rand_state_params(rng, n=None):
    """(alpha, beta, gamma, delta) of `physical_density_4d`: n draws each, or
    one scalar each when n is None."""
    alpha = 0.5 * rng.random(n)
    beta = 0.5 - alpha
    radius = np.sqrt(rng.random(n) * alpha * beta)
    angle = 2.0 * np.pi * rng.random(n)
    return alpha, beta, radius * np.cos(angle), radius * np.sin(angle)


def random_structure(rng, d):
    """Q J_std Q^T for a random orthogonal Q: a non-standard complex structure."""
    q, _ = np.linalg.qr(rng.standard_normal((2 * d, 2 * d)))
    return ComplexStructure(q @ standard_complex_structure(d).matrix @ q.T)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err
