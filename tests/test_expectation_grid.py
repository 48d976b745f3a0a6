"""`expectation_grid` against `evolve`, the one-point real-space reference.

The grid evaluates Tr(rho(t) A) in the energy eigenbasis and never builds
rho(t).  Over generic Hamiltonians, states that are physical only within
tolerance (a small antilinear part) and generic symmetric observables (an
antilinear part included), every column must match the trace of the state
`evolve` builds at that time.
"""

import numpy as np
import pytest

from realqm.dynamics import SymplecticForm, evolve, expectation_grid, hamiltonian
from realqm.linalg import DEFAULT_TOL
from realqm.realify import embed_matrix, standard_complex_structure
from realqm.states import density_matrix

from helpers import rand_complex

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_columns_match_evolve(d, seed, antilinear):
    rng = np.random.default_rng(seed)
    j = standard_complex_structure(d)
    w = SymplecticForm(j)
    h_c = rand_complex(rng, d)
    h = hamiltonian(embed_matrix(h_c + h_c.conj().T), j)
    g = rand_complex(rng, d)
    rho = embed_matrix(g @ g.conj().T) / (2.0 * np.trace(g @ g.conj().T).real)
    # A traceless symmetric antilinear part delta: ||[delta, J]|| = 2 ||delta||,
    # so this scale keeps the state physical within at most half the tolerance.
    delta = rng.standard_normal((2 * d, 2 * d))
    delta = delta + delta.T
    delta = (delta + j.matrix @ delta @ j.matrix) / 2.0
    limit = 0.25 * DEFAULT_TOL.abs_tol * np.linalg.norm(rho) * np.linalg.norm(j.matrix)
    rho0 = density_matrix(rho + antilinear * limit * delta / np.linalg.norm(delta), j)
    assert rho0.physical
    a = rng.standard_normal((2 * d, 2 * d))
    a = a + a.T
    times = np.sort(rng.uniform(-10.0, 10.0, size=5))
    [(block, (column,))] = expectation_grid(rho0, h, [a], times, w)
    np.testing.assert_array_equal(block, times)
    for t, value in zip(times, column):
        expected = np.trace(evolve(rho0, h, float(t), w).matrix @ a)
        assert abs(value - expected) <= 1e-13 * np.linalg.norm(a, 2)


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_first_point_is_the_initial_expectation_up_to_rounding(d, seed, log_scale):
    # The grid is not exact at t = 0: R, S and the M terms are eigenbasis
    # transforms, so the value carries their rounding, a few eps ||A||_F.
    rng = np.random.default_rng(seed)
    j = standard_complex_structure(d)
    h_c = rand_complex(rng, d)
    h = hamiltonian(embed_matrix(h_c + h_c.conj().T) * 10.0**log_scale, j)
    g = rand_complex(rng, d)
    rho0 = density_matrix(embed_matrix(g @ g.conj().T) / (2.0 * np.trace(g @ g.conj().T).real), j)
    a = rng.standard_normal((2 * d, 2 * d))
    a = (a + a.T) * 10.0**-log_scale
    [(_, (column,))] = expectation_grid(rho0, h, [a], [0.0, 1.0], SymplecticForm(j))
    bound = 8 * d * np.finfo(float).eps * np.linalg.norm(a)
    assert abs(column[0] - np.trace(rho0.matrix @ a)) <= bound


def per_observable_columns(rho0, h, observables, times, w):
    """The grid with one [M1 | M2] term and one z-product per observable: the
    formula the batched terms must reproduce bit for bit."""
    f = w.j.frame
    e, v = np.linalg.eigh(f.conj().T @ h.matrix @ f)
    x = f @ v
    x_h = x.conj().T
    r, s = x_h @ rho0.matrix @ x, x_h @ rho0.matrix @ x.conj()
    terms = [np.hstack([r * (x_h @ a @ x).T, s * (x.T @ a @ x).T]) for a in observables]
    z = np.exp(-1j * (np.asarray(times)[:, np.newaxis] / w.hbar * e))
    zz = np.hstack([z.conj(), z])
    return [2.0 * ((z @ m) * zz).sum(axis=1).real for m in terms]


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 128),
       st.floats(-3.0, 3.0))
def test_batched_terms_equal_the_per_observable_formula(d, seed, count, points, log_hbar):
    rng = np.random.default_rng(seed)
    j = standard_complex_structure(d)
    w = SymplecticForm(j, 10.0**log_hbar)
    h_c = rand_complex(rng, d)
    h = hamiltonian(embed_matrix(h_c + h_c.conj().T), j)
    g = rand_complex(rng, d)
    rho0 = density_matrix(embed_matrix(g @ g.conj().T) / (2.0 * np.trace(g @ g.conj().T).real), j)
    observables = [a + a.T for a in rng.standard_normal((count, 2 * d, 2 * d))]
    times = np.linspace(-5.0, 5.0, points)
    [(_, columns)] = expectation_grid(rho0, h, observables, times, w)
    want = per_observable_columns(rho0, h, observables, times, w)
    assert len(columns) == count
    for got, expected in zip(columns, want):
        assert got.tobytes() == expected.tobytes()
