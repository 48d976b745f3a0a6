"""The complex frame of J and the propagators built in it."""

import re
from pathlib import Path

import numpy as np
import pytest

import realqm
from realqm.dynamics import (
    Hamiltonian,
    SymplecticForm,
    evolve,
    expectation_grid,
    hamiltonian,
    propagator,
)
from realqm.linalg import commutes
from realqm.realify import (
    ComplexStructure,
    embed_matrix,
    standard_complex_structure,
)
from realqm.states import density_matrix, physical_from_complex

from helpers import rand_complex

SEED = 6021


def rotated(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((2 * d, 2 * d)))
    return q, ComplexStructure(q @ standard_complex_structure(d).matrix @ q.T)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_frame_is_orthonormal_and_spans_the_plus_i_eigenspace(d):
    rng = np.random.default_rng(SEED + d)
    for j in (standard_complex_structure(d), rotated(rng, d)[1]):
        f = j.frame
        assert f.shape == (2 * d, d)
        np.testing.assert_allclose(j.matrix @ f, 1j * f, atol=1e-14)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(d), atol=1e-14)


def test_frame_compresses_embedded_matrices_to_their_complex_form():
    rng = np.random.default_rng(SEED)
    j = standard_complex_structure(3)
    a = rand_complex(rng, 3)
    f = j.frame
    compressed = f.conj().T @ embed_matrix(a) @ f
    # The frame is unique up to a unitary change of basis, so compare invariants.
    np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(compressed)),
                               np.sort_complex(np.linalg.eigvals(a)), atol=1e-12)
    np.testing.assert_allclose(2.0 * (f @ compressed @ f.conj().T).real, embed_matrix(a),
                               atol=1e-13)


@pytest.mark.parametrize("phase", [1.0, 1e3, 1e6])
def test_evolution_is_covariant_under_a_rotated_structure(phase):
    rng = np.random.default_rng(SEED + 1)
    d = 3
    j = standard_complex_structure(d)
    q, jq = rotated(rng, d)
    w, wq = SymplecticForm(j), SymplecticForm(jq)
    h_c = rand_complex(rng, d)
    h_c = (h_c + h_c.conj().T) / 2.0
    g = rand_complex(rng, d)
    rho_c = g @ g.conj().T
    rho0 = physical_from_complex(rho_c / np.trace(rho_c).real)
    h = embed_matrix(h_c)
    a = rng.standard_normal((2 * d, 2 * d))
    a = a + a.T  # generic: antilinear part included
    t = phase / np.linalg.norm(h_c, 2)
    times = np.linspace(t - 1.0, t, 5)
    plain_h = hamiltonian(h, j)
    turned_rho0 = density_matrix(q @ rho0.matrix @ q.T, jq)
    turned_h = hamiltonian(q @ h @ q.T, jq)
    _, (plain,) = next(expectation_grid(rho0, plain_h, [a], times, w))
    _, (turned,) = next(expectation_grid(turned_rho0, turned_h, [q @ a @ q.T], times, wq))
    bound = max(1e-12, 1e-14 * phase)
    assert np.max(np.abs(turned - plain)) <= bound * np.linalg.norm(a)
    for time in times:
        plain_t = evolve(rho0, plain_h, float(time), w).matrix
        turned_t = evolve(turned_rho0, turned_h, float(time), wq)
        assert np.linalg.norm(turned_t.matrix - q @ plain_t @ q.T) <= bound
        assert commutes(turned_t.matrix, jq.matrix)


def test_asymmetric_complex_linear_hamiltonian_is_rejected():
    rng = np.random.default_rng(SEED + 2)
    j = standard_complex_structure(2)
    with pytest.raises(ValueError, match="symmetric"):
        h = Hamiltonian(matrix=embed_matrix(rand_complex(rng, 2)))
        propagator(h, 1.0, SymplecticForm(j))


def test_frame_is_computed_in_one_place():
    src = Path(realqm.__file__).parent
    hits = [(path.name, line) for path in sorted(src.glob("*.py"))
            for line in path.read_text().splitlines() if re.search(r"eigh\(-1j", line)]
    assert len(hits) == 1 and hits[0][0] == "realify.py"


@pytest.mark.parametrize("d", [1, 2, 5])
def test_standard_structure_is_shared_and_read_only(d):
    j = standard_complex_structure(d)
    assert standard_complex_structure(d) is j
    assert j.frame is j.frame
    np.testing.assert_array_equal(j.frame, np.linalg.eigh(-1j * j.matrix)[1][:, d:])
    with pytest.raises(ValueError, match="read-only"):
        j.matrix[0, 1] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        j.frame[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        j.matrix += 0.0


def test_a_rotated_structure_gets_its_own_frame():
    rng = np.random.default_rng(SEED + 3)
    q, jq = rotated(rng, 2)
    f = jq.frame
    assert jq.frame is f and f is not standard_complex_structure(2).frame
    np.testing.assert_array_equal(f, np.linalg.eigh(-1j * jq.matrix)[1][:, 2:])
    np.testing.assert_allclose(jq.matrix @ f, 1j * f, atol=1e-14)
    assert ComplexStructure(jq.matrix).frame is not f
