"""The paper's symmetries, end to end through `realqm.cli.main`.

Each relation compares two `evolve` commands row by row, from parse through
decomposition, grid and render; time reversal is `test_cli.py`'s
`TestTimeReversal`.  Cases are drawn from fixed seeds at real dimensions 4,
8 and 16: a generic physical state, a generic complex-linear H and a
symmetric observable A that has an antilinear part, on 200 steps to T = 50.

- Scaling H and hbar, or t and hbar, by 2^k leaves every column's bytes
  unchanged, but the scaled energy or time, which scale exactly.
- An energy shift H + cI, a unitary change of frame (Q rho Q^T, Q H Q^T,
  Q A Q^T) with Q an embedded unitary, and A replaced by its complex-linear
  part move the rows by at most 2 (1 + T max|E| / hbar) eps ||A||_2, with
  E the spectrum of either H.  Over these cases the observable moves by at
  most 0.30, 0.18 and 0.006 of that bound, and the energy (A = H) by 0.066
  under the shift and 0.045 under the change of frame.  The turned state's
  trace, smallest eigenvalue and physicality residual, which LAPACK rounds
  its own way, move by at most 1 eps (asserted: 4 eps).
"""

import contextlib
import io
import json

import numpy as np
import pytest

from realqm import cli
from realqm.realify import embed_matrix, split_linear_antilinear, standard_complex_structure

from helpers import rand_complex, rand_hermitean, rand_unitary

EPS = np.finfo(float).eps
T, STEPS = 50.0, 200
CASES = [(2, 1), (2, 2), (4, 3), (4, 4), (8, 5), (8, 6)]  # (complex dimension, seed)
STATE_COLUMNS = ("trace", "min_eigenvalue", "physicality_residual")


def _matrix(m) -> dict:
    return {"dim": len(m), "entries": np.ravel(m).tolist()}


def columns(rho, h, a, t1=T, hbar=1.0) -> dict:
    """The CSV columns of one `evolve` command, as text, by name."""
    argv = ["evolve", "--state", json.dumps({"matrix": _matrix(rho)}),
            "--hamiltonian", json.dumps({"matrix": _matrix(h)}),
            "--observable", json.dumps({"observable": {"name": "a", "matrix": _matrix(a)}}),
            "--t1", repr(t1), "--steps", str(STEPS), "--hbar", repr(hbar), "--format", "csv"]
    assert cli._table_route(argv) is not None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 0, err.getvalue()
    header, *rows = out.getvalue().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def floats(column) -> np.ndarray:
    return np.array([float(x) for x in column])


def case(d, seed):
    """A generic physical state, complex-linear H and symmetric A at real dim 2d."""
    rng = np.random.default_rng(seed)
    g = rand_complex(rng, d)
    rho = embed_matrix(g @ g.conj().T / np.trace(g @ g.conj().T).real) / 2.0
    h = embed_matrix(rand_hermitean(rng, d))
    a = rng.standard_normal((2 * d, 2 * d))
    return rng, rho, h, a + a.T


def bound(a, *hs) -> float:
    """2 (1 + T max|E| / hbar) eps ||A||_2 at hbar = 1, E over every H given."""
    e = max(np.abs(np.linalg.eigvalsh(h)).max() for h in hs)
    return 2.0 * (1.0 + T * e) * EPS * np.linalg.norm(a, 2)


@pytest.mark.parametrize("k", [2, -3, 5])
@pytest.mark.parametrize("d, seed", CASES)
def test_scaling_h_and_hbar_keeps_the_bytes(d, seed, k):
    _, rho, h, a = case(d, seed)
    base, scaled = columns(rho, h, a), columns(rho, h * 2.0**k, a, hbar=2.0**k)
    for name in ("t", *STATE_COLUMNS, "a"):
        assert scaled[name] == base[name], name
    assert np.array_equal(floats(scaled["energy"]), 2.0**k * floats(base["energy"]))


@pytest.mark.parametrize("k", [2, -3, 5])
@pytest.mark.parametrize("d, seed", CASES)
def test_scaling_t_and_hbar_keeps_the_bytes(d, seed, k):
    _, rho, h, a = case(d, seed)
    base, scaled = columns(rho, h, a), columns(rho, h, a, t1=T * 2.0**k, hbar=2.0**k)
    for name in (*STATE_COLUMNS, "energy", "a"):
        assert scaled[name] == base[name], name
    assert np.array_equal(floats(scaled["t"]), 2.0**k * floats(base["t"]))


@pytest.mark.parametrize("d, seed", CASES)
def test_energy_shift_moves_only_the_energy(d, seed):
    _, rho, h, a = case(d, seed)
    shifted_h = h + 3.0 * np.eye(2 * d)
    base, shifted = columns(rho, h, a), columns(rho, shifted_h, a)
    for name in ("t", *STATE_COLUMNS):
        assert shifted[name] == base[name], name
    energy = floats(shifted["energy"]) - 3.0 - floats(base["energy"])
    assert np.abs(energy).max() <= bound(h, h, shifted_h)
    assert np.abs(floats(shifted["a"]) - floats(base["a"])).max() <= bound(a, h, shifted_h)


@pytest.mark.parametrize("d, seed", CASES)
def test_unitary_change_of_frame(d, seed):
    rng, rho, h, a = case(d, seed)
    q = embed_matrix(rand_unitary(rng, d))
    base, turned = columns(rho, h, a), columns(q @ rho @ q.T, q @ h @ q.T, q @ a @ q.T)
    assert turned["t"] == base["t"]
    for name in STATE_COLUMNS:  # invariants of the turned state, by LAPACK's own rounding
        assert np.abs(floats(turned[name]) - floats(base[name])).max() <= 4.0 * EPS, name
    assert np.abs(floats(turned["energy"]) - floats(base["energy"])).max() <= bound(h, h)
    assert np.abs(floats(turned["a"]) - floats(base["a"])).max() <= bound(a, h)


@pytest.mark.parametrize("d, seed", CASES)
def test_antilinear_part_is_invisible(d, seed):
    _, rho, h, a = case(d, seed)
    plus = split_linear_antilinear(a, standard_complex_structure(d)).plus
    base, linear = columns(rho, h, a), columns(rho, h, plus)
    for name in ("t", *STATE_COLUMNS, "energy"):
        assert linear[name] == base[name], name
    assert np.abs(floats(linear["a"]) - floats(base["a"])).max() <= bound(a, h)
