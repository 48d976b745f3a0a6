"""One bracket kernel behind the public bracket functions.

`poisson_bracket`, `jacobi_residual` and `liouville_rhs` validate what the
caller passes once and hand it to one kernel, A Omega B - B Omega A, which
trusts its arguments.  In particular `jacobi_residual` never re-checks its
inner brackets: a small bracket is symmetric only up to rounding, so the
symmetry test would reject valid input.  The `spectrum` eigenvalue column is
the sorted diagonal of the exactly diagonal oscillator Hamiltonian, bit for
bit what an eigensolver returns for it.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import realqm.dynamics
import realqm.linalg
from realqm import cli
from realqm.dynamics import (
    Hamiltonian,
    SymplecticForm,
    hamiltonian,
    jacobi_residual,
    liouville_grid,
    liouville_rhs,
    poisson_bracket,
    symplectic_lie_form_check,
)
from realqm.linalg import frobenius, sym_eig
from realqm.oscillator import (
    CanonicalPair,
    OscillatorParams,
    design_spectrum,
    oscillator_hamiltonian,
)
from realqm.realify import standard_complex_structure
from realqm.states import DensityMatrix, density_matrix, state_stack

from helpers import rand_physical, rand_symmetric

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def form(d, hbar=1.0):
    return SymplecticForm(standard_complex_structure(d), hbar)


class TestJacobiResidual:
    @pytest.mark.parametrize("gap", [1e-6, 1e-10])
    def test_nearly_equal_arguments_do_not_raise(self, gap):
        # The inner bracket {b, c} is small, so its rounding asymmetry is a
        # large fraction of its norm; a re-check of it would reject the call.
        rng = np.random.default_rng(0)
        a, b, e = (rand_symmetric(rng, 8) for _ in range(3))
        assert jacobi_residual(a, b, b + gap * e, form(4)) < 1e-13

    @SETTINGS
    @given(st.integers(1, 4), st.floats(-12.0, -2.0), st.integers(0, 2**32 - 1))
    def test_symmetric_arguments_never_raise(self, d, k, seed):
        rng = np.random.default_rng(seed)
        a, b, e = (rand_symmetric(rng, 2 * d) for _ in range(3))
        c = b + 10.0**k * e
        residual = jacobi_residual(a, b, c, form(d))
        assert residual <= 1e-9 * frobenius(a) * frobenius(b) * frobenius(c)

    def test_validates_each_argument_once(self, monkeypatch):
        calls = []
        original = realqm.linalg.as_real_matrix

        def counted(m):
            calls.append(m)
            return original(m)

        for module in (realqm.linalg, realqm.dynamics):
            monkeypatch.setattr(module, "as_real_matrix", counted)
        rng = np.random.default_rng(1)
        jacobi_residual(*(rand_symmetric(rng, 6) for _ in range(3)), form(3))
        assert len(calls) == 3


class TestBracketMessages:
    @pytest.mark.parametrize("bracket", [
        lambda a, b, w: poisson_bracket(a, b, w),
        lambda a, b, w: jacobi_residual(a, b, b, w),
    ], ids=["poisson_bracket", "jacobi_residual"])
    def test_messages_in_order(self, bracket):
        rng = np.random.default_rng(2)
        skew = rng.standard_normal((4, 4))
        sym4, sym6 = rand_symmetric(rng, 4), rand_symmetric(rng, 6)
        # A shape mismatch is reported before asymmetry, and asymmetry
        # before a mismatch with the symplectic form.
        with pytest.raises(ValueError, match="dimension mismatch between bracket arguments"):
            bracket(skew, sym6, form(3))
        with pytest.raises(ValueError, match="bracket arguments must be symmetric"):
            bracket(skew, sym4, form(3))
        with pytest.raises(ValueError,
                           match="arguments do not match the symplectic form dimension"):
            bracket(sym4, sym4, form(3))


class TestLiouvilleRhs:
    def test_equals_the_bracket_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for d, hbar in [(1, 1.0), (3, 0.7), (5, 1.054571817e-34)]:
            w = form(d, hbar)
            h = Hamiltonian(matrix=rand_symmetric(rng, 2 * d))
            rho = rand_physical(rng, d)
            expected = h.matrix @ w.omega @ rho.matrix - rho.matrix @ w.omega @ h.matrix
            assert np.array_equal(liouville_rhs(h, rho, w), expected)

    def test_symplectic_form_of_another_dimension(self):
        h = hamiltonian(np.eye(4), standard_complex_structure(2))
        rho = density_matrix(np.eye(4) / 4.0, standard_complex_structure(2))
        with pytest.raises(ValueError,
                           match="arguments do not match the symplectic form dimension"):
            liouville_rhs(h, rho, form(3))


def test_lie_form_check_dimension_mismatch():
    small, eye = np.eye(2), np.eye(4)
    for args in [(small, eye, eye), (eye, small, eye), (eye, eye, small)]:
        with pytest.raises(ValueError,
                           match="matrix dimension does not match the complex structure"):
            symplectic_lie_form_check(*args, form(2))


RHO4, H4 = np.eye(4) / 4.0, np.diag([1.0, 1.0, 2.0, 2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: liouville_grid(DensityMatrix(RHO4), Hamiltonian(H4), [0.0, 0.5],
                             form(3)),
     "arguments do not match the symplectic form dimension"),
    (lambda: state_stack(RHO4[np.newaxis], standard_complex_structure(3)),
     "matrix dimension does not match the complex structure"),
], ids=["grid_form", "stack_structure"])
def test_flow_and_stack_dimension_mismatch(call, message):
    # Each raised numpy's matmul error; the grid raises before its first block.
    # The grid measures at the form's own J, so no second J can disagree.
    with pytest.raises(ValueError, match=message):
        call()


@SETTINGS
@given(st.lists(st.tuples(st.integers(1, 12), st.sampled_from(["plus", "minus"])),
                min_size=1, max_size=40))
def test_spectrum_eigenvalues_are_the_sorted_diagonal(levels):
    targets = [0.5 * k for k, _ in levels]  # repeats and the ground level included
    branches = [b for _, b in levels]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["spectrum", ",".join(map(repr, targets)),
                         "--branch", ",".join(branches)])
    assert code == 0
    params = OscillatorParams()
    h = oscillator_hamiltonian(
        CanonicalPair(design_spectrum(targets, params, branches), params))
    eigenvalues = [row["eigenvalue"] for row in json.loads(out.getvalue())["rows"]]
    assert eigenvalues == sym_eig(h.matrix)[0].tolist()
