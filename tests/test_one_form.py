"""One symplectic form through all dynamics.

Every function that needs J and hbar together takes a `SymplecticForm`,
whose constructor holds the one hbar guard; none takes a `j` and an `hbar`
of its own.  A form of the wrong dimension is rejected with the function's
own message; a translation, in which hbar cancels, takes no form.
"""

import inspect

import numpy as np
import pytest

from realqm import dynamics, oscillator
from realqm.dynamics import SymplecticForm, evolve, expectation_grid, hamiltonian, propagator
from realqm.oscillator import CanonicalPair, OscillatorParams, translation_operator
from realqm.realify import standard_complex_structure
from realqm.states import density_matrix

J2 = standard_complex_structure(2)
H4 = hamiltonian(np.diag([1.0, 1.0, 2.0, 2.0]), J2)
RHO4 = density_matrix(np.eye(4) / 4.0, J2)
W3 = SymplecticForm(standard_complex_structure(3))
STRUCTURE = "matrix dimension does not match the complex structure"


@pytest.mark.parametrize("module", [dynamics, oscillator], ids=["dynamics", "oscillator"])
def test_no_public_function_takes_j_and_hbar(module):
    both = [name for name in module.__all__
            if inspect.isfunction(getattr(module, name))
            and {"j", "hbar"} <= inspect.signature(getattr(module, name)).parameters.keys()]
    assert both == []


@pytest.mark.parametrize("call, error, message", [
    (lambda: propagator(H4, 0.5, W3), ValueError, f"^{STRUCTURE}$"),
    (lambda: expectation_grid(RHO4, H4, [np.eye(4)], [0.0, 1.0], W3), ValueError,
     f"^{STRUCTURE}$"),
    (lambda: evolve(RHO4, H4, 0.5, W3), ValueError, f"^{STRUCTURE}$"),
    # hbar cancels from a translation and its J is the standard one, so it
    # takes no form, of this dimension or any other.
    (lambda: translation_operator(CanonicalPair([1.0, 2.0], OscillatorParams()), 1.0, W3),
     TypeError, "takes 2 positional arguments but 3 were given"),
], ids=["propagator", "expectation_grid", "evolve", "translation_operator"])
def test_form_of_another_dimension(call, error, message):
    with pytest.raises(error, match=message):
        call()
