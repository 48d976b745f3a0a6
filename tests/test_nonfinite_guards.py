"""Parameter guards fail on every non-finite value, NaN included.

A guard written `x <= 0` or `x < -slack` is false for NaN and lets it
through; each guard below is written so that NaN (and, where the value must
be a finite positive number, an infinity) raises the guard's own exception
with its own message.  The CLI rejects such values before the library sees
them, so these sites are reached only through the library.
"""

import numpy as np
import pytest

from realqm.dynamics import SymplecticForm, symplectic_lie_form_check
from realqm.linalg import ConstraintError, Tolerance, commutes
from realqm.oscillator import FermionicStructure, OscillatorParams, uncertainty_product
from realqm.realify import standard_complex_structure
from realqm.states import physical_density_4d

NAN, INF = float("nan"), float("inf")
NON_FINITE = [NAN, INF, -INF]
J2 = standard_complex_structure(2)


@pytest.mark.parametrize("params, message", [
    ((NAN, 0.25, 0.0, 0.0), "trace constraint"),
    ((0.25, NAN, 0.0, 0.0), "trace constraint"),
    ((INF, -INF, 0.0, 0.0), "trace constraint"),
    ((INF, 0.25, 0.0, 0.0), "trace constraint"),
    ((0.25, 0.25, NAN, 0.0), r"alpha\*beta - gamma\^2 - delta\^2 = nan"),
    ((0.25, 0.25, 0.0, NAN), r"alpha\*beta - gamma\^2 - delta\^2 = nan"),
    ((0.25, 0.25, INF, 0.0), r"alpha\*beta - gamma\^2 - delta\^2 = -inf"),
    ((0.25, 0.25, 0.0, -INF), r"alpha\*beta - gamma\^2 - delta\^2 = -inf"),
])
def test_physical_density_4d(params, message):
    with pytest.raises(ConstraintError, match=message):
        physical_density_4d(*params)
    # The closed-form uncertainty product validates the state first.
    with pytest.raises(ConstraintError, match=message):
        uncertainty_product(*params, [1.0, 2.0], OscillatorParams())


def test_physical_density_4d_still_accepts_the_boundary():
    rho = physical_density_4d(0.5, 0.0, 0.0, 0.0)
    assert commutes(rho.matrix, standard_complex_structure(2).matrix)
    assert uncertainty_product(0.25, 0.25, 0.0, 0.0, [1.0, 2.0], OscillatorParams()) == 0.625


@pytest.mark.parametrize("field", ["mass", "omega", "hbar"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_oscillator_params(field, value):
    with pytest.raises(ValueError, match="mass, omega and hbar must be positive"):
        OscillatorParams(**{field: value})


@pytest.mark.parametrize("field", ["abs_tol"])
def test_tolerance(field):
    with pytest.raises(ValueError, match="tolerances must be nonnegative"):
        Tolerance(**{field: NAN})
    # An infinite tolerance accepts every finite residual, and stays allowed.
    assert Tolerance(**{field: INF}).abs_tol == INF


@pytest.mark.parametrize("hbar", [*NON_FINITE, 0.0, -1.0])
def test_symplectic_form(hbar):
    # The one hbar guard: propagator, expectation_grid and evolve read hbar
    # from a form, and no form holds these (hbar cancels from a translation).
    with pytest.raises(ValueError, match="hbar must be positive"):
        SymplecticForm(J2, hbar)


@pytest.mark.parametrize("hbar", [*NON_FINITE, 0.0, -1.0])
def test_symplectic_lie_form_check(hbar):
    # Unguarded, the check returned a verdict (False) for each of these.  It
    # reads hbar from its form, and no form holds one of them.
    a = np.diag([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="hbar must be positive"):
        symplectic_lie_form_check(a, a, np.zeros((4, 4)), SymplecticForm(J2, hbar))
    assert symplectic_lie_form_check(a, a, np.zeros((4, 4)), SymplecticForm(J2))


@pytest.mark.parametrize("xi", NON_FINITE)
def test_build_fermionic(xi):
    with pytest.raises(ConstraintError, match="^length must be positive$"):
        FermionicStructure(xi, OscillatorParams())
