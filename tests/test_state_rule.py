"""Complex and real states follow one rule.

A complex density rho_c enters the real theory as embed(rho_c)/2, and
`physical_from_complex` validates that image with `density_matrix`, the
rule of every state.  Near each boundary of that rule (Hermiticity, unit
trace, positivity) the two calls must agree: the same matrix flagged
physical, or a ConstraintError with the same message.
"""

import numpy as np
import pytest

from realqm.linalg import ConstraintError
from realqm.realify import embed_matrix, standard_complex_structure
from realqm.states import density_matrix, physical_from_complex

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def verdict(call):
    try:
        rho = call()
    except ConstraintError as exc:
        return str(exc)
    assert rho.physical
    return rho.matrix


def near_boundary(d, seed, lam_min, trace_off, skew):
    """A complex d x d density whose least eigenvalue is lam_min, whose trace
    is 1 + trace_off, plus a non-Hermitean part of Frobenius norm skew."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    if d == 1:
        lam = np.array([1.0 + trace_off])
    else:
        rest = rng.uniform(0.1, 1.0, d - 1)
        lam = np.concatenate([[lam_min], rest * (1.0 + trace_off - lam_min) / rest.sum()])
    rho = (u * lam) @ u.conj().T
    n = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return rho + skew * n / np.linalg.norm(n)


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(-3e-10, 1e-10),
       st.floats(-3e-10, 3e-10), st.one_of(st.just(0.0), st.floats(0.0, 1e-9)))
@example(2, 0, -1.5e-10, 0.0, 0.0)
@example(2, 0, -2.5e-10, 0.0, 0.0)
def test_complex_density_follows_the_real_state_rule(d, seed, lam_min, trace_off, skew):
    rho_c = near_boundary(d, seed, lam_min, trace_off, skew)
    j = standard_complex_structure(d)
    got = verdict(lambda: physical_from_complex(rho_c))
    want = verdict(lambda: density_matrix(embed_matrix(rho_c) / 2.0, j))
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("lam_min,accepted", [(-1.5e-10, True), (-2.5e-10, False)])
def test_psd_slack_applies_to_the_real_image(lam_min, accepted):
    # The real image has half the eigenvalues of rho_c, and its own 1e-10 slack.
    rho_c = np.diag([1.0 - lam_min, lam_min]).astype(complex)
    if accepted:
        assert physical_from_complex(rho_c).physical
    else:
        with pytest.raises(ConstraintError,
                           match=r"positive semidefinite, minimum eigenvalue -1\.25e-10$"):
            physical_from_complex(rho_c)
