"""The one-matrix route of `state_stack` against the batched route.

A stack of one matrix that passes every check is judged with scalar norms
(`states._one`); anything else goes to the batched route, which holds every
message.  Over matrices on every side of each check, `state_stack` of one
matrix must raise the batched route's ConstraintError message, or return its
trace, minimum eigenvalue, physicality residual and flag bit for bit; and
`density_matrix` must agree with it.
"""

import math

import numpy as np
import pytest

from realqm import states
from realqm.linalg import DEFAULT_TOL, ConstraintError, Tolerance
from realqm.realify import embed_matrix, standard_complex_structure
from realqm.states import density_matrix, state_stack

from helpers import rand_complex

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=400)
FIELDS = ("trace", "min_eigenvalue", "physicality_residual", "physical")


def outcome(call):
    """A ConstraintError's message, or the statistics' bytes."""
    try:
        stack = call()
    except ConstraintError as exc:
        return str(exc)
    return tuple((getattr(stack, f).dtype.str, getattr(stack, f).tobytes()) for f in FIELDS)


def candidate(d, seed, commuting, skew, trace_off, lam_min, bad_entry, scale):
    """A real 2d x 2d matrix near every boundary of the state rule.

    A unit-trace PSD matrix whose least eigenvalue is lam_min, J-commuting
    (an embedded complex density, halved) or not, plus an antisymmetric part
    of Frobenius norm skew, its trace moved by trace_off, an entry set to
    NaN or inf, and every entry multiplied by 2^scale ("top": the largest
    entry lands in [2^1023, 2^1024)).
    """
    rng = np.random.default_rng(seed)
    n = 2 * d
    if commuting:  # each eigenvalue of the complex density appears twice, halved
        q, _ = np.linalg.qr(rand_complex(rng, d))
        lam = np.array([1.0])
        if d > 1:
            lam = np.concatenate([[2.0 * lam_min], rng.uniform(0.1, 1.0, d - 1)])
            lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
        m = embed_matrix((q * lam) @ q.conj().T) / 2.0
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([[lam_min], rng.uniform(0.1, 1.0, n - 1)])
        lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
        m = (q * lam) @ q.T
        m = (m + m.T) / 2.0
    if skew:
        g = rng.standard_normal((n, n))
        m = m + skew * (g - g.T) / np.linalg.norm(g - g.T)
    m = m + trace_off / n * np.eye(n)
    if bad_entry is not None:
        k = rng.integers(n), rng.integers(n)
        m[k] = bad_entry
    if scale == "top":
        scale = 1024 - math.frexp(np.abs(m[np.isfinite(m)]).max())[1]
    return np.ldexp(m, scale)


@SETTINGS
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, 1e-300, 1e-14, 1e-9, 1e-3]),
       st.sampled_from([0.0, 5e-11, -2e-10, 1e-6]),
       st.sampled_from([0.0, 0.05, -5e-11, -2e-10, -1e-3]),
       st.one_of(st.none(), st.sampled_from([float("nan"), float("inf"), -float("inf")])),
       st.one_of(st.just(0), st.integers(-1100, 60), st.just("top")),
       st.sampled_from([DEFAULT_TOL, Tolerance(0.0), Tolerance(1e-14), Tolerance(1e-6, 1e-6)]),
       st.booleans(), st.booleans())
@example(2, 0, True, 0.0, 0.0, 0.05, None, 0, DEFAULT_TOL, True, True)  # the all-clear case
@example(2, 0, True, 0.0, 0.0, 0.05, None, 0, Tolerance(0.0), True, True)
@example(2, 0, False, 0.0, 0.0, 0.05, None, "top", DEFAULT_TOL, True, False)
def test_one_matrix_route_equals_the_batched_route(d, seed, commuting, skew, trace_off, lam_min,
                                                   bad_entry, scale, tol, with_j, density):
    m = candidate(d, seed, commuting, skew, trace_off, lam_min, bad_entry, scale)
    j = standard_complex_structure(d) if with_j else None
    got = outcome(lambda: state_stack(m[np.newaxis], j, tol, density=density))
    want = outcome(lambda: states._batched(m[np.newaxis], j, tol, None, density))
    assert got == want
    if density and np.isfinite(m).all():  # density_matrix rejects the rest as input
        try:
            flag = density_matrix(m, j, tol).physical
        except ConstraintError as exc:
            flag = str(exc)
        physical = isinstance(want, tuple) and want[-1][1] == np.array([True]).tobytes()
        assert flag == (want if isinstance(want, str) else physical)


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("with_j", [True, False])
def test_a_generic_state_takes_the_one_matrix_route(d, with_j):
    # An embedded complex density: m - m^T and [m, J] are exactly zero.
    rng = np.random.default_rng(d)
    g = rand_complex(rng, d)
    m = embed_matrix(g @ g.conj().T / np.trace(g @ g.conj().T).real) / 2.0
    j = standard_complex_structure(d) if with_j else None
    one = states._one(m[np.newaxis], j, DEFAULT_TOL, True)
    assert one is not None
    assert outcome(lambda: one) == outcome(
        lambda: states._batched(m[np.newaxis], j, DEFAULT_TOL, None, True))
    assert bool(one.physical[0]) is with_j


@pytest.mark.parametrize("d", [1, 2, 8])
def test_an_exactly_symmetric_state_takes_the_one_matrix_route_at_zero_tolerance(d, monkeypatch):
    # At Tolerance(0.0) no bound on a residual below 2^-510 is negligible, so
    # an exactly zero m - m^T went to the batched route for the same verdict.
    g = rand_complex(np.random.default_rng(d), d)
    h = g @ g.conj().T
    h = (h + h.conj().T) / (2.0 * np.trace(h).real)  # exactly Hermitian
    m = embed_matrix(h) / 2.0
    assert not (m - m.T).any()
    j, tol = standard_complex_structure(d), Tolerance(0.0)
    want = outcome(lambda: states._batched(m[np.newaxis], j, tol, None, True))

    def batched(*args):
        raise AssertionError("the batched route was taken")

    monkeypatch.setattr(states, "_batched", batched)
    assert outcome(lambda: state_stack(m[np.newaxis], j, tol)) == want
