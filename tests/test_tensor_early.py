"""Early verdicts of the tensor checks: fewer n x n passes, the same answers.

`physical_escape_check` takes LP and PLP; off = |LP - PLP| bounds the
"within" residual |LP - PL| from below, and equals it over sqrt(2) for an
exactly symmetric L, so PL is taken only when neither settles the verdict.
`validate_product_density` stops after [rho, U_0] when
|[rho, U_0]| + 4 |rho - P rho P|, a bound on every [rho, U_k], is clearly
negligible.  Every verdict must equal the previous full route's, kept in
`test_tensor_inplace` as the reference, at residuals near the threshold,
at any scale and with signed zeros.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from realqm import tensor
from realqm.linalg import Tolerance, frobenius
from realqm.realify import embed_matrix
from realqm.tensor import (
    EscapeCheck,
    FactorSpace,
    build_product_space,
    lift_operator,
    physical_basis,
    physical_escape_check,
    validate_product_density,
)
from test_tensor_inplace import (
    FACTOR_LISTS,
    _old_physical_escape_check,
    _old_validate_product_density,
    _read_only,
    _space,
    _state,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

NEAR = st.fixed_dictionaries({
    "ds": st.sampled_from(FACTOR_LISTS),
    "rotated": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
    "k": st.one_of(st.integers(-1074, 1000),
                   st.sampled_from((-1074, -1060, -1022, -969, -600, 0, 990, 1000))),
    "log_tol": st.floats(-14.0, -6.0),
    "ratio": st.floats(0.5, 2.0),  # the residual aimed at, in thresholds
    "zeros": st.sampled_from((0.0, 0.5, 0.9)),  # the perturbation's share of zeros
})


def _tol(case) -> Tolerance:
    return Tolerance(abs_tol=10.0 ** case["log_tol"])


def _sparse(rng, n: int, zeros: float) -> np.ndarray:
    g = rng.standard_normal((n, n))
    g[rng.uniform(size=g.shape) < zeros] = 0.0
    return g


def _finish(rng, a: np.ndarray, k: int) -> np.ndarray:
    """a * 2^k, read-only, with every zero entry given a random sign."""
    a = a * 2.0 ** k
    zero = a == 0.0
    a[zero] = np.copysign(0.0, rng.choice((-1.0, 1.0), size=int(zero.sum())))
    return _read_only(a)


def _near(base: np.ndarray, g: np.ndarray, residual, case) -> np.ndarray:
    """base + c g, with c putting residual(c g) at `ratio` thresholds of |base|."""
    r = residual(g)
    c = case["ratio"] * 10.0 ** case["log_tol"] * frobenius(base) / r if r else 1.0
    return base + c * g


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(NEAR, st.sampled_from(("within", "across", "leak")), st.booleans())
def test_escape_verdicts_near_the_threshold_match_the_reference(case, part, symmetric):
    """L is a J-commuting lift ("within"), an antilinear lift ("across") or
    P G (I - P), which has off = 0 but is not symmetric ("leak"), plus a
    perturbation that puts the residual at 0.5-2 thresholds."""
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    n = space.dim
    p = space.physical_projector
    g = _sparse(rng, n, case["zeros"])
    if part == "leak":
        base = p @ g @ (np.eye(n) - p)
        lifted = base + base.T if symmetric else base
    else:
        k = int(rng.integers(len(space.factors)))
        j = space.factors[k].j.matrix
        m = rng.standard_normal(j.shape)
        m = (m - j @ m @ j) / 2.0 if part == "within" else (m + j @ m @ j) / 2.0
        base = lift_operator(m, k, space)
        if symmetric:
            base, g = (base + base.T) / 2.0, (g + g.T) / 2.0
        residual = ((lambda a: frobenius(a @ p - p @ a)) if part == "within"
                    else (lambda a: frobenius(p @ a @ p)))
        lifted = _near(base, g, residual, case)
    lifted = _finish(rng, lifted, case["k"])
    tol = _tol(case)
    assert (physical_escape_check(lifted, space, tol)
            == _old_physical_escape_check(lifted, space, tol))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(NEAR, st.sampled_from(("bound", "largest")),
       st.sampled_from(("generic", "across", "outside", "inside", "linear across")))
def test_density_verdicts_near_the_threshold_match_the_reference(case, aim, part):
    """rho is a physical state plus a symmetric perturbation, generic or
    confined to P g (I - P) + its transpose, (I - P) g (I - P) or P g P,
    sized so that either the early bound |[rho, U_0]| + 4 |rho - P rho P|
    or the largest residual of the full route is at 0.5-2 thresholds.

    A "linear across" g commutes with U_0, so [rho, U_0] stays 0 while
    [rho, U_1] reaches twice |rho - P rho P|: there the early exit needs
    the 4 |rho - P rho P| term of its bound."""
    rng = np.random.default_rng(case["seed"])
    space = _space(rng, case["ds"], case["rotated"])
    n = space.dim
    p = space.physical_projector
    q = np.eye(n) - p
    units = space.units
    g = _sparse(rng, n, case["zeros"])
    if part == "linear across":
        g, part = (g - units[0] @ g @ units[0]) / 2.0, "across"
    g = {"generic": g, "across": p @ g @ q, "outside": q @ g @ q, "inside": p @ g @ p}[part]
    g = g + g.T

    def residual(a):
        outside = frobenius(a - p @ a @ p)
        commutators = [frobenius(a @ u - u @ a) for u in units]
        return commutators[0] + 4.0 * outside if aim == "bound" else max(outside, *commutators)

    rho = _finish(rng, _near(_state(rng, space, "physical"), g, residual, case), case["k"])
    tol = _tol(case)
    assert (validate_product_density(rho, space, tol)
            == _old_validate_product_density(rho, space, tol))


# ---------------------------------------------------------------------------
# Work counts


@contextlib.contextmanager
def _counted():
    """Count projector applications, and lifted products outside them."""
    counts = {"projections": 0, "lifts": 0}
    inside = []
    project, lift = tensor._apply_projector, tensor._apply_lifted

    def counted_projector(*args, **kwargs):
        counts["projections"] += 1
        inside.append(True)
        try:
            return project(*args, **kwargs)
        finally:
            inside.pop()

    def counted_lift(*args, **kwargs):
        counts["lifts"] += not inside
        return lift(*args, **kwargs)

    with mock.patch.object(tensor, "_apply_projector", counted_projector), \
            mock.patch.object(tensor, "_apply_lifted", counted_lift):
        yield counts


@pytest.mark.parametrize("ds", [(1, 1), (8, 8), (2, 4, 4), (1, 1, 1, 1)])
def test_a_symmetric_lift_takes_two_projections_and_a_state_one_commutator(ds):
    space = build_product_space([FactorSpace.standard(d) for d in ds])
    rng = np.random.default_rng(6)
    d = ds[-1]
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    linear = lift_operator(embed_matrix(c + c.conj().T), len(ds) - 1, space)
    assert np.array_equal(linear, linear.T)
    with _counted() as counts:
        assert physical_escape_check(linear, space) == EscapeCheck(True, False)
    assert counts == {"projections": 2, "lifts": 0}
    basis = physical_basis(space)
    rho = basis @ basis.T / basis.shape[1]
    with _counted() as counts:
        assert validate_product_density(rho, space)
    assert counts == {"projections": 2, "lifts": 2}  # one commutator: U_0 rho and rho U_0


@pytest.mark.parametrize("ds", [(1, 1), (2, 1, 2)])
def test_a_leak_with_no_off_part_falls_through_to_pl(ds):
    """L = P G (I - P) has L P = 0, so off = 0 settles nothing; L is not
    symmetric, so PL is taken, and it reads "within" False."""
    rng = np.random.default_rng(7)
    space = build_product_space([FactorSpace.standard(d) for d in ds])
    p = space.physical_projector
    leak = p @ rng.standard_normal((space.dim,) * 2) @ (np.eye(space.dim) - p)
    with _counted() as counts:
        assert physical_escape_check(leak, space) == EscapeCheck(False, True)
    assert counts["projections"] == 3
