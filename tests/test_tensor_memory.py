"""Memory budget of the tensor kernels at the largest product dimension.

Each check allocates its whole work set at the start of the call and
writes every product, projector step and residual into it, and a lift is
one array with the factor matrix placed into it.  The peak memory a call
allocates, as `tracemalloc` sees numpy's buffers, is counted in units of
one n x n float64 array at n = 256.  Small bookkeeping (lists, views,
factor-sized arrays) stays far below a tenth of a unit, so a budget of k
arrays admits k + 0.1 units.
"""

import tracemalloc

import numpy as np
import pytest

from realqm.linalg import DEFAULT_TOL, Tolerance
from realqm.tensor import (
    MAX_PRODUCT_DIM,
    FactorSpace,
    build_product_space,
    lift_operator,
    physical_basis,
    physical_escape_check,
    subspace_unit_relation,
    validate_product_density,
)

BOOKKEEPING = 0.1

# Below 2^-40, the rounding allowance of an early verdict, so no verdict is early.
FINE = Tolerance(abs_tol=1e-14)

# (complex factor dimensions, arrays a check that holds one projection may use)
SPACES = [((8, 8), 3), ((2, 4, 4), 4)]


def _peak_arrays(call, n: int) -> float:
    """The peak memory `call()` allocates, in n x n float64 arrays."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


def _space(ds):
    space = build_product_space([FactorSpace.standard(d) for d in ds])
    assert space.dim == MAX_PRODUCT_DIM
    return space


@pytest.mark.parametrize("ds, budget", SPACES)
def test_escape_check_allocates_its_work_set_only(ds, budget):
    """On every exit: off past the threshold (a lifted or generic operator),
    the symmetric rule (a symmetric J-commuting lift) and the fall-through
    to PL (P G (I - P), and the symmetric lift at a tolerance below the
    early verdicts' rounding allowance of 2^-40)."""
    space = _space(ds)
    rng = np.random.default_rng(3)
    k = len(ds) - 1
    op = rng.standard_normal((space.factors[k].dim,) * 2)
    lifted = lift_operator(op, k, space)
    generic = rng.standard_normal((space.dim, space.dim))
    j = space.factors[k].j.matrix
    linear = (op - j @ op @ j) / 2.0
    symmetric = lift_operator(linear + linear.T, k, space)
    p = space.physical_projector
    leak = p @ generic @ (np.eye(space.dim) - p)
    for operator, tol, verdict in ((lifted, DEFAULT_TOL, (False, False)),
                                   (generic, DEFAULT_TOL, (False, False)),
                                   (symmetric, DEFAULT_TOL, (True, False)),
                                   (symmetric, FINE, (True, False)),
                                   (leak, DEFAULT_TOL, (False, True))):
        check = physical_escape_check(operator, space, tol)
        assert (check.maps_within, check.maps_across) == verdict
        peak = _peak_arrays(lambda: physical_escape_check(operator, space, tol), space.dim)
        assert peak <= budget + BOOKKEEPING, peak


@pytest.mark.parametrize("ds, budget", SPACES)
def test_density_check_allocates_its_work_set_only(ds, budget):
    """On every exit: the projector test failing (a generic state), the
    early exit after [rho, U_0] (a physical state) and every commutator
    taken (the same state at a tolerance below the rounding allowance)."""
    space = _space(ds)
    basis = physical_basis(space)
    rho = basis @ basis.T / basis.shape[1]
    generic = np.random.default_rng(5).standard_normal((space.dim, space.dim))
    for state, tol, verdict in ((rho, DEFAULT_TOL, True), (rho, FINE, True),
                                (generic + generic.T, DEFAULT_TOL, False)):
        assert validate_product_density(state, space, tol) is verdict
        peak = _peak_arrays(lambda: validate_product_density(state, space, tol), space.dim)
        assert peak <= budget + BOOKKEEPING, peak


@pytest.mark.parametrize("ds", [ds for ds, _ in SPACES])
def test_unit_relation_allocates_three_arrays(ds):
    space = _space(ds)
    signs = [1] * (len(ds) - 1)
    peak = _peak_arrays(lambda: subspace_unit_relation(space, signs), space.dim)
    assert peak <= 3 + BOOKKEEPING, peak


@pytest.mark.parametrize("ds", [ds for ds, _ in SPACES])
def test_lift_allocates_its_result_only(ds):
    space = _space(ds)
    rng = np.random.default_rng(4)
    for k, f in enumerate(space.factors):
        op = rng.standard_normal((f.dim, f.dim))
        peak = _peak_arrays(lambda: lift_operator(op, k, space), space.dim)
        assert peak <= 1 + BOOKKEEPING, (k, peak)
