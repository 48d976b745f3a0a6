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
    space = _space(ds)
    rng = np.random.default_rng(3)
    k = len(ds) - 1
    op = rng.standard_normal((space.factors[k].dim,) * 2)
    lifted = lift_operator(op, k, space)
    generic = rng.standard_normal((space.dim, space.dim))
    for operator in (lifted, generic):
        peak = _peak_arrays(lambda: physical_escape_check(operator, space), space.dim)
        assert peak <= budget + BOOKKEEPING, peak


@pytest.mark.parametrize("ds, budget", SPACES)
def test_density_check_allocates_its_work_set_only(ds, budget):
    space = _space(ds)
    basis = physical_basis(space)
    rho = basis @ basis.T / basis.shape[1]
    assert validate_product_density(rho, space)  # every residual is computed
    peak = _peak_arrays(lambda: validate_product_density(rho, space), space.dim)
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
