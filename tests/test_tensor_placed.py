"""Index-placed lifts and the broadcast Kronecker basis, bit for bit.

`lift_operator` and `ProductSpace.units` place the factor matrix by index
into one zeroed array, and `physical_basis` forms the Kronecker product of
the factors' frames with one broadcast multiply per factor.  The previous
formulations (the factor kernel applied to the identity, and
`sqrt(2) * reduce(np.kron, frames)`) are kept below, verbatim, as the
reference; every output must equal theirs byte for byte, signed zeros and
subnormals included.
"""

from functools import reduce

import numpy as np
import pytest

from realqm.linalg import as_real_matrix
from realqm.tensor import (
    FactorSpace,
    ProductSpace,
    _apply_lifted,
    build_product_space,
    lift_operator,
    physical_basis,
)
from helpers import random_structure

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_tensor_inplace import _factor_lists, _scaled  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)


# ---------------------------------------------------------------------------
# Reference: the previous formulations, unchanged.


def _old_lift_operator(op, factor_index: int, space: ProductSpace) -> np.ndarray:
    """Tensor `op` on the chosen factor with identities elsewhere."""
    op = as_real_matrix(op)
    if not 0 <= factor_index < len(space.factors):
        raise ValueError(f"factor index {factor_index} out of range")
    if op.shape[0] != space.factors[factor_index].dim:
        raise ValueError("operator dimension does not match the chosen factor")
    return _apply_lifted(op, factor_index, [f.dim for f in space.factors], np.eye(space.dim))


def _old_units(space: ProductSpace) -> tuple[np.ndarray, ...]:
    dims = [f.dim for f in space.factors]
    return tuple(_apply_lifted(f.j.matrix, k, dims, np.eye(space.dim))
                 for k, f in enumerate(space.factors))


def _old_physical_basis(space: ProductSpace) -> np.ndarray:
    eigvecs = [f.j.frame for f in space.factors]
    z = np.sqrt(2.0) * reduce(np.kron, eigvecs)
    basis = np.empty((space.dim, 2 * z.shape[1]))
    basis[:, 0::2] = z.real
    basis[:, 1::2] = -z.imag
    return basis


# ---------------------------------------------------------------------------


def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _space(ds, rotated: bool, rng) -> ProductSpace:
    return build_product_space([FactorSpace(random_structure(rng, d)) if rotated
                                else FactorSpace.standard(d) for d in ds])


CASE = st.fixed_dictionaries({
    "ds": _factor_lists(),
    "rotated": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
    # 2^-1070 puts every entry in the subnormal range.
    "k": st.one_of(st.integers(-1074, 0), st.sampled_from((-1074, -1060, -1022, -600, 0))),
    "zeros": st.sampled_from((0.0, 0.1, 0.5, 1.0)),
})


@SETTINGS
@given(CASE)
def test_lift_matches_the_identity_product(case):
    rng = np.random.default_rng(case["seed"])
    space = _space(case["ds"], case["rotated"], rng)
    for k, f in enumerate(space.factors):
        op = _scaled(rng, rng.standard_normal((f.dim, f.dim)), case["k"], case["zeros"])
        _same_bytes(lift_operator(op, k, space), _old_lift_operator(op, k, space))


@SETTINGS
@given(CASE)
def test_units_and_basis_match_the_previous_formulations(case):
    rng = np.random.default_rng(case["seed"])
    space = _space(case["ds"], case["rotated"], rng)
    for got, want in zip(space.units, _old_units(space), strict=True):
        _same_bytes(got, want)
    _same_bytes(physical_basis(space), _old_physical_basis(space))


def test_negative_zeros_are_read_as_positive():
    """A product with the identity turns -0 into +0; the placed lift does too."""
    space = build_product_space([FactorSpace.standard(1), FactorSpace.standard(2)])
    op = np.array([[-0.0, -1.0], [2.0, -0.0]])
    lifted = lift_operator(op, 0, space)
    assert not np.signbit(lifted[lifted == 0.0]).any()
    _same_bytes(lifted, _old_lift_operator(op, 0, space))


def test_outputs_are_fresh_writeable_arrays():
    """The lift and the basis own their memory; writing to one leaves the space intact."""
    space = build_product_space([FactorSpace.standard(2), FactorSpace.standard(1)])
    basis = physical_basis(space)
    lifted = lift_operator(np.eye(4), 0, space)
    assert basis.flags.writeable and lifted.flags.writeable
    assert basis.flags.c_contiguous and lifted.flags.c_contiguous
    frames = [f.j.frame.copy() for f in space.factors]
    basis[...] = 0.0
    lifted[...] = 0.0
    for f, frame in zip(space.factors, frames):
        assert f.j.frame.tobytes() == frame.tobytes()
    _same_bytes(physical_basis(space), _old_physical_basis(space))
