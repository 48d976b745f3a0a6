"""The structural dataclasses check their own fields.

A `ComplexStructure` is a (2d, 2d), finite, antisymmetric and orthogonal
matrix; a `FactorSpace` carries a `J` of its own complex dimension; a
`ProductSpace` has two or more factors and the product of their dimensions,
at most `MAX_PRODUCT_DIM`.  Each invariant needs no outside `J`, so a build
with inconsistent fields raises ValueError before any verdict can be read
from it.
"""

import numpy as np
import pytest

from realqm.realify import ComplexStructure, standard_complex_structure
from realqm.tensor import MAX_PRODUCT_DIM, FactorSpace, ProductSpace

from helpers import random_structure

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

KINDS = ("size", "scaled", "perturbed", "symmetric", "non_finite", "factor", "product")


def builds(rng, d, kind):
    """A consistent build of the `kind`'s type and an inconsistent one."""
    j = random_structure(rng, d)
    other = d + int(rng.integers(1, 3))
    if kind == "factor":
        return lambda: FactorSpace(d=d, j=j), lambda: FactorSpace(d=other, j=j)
    if kind == "product":
        factors = (FactorSpace(d=d, j=j), FactorSpace.standard(other))
        dim = 4 * d * other
        wrong = dim + 2 * int(rng.integers(1, 4))
        return (lambda: ProductSpace(factors=factors, dim=dim),
                lambda: ProductSpace(factors=factors, dim=wrong))
    bad, size = j.matrix.copy(), d
    if kind == "size":
        size = other
    elif kind == "scaled":
        bad *= rng.choice([rng.uniform(0.1, 0.9), rng.uniform(1.1, 3.0)])
    elif kind == "perturbed":
        bad += 1e-6 * rng.standard_normal(bad.shape)
    elif kind == "symmetric":  # J^2 = -I is orthogonal but symmetric
        bad = bad @ bad
    else:
        bad[tuple(rng.integers(0, 2 * d, size=2))] = rng.choice([np.nan, np.inf])
    return (lambda: ComplexStructure(d=d, matrix=j.matrix),
            lambda: ComplexStructure(d=size, matrix=bad))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(KINDS))
def test_inconsistent_fields_raise(seed, d, kind):
    good, bad = builds(np.random.default_rng(seed), d, kind)
    good()
    with pytest.raises(ValueError):
        bad()


def test_product_space_needs_two_factors_within_the_cap():
    # Accepted, one factor made every operator "map within", and a dim-1024
    # product allocated its dense fields past the cap.
    with pytest.raises(ValueError, match="at least two factors"):
        ProductSpace(factors=(FactorSpace.standard(2),), dim=4)
    with pytest.raises(ValueError, match=f"1024 exceeds the cap {MAX_PRODUCT_DIM}"):
        ProductSpace(factors=(FactorSpace.standard(16),) * 2, dim=1024)


def test_identity_is_not_a_complex_structure():
    # Accepted, it made the maximally mixed state "physical".
    with pytest.raises(ValueError, match="antisymmetric and orthogonal"):
        ComplexStructure(d=2, matrix=np.eye(4))


def test_factor_dimension_must_match_its_structure():
    with pytest.raises(ValueError, match="complex dimension 3"):
        FactorSpace(d=3, j=standard_complex_structure(1))


def test_list_matrix_is_stored_as_an_array():
    j = ComplexStructure(d=1, matrix=[[0, -1], [1, 0]])
    assert isinstance(j.matrix, np.ndarray) and j.matrix.dtype == float
    np.testing.assert_array_equal(j.matrix, standard_complex_structure(1).matrix)
