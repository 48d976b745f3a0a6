"""Real tensor products of realified spaces and their physical subspace.

The real tensor product of factors R^(2d_a) and R^(2d_b) has dimension
4 d_a d_b, twice that of the realified complex tensor product, because the
lifted imaginary units J_a = J (x) I and J_b = I (x) J act independently.
The complementary orthogonal projectors (I -+ J_a J_b)/2 split the product
into the halves where J_a = J_b and J_a = -J_b; the first half carries the
complex tensor product.  Each additional factor contributes one more
projector pair (I -+ J_a J_k)/2 anchored on the first factor, and on the
intersection of the plus ranges all lifted units coincide.

Operators that anticommute with a factor's unit lift to operators mapping
the physical half onto the unphysical one; such maps have no counterpart in
the complex theory.

Every lifted unit I (x) J_k (x) I touches one Kronecker factor, so it is
applied to a block by reshaping the product index to (before, d_k, after)
and multiplying by the small J_k: O(d_k n c) work for an n x c block
instead of the O(n^2 c) of a dense product.  The projectors are applied
the same way, one factor pair at a time, from the left or the right; the
dense `units`, `physical_projector` (on first read) and lifts apply them to I.
The physical basis needs no eigensolve of the n x n projector: Kronecker
products of the factors' +i eigenvectors span the physical subspace over
the complex numbers, and their real parts (with the U_0 images) give an
orthonormal real basis for any orthogonal antisymmetric J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_real_matrix, frobenius, negligible
from .realify import ComplexStructure, standard_complex_structure

__all__ = [
    "FactorSpace",
    "ProductSpace",
    "EscapeCheck",
    "MAX_PRODUCT_DIM",
    "kron",
    "build_product_space",
    "subspace_projector",
    "subspace_unit_relation",
    "lift_operator",
    "physical_escape_check",
    "physical_basis",
    "validate_product_density",
]

# Dense construction only; three factors of complex dimension 2 hit this cap.
MAX_PRODUCT_DIM = 256


@dataclass(frozen=True)
class FactorSpace:
    d: int
    j: ComplexStructure

    @classmethod
    def standard(cls, d: int) -> "FactorSpace":
        return cls(d=d, j=standard_complex_structure(d))

    @property
    def dim(self) -> int:
        return 2 * self.d


@dataclass(frozen=True)
class ProductSpace:
    factors: tuple[FactorSpace, ...]
    dim: int

    @cached_property
    def units(self) -> tuple[np.ndarray, ...]:  # dense fields are built on first read
        return tuple(lift_operator(f.j.matrix, k, self) for k, f in enumerate(self.factors))

    @cached_property
    def physical_projector(self) -> np.ndarray:
        return subspace_projector(self, [1] * (len(self.factors) - 1))

    @property
    def physical_rank(self) -> int:
        return 2 * int(np.prod([f.d for f in self.factors]))


def kron(a, b) -> np.ndarray:
    """Real tensor product with first-factor-major block layout."""
    return np.kron(as_real_matrix(a), as_real_matrix(b))


def _apply_lifted(m: np.ndarray, index: int, dims: list[int], x: np.ndarray,
                  right: bool = False) -> np.ndarray:
    """(I_L (x) m (x) I_R) @ x, or x @ (I_L (x) m (x) I_R) when `right`.

    The lift acts on factor `index` alone, so reshaping the product index
    of x to (before, d_k, after) turns it into small products with m:
    O(d_k n c) work for an n x c block instead of O(n^2 c).
    """
    d = dims[index]
    if not right:
        before = math.prod(dims[:index])
        return np.matmul(m, x.reshape(before, d, -1)).reshape(x.shape)
    after = math.prod(dims[index + 1:])
    if after == 1:
        return (x.reshape(-1, d) @ m).reshape(x.shape)
    return np.matmul(m.T, x.reshape(-1, d, after)).reshape(x.shape)


def _apply_projector(factors, signs, x: np.ndarray, right: bool = False) -> np.ndarray:
    """prod_k (I - s_k U_0 U_k)/2 times x, from the left (or the right)."""
    dims = [f.dim for f in factors]
    j0 = factors[0].j.matrix
    for k, sign in enumerate(signs, start=1):
        flipped = _apply_lifted(
            j0, 0, dims, _apply_lifted(factors[k].j.matrix, k, dims, x, right), right)
        # x <- (x - sign * flipped) / 2, in place to spare two n x c temporaries
        flipped *= -sign
        flipped += x
        flipped *= 0.5
        x = flipped
    return x


def build_product_space(factors) -> ProductSpace:
    """The product of >= 2 factors; its dense units and projector are built on first read."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a product space needs at least two factors")
    total = math.prod(f.dim for f in factors)
    if total > MAX_PRODUCT_DIM:
        raise ValueError(f"dense product dimension {total} exceeds the cap {MAX_PRODUCT_DIM}")
    return ProductSpace(factors=factors, dim=total)


def subspace_projector(space: ProductSpace, signs) -> np.ndarray:
    """Projector onto the subspace where J_first = sign_k * J_k for each
    later factor k; signs has one entry of +1 or -1 per non-anchor factor."""
    signs = list(signs)
    if len(signs) != len(space.factors) - 1:
        raise ValueError("need one sign per factor beyond the first")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    return _apply_projector(space.factors, signs, np.eye(space.dim))


def subspace_unit_relation(space: ProductSpace, signs,
                           tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff (J_first - sign_k J_k) vanishes on the selected subspace."""
    signs = list(signs)
    projector = subspace_projector(space, signs)
    dims = [f.dim for f in space.factors]
    first = _apply_lifted(space.factors[0].j.matrix, 0, dims, projector)
    for k, sign in enumerate(signs, start=1):
        other = _apply_lifted(space.factors[k].j.matrix, k, dims, projector)
        if not negligible(frobenius(first - sign * other), space.dim, tol):
            return False
    return True


def lift_operator(op, factor_index: int, space: ProductSpace) -> np.ndarray:
    """Tensor `op` on the chosen factor with identities elsewhere."""
    op = as_real_matrix(op)
    if not 0 <= factor_index < len(space.factors):
        raise ValueError(f"factor index {factor_index} out of range")
    if op.shape[0] != space.factors[factor_index].dim:
        raise ValueError("operator dimension does not match the chosen factor")
    return _apply_lifted(op, factor_index, [f.dim for f in space.factors], np.eye(space.dim))


@dataclass(frozen=True)
class EscapeCheck:
    maps_within: bool  # commutes with the physical projector
    maps_across: bool  # swaps the physical half with its complement


def physical_escape_check(lifted, space: ProductSpace,
                          tol: Tolerance = DEFAULT_TOL) -> EscapeCheck:
    lifted = as_real_matrix(lifted)
    if lifted.shape[0] != space.dim:
        raise ValueError("operator dimension does not match the product space")
    signs = [1] * (len(space.factors) - 1)
    scale = frobenius(lifted)
    l_p = _apply_projector(space.factors, signs, lifted, right=True)
    within = negligible(frobenius(l_p - _apply_projector(space.factors, signs, lifted)),
                        scale, tol)
    # (I - P) L P - L P = -P L P, so P L P alone decides "across".
    across = negligible(frobenius(_apply_projector(space.factors, signs, l_p)), scale, tol)
    return EscapeCheck(maps_within=within, maps_across=across)


def physical_basis(space: ProductSpace) -> np.ndarray:
    """Orthonormal columns spanning the physical subspace, in closed form.

    Each factor's J has the +i eigenvectors v (J v = i v), and a Kronecker
    product z of one per factor has U_k z = i z for every lifted unit, so
    it lies in the physical subspace, as do its real and imaginary parts.
    The columns come in pairs (b, U_0 b) with b = sqrt(2) Re z, since
    U_0 b = -sqrt(2) Im z; they are orthonormal because z is orthogonal to
    its conjugate (eigenvalue -i).  On these columns the restricted U_0 is
    the standard interleaved complex structure, so restricting embedded
    complex operators reproduces the complex tensor product up to a
    unitary change of basis.
    """
    eigvecs = [np.linalg.eigh(-1j * f.j.matrix)[1][:, f.d:] for f in space.factors]
    z = np.sqrt(2.0) * reduce(np.kron, eigvecs)
    basis = np.empty((space.dim, 2 * z.shape[1]))
    basis[:, 0::2] = z.real
    basis[:, 1::2] = -z.imag
    return basis


def validate_product_density(rho, space: ProductSpace,
                             tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the physicality conditions of a product-space state.

    The state must live entirely inside the physical subspace
    (rho = P rho = rho P = P rho P) and commute with every lifted unit.
    Symmetry, positivity and unit trace are assumed of the input.
    """
    rho = as_real_matrix(rho)
    if rho.shape[0] != space.dim:
        raise ValueError("state dimension does not match the product space")
    signs = [1] * (len(space.factors) - 1)
    scale = frobenius(rho)

    def unchanged(compressed):
        return negligible(frobenius(rho - compressed), scale, tol)

    if not unchanged(_apply_projector(space.factors, signs, rho)):
        return False
    rho_p = _apply_projector(space.factors, signs, rho, right=True)
    if not (unchanged(rho_p) and unchanged(_apply_projector(space.factors, signs, rho_p))):
        return False
    dims = [f.dim for f in space.factors]
    return all(negligible(frobenius(_apply_lifted(f.j.matrix, k, dims, rho, right=True)
                                    - _apply_lifted(f.j.matrix, k, dims, rho)), scale, tol)
               for k, f in enumerate(space.factors))
