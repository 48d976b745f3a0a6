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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_real_matrix, frobenius, sym_eig
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
    units: tuple[np.ndarray, ...]  # lifted imaginary units, one per factor
    physical_projector: np.ndarray

    @property
    def physical_rank(self) -> int:
        return 2 * int(np.prod([f.d for f in self.factors]))


def kron(a, b) -> np.ndarray:
    """Real tensor product with first-factor-major block layout."""
    return np.kron(as_real_matrix(a), as_real_matrix(b))


def _lift(op: np.ndarray, index: int, dims: list[int]) -> np.ndarray:
    mats = [np.eye(n) for n in dims]
    mats[index] = op
    return reduce(np.kron, mats)


def build_product_space(factors) -> ProductSpace:
    """Assemble lifted units and the physical projector for >= 2 factors."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a product space needs at least two factors")
    dims = [f.dim for f in factors]
    total = int(np.prod(dims))
    if total > MAX_PRODUCT_DIM:
        raise ValueError(
            f"dense product dimension {total} exceeds the cap {MAX_PRODUCT_DIM}")
    units = tuple(_lift(f.j.matrix, i, dims) for i, f in enumerate(factors))
    eye = np.eye(total)
    projector = eye
    for k in range(1, len(factors)):
        projector = projector @ ((eye - units[0] @ units[k]) / 2.0)
    return ProductSpace(factors=factors, dim=total, units=units,
                        physical_projector=projector)


def subspace_projector(space: ProductSpace, signs) -> np.ndarray:
    """Projector onto the subspace where J_first = sign_k * J_k for each
    later factor k; signs has one entry of +1 or -1 per non-anchor factor."""
    signs = list(signs)
    if len(signs) != len(space.factors) - 1:
        raise ValueError("need one sign per factor beyond the first")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    eye = np.eye(space.dim)
    projector = eye
    for k, sign in enumerate(signs, start=1):
        projector = projector @ ((eye - sign * space.units[0] @ space.units[k]) / 2.0)
    return projector


def subspace_unit_relation(space: ProductSpace, signs,
                           tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff (J_first - sign_k J_k) vanishes on the selected subspace."""
    signs = list(signs)
    projector = subspace_projector(space, signs)
    scale = max(1.0, float(space.dim))
    for k, sign in enumerate(signs, start=1):
        residual = (space.units[0] - sign * space.units[k]) @ projector
        if frobenius(residual) > tol.abs_tol * scale:
            return False
    return True


def lift_operator(op, factor_index: int, space: ProductSpace) -> np.ndarray:
    """Tensor `op` on the chosen factor with identities elsewhere."""
    op = as_real_matrix(op)
    if not 0 <= factor_index < len(space.factors):
        raise ValueError(f"factor index {factor_index} out of range")
    if op.shape[0] != space.factors[factor_index].dim:
        raise ValueError("operator dimension does not match the chosen factor")
    return _lift(op, factor_index, [f.dim for f in space.factors])


@dataclass(frozen=True)
class EscapeCheck:
    maps_within: bool  # commutes with the physical projector
    maps_across: bool  # swaps the physical half with its complement


def physical_escape_check(lifted, space: ProductSpace,
                          tol: Tolerance = DEFAULT_TOL) -> EscapeCheck:
    lifted = as_real_matrix(lifted)
    if lifted.shape[0] != space.dim:
        raise ValueError("operator dimension does not match the product space")
    p_plus = space.physical_projector
    p_minus = np.eye(space.dim) - p_plus
    scale = max(1.0, frobenius(lifted))
    within = frobenius(lifted @ p_plus - p_plus @ lifted) <= tol.abs_tol * scale
    across = (
        frobenius(p_plus @ lifted @ p_plus) <= tol.abs_tol * scale
        and frobenius(p_minus @ lifted @ p_plus - lifted @ p_plus) <= tol.abs_tol * scale
    )
    return EscapeCheck(maps_within=within, maps_across=across)


def physical_basis(space: ProductSpace) -> np.ndarray:
    """Orthonormal columns spanning the physical subspace.

    These are the eigenvectors of the physical projector with eigenvalue 1
    (its eigenvalues are 0 and 1, so the cut at 1/2 separates them).  The
    basis is deterministic, and restricting embedded complex operators to
    these columns reproduces the complex tensor product.
    """
    vals, vecs = sym_eig(space.physical_projector)
    return vecs[:, vals > 0.5]


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
    p = space.physical_projector
    scale = max(1.0, frobenius(rho))
    for compressed in (p @ rho, rho @ p, p @ rho @ p):
        if frobenius(rho - compressed) > tol.abs_tol * scale:
            return False
    for unit in space.units:
        if frobenius(rho @ unit - unit @ rho) > tol.abs_tol * scale:
            return False
    return True
