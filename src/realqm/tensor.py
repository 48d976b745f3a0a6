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
instead of the O(n^2 c) of a dense product.  One unsigned kernel applies
the physical projector the same way, a factor pair at a time, from either
side.  A sign pattern's subspace is the physical half with each factor of
sign -1 conjugated (J_k -> -J_k), so the kernel serves it given negated J
arrays.  Closed-form subspace bases ran slower than this route and gave
rounding noise where it gives exact zeros, so the factor route stays.

Work sets.  Every n x n kernel allocates its arrays once, at the start of
the call, and writes every product, projector step and residual into them
(`out=`); nothing is written into an input, and no array outlives the call
but the result.  A projection needs its result array and one scratch array
for two factors, two beyond.  `physical_escape_check` and
`validate_product_density` hold one projection while taking the next, so
each allocates 3 arrays for two factors and 4 beyond, whichever of their
early verdicts ends the call: the escape check's L - L^T and a third
projection PL go into the array that held P L P, and the density check's
commutator into the two projections' arrays.  A ufunc with a transposed
operand would buffer it in a temporary, so L^T is copied in first.
`subspace_unit_relation` and the projectors allocate 3, the identity they
start from among them.  `lift_operator` and `ProductSpace.units` place the
factor matrix by index into one zeroed array, and `physical_basis` is one
complex array read as real column pairs.  At n = 128-256 a freed n x n
array can go back to the kernel and fault its pages in again on reuse, so
each array a call does not allocate is faults it does not take.

The physical basis needs no eigensolve of the n x n projector: Kronecker
products of the factors' +i eigenvectors span the physical subspace over
the complex numbers, and their real parts (with the U_0 images) give an
orthonormal real basis for any orthogonal antisymmetric J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_real_matrix, frobenius, negligible
from .realify import ComplexStructure, standard_complex_structure

__all__ = [
    "FactorSpace",
    "ProductSpace",
    "EscapeCheck",
    "MAX_PRODUCT_DIM",
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


@dataclass(frozen=True, eq=False)
class FactorSpace:
    j: ComplexStructure  # d and dim are its own

    @classmethod
    def standard(cls, d: int) -> "FactorSpace":
        return cls(standard_complex_structure(d))

    @property
    def d(self) -> int:
        return self.j.d

    @property
    def dim(self) -> int:
        return self.j.dim


@dataclass(frozen=True, eq=False)
class ProductSpace:
    factors: tuple[FactorSpace, ...]
    dim: int = field(init=False)  # the product of the factor dimensions

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("a product space needs at least two factors")
        object.__setattr__(self, "dim", math.prod(f.dim for f in self.factors))
        if self.dim > MAX_PRODUCT_DIM:
            raise ValueError(f"dense product dimension {self.dim} exceeds the cap "
                             f"{MAX_PRODUCT_DIM}")

    @cached_property
    def units(self) -> tuple[np.ndarray, ...]:  # dense fields are built on first read
        dims = [f.dim for f in self.factors]
        return tuple(_placed_lift(f.j.matrix, k, dims) for k, f in enumerate(self.factors))

    @cached_property
    def physical_projector(self) -> np.ndarray:
        return _projector([f.j.matrix for f in self.factors], self.dim)[0]

    @property
    def physical_rank(self) -> int:
        return 2 * int(np.prod([f.d for f in self.factors]))


def _apply_lifted(m: np.ndarray, index: int, dims: list[int], x: np.ndarray,
                  right: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """(I_L (x) m (x) I_R) @ x, or x @ (I_L (x) m (x) I_R) when `right`,
    into `out` (a C-contiguous array of x's shape, not x) or a fresh array.

    The lift acts on factor `index` alone, so reshaping the product index
    of x to (before, d_k, after) turns it into small products with m:
    O(d_k n c) work for an n x c block instead of O(n^2 c).
    """
    d = dims[index]
    if not right:
        before = math.prod(dims[:index])
        shape, a, b = (before, d, -1), m, x.reshape(before, d, -1)
    elif (after := math.prod(dims[index + 1:])) == 1:
        shape, a, b = (-1, d), x.reshape(-1, d), m
    else:
        shape, a, b = (-1, d, after), m.T, x.reshape(-1, d, after)
    if out is None:
        return np.matmul(a, b).reshape(x.shape)
    np.matmul(a, b, out=out.reshape(shape))
    return out


def _placed_lift(m: np.ndarray, index: int, dims: list[int]) -> np.ndarray:
    """I_L (x) m (x) I_R, with m's entries placed by index into zeros.

    The entry at ((b, i, a), (b, j, a)) is m[i, j] + 0.0, which is m[i, j]
    with -0 read as +0, as a product with the identity gives it.
    """
    d = dims[index]
    before, after = math.prod(dims[:index]), math.prod(dims[index + 1:])
    lifted = np.zeros((before, d, after, before, d, after))
    np.einsum("biabja->baij", lifted)[...] = m + 0.0  # a writeable view of the blocks
    n = before * d * after
    return lifted.reshape(n, n)


def _apply_projector(units, x: np.ndarray, right: bool = False, work=None) -> np.ndarray:
    """prod_k (I - U_0 U_k)/2 times x for the factors' J matrices `units`, from the left
    (or the right), written into work[0], which it returns.

    `work` holds arrays of x's shape (fresh ones when it is None): the
    result, which may be x itself, a scratch array for U_k x and, where
    the result holds x (from the second step on, or from the start), a
    second one for U_0 U_k x.
    """
    dims = [u.shape[0] for u in units]
    if work is None:
        work = [np.empty(x.shape) for _ in range(min(len(units), 3))]
    out, scratch, *flip = work
    for k, u in enumerate(units[1:], start=1):
        _apply_lifted(u, k, dims, x, right, out=scratch)
        flipped = _apply_lifted(units[0], 0, dims, scratch, right,
                                out=flip[0] if x is out else out)
        x = np.subtract(x, flipped, out=out)
        x *= 0.5
    return out


def _projector(units, n: int) -> list[np.ndarray]:
    """The projector of `units` from the n x n identity, first of its 3 work arrays."""
    work = [np.eye(n), np.empty((n, n)), np.empty((n, n))]
    _apply_projector(units, work[0], work=work)
    return work


def _work_set(units, n: int) -> list[np.ndarray]:
    """Two projection results and their scratch arrays: 3 for two factors, 4 beyond."""
    return [np.empty((n, n)) for _ in range(3 if len(units) == 2 else 4)]


# An early verdict stands only where rounding cannot move it.  Every residual
# here is formed from products with orthogonal or projector factors, so its
# rounding error is a small multiple of eps * scale; _ROUNDING (2^-40, 4096
# eps) allows for it, with _BAND of relative room at the threshold.  Below a
# threshold of _FLOOR (2^53 times the smallest normal) subnormal rounding is
# no longer small against it, and past a scale of _CEIL a projection could
# overflow; there every verdict takes the full route.
_ROUNDING, _BAND = 2.0 ** -40, 2.0 ** -20
_FLOOR, _CEIL = 2.0 ** -969, 2.0 ** 1000


def _settled(bound: float, scale: float, tol: Tolerance) -> bool | None:
    """negligible(r, scale, tol) for every r within _ROUNDING * scale of
    `bound`, when that is one verdict; None when it is not, or out of range."""
    if not (scale <= _CEIL and negligible(_FLOOR, scale, tol)):
        return None
    slack = _ROUNDING * scale
    if negligible(bound + slack, scale * (1.0 - _BAND), tol):
        return True
    if not negligible(bound - slack, scale * (1.0 + _BAND), tol):
        return False
    return None


# Only ProductSpace(tuple(factors)); kept because perfbench/workloads.py calls it.
def build_product_space(factors) -> ProductSpace:
    """The product of >= 2 factors; its dense units and projector are built on first read."""
    return ProductSpace(factors=tuple(factors))


def _conjugated_units(space: ProductSpace, signs) -> list[np.ndarray]:
    """The factors' J matrices with J_k negated (factor k conjugated) where sign_k = -1."""
    signs = list(signs)
    if len(signs) != len(space.factors) - 1:
        raise ValueError("need one sign per factor beyond the first")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    first, *rest = (f.j.matrix for f in space.factors)
    return [first, *(j if s == 1 else -j for j, s in zip(rest, signs))]


def subspace_projector(space: ProductSpace, signs) -> np.ndarray:
    """Projector onto the subspace where J_first = sign_k * J_k for each
    later factor k; signs has one entry of +1 or -1 per non-anchor factor."""
    return _projector(_conjugated_units(space, signs), space.dim)[0]


def subspace_unit_relation(space: ProductSpace, signs,
                           tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff (J_first - sign_k J_k) vanishes on the selected subspace."""
    units = _conjugated_units(space, signs)
    n = space.dim
    projector, first, other = _projector(units, n)
    dims = [f.dim for f in space.factors]
    _apply_lifted(units[0], 0, dims, projector, out=first)
    for k, u in enumerate(units[1:], start=1):
        _apply_lifted(u, k, dims, projector, out=other)
        if not negligible(frobenius(np.subtract(first, other, out=other)), n, tol):
            return False
    return True


def lift_operator(op, factor_index: int, space: ProductSpace) -> np.ndarray:
    """Tensor `op` on the chosen factor with identities elsewhere."""
    op = as_real_matrix(op)
    if not 0 <= factor_index < len(space.factors):
        raise ValueError(f"factor index {factor_index} out of range")
    if op.shape[0] != space.factors[factor_index].dim:
        raise ValueError("operator dimension does not match the chosen factor")
    return _placed_lift(op, factor_index, [f.dim for f in space.factors])


@dataclass(frozen=True)
class EscapeCheck:
    maps_within: bool  # commutes with the physical projector
    maps_across: bool  # swaps the physical half with its complement


def physical_escape_check(lifted, space: ProductSpace,
                          tol: Tolerance = DEFAULT_TOL) -> EscapeCheck:
    """Whether `lifted` (L) commutes with the physical projector P, and
    whether it maps the physical half onto its complement (P L P = 0).

    Each verdict is `negligible` of a residual at the scale |L|: |LP - PL|
    for "within", |PLP| for "across".  With X = LP, LP - PL is
    (I - P) L P - P L (I - P), a sum of Frobenius-orthogonal terms, so
    off = |X - PX| is at most the "within" residual, and an off clearly past
    the threshold decides it is False.  An exactly symmetric L has
    P L (I - P) = ((I - P) L P)^T, so its residual is sqrt(2) off, which
    decides "within" either way.  Only a verdict neither rule settles (a
    residual within rounding of the threshold, or a non-symmetric L with a
    small off) takes the third projection PL.
    """
    lifted = as_real_matrix(lifted)
    if lifted.shape[0] != space.dim:
        raise ValueError("operator dimension does not match the product space")
    units = [f.j.matrix for f in space.factors]
    scale = frobenius(lifted)
    l_p, p_l_p, *scratch = _work_set(units, space.dim)
    _apply_projector(units, lifted, True, [l_p, *scratch])
    _apply_projector(units, l_p, False, [p_l_p, *scratch])
    # (I - P) L P - L P = -P L P, so P L P alone decides "across".
    across = negligible(frobenius(p_l_p), scale, tol)
    off = frobenius(np.subtract(l_p, p_l_p, out=p_l_p))
    within = _settled(off, scale, tol)
    if within is not False:  # L == L^T exactly iff L - L^T has no nonzero entry
        np.copyto(p_l_p, lifted.T)  # a transposed operand of a ufunc would be buffered
        symmetric = not np.subtract(lifted, p_l_p, out=p_l_p).any()
        within = _settled(math.sqrt(2.0) * off, scale, tol) if symmetric else None
    if within is None:
        p_l = _apply_projector(units, lifted, False, [p_l_p, *scratch])
        within = negligible(frobenius(np.subtract(l_p, p_l, out=p_l)), scale, tol)
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
    z, *frames = (f.j.frame for f in space.factors)
    for f in frames:  # the Kronecker product, as np.kron forms it
        z = (z[:, None, :, None] * f[None, :, None, :]).reshape(
            z.shape[0] * f.shape[0], z.shape[1] * f.shape[1])
    z *= np.sqrt(2.0)
    # Re z, -Im z interleaved is conj(z) read as real pairs.
    basis = np.conjugate(z, out=z).view(np.float64)
    return basis


def validate_product_density(rho, space: ProductSpace,
                             tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the physicality conditions of a product-space state.

    The state must live inside the physical subspace and commute with every
    lifted unit.  One projector test suffices: rho - P rho P is both
    (I - P) rho + P rho (I - P) and rho (I - P) + (I - P) rho P, sums of
    Frobenius-orthogonal terms, so it bounds |rho - P rho| and |rho - rho P|.
    Then [rho, U_0] is tested.  Since U_k P = U_0 P = P U_k, the compressed
    state has [P rho P, U_k] = [P rho P, U_0], and so

        |[rho, U_k]| <= |[rho, U_0]| + 4 |rho - P rho P|   for every k;

    when that bound is clearly negligible the other commutators are not
    taken.  Symmetry, positivity and unit trace are assumed of the input.
    """
    rho = as_real_matrix(rho)
    if rho.shape[0] != space.dim:
        raise ValueError("state dimension does not match the product space")
    units = [f.j.matrix for f in space.factors]
    scale = frobenius(rho)
    rho_p, compressed, *scratch = _work_set(units, space.dim)
    _apply_projector(units, rho, True, [rho_p, *scratch])
    _apply_projector(units, rho_p, False, [compressed, *scratch])
    outside = frobenius(np.subtract(rho, compressed, out=compressed))
    if not negligible(outside, scale, tol):
        return False
    dims = [f.dim for f in space.factors]
    j_rho, rho_j = rho_p, compressed
    for k, j in enumerate(units):
        _apply_lifted(j, k, dims, rho, out=j_rho)
        _apply_lifted(j, k, dims, rho, right=True, out=rho_j)
        residual = frobenius(np.subtract(rho_j, j_rho, out=j_rho))
        if not negligible(residual, scale, tol):
            return False
        if k == 0 and _settled(residual + 4.0 * outside, scale, tol):
            return True
    return True
