"""Dictionary between complex and real linear algebra.

A complex vector of dimension d is stored as a real vector of dimension 2d
with interleaved coordinates (re_1, im_1, re_2, im_2, ...).  In that layout
multiplication by i becomes the block-diagonal complex structure J built
from 2x2 blocks [[0, -1], [1, 0]], and every complex d x d matrix embeds as
the real 2d x 2d matrix whose (j, k) block is [[re, -im], [im, re]].

Real matrices that commute with J are exactly the embedded (complex-linear)
ones; matrices that anticommute with J are antilinear, i.e. conjugation
followed by a complex-linear map.  `split_linear_antilinear` separates any
real matrix into those two parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    anticommutes,
    as_real_matrix,
    commutes,
    frobenius,
    is_antisymmetric,
    is_symmetric,
    negligible,
)

__all__ = [
    "ComplexMatrixRep",
    "ComplexStructure",
    "LinearAntilinearSplit",
    "OperatorFlags",
    "GeneratorSpaceRanks",
    "standard_complex_structure",
    "embed_vector",
    "embed_matrix",
    "extract_matrix",
    "split_linear_antilinear",
    "conjugation_operator",
    "scalar_products",
    "classify",
    "matrix_set_rank",
    "generator_space_ranks",
]

_RANK_SV_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ComplexMatrixRep:
    """A complex d x d matrix held as separate real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self) -> None:
        re = as_real_matrix(self.re)
        im = as_real_matrix(self.im)
        if re.shape != im.shape:
            raise ValueError("re and im must have the same shape")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def d(self) -> int:
        return self.re.shape[0]

    @classmethod
    def from_complex(cls, a) -> "ComplexMatrixRep":
        a = np.asarray(a, dtype=complex)
        return cls(re=a.real.copy(), im=a.imag.copy())

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im


@dataclass(frozen=True)
class ComplexStructure:
    """The embedded imaginary unit: antisymmetric, orthogonal, squares to -I."""

    d: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.d


@dataclass(frozen=True)
class LinearAntilinearSplit:
    plus: np.ndarray  # complex-linear part, commutes with J
    minus: np.ndarray  # antilinear part, anticommutes with J


@dataclass(frozen=True)
class OperatorFlags:
    symmetric: bool
    antisymmetric: bool
    orthogonal: bool
    symplectic: bool
    complex_linear: bool
    complex_antilinear: bool


def standard_complex_structure(d: int) -> ComplexStructure:
    """The block-diagonal J for complex dimension d in interleaved layout."""
    if d < 1:
        raise ValueError("complex dimension must be at least 1")
    j = np.zeros((2 * d, 2 * d))
    idx = np.arange(d)
    j[2 * idx, 2 * idx + 1] = -1.0
    j[2 * idx + 1, 2 * idx] = 1.0
    return ComplexStructure(d=d, matrix=j)


def embed_vector(psi) -> np.ndarray:
    """Interleave a complex vector into its real 2d-dimensional image."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if not np.all(np.isfinite(psi)):
        raise ValueError("vector entries must be finite")
    out = np.empty(2 * psi.size)
    out[0::2] = psi.real
    out[1::2] = psi.imag
    return out


def embed_matrix(a: ComplexMatrixRep) -> np.ndarray:
    """Embed a complex matrix entrywise as 2x2 blocks [[re, -im], [im, re]].

    The embedding is an algebra homomorphism (products map to products) and
    sends the Hermitean conjugate to the transpose; its image is exactly the
    set of real matrices commuting with the standard complex structure.
    """
    out = np.zeros((2 * a.d, 2 * a.d))
    out[0::2, 0::2] = a.re
    out[1::2, 1::2] = a.re
    out[0::2, 1::2] = -a.im
    out[1::2, 0::2] = a.im
    return out


def extract_matrix(a, j: ComplexStructure, tol: Tolerance = DEFAULT_TOL) -> ComplexMatrixRep:
    """Invert `embed_matrix`; rejects input that does not commute with J."""
    a = as_real_matrix(a)
    if a.shape[0] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    if not commutes(a, j.matrix, tol):
        raise ValueError("matrix is not complex linear (does not commute with J)")
    re = (a[0::2, 0::2] + a[1::2, 1::2]) / 2.0
    im = (a[1::2, 0::2] - a[0::2, 1::2]) / 2.0
    return ComplexMatrixRep(re=re, im=im)


def split_linear_antilinear(a, j: ComplexStructure) -> LinearAntilinearSplit:
    """Unique split A = A_plus + A_minus with A_plus J = J A_plus and
    A_minus J = -J A_minus, via A_pm = (A -+ J A J) / 2."""
    a = as_real_matrix(a)
    if a.shape[0] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    jaj = j.matrix @ a @ j.matrix
    return LinearAntilinearSplit(plus=(a - jaj) / 2.0, minus=(a + jaj) / 2.0)


def conjugation_operator(d: int) -> np.ndarray:
    """Entrywise complex conjugation in the interleaved layout: diag(1, -1, ...).

    This is the module's canonical antilinear operator; it is symmetric,
    orthogonal, squares to the identity and anticommutes with J.
    """
    if d < 1:
        raise ValueError("complex dimension must be at least 1")
    return np.diag(np.tile([1.0, -1.0], d))


def scalar_products(phi, psi, j: ComplexStructure) -> tuple[float, float]:
    """Real and imaginary parts of the complex inner product <phi|psi>.

    The real part is the symmetric product phi.psi, the imaginary part the
    symplectic product -phi.J.psi.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != psi.shape or phi.ndim != 1:
        raise ValueError("expected two real vectors of equal length")
    if phi.size != j.dim:
        raise ValueError("vector length does not match the complex structure")
    return float(phi @ psi), float(-(phi @ j.matrix @ psi))


def classify(a, j: ComplexStructure, tol: Tolerance = DEFAULT_TOL) -> OperatorFlags:
    """Independent structural flags of a real operator.

    symplectic means A^T J A = J; an orthogonal matrix is symplectic exactly
    when it commutes with J (equivalently: it is an embedded unitary).
    """
    a = as_real_matrix(a)
    if a.shape[0] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    fro = frobenius(a)
    return OperatorFlags(
        symmetric=is_symmetric(a, tol),
        antisymmetric=is_antisymmetric(a, tol),
        orthogonal=negligible(frobenius(a.T @ a - np.eye(a.shape[0])), fro * fro, tol),
        symplectic=negligible(frobenius(a.T @ j.matrix @ a - j.matrix), fro * fro, tol),
        complex_linear=commutes(a, j.matrix, tol),
        complex_antilinear=anticommutes(a, j.matrix, tol),
    )


def matrix_set_rank(mats) -> int:
    """Rank of the span of a set of equally-sized matrices.

    Each matrix is flattened to a row and the rank is read off the singular
    values, thresholded at 1e-8 relative to the largest.
    """
    stack = np.array([np.asarray(m, dtype=float).ravel() for m in mats])
    if stack.size == 0:
        return 0
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(svals > _RANK_SV_THRESHOLD * max(1.0, svals[0])))


@dataclass(frozen=True)
class GeneratorSpaceRanks:
    """Dimensions of the classical generator spaces over R^(2d).

    orthogonal counts antisymmetric generators (2d^2 - d), symplectic counts
    generators of the form -J B with B symmetric (2d^2 + d), and unitary
    counts generators that are both antisymmetric and commute with J (d^2).
    """

    orthogonal: int
    symplectic: int
    unitary: int


def generator_space_ranks(j: ComplexStructure) -> GeneratorSpaceRanks:
    """Compute the three generator-space dimensions by explicit basis ranks."""
    n = j.dim
    jm = j.matrix
    antisym = []
    sym = []
    for r in range(n):
        e_rr = np.zeros((n, n))
        e_rr[r, r] = 1.0
        sym.append(e_rr)
        for c in range(r + 1, n):
            m = np.zeros((n, n))
            m[r, c] = 1.0
            m[c, r] = -1.0
            antisym.append(m)
            sym.append(np.abs(m))
    symplectic = [-jm @ b for b in sym]
    # Projection (A - JAJ)/2 of the antisymmetric basis spans exactly the
    # antisymmetric J-commuting generators.
    unitary = [(m - jm @ m @ jm) / 2.0 for m in antisym]
    return GeneratorSpaceRanks(
        orthogonal=matrix_set_rank(antisym),
        symplectic=matrix_set_rank(symplectic),
        unitary=matrix_set_rank(unitary),
    )
