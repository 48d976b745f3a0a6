"""Dictionary between complex and real linear algebra.

A complex vector of dimension d is stored as a real vector of dimension 2d
with interleaved coordinates (re_1, im_1, re_2, im_2, ...).  In that layout
multiplication by i becomes the block-diagonal complex structure J built
from 2x2 blocks [[0, -1], [1, 0]], and every complex d x d matrix embeds as
the real 2d x 2d matrix whose (j, k) block is [[re, -im], [im, re]].
Complex vectors and matrices are plain numpy complex arrays on both sides.

Real matrices that commute with J are exactly the embedded (complex-linear)
ones; matrices that anticommute with J are antilinear, i.e. conjugation
followed by a complex-linear map.  `split_linear_antilinear` separates any
real matrix into those two parts.

A `ComplexStructure` derives d from its matrix.  `standard_complex_structure(d)`
is built once per d and shared, so its matrix is read-only; each
`ComplexStructure` computes its frame once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _anticommutes,
    _antisymmetric,
    _commutes,
    _keeps_form,
    _square_finite,
    _symmetric,
    as_real_matrix,
    commutes,
)

__all__ = [
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


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """The embedded imaginary unit: antisymmetric, orthogonal, squares to -I."""

    matrix: np.ndarray
    d: int = field(init=False)  # half the matrix size: the complex dimension

    def __post_init__(self) -> None:
        # d is exact: no real matrix of odd size is antisymmetric and orthogonal.
        m = as_real_matrix(self.matrix)
        if not (_antisymmetric(m, DEFAULT_TOL) and _keeps_form(m, None, DEFAULT_TOL)):
            raise ValueError("a complex structure must be antisymmetric and orthogonal")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "d", m.shape[0] // 2)

    @property
    def dim(self) -> int:
        return 2 * self.d

    @functools.cached_property
    def frame(self) -> np.ndarray:
        """The complex frame of J: 2d x d orthonormal columns F with J F = i F (read-only)."""
        f = np.linalg.eigh(-1j * self.matrix)[1][:, self.d:]
        f.setflags(write=False)
        return f


@dataclass(frozen=True, eq=False)
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


@functools.lru_cache(maxsize=32, typed=True)
def standard_complex_structure(d: int) -> ComplexStructure:
    """The block-diagonal J for complex dimension d in interleaved layout (shared)."""
    if d < 1:
        raise ValueError("complex dimension must be at least 1")
    j = np.zeros((2 * d, 2 * d))
    idx = np.arange(d)
    j[2 * idx, 2 * idx + 1] = -1.0
    j[2 * idx + 1, 2 * idx] = 1.0
    j.setflags(write=False)
    return ComplexStructure(j)


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


def embed_matrix(a) -> np.ndarray:
    """Embed a complex matrix entrywise as 2x2 blocks [[re, -im], [im, re]].

    `a` is validated as `as_real_matrix` validates a real one, with its
    messages; a real array is a complex one with zero imaginary part.  The
    embedding is an algebra homomorphism (products map to products) and
    sends the Hermitean conjugate to the transpose; its image is exactly the
    set of real matrices commuting with the standard complex structure.
    """
    a = _square_finite(np.asarray(a, dtype=complex))
    out = np.empty((2 * a.shape[0], 2 * a.shape[0]))
    out[0::2, 0::2] = out[1::2, 1::2] = a.real
    out[0::2, 1::2] = -a.imag
    out[1::2, 0::2] = a.imag
    return out


def extract_matrix(a, *, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Invert `embed_matrix` to a complex d x d array: `a` is read in the
    interleaved layout of the standard J of its dimension, and rejected
    unless it commutes with that J."""
    a = as_real_matrix(a)
    if a.shape[0] % 2:
        raise ValueError(f"a real {a.shape[0]} x {a.shape[0]} matrix has no complex form")
    d = a.shape[0] // 2
    if not commutes(a, standard_complex_structure(d).matrix, tol):
        raise ValueError("matrix is not complex linear (does not commute with J)")
    out = np.empty((d, d), dtype=complex)
    out.real = (a[0::2, 0::2] + a[1::2, 1::2]) / 2.0
    out.imag = (a[1::2, 0::2] - a[0::2, 1::2]) / 2.0
    return out


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
    jm = j.matrix
    return OperatorFlags(
        symmetric=_symmetric(a, tol),
        antisymmetric=_antisymmetric(a, tol),
        orthogonal=_keeps_form(a, None, tol),
        symplectic=_keeps_form(a, jm, tol),
        complex_linear=_commutes(a, jm, tol),
        complex_antilinear=_anticommutes(a, jm, tol),
    )


def matrix_set_rank(mats) -> int:
    """Rank of the span of a set of equally-sized matrices.

    Each matrix is flattened to a row and the rank is read off the singular
    values, thresholded at 1e-8 relative to the largest with no floor, so
    scaling every matrix by 2^k keeps the rank.
    """
    stack = np.array([np.asarray(m, dtype=float).ravel() for m in mats])
    if stack.size == 0:
        return 0
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(svals > _RANK_SV_THRESHOLD * svals[0]))


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
