"""Dense real-matrix substrate.

Everything downstream works on square numpy float64 arrays.  This module
supplies the product, a validated symmetric eigensolver on LAPACK, a
Pade/scaling-squaring matrix exponential, and the tolerance-scaled
predicates (symmetric, antisymmetric, commutes, anticommutes) that replace
raw float comparisons everywhere else; all of them use `negligible`.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstraintError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_real_matrix",
    "frobenius",
    "matmul",
    "negligible",
    "sym_eig",
    "expm",
    "is_symmetric",
    "is_antisymmetric",
    "commutes",
    "anticommutes",
]

class ConstraintError(ValueError):
    """A domain constraint was violated by otherwise well-formed input."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison tolerances.

    abs_tol scales all residual predicates; spectral_gap_tol is the absolute
    gap below which neighbouring eigenvalues are merged into one cluster.
    """

    abs_tol: float = 1e-10
    spectral_gap_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.abs_tol < 0.0 or self.spectral_gap_tol < 0.0:
            raise ValueError("tolerances must be nonnegative")
        if self.spectral_gap_tol < self.abs_tol:
            raise ValueError("spectral_gap_tol must be >= abs_tol")


DEFAULT_TOL = Tolerance()


def as_real_matrix(a) -> np.ndarray:
    """Validate and return `a` as a square float64 matrix with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def matmul(a, b) -> np.ndarray:
    a = as_real_matrix(a)
    b = as_real_matrix(b)
    _check_same_dim(a, b)
    return a @ b


def negligible(residual, scale, tol: Tolerance = DEFAULT_TOL):
    """residual <= max(1, scale) * abs_tol, as a bool or, for stacks, a bool array."""
    # NaN residuals fail; a NaN scale counts as 1 in np.fmax and Python's max alike.
    floor = max(1.0, scale) if isinstance(scale, float) else np.fmax(1.0, scale)
    verdict = residual <= tol.abs_tol * floor
    return verdict if isinstance(verdict, np.ndarray) else bool(verdict)


def is_symmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_real_matrix(a)
    return negligible(frobenius(a - a.T), frobenius(a), tol)


def is_antisymmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_real_matrix(a)
    return negligible(frobenius(a + a.T), frobenius(a), tol)


def commutes(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_real_matrix(a)
    b = as_real_matrix(b)
    _check_same_dim(a, b)
    return negligible(frobenius(a @ b - b @ a), frobenius(a) * frobenius(b), tol)


def anticommutes(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = as_real_matrix(a)
    b = as_real_matrix(b)
    _check_same_dim(a, b)
    return negligible(frobenius(a @ b + b @ a), frobenius(a) * frobenius(b), tol)


def sym_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and the
    eigenvectors as orthonormal columns, so that a = V diag(w) V^T.  Inside
    a degenerate eigenspace the basis is whatever LAPACK returns; callers
    rely only on basis-invariant quantities such as spectral projectors.
    """
    a = as_real_matrix(a)
    if not is_symmetric(a, tol):
        raise ValueError("sym_eig requires a symmetric matrix")
    return np.linalg.eigh((a + a.T) / 2.0)


# Diagonal Pade approximant of order 6: c_k = (12-k)! 6! / (12! k! (6-k)!)
_PADE6 = (
    1.0,
    1.0 / 2.0,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15840.0,
    1.0 / 665280.0,
)


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-6 Pade core.

    The input is halved until its Frobenius norm is at most 0.5; at that
    scale the [6/6] approximant is accurate to below double roundoff.
    """
    a = as_real_matrix(a)
    n = a.shape[0]
    nrm = frobenius(a)
    squarings = 0
    if nrm > 0.5:
        squarings = int(np.ceil(np.log2(nrm / 0.5)))
    scaled = a / (2.0**squarings)
    eye = np.eye(n)
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    even = _PADE6[0] * eye + _PADE6[2] * a2 + _PADE6[4] * a4 + _PADE6[6] * a6
    odd = scaled @ (_PADE6[1] * eye + _PADE6[3] * a2 + _PADE6[5] * a4)
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result
