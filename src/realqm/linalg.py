"""Dense real-matrix substrate.

Everything downstream works on square numpy float64 arrays.  This module
supplies their validation, a validated symmetric eigensolver on LAPACK, a
Pade/scaling-squaring matrix exponential, and the tolerance-scaled
predicates (symmetric, antisymmetric, commutes, anticommutes, and the one
orthogonality and symplecticity rule `realify` asks) that replace raw float
comparisons everywhere else; all of them use `negligible`, whose bound is
relative to each residual's scale with no floor (at the end of the float
range the homogeneous ones judge their arguments divided by powers of two).
Small matrices are many, so the cost of a call matters: each function
validates each argument once, and `frobenius` is one BLAS dot unless the sum
of squares leaves the normal range.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstraintError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_real_matrix",
    "frobenius",
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
    """Comparison tolerance: one settable value.

    abs_tol scales all residual predicates; spectral_gap_tol, derived as
    max(abs_tol, 1e-8), is the absolute gap below which neighbouring
    eigenvalues are merged into one cluster.
    """

    abs_tol: float = 1e-10
    spectral_gap_tol: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.abs_tol >= 0.0:  # NaN fails too
            raise ValueError("tolerances must be nonnegative")
        object.__setattr__(self, "spectral_gap_tol", max(self.abs_tol, 1e-8))


DEFAULT_TOL = Tolerance()

_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def as_real_matrix(a) -> np.ndarray:
    """Validate and return `a` as a square float64 matrix with finite entries."""
    return _square_finite(np.asarray(a, dtype=float))


def _square_finite(m: np.ndarray) -> np.ndarray:  # as_real_matrix's checks, of any dtype
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a: np.ndarray) -> float:
    """||a||_F: one dot, bit for bit numpy's norm(a, "fro"), while the sum of
    squares is a normal float; past that range the entries are first divided
    by the largest one, so the norm neither overflows nor flushes to zero."""
    r = a.ravel(order="K")
    sq = np.vdot(r, r)  # the same BLAS dot as r.dot(r), with no overflow warning
    if _TINY <= sq <= _HUGE or not r.any():
        return math.sqrt(sq)
    big = np.abs(r).max()
    if not math.isfinite(big):
        return math.sqrt(sq)
    r = r / big
    return float(big) * math.sqrt(r.dot(r))  # past the float range: inf, with no warning


def _trusted(cls, **fields):  # cls(**fields) without __post_init__: a validator's result
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:  # both validated, of one shape
    a, b = as_real_matrix(a), as_real_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def negligible(residual, scale, tol: Tolerance = DEFAULT_TOL):
    """residual <= scale * abs_tol with no floor, so scaling every input by 2^k
    keeps the verdict; a bool, or for stacks a bool array.  NaN fails."""
    verdict = residual <= tol.abs_tol * scale
    return verdict if isinstance(verdict, np.ndarray) else bool(verdict)


_TOP = 2.0**1023  # a residual, at most twice its scale, is finite below it


def _reduced(a: np.ndarray) -> np.ndarray:
    """a / 2^e, exact but for subnormals, with its largest entry in [0.5, 1): what
    the predicates judge where their scale is _TOP or more, or NaN (inf * 0)."""
    return np.ldexp(a, -math.frexp(np.abs(a).max())[1])


def _symmetric(a: np.ndarray, tol: Tolerance) -> bool:
    """`is_symmetric` of a matrix already validated by `as_real_matrix`."""
    if not (scale := frobenius(a)) < _TOP:
        return _symmetric(_reduced(a), tol)
    return negligible(frobenius(a - a.T), scale, tol)


def is_symmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _symmetric(as_real_matrix(a), tol)


def is_antisymmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _antisymmetric(as_real_matrix(a), tol)


def _antisymmetric(a: np.ndarray, tol: Tolerance) -> bool:  # validated
    if not (scale := frobenius(a)) < _TOP:
        return _antisymmetric(_reduced(a), tol)
    return negligible(frobenius(a + a.T), scale, tol)


def commutes(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _commutes(*_pair(a, b), tol)


def _commutes(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> bool:  # validated, one shape
    if not (scale := frobenius(a) * frobenius(b)) < _TOP:
        return _commutes(_reduced(a), _reduced(b), tol)
    return negligible(frobenius(a @ b - b @ a), scale, tol)


def anticommutes(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    return _anticommutes(*_pair(a, b), tol)


def _anticommutes(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> bool:  # validated, one shape
    if not (scale := frobenius(a) * frobenius(b)) < _TOP:
        return _anticommutes(_reduced(a), _reduced(b), tol)
    return negligible(frobenius(a @ b + b @ a), scale, tol)


def _keeps_form(a: np.ndarray, g: np.ndarray | None, tol: Tolerance) -> bool:
    """a^T g a = g (g None: I), orthogonality or symplecticity, at the scale |a|^2;
    not homogeneous in a, so where |a|^2 is _TOP or more a residual past the
    float range fails, and a finite one is judged over |a| at the scale |a|."""
    if (scale := frobenius(a)) * scale < _TOP:  # no entry of the residual overflows
        return negligible(_form_residual(a, g), scale * scale, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _form_residual(a, g)
    return residual < math.inf and negligible(residual / scale, scale, tol)  # NaN fails


def _form_residual(a: np.ndarray, g: np.ndarray | None) -> float:
    return frobenius(a.T @ a - np.eye(a.shape[0]) if g is None else a.T @ g @ a - g)


def sym_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and the
    eigenvectors as orthonormal columns, so that a = V diag(w) V^T.  Inside
    a degenerate eigenspace the basis is whatever LAPACK returns; callers
    rely only on basis-invariant quantities such as spectral projectors.
    """
    a = as_real_matrix(a)
    if not _symmetric(a, tol):
        raise ValueError("sym_eig requires a symmetric matrix")
    return _eigh(a)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # a validated and symmetric
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
    scale the [6/6] approximant is accurate to below double roundoff.  An
    input too large for the count of halvings to be formed, or a result
    that is not finite, raises ConstraintError.
    """
    a = as_real_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = _expm(a)
        except OverflowError:  # 2 |a| or 2^squarings past the float range
            result = None
    if result is None or not np.isfinite(result).all():
        raise ConstraintError("matrix exponential is not finite")
    return result


def _expm(a: np.ndarray) -> np.ndarray:
    """`expm` of a matrix already validated by `as_real_matrix`."""
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
