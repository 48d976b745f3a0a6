"""Symplectic bracket dynamics for real-space quantum mechanics.

The quantum Poisson bracket of two symmetric matrices is
{A, B} = A Omega B - B Omega A with Omega = -J/hbar; it is the real-space
form of -(i/hbar)[A, B].  Because Omega is antisymmetric the bracket of
symmetric matrices is symmetric, and it satisfies the Jacobi identity.
States move by d(rho)/dt = {H, rho}; this preserves the trace and the
physicality condition [rho, J] = 0 when H commutes with J, which is why
only complex-linear Hamiltonians are accepted as generators.  For those,
the flow integrates exactly to rho(t) = U(t) rho(0) U(t)^T with the
orthogonal, symplectic propagator U(t) = exp(-(t/hbar) J H), which J^2 = -I
and [H, J] = 0 reduce to the closed form cos(tH/hbar) - J sin(tH/hbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConstraintError,
    Tolerance,
    as_real_matrix,
    commutes,
    expm,
    frobenius,
    is_symmetric,
    sym_eig,
)
from .realify import ComplexStructure
from .states import DensityMatrix, density_matrix

__all__ = [
    "SymplecticForm",
    "Hamiltonian",
    "Propagator",
    "symplectic_form",
    "hamiltonian",
    "poisson_bracket",
    "jacobi_residual",
    "symplectic_lie_form_check",
    "liouville_rhs",
    "propagator",
    "evolve",
    "liouville_flow",
]

# Largest phase |t E / hbar| the propagator accepts.  Past it, a float64
# phase keeps no digits below 2*pi, so cos and sin would return noise.
_MAX_PHASE = 1e15


@dataclass(frozen=True)
class SymplecticForm:
    omega: np.ndarray  # -J/hbar, antisymmetric
    hbar: float


@dataclass(frozen=True)
class Hamiltonian:
    matrix: np.ndarray
    complex_linear: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Propagator:
    u: np.ndarray
    t: float


def symplectic_form(j: ComplexStructure, hbar: float = 1.0) -> SymplecticForm:
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    return SymplecticForm(omega=-j.matrix / hbar, hbar=hbar)


def hamiltonian(matrix, j: ComplexStructure, tol: Tolerance = DEFAULT_TOL) -> Hamiltonian:
    """Validate a symmetric generator and record whether it commutes with J."""
    m = as_real_matrix(matrix)
    if not is_symmetric(m, tol):
        raise ConstraintError("Hamiltonian must be symmetric")
    if m.shape[0] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    return Hamiltonian(matrix=m, complex_linear=commutes(m, j.matrix, tol))


def _check_symmetric_pair(a, b, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    a = as_real_matrix(a)
    b = as_real_matrix(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch between bracket arguments")
    if not (is_symmetric(a, tol) and is_symmetric(b, tol)):
        raise ValueError("bracket arguments must be symmetric")
    return a, b


def poisson_bracket(a, b, w: SymplecticForm, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """{A, B} = A Omega B - B Omega A; symmetric and antisymmetric in (A, B)."""
    a, b = _check_symmetric_pair(a, b, tol)
    if a.shape[0] != w.omega.shape[0]:
        raise ValueError("arguments do not match the symplectic form dimension")
    return a @ w.omega @ b - b @ w.omega @ a


def jacobi_residual(a, b, c, w: SymplecticForm, tol: Tolerance = DEFAULT_TOL) -> float:
    """Frobenius norm of {A,{B,C}} + {B,{C,A}} + {C,{A,B}} (zero in exact arithmetic)."""
    total = poisson_bracket(a, poisson_bracket(b, c, w, tol), w, tol)
    total = total + poisson_bracket(b, poisson_bracket(c, a, w, tol), w, tol)
    total = total + poisson_bracket(c, poisson_bracket(a, b, w, tol), w, tol)
    return frobenius(total)


def symplectic_lie_form_check(a, b, c, j: ComplexStructure, hbar: float = 1.0,
                              tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the bracket relation {A,B} = C in symplectic Lie-algebra form.

    Written with the antisymmetric generators -JA, -JB it reads
    [-JA, -JB] = -hbar J C.
    """
    a = as_real_matrix(a)
    b = as_real_matrix(b)
    c = as_real_matrix(c)
    jm = j.matrix
    lhs = (jm @ a) @ (jm @ b) - (jm @ b) @ (jm @ a)
    rhs = -hbar * (jm @ c)
    scale = max(1.0, frobenius(a) * frobenius(b))
    return frobenius(lhs - rhs) <= tol.abs_tol * scale


def liouville_rhs(h: Hamiltonian, rho: DensityMatrix, w: SymplecticForm) -> np.ndarray:
    """Time derivative {H, rho} = H Omega rho - rho Omega H of the state.

    Always symmetric; traceless whenever H or rho commutes with J, which is
    what makes the flow trace-preserving.
    """
    if h.dim != rho.dim:
        raise ValueError("Hamiltonian and state dimensions differ")
    return h.matrix @ w.omega @ rho.matrix - rho.matrix @ w.omega @ h.matrix


def propagator(h: Hamiltonian, t: float, j: ComplexStructure,
               hbar: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> Propagator:
    """U(t) = exp(-(t/hbar) J H) for a complex-linear Hamiltonian.

    Computed exactly from one eigendecomposition H = V diag(e) V^T as
    cos(tH/hbar) - J sin(tH/hbar), written I - V diag(2 sin^2(theta/2)) V^T
    - J V diag(sin theta) V^T with theta = t e / hbar so that U(0) is exactly
    the identity.  Phases |t E / hbar| above 1e15, or not finite, raise
    ConstraintError.

    Non-J-commuting generators are rejected: their flow would not preserve
    the trace or the physicality of states (see `liouville_flow` for the
    deliberately unguarded variant).
    """
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    if not h.complex_linear or not commutes(h.matrix, j.matrix, tol):
        raise ConstraintError("propagator requires a Hamiltonian that commutes with J")
    e, v = sym_eig(h.matrix, tol)
    # A J-commuting H has each eigenvalue twice, on a J-invariant pair of
    # adjacent columns.  Averaging each pair removes the roundoff splitting
    # that would otherwise grow into a [U, J] residual at long times.
    e = np.repeat((e[0::2] + e[1::2]) / 2.0, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = (t / hbar) * e
    # The comparison is also false for NaN and infinite phases.
    if not np.all(np.abs(theta) <= _MAX_PHASE):
        raise ConstraintError(
            f"phase |t E / hbar| = {float(np.max(np.abs(theta))):.3g} at t = {float(t):.3g} "
            f"exceeds {_MAX_PHASE:g}; cos and sin keep no phase digits there")
    half = np.sin(theta / 2.0)
    u = (np.eye(h.dim) - (v * (2.0 * half * half)) @ v.T
         - j.matrix @ ((v * np.sin(theta)) @ v.T))
    return Propagator(u=u, t=float(t))


def evolve(rho0: DensityMatrix, h: Hamiltonian, t: float, j: ComplexStructure,
           hbar: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """rho(t) = U(t) rho(0) U(t)^T, revalidated as a density matrix.

    The conjugation is by an orthogonal symplectic matrix (U(-t) = U(t)^T),
    so trace, spectrum and the physicality flag are preserved.
    """
    u = propagator(h, t, j, hbar, tol).u
    return density_matrix(u @ rho0.matrix @ u.T, j=j, tol=tol)


def liouville_flow(rho_matrix, h_matrix, t: float, w: SymplecticForm) -> np.ndarray:
    """Integrate d(rho)/dt = H Omega rho - rho Omega H for an arbitrary
    symmetric generator, with no physicality guard.

    Diagnostics only: when H does not commute with J the flow does not
    preserve the trace, so the result is generally not a density matrix and
    is returned as a raw symmetric matrix.
    """
    rho_matrix = as_real_matrix(rho_matrix)
    h_matrix = as_real_matrix(h_matrix)
    if rho_matrix.shape != h_matrix.shape:
        raise ValueError("Hamiltonian and state dimensions differ")
    v = expm(t * (h_matrix @ w.omega))
    return v @ rho_matrix @ v.T
