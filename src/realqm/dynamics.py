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

Every time point shares one eigendecomposition of H, so `evolve_grid`
evaluates a whole time grid at once: one eigendecomposition and one phase
guard for the grid, then, block by block, a (B, n, n) stack of
propagators, one batched conjugation U rho U^T and one batched
revalidation of the evolved states.  `propagator` and `evolve` are its
one-point cases.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    negligible,
    sym_eig,
)
from .realify import ComplexStructure
from .states import DensityMatrix, StateStack, state_stack

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
    "evolve_grid",
    "evolve",
    "liouville_flow",
    "liouville_grid",
]

# Largest phase |t E / hbar| the propagator accepts.  Past it, a float64
# phase keeps no digits below 2*pi, so cos and sin would return noise.
_MAX_PHASE = 1e15

# Time points evolved together.  At real dimension 64 one (B, n, n) stack
# of a block takes 4 MB, so a long grid never holds more than a few.
_GRID_BLOCK = 128


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
    return negligible(frobenius(lhs - rhs), frobenius(a) * frobenius(b), tol)


def liouville_rhs(h: Hamiltonian, rho: DensityMatrix, w: SymplecticForm) -> np.ndarray:
    """Time derivative {H, rho} = H Omega rho - rho Omega H of the state.

    Always symmetric; traceless whenever H or rho commutes with J, which is
    what makes the flow trace-preserving.
    """
    if h.dim != rho.dim:
        raise ValueError("Hamiltonian and state dimensions differ")
    return h.matrix @ w.omega @ rho.matrix - rho.matrix @ w.omega @ h.matrix


def _spectrum(h: Hamiltonian, j: ComplexStructure, hbar: float,
              tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (degenerate ones averaged) and eigenvectors of a
    complex-linear H: the setup every propagator of a time grid shares."""
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    if not h.complex_linear or not commutes(h.matrix, j.matrix, tol):
        raise ConstraintError("propagator requires a Hamiltonian that commutes with J")
    e, v = sym_eig(h.matrix, tol)
    # A J-commuting H has each eigenvalue twice, on a J-invariant pair of
    # adjacent columns, and each of its eigenspaces is J-invariant.
    # Averaging each pair, then each run of pairs that differ only by
    # roundoff (n eps max|E|, below what eigh resolves), removes the
    # splitting that would otherwise grow into a [U, J] residual at long
    # times.
    e = np.repeat((e[0::2] + e[1::2]) / 2.0, 2)
    split = np.diff(e) > e.size * np.finfo(float).eps * np.max(np.abs(e))
    cluster = np.concatenate(([0], np.cumsum(split)))
    return (np.bincount(cluster, e) / np.bincount(cluster))[cluster], v


def _scaled_times(times: np.ndarray, e: np.ndarray, hbar: float) -> np.ndarray:
    """t / hbar for every time point, after the phase guard.

    The guard needs only the largest phase of each time point, and
    max_i |(t/hbar) e_i| = |t/hbar| max_i |e_i| exactly, since rounding is
    monotone; so the (T, n) phase array is never built.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = times / hbar
        phase = np.abs(scaled) * np.max(np.abs(e))
    # The comparison is also false for NaN and infinite phases.
    bad = np.flatnonzero(~(phase <= _MAX_PHASE))
    if bad.size:
        k = bad[0]
        raise ConstraintError(
            f"phase |t E / hbar| = {float(phase[k]):.3g} at t = {float(times[k]):.3g} "
            f"exceeds {_MAX_PHASE:g}; cos and sin keep no phase digits there")
    return scaled


def _propagators(scaled: np.ndarray, e: np.ndarray, v: np.ndarray,
                 jm: np.ndarray) -> np.ndarray:
    """The (T, n, n) stack I - V diag(2 sin^2(theta/2)) V^T - J V diag(sin theta) V^T,
    theta = (t/hbar) e, for each scaled time t/hbar."""
    theta = scaled[:, np.newaxis] * e
    half = np.sin(theta / 2.0)
    return (np.eye(e.size) - (v * (2.0 * half * half)[:, np.newaxis, :]) @ v.T
            - jm @ ((v * np.sin(theta)[:, np.newaxis, :]) @ v.T))


def propagator(h: Hamiltonian, t: float, j: ComplexStructure,
               hbar: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> Propagator:
    """U(t) = exp(-(t/hbar) J H) for a complex-linear Hamiltonian.

    Computed exactly from one eigendecomposition H = V diag(e) V^T as
    cos(tH/hbar) - J sin(tH/hbar), written I - V diag(2 sin^2(theta/2)) V^T
    - J V diag(sin theta) V^T with theta = t e / hbar so that U(0) is exactly
    the identity.  Phases |t E / hbar| above 1e15, or not finite, raise
    ConstraintError.  This is the one-point case of the stacked propagators
    `evolve_grid` applies.

    Non-J-commuting generators are rejected: their flow would not preserve
    the trace or the physicality of states (see `liouville_flow` for the
    deliberately unguarded variant).
    """
    e, v = _spectrum(h, j, hbar, tol)
    scaled = _scaled_times(np.array([t], dtype=float), e, hbar)
    return Propagator(u=_propagators(scaled, e, v, j.matrix)[0], t=float(t))


def evolve_grid(rho0: DensityMatrix, h: Hamiltonian, times, j: ComplexStructure,
                hbar: float = 1.0, tol: Tolerance = DEFAULT_TOL
                ) -> Iterator[tuple[np.ndarray, StateStack]]:
    """rho(t) = U(t) rho(0) U(t)^T over a whole time grid.

    One eigendecomposition of H and one phase guard cover every time
    point, so a bad phase anywhere raises before any state is built.  The
    grid is then evolved in blocks of at most _GRID_BLOCK points: each
    block stacks its propagators, conjugates the state with one batched
    matmul and revalidates the stack with `state_stack`.  Yields
    (block times, StateStack) in time order.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if rho0.dim != h.dim:
        raise ValueError("Hamiltonian and state dimensions differ")
    e, v = _spectrum(h, j, hbar, tol)
    scaled = _scaled_times(times, e, hbar)

    def blocks():
        for start in range(0, times.size, _GRID_BLOCK):
            block = slice(start, start + _GRID_BLOCK)
            u = _propagators(scaled[block], e, v, j.matrix)
            rho = u @ rho0.matrix @ u.transpose(0, 2, 1)
            yield times[block], state_stack(rho, j, tol, times[block])

    return blocks()


def evolve(rho0: DensityMatrix, h: Hamiltonian, t: float, j: ComplexStructure,
           hbar: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """rho(t) = U(t) rho(0) U(t)^T, revalidated as a density matrix: the
    one-point case of `evolve_grid`.

    The conjugation is by an orthogonal symplectic matrix (U(-t) = U(t)^T),
    so trace, spectrum and the physicality flag are preserved.
    """
    _, stack = next(evolve_grid(rho0, h, [t], j, hbar, tol))
    return DensityMatrix(matrix=stack.matrices[0], physical=bool(stack.physical[0]))


def liouville_flow(rho_matrix, h_matrix, t: float, w: SymplecticForm) -> np.ndarray:
    """Integrate d(rho)/dt = H Omega rho - rho Omega H for an arbitrary
    symmetric generator, with no physicality guard.

    Diagnostics only: when H does not commute with J the flow does not
    preserve the trace, so the result is generally not a density matrix and
    is returned as a raw symmetric matrix.  A generator t H Omega whose
    norm is not finite raises ConstraintError; a finite one that overflows
    the exponential gives non-finite entries, without a warning.
    """
    rho_matrix = as_real_matrix(rho_matrix)
    h_matrix = as_real_matrix(h_matrix)
    if rho_matrix.shape != h_matrix.shape:
        raise ValueError("Hamiltonian and state dimensions differ")
    with np.errstate(over="ignore", invalid="ignore"):
        generator = t * (h_matrix @ w.omega)
        norm = frobenius(generator)
        if not np.isfinite(norm):
            raise ConstraintError(
                f"flow generator norm ||t H Omega|| = {norm:.3g} at t = {float(t):.3g} "
                "is not finite")
        v = expm(generator)
        return v @ rho_matrix @ v.T


def liouville_grid(rho_matrix, h_matrix, times, j: ComplexStructure, w: SymplecticForm,
                   tol: Tolerance = DEFAULT_TOL) -> Iterator[tuple[np.ndarray, StateStack]]:
    """`liouville_flow` at each time point, measured in blocks like
    `evolve_grid`: the stacks are checked to be finite and symmetric, but
    not to be states.  Diagnostics only."""
    times = np.asarray(times, dtype=float).reshape(-1)
    for start in range(0, times.size, _GRID_BLOCK):
        block = times[start:start + _GRID_BLOCK]
        flowed = np.stack([liouville_flow(rho_matrix, h_matrix, float(t), w) for t in block])
        yield block, state_stack(flowed, j, tol, block, density=False)
