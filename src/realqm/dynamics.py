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
A `SymplecticForm` is built from J and hbar, holds the one hbar guard and
derives Omega itself; every function that needs J and hbar takes a form.  A
`Hamiltonian` checks itself and holds no J: `propagator` and
`expectation_grid` ask `_commutes` at the form's J whether it commutes.

Such an H is an embedded complex Hermitean d x d matrix, diagonalised once
in the complex frame of J, where each level appears once.  In that energy
eigenbasis `expectation_grid` evaluates Tr(rho(t) A) over a time grid with
O(d^2) work per point and no state rebuilt or revalidated: trace, spectrum
and physicality are invariants of the motion.  `propagator` and `evolve`
are the one-point real-space references.  `liouville_grid` is the one
diagnostics flow: it takes the same validated state and Hamiltonian and
integrates any symmetric H, J-commuting or not, with no physicality guard.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import trace
from .linalg import (
    _TOP,
    DEFAULT_TOL,
    ConstraintError,
    Tolerance,
    _commutes,
    _expm,
    _symmetric,
    _trusted,
    as_real_matrix,
    frobenius,
    negligible,
)
from .realify import ComplexStructure
from .states import DensityMatrix, StateStack, _check_observable, state_stack

__all__ = [
    "SymplecticForm",
    "Hamiltonian",
    "Propagator",
    "hamiltonian",
    "poisson_bracket",
    "jacobi_residual",
    "symplectic_lie_form_check",
    "liouville_rhs",
    "propagator",
    "expectation_grid",
    "evolve",
    "liouville_grid",
]

# Largest phase |t E / hbar| the propagator accepts.  At 1e15 float64 phases
# are 0.125 rad apart (2*pi only past 2^55 ~ 3.6e16), yet digits are lost well
# before: at phase 2.2e14 an observable was off by 6.4e-2 (60-digit reference).
_MAX_PHASE = 1e15

# Time points per block: it bounds a block's (B, d) phase arrays.
_GRID_BLOCK = 128


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    """Omega = -J/hbar, derived from the J and the positive hbar it is built from."""

    j: ComplexStructure
    hbar: float = 1.0
    omega: np.ndarray = field(init=False, repr=False)  # antisymmetric

    def __post_init__(self) -> None:
        if not 0.0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive")
        object.__setattr__(self, "omega", -self.j.matrix / self.hbar)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """A finite, symmetric generator.  It is complex-linear at the J in hand
    when it commutes with it (`linalg.commutes`)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _generator(self.matrix, DEFAULT_TOL))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Holds only `u`; kept because perfbench/spans.py reads `.u` on what `propagator` returns.
@dataclass(frozen=True, eq=False)
class Propagator:
    u: np.ndarray


def _generator(matrix, tol: Tolerance) -> np.ndarray:  # the J-free rule for generators
    m = as_real_matrix(matrix)
    if not _symmetric(m, tol):
        raise ConstraintError("Hamiltonian must be symmetric")
    return m


def hamiltonian(matrix, j: ComplexStructure, tol: Tolerance = DEFAULT_TOL) -> Hamiltonian:
    """Validate a symmetric generator of J's dimension."""
    m = _generator(matrix, tol)
    if m.shape[0] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    return _trusted(Hamiltonian, matrix=m)


def _check_bracket_args(*args, w: SymplecticForm, tol: Tolerance) -> list[np.ndarray]:
    """The bracket arguments, validated: finite, symmetric, one shape, that of w."""
    ms = [as_real_matrix(m) for m in args]
    if any(m.shape != ms[0].shape for m in ms):
        raise ValueError("dimension mismatch between bracket arguments")
    if not all(_symmetric(m, tol) for m in ms):
        raise ValueError("bracket arguments must be symmetric")
    if ms[0].shape[0] != w.omega.shape[0]:
        raise ValueError("arguments do not match the symplectic form dimension")
    return ms


def _bracket(a: np.ndarray, b: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """A Omega B - B Omega A, trusting its arguments."""
    return a @ omega @ b - b @ omega @ a


def poisson_bracket(a, b, w: SymplecticForm, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """{A, B} = A Omega B - B Omega A; symmetric and antisymmetric in (A, B)."""
    a, b = _check_bracket_args(a, b, w=w, tol=tol)
    return _bracket(a, b, w.omega)


def jacobi_residual(a, b, c, w: SymplecticForm, tol: Tolerance = DEFAULT_TOL) -> float:
    """Frobenius norm of {A,{B,C}} + {B,{C,A}} + {C,{A,B}} (zero in exact arithmetic).
    The inner brackets are not rechecked: a small one is symmetric only to rounding."""
    a, b, c = _check_bracket_args(a, b, c, w=w, tol=tol)
    o = w.omega
    total = _bracket(a, _bracket(b, c, o), o)
    total = total + _bracket(b, _bracket(c, a, o), o)
    total = total + _bracket(c, _bracket(a, b, o), o)
    return frobenius(total)


def symplectic_lie_form_check(a, b, c, w: SymplecticForm,
                              tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check the bracket relation {A,B} = C in symplectic Lie-algebra form.

    Written with the antisymmetric generators -JA, -JB it reads
    [-JA, -JB] = -hbar J C, with J and hbar those of the form.
    """
    a, b, c = (as_real_matrix(m) for m in (a, b, c))
    if not a.shape[0] == b.shape[0] == c.shape[0] == w.j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    if not frobenius(a) * frobenius(b) < _TOP:  # bilinear in (A, B), linear in C
        ea, eb = (math.frexp(np.abs(m).max())[1] for m in (a, b))
        a, b, c = np.ldexp(a, -ea), np.ldexp(b, -eb), np.ldexp(c, -ea - eb)
    jm = w.j.matrix
    lhs = (jm @ a) @ (jm @ b) - (jm @ b) @ (jm @ a)
    rhs = -w.hbar * (jm @ c)
    return negligible(frobenius(lhs - rhs), frobenius(a) * frobenius(b), tol)


def liouville_rhs(h: Hamiltonian, rho: DensityMatrix, w: SymplecticForm) -> np.ndarray:
    """Time derivative {H, rho} = H Omega rho - rho Omega H of the state.

    Always symmetric; traceless whenever H or rho commutes with J, which is
    what makes the flow trace-preserving.
    """
    if h.dim != rho.dim:
        raise ValueError("Hamiltonian and state dimensions differ")
    if h.dim != w.omega.shape[0]:
        raise ValueError("arguments do not match the symplectic form dimension")
    return _bracket(h.matrix, rho.matrix, w.omega)


def _require_complex_linear(h: Hamiltonian, w: SymplecticForm, tol: Tolerance) -> None:
    """H generates a physical motion only with [H, J] negligible at the form's J and tol."""
    if h.dim != w.j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    if not _commutes(h.matrix, w.j.matrix, tol):
        raise ConstraintError("propagator requires a Hamiltonian that commutes with J")


def _spectrum(h: Hamiltonian, w: SymplecticForm) -> tuple[np.ndarray, np.ndarray]:
    """Each level e of an H that `_require_complex_linear` passed, once, with
    complex eigenvectors X = F W in the frame F of J: the setup a time grid's
    propagators share."""
    with trace.span("decompose", dim=h.dim):
        f = w.j.frame
        e, v = np.linalg.eigh(f.conj().T @ h.matrix @ f)
        return e, f @ v


def _scaled_times(times: np.ndarray, e: np.ndarray, hbar: float) -> np.ndarray:
    """t / hbar for every time point, after the phase guard.

    The guard needs only the largest phase of each time point, and
    max_i |(t/hbar) e_i| = |t/hbar| max_i |e_i| exactly, since rounding is
    monotone; so the (T, d) phase array is never built.
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


def propagator(h: Hamiltonian, t: float, w: SymplecticForm,
               tol: Tolerance = DEFAULT_TOL) -> Propagator:
    """U(t) = exp(-(t/hbar) J H) for a complex-linear Hamiltonian.

    With F the frame of J (`ComplexStructure.frame`) and F^H H F = W diag(e) W^H,
    X = F W has H X = X diag(e) and U X = X diag(exp(-i theta)), theta = t e / hbar;
    so U = I - 2 Re(X diag(2 sin^2(theta/2) + i sin theta) X^H), exactly I at
    t = 0.  Phases |t E / hbar| above 1e15, or not finite, raise ConstraintError.

    Non-J-commuting generators are rejected: their flow would not preserve
    the trace or the physicality of states (see `liouville_grid` for the
    deliberately unguarded flow).
    """
    _require_complex_linear(h, w, tol)
    e, x = _spectrum(h, w)
    theta = _scaled_times(np.array([t], dtype=float), e, w.hbar) * e
    half = np.sin(theta / 2.0)
    g = 2.0 * half * half + 1j * np.sin(theta)
    return Propagator(u=np.eye(x.shape[0]) - 2.0 * ((x * g) @ x.conj().T).real)


def expectation_grid(rho0: DensityMatrix, h: Hamiltonian, observables, times,
                     w: SymplecticForm, tol: Tolerance = DEFAULT_TOL
                     ) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Tr(rho(t) A) of each observable A, rho(t) = U(t) rho0 U(t)^T, over a
    time grid: yields (block times, one column per observable) in blocks of
    at most _GRID_BLOCK points.  Every check and the phase guard raise first.

    [X, conj X], X the eigenvectors of H in the frame of J, diagonalises
    U(t) as diag(z, conj z), z = exp(-i t e / hbar).  So with R = X^H rho0 X,
    S = X^H rho0 conj X, M1 = R o (X^H A X)^T and M2 = S o (X^T A X)^T,
    Tr(rho(t) A) = 2 Re sum_kl (z_k M1_kl conj z_l + z_k M2_kl z_l), which is
    O(d^2) per point.  S sees only the antilinear part of rho0, nonzero for
    a state that is physical only within tolerance.  Each observable must be
    symmetric, by the rule and with the message of `states.expectation`.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    observables = [_check_observable(a, tol) for a in observables]
    if rho0.dim != h.dim or any(a.shape != h.matrix.shape for a in observables):
        raise ValueError("Hamiltonian, state and observable dimensions differ")
    _require_complex_linear(h, w, tol)
    return _expectation_grid(rho0, h, observables, times, w)


def _expectation_grid(rho0: DensityMatrix, h: Hamiltonian, observables,
                      times: np.ndarray, w: SymplecticForm
                      ) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """`expectation_grid` over a 1-d float array of times, with observables
    already validated and of H's shape, and an H that `_require_complex_linear`
    passed at w: the phase guard still raises first.  The terms of all
    observables come from one batched product each, bit for bit those of the
    per-observable formula."""
    e, x = _spectrum(h, w)
    scaled = _scaled_times(times, e, w.hbar)
    x_h = x.conj().T
    r, s = x_h @ rho0.matrix @ x, x_h @ rho0.matrix @ x.conj()
    a = np.reshape(observables, (-1, h.dim, h.dim))
    # [M1 | M2] of each observable, read against [conj z | z] of each point.
    terms = np.concatenate([r * (x_h @ a @ x).transpose(0, 2, 1),
                            s * (x.T @ a @ x).transpose(0, 2, 1)], axis=2)

    def blocks():
        for start in range(0, times.size, _GRID_BLOCK):
            block = slice(start, start + _GRID_BLOCK)
            with trace.span("grid_block", start=start, points=len(times[block])):
                z = np.exp(-1j * (scaled[block, np.newaxis] * e))
                w = np.hstack([z.conj(), z])
                columns = list(2.0 * ((z @ terms) * w).sum(axis=2).real)
            yield times[block], columns

    return blocks()


def evolve(rho0: DensityMatrix, h: Hamiltonian, t: float, w: SymplecticForm,
           tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """rho(t) = U(t) rho(0) U(t)^T, revalidated as a density matrix: the
    real-space reference at one time point.  U is orthogonal and symplectic,
    so trace, spectrum and physicality are preserved: an evolved state that
    does not commute with the form's J, from a rho0 that does, raises
    ConstraintError naming t.  A rho0 that does not commute with J evolves
    unguarded."""
    if rho0.dim != h.dim:
        raise ValueError("Hamiltonian and state dimensions differ")
    u = propagator(h, t, w, tol).u
    stack = state_stack((u @ rho0.matrix @ u.T)[np.newaxis], w.j, tol, [t])
    if not stack.physical[0] and _commutes(rho0.matrix, w.j.matrix, tol):
        raise ConstraintError(f"evolved state is not physical at t = {float(t)!r}: "
                              f"||[rho, J]|| = {float(stack.physicality_residual[0]):.3g}")
    return _trusted(DensityMatrix, matrix=stack.matrices[0])


def _flow(rho: np.ndarray, h_omega: np.ndarray, t: float) -> np.ndarray:
    """exp(t H Omega) rho exp(t H Omega)^T, trusting its arguments; the caller
    holds the errstate that lets an overflow through to the guards."""
    generator = t * h_omega
    # expm needs a finite sum of squares; frobenius would rescale past it.
    norm = float(np.sqrt(np.vdot(generator, generator)))
    if not np.isfinite(norm):
        raise ConstraintError(
            f"flow generator norm ||t H Omega|| = {norm:.3g} at t = {float(t):.3g} "
            "is not finite")
    v = _expm(generator)
    return v @ rho @ v.T


def liouville_grid(rho0: DensityMatrix, h: Hamiltonian, times, w: SymplecticForm,
                   tol: Tolerance = DEFAULT_TOL) -> Iterator[tuple[np.ndarray, StateStack]]:
    """rho(t) = V rho0 V^T, V = exp(t H Omega), the flow d(rho)/dt = {H, rho} of
    any symmetric H, at each time point, in blocks of at most _GRID_BLOCK.

    Diagnostics only, with no physicality guard: when H does not commute with
    J the flow does not preserve the trace, so each stack, measured at the
    form's J, is checked to be finite and symmetric but not to be states.
    H Omega is formed once, up front.  A generator t H Omega whose norm is
    not finite, or whose exponential overflows, raises ConstraintError naming t.
    """
    if rho0.dim != h.dim:
        raise ValueError("Hamiltonian and state dimensions differ")
    if h.dim != w.omega.shape[0]:
        raise ValueError("arguments do not match the symplectic form dimension")
    with np.errstate(over="ignore", invalid="ignore"):
        h_omega = h.matrix @ w.omega
    times = np.asarray(times, dtype=float).reshape(-1)

    def blocks():
        for start in range(0, times.size, _GRID_BLOCK):
            block = times[start:start + _GRID_BLOCK]
            with trace.span("grid_block", start=start, points=len(block)):
                with np.errstate(over="ignore", invalid="ignore"):
                    flowed = np.stack([_flow(rho0.matrix, h_omega, float(t)) for t in block])
                stack = state_stack(flowed, w.j, tol, block, density=False)
            yield block, stack

    return blocks()
