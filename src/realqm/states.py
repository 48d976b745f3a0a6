"""Observables, spectral measurement statistics, and density matrices.

Observables are arbitrary real symmetric matrices.  States are symmetric,
positive-semidefinite, unit-trace matrices; the *physical* ones are those
that additionally commute with the complex structure J.  Physical states
are the images of complex-theory density matrices under embedding followed
by division by two (the real trace doubles), so they never have an
eigenvalue above 1/2 and there are no pure states among them.  A
`DensityMatrix` checks itself; only the validators set its `physical` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ConstraintError,
    Tolerance,
    _TOP,
    _commutes,
    _eigh,
    _symmetric,
    _trusted,
    as_real_matrix,
    commutes,
    frobenius,
    negligible,
    sym_eig,  # unused; perfbench's test_tracer_patches_every_binding_and_restores_them needs it
)
from .realify import ComplexStructure, embed_matrix, standard_complex_structure

__all__ = [
    "DensityMatrix",
    "StateStack",
    "SpectralDecomposition",
    "MeasurementStatistics",
    "density_matrix",
    "state_stack",
    "spectral_decompose",
    "expectation",
    "variance",
    "measurement_statistics",
    "physical_from_complex",
    "physical_density_4d",
    "are_orthogonal_states",
    "sharp_realizability",
]

# Type-level validation slacks, independent of the user tolerance.
_PSD_SLACK = 1e-10
_TRACE_TOL = 1e-10
_PARAM_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state: finite, symmetric, PSD within 1e-10, unit trace within 1e-10.

    `physical` records whether it commutes with the J it was validated against
    (only physical states correspond to states of the complex theory).  It is no
    argument: a direct build has no J and leaves it False; validators set it.
    """

    matrix: np.ndarray
    physical: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", density_matrix(self.matrix).matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct eigenvalues with orthogonal projectors resolving the identity."""

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]

    @property
    def outcomes(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class MeasurementStatistics:
    outcomes: tuple[tuple[float, float], ...]  # (eigenvalue, probability)
    mean: float
    variance: float


def _check_observable(a, tol: Tolerance, dim: int | None = None) -> np.ndarray:
    a = as_real_matrix(a)
    if not _symmetric(a, tol):
        raise ValueError("observables must be symmetric matrices")
    if dim is not None and a.shape[0] != dim:
        raise ValueError("observable and state dimensions differ")
    return a


def density_matrix(matrix, j: ComplexStructure | None = None,
                   tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Validate a candidate state and tag whether it is physical.

    Boundary states with an eigenvalue of exactly zero are accepted.  When
    no complex structure is supplied the physicality flag is False (the
    general, non-physical state set).  The checks are those of
    `state_stack`, on a stack of one.
    """
    m = as_real_matrix(matrix)
    stack = state_stack(m[np.newaxis], j, tol)
    return _trusted(DensityMatrix, matrix=m, physical=bool(stack.physical[0]))


@dataclass(frozen=True, eq=False)
class StateStack:
    """A (T, n, n) stack of validated matrices with per-matrix statistics.

    `physicality_residual` is ||[rho, J]||_F (NaN without a complex
    structure) and `physical` records whether it is within tolerance.
    """

    matrices: np.ndarray
    trace: np.ndarray
    min_eigenvalue: np.ndarray
    physicality_residual: np.ndarray
    physical: np.ndarray


def state_stack(matrices, j: ComplexStructure | None = None, tol: Tolerance = DEFAULT_TOL,
                times=None, density: bool = True) -> StateStack:
    """Validate a stack of states: the batched `density_matrix`.

    Every matrix must be finite and symmetric and, when `density` is set,
    have unit trace within 1e-10 and be PSD within 1e-10; density=False
    only measures, for the trace-nonpreserving diagnostics flow.  `_judge`
    holds that rule and every message.  A stack of one is judged by it
    alone; a longer stack is measured at once (the products, traces and
    eigenvalues batched, each matrix's norms its `frobenius`), and each
    matrix that is not clear there, by a failed check or a scale of 2^1023
    or more, goes to `_judge` in index order.  So the earliest failing
    matrix raises ConstraintError, naming its entry of `times` when given,
    and every statistic is `_judge`'s bit for bit.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValueError(f"expected a (T, n, n) stack of matrices, got shape {m.shape}")
    if j is not None and m.shape[1] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    if times is not None and len(times) != len(m):
        raise ValueError(f"expected {len(m)} times for the stack, got {len(times)}")
    what = "density matrix" if density else "flowed matrix"
    where = (lambda k: "") if times is None else (lambda k: f" at t = {float(times[k])!r}")
    if len(m) == 1:
        trace, min_eigenvalue, residual, physical = (
            np.array([x]) for x in _judge(m[0], j, tol, density, what, where(0)))
    else:
        mt = m.transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.array([frobenius(x) for x in m])
            scale = norms if j is None else norms * frobenius(j.matrix)
            skew = np.array([frobenius(x) for x in m - mt])
            clear = (scale < _TOP) & negligible(skew, norms, tol)
            trace = np.trace(m, axis1=1, axis2=2)
            min_eigenvalue = np.linalg.eigvalsh(
                np.where(clear[:, np.newaxis, np.newaxis], (m + mt) / 2.0, 0.0))[:, 0]
            if j is None:
                residual = np.full(len(m), np.nan)
                physical = np.zeros(len(m), dtype=bool)
            else:
                residual = np.array([frobenius(x) for x in m @ j.matrix - j.matrix @ m])
                physical = negligible(residual, scale, tol)
        if density:
            clear &= (np.abs(trace - 1.0) <= _TRACE_TOL) & (min_eigenvalue >= -_PSD_SLACK)
        for k in np.flatnonzero(~clear):
            trace[k], min_eigenvalue[k], residual[k], physical[k] = _judge(
                m[k], j, tol, density, what, where(k))
    return _trusted(StateStack, matrices=m, trace=trace, min_eigenvalue=min_eigenvalue,
                    physicality_residual=residual, physical=physical)


def _judge(a: np.ndarray, j: ComplexStructure | None, tol: Tolerance, density: bool,
           what: str, where: str) -> tuple[float, float, float, bool]:
    """The state rule for one matrix, in order: finite, symmetric, then for a
    density unit trace and PSD.  Raises ConstraintError naming `what` and
    ending in `where`, else returns the trace, minimum eigenvalue,
    physicality residual (NaN without J) and physical flag.  Where the
    scale is 2^1023 or more, so that a residual or a + a^T can overflow,
    symmetry and physicality are those of `_symmetric` and `_commutes`, and
    the minimum eigenvalue is measured at their reduced scale."""
    norm = frobenius(a)
    scale = norm if j is None else norm * frobenius(j.matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # a trace or residual may leave the range
        trace = a.trace()
        residual = np.nan if j is None else frobenius(a @ j.matrix - j.matrix @ a)
        if scale < _TOP:
            symmetric = negligible(frobenius(a - a.T), norm, tol)
            min_eigenvalue = np.linalg.eigvalsh((a + a.T) / 2.0)[0]
            physical = j is not None and negligible(residual, scale, tol)
        else:
            if not np.isfinite(a).all():
                raise ConstraintError(f"{what} is not finite{where}")
            symmetric = _symmetric(a, tol)
            e = math.frexp(np.abs(a).max())[1]
            r = np.ldexp(a, -e)
            min_eigenvalue = np.ldexp(np.linalg.eigvalsh((r + r.T) / 2.0)[0], e)
            physical = j is not None and _commutes(a, j.matrix, tol)
    if not symmetric:
        raise ConstraintError(f"{what} must be symmetric{where}")
    if density and abs(trace - 1.0) > _TRACE_TOL:
        raise ConstraintError(f"{what} must have unit trace, got {float(trace)!r}{where}")
    if density and min_eigenvalue < -_PSD_SLACK:
        raise ConstraintError(f"{what} must be positive semidefinite, "
                              f"minimum eigenvalue {float(min_eigenvalue)!r}{where}")
    return trace, min_eigenvalue, residual, physical


def spectral_decompose(a, tol: Tolerance = DEFAULT_TOL) -> SpectralDecomposition:
    """Spectral representation A = sum_n a_n P_n with clustered eigenvalues.

    Neighbouring eigenvalues closer than tol.spectral_gap_tol are merged
    into one cluster; each cluster contributes the mean eigenvalue and the
    orthogonal projector onto its whole eigenspace.
    """
    a = _check_observable(a, tol)
    vals, vecs = _eigh(a)
    clusters: list[list[int]] = [[0]]
    for k in range(1, vals.size):
        if vals[k] - vals[k - 1] > tol.spectral_gap_tol:
            clusters.append([k])
        else:
            clusters[-1].append(k)
    eigenvalues = np.array([vals[c].mean() for c in clusters])
    projectors = tuple(vecs[:, c] @ vecs[:, c].T for c in clusters)
    return SpectralDecomposition(eigenvalues=eigenvalues, projectors=projectors)


def expectation(rho: DensityMatrix, a, tol: Tolerance = DEFAULT_TOL) -> float:
    a = _check_observable(a, tol, rho.dim)
    return float(np.trace(rho.matrix @ a))


def variance(rho: DensityMatrix, a, tol: Tolerance = DEFAULT_TOL) -> float:
    a = _check_observable(a, tol, rho.dim)
    mean = float(np.trace(rho.matrix @ a))
    return float(np.trace(rho.matrix @ (a @ a))) - mean * mean


def measurement_statistics(rho: DensityMatrix, a,
                           tol: Tolerance = DEFAULT_TOL) -> MeasurementStatistics:
    """Outcome probabilities p_n = Tr(rho P_n) with mean and variance."""
    decomp = spectral_decompose(a, tol)
    if decomp.projectors[0].shape[0] != rho.dim:
        raise ValueError("observable and state dimensions differ")
    probs = np.array([float(np.trace(rho.matrix @ p)) for p in decomp.projectors])
    mean = float(probs @ decomp.eigenvalues)
    var = float(probs @ (decomp.eigenvalues - mean) ** 2)
    outcomes = tuple((float(a_n), float(p_n)) for a_n, p_n in zip(decomp.eigenvalues, probs))
    return MeasurementStatistics(outcomes=outcomes, mean=mean, variance=var)


def physical_from_complex(rho_c, tol: Tolerance = DEFAULT_TOL) -> DensityMatrix:
    """Embed a complex density matrix (a complex array-like) and halve it.

    The real trace of an embedded matrix is twice the complex one, so the
    complex state rho corresponds to the real state rho/2.  That image is
    validated by `density_matrix`, with the rules and messages of any state:
    a non-Hermitean rho gives a non-symmetric image, and the minimum
    eigenvalue reported is half that of rho.  The image commutes with J by
    construction and has no eigenvalue above 1/2.
    """
    m = embed_matrix(rho_c) / 2.0
    return density_matrix(m, standard_complex_structure(m.shape[0] // 2), tol)


def physical_density_4d(alpha: float, beta: float, gamma: float,
                        delta: float) -> DensityMatrix:
    """The general physical state in real dimension four.

    Parameters must satisfy 2(alpha + beta) = 1, alpha >= 0, beta >= 0 and
    alpha*beta - gamma^2 - delta^2 >= 0 (positivity); violations are
    reported with the inequality that failed.
    """
    # Each test is written to fail on NaN, and so on every non-finite input.
    if not abs(2.0 * (alpha + beta) - 1.0) <= _PARAM_SLACK:
        raise ConstraintError("trace constraint violated: "
                              f"2*(alpha+beta) = {float(2.0 * (alpha + beta))!r} != 1")
    if not alpha >= -_PARAM_SLACK:
        raise ConstraintError(f"positivity constraint violated: alpha = {float(alpha)!r} < 0")
    if not beta >= -_PARAM_SLACK:
        raise ConstraintError(f"positivity constraint violated: beta = {float(beta)!r} < 0")
    det = alpha * beta - gamma * gamma - delta * delta
    if not det >= -_PARAM_SLACK:
        raise ConstraintError("positivity constraint violated: "
                              f"alpha*beta - gamma^2 - delta^2 = {float(det)!r} < 0")
    m = np.array([
        [alpha, 0.0, gamma, delta],
        [0.0, alpha, -delta, gamma],
        [gamma, -delta, beta, 0.0],
        [delta, gamma, 0.0, beta],
    ])
    return _trusted(DensityMatrix, matrix=m, physical=True)


def are_orthogonal_states(rho1: DensityMatrix, rho2: DensityMatrix,
                          tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the product of the two states vanishes (for symmetric
    states rho2 rho1 is the transpose of rho1 rho2)."""
    if rho1.dim != rho2.dim:
        raise ValueError("state dimensions differ")
    scale = frobenius(rho1.matrix) * frobenius(rho2.matrix)
    return negligible(frobenius(rho1.matrix @ rho2.matrix), scale, tol)


def sharp_realizability(a, j: ComplexStructure,
                        tol: Tolerance = DEFAULT_TOL) -> list[tuple[float, bool]]:
    """Flag each distinct eigenvalue as sharply realizable in a physical state.

    An eigenvalue can have variance zero in some physical state exactly when
    a physical state supported inside its eigenspace exists, and a J-invariant
    eigenspace supplies one explicitly: rho = (v v^T + (Jv)(Jv)^T)/2 for any
    unit eigenvector v.  We therefore flag eigenvalue a_n as realizable iff
    its projector commutes with J.  If the observable itself does not commute
    with J, at least one flag comes out False.
    """
    decomp = spectral_decompose(a, tol)
    if decomp.projectors[0].shape[0] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    return [
        (float(val), commutes(proj, j.matrix, tol))
        for val, proj in zip(decomp.eigenvalues, decomp.projectors)
    ]
