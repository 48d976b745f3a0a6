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
    _HUGE,
    _TINY,
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
    """Validate a stack of states in one pass: the batched `density_matrix`.

    Every matrix must be finite and symmetric and, when `density` is set,
    have unit trace within 1e-10 and be PSD within 1e-10; density=False
    only measures, for the trace-nonpreserving diagnostics flow.  The
    products, traces and eigenvalues are batched; the norms of m, m - m^T
    and mJ - Jm are each matrix's `frobenius`, so the symmetry and
    physicality verdicts are those of `is_symmetric` and `commutes`.  One
    eigvalsh of the symmetrized stack gives both the PSD test and
    `min_eigenvalue`.  A matrix whose scale is 2^1023 or more, where a
    residual or m + m^T can overflow, is judged by those predicates and
    measured at their reduced scale.  The earliest failing matrix raises
    ConstraintError, naming its entry of `times` when given.

    A stack of one matrix that passes every check is judged by `_one`, with
    scalar norms and no per-stack machinery, to the same statistics bit for
    bit; any other stack, and so every message, comes from the batched route.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValueError(f"expected a (T, n, n) stack of matrices, got shape {m.shape}")
    if j is not None and m.shape[1] != j.dim:
        raise ValueError("matrix dimension does not match the complex structure")
    if len(m) == 1 and (one := _one(m, j, tol, density)) is not None:
        return one
    return _batched(m, j, tol, times, density)


def _one(m: np.ndarray, j: ComplexStructure | None, tol: Tolerance,
         density: bool) -> StateStack | None:
    """`_batched` of a (1, n, n) stack whose matrix passes every check, else
    None.  The statistics are the batched route's own operations on one
    matrix: `frobenius`, the trace, eigvalsh and m J - J m."""
    a = m[0]
    norm = frobenius(a)
    scale = norm if j is None else norm * frobenius(j.matrix)
    if not scale < _TOP:  # not finite, or judged at linalg._reduced's scale
        return None
    skew = a - a.T
    sq = np.vdot(skew, skew)
    # frobenius(skew) is sqrt(sq) in the normal range.  Below it (sq = 0 for
    # an exactly symmetric matrix) each entry is below 2^-511, so the
    # residual is below n 2^-511: a negligible bound settles the verdict, and
    # where the tolerance is too small for that, an exactly zero skew does;
    # any other case is the batched route's.
    if not (negligible(math.sqrt(sq), norm, tol) if _TINY <= sq <= _HUGE
            else sq < _TINY and (negligible(len(a) * 2.0**-510, norm, tol)
                                 or not skew.any())):
        return None
    trace = a.trace()
    min_eigenvalue = np.linalg.eigvalsh((a + a.T) / 2.0)[0]
    if density and not (abs(trace - 1.0) <= _TRACE_TOL and min_eigenvalue >= -_PSD_SLACK):
        return None
    if j is None:
        residual, physical = np.nan, False
    else:
        residual = frobenius(a @ j.matrix - j.matrix @ a)
        physical = negligible(residual, scale, tol)
    return _trusted(StateStack, matrices=m, trace=np.array([trace]),
                    min_eigenvalue=np.array([min_eigenvalue]),
                    physicality_residual=np.array([residual]), physical=np.array([physical]))


def _batched(m: np.ndarray, j: ComplexStructure | None, tol: Tolerance, times,
             density: bool) -> StateStack:
    """`state_stack` of a validated (T, n, n) stack, every matrix at once."""
    what = "density matrix" if density else "flowed matrix"
    where = (lambda k: "") if times is None else (lambda k: f" at t = {float(times[k])!r}")
    finite = np.isfinite(m).all(axis=(1, 2))
    mt = m.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.array([frobenius(x) for x in m])
        scale = norms if j is None else norms * frobenius(j.matrix)
        inside = scale < _TOP  # finite, and no residual or m + m^T overflows
        symmetric = negligible(np.array([frobenius(x) for x in m - mt]), norms, tol)
        trace = np.trace(m, axis1=1, axis2=2)
        min_eigenvalue = np.linalg.eigvalsh(
            np.where(inside[:, np.newaxis, np.newaxis], (m + mt) / 2.0, 0.0))[:, 0]
        if j is None:
            residual = np.full(len(m), np.nan)
            physical = np.zeros(len(m), dtype=bool)
        else:
            residual = np.array([frobenius(x) for x in m @ j.matrix - j.matrix @ m])
            physical = negligible(residual, scale, tol)
        if not inside.all():
            for k in np.flatnonzero(finite & ~inside):  # judged at linalg._reduced's scale
                symmetric[k] = _symmetric(m[k], tol)
                physical[k] = j is not None and _commutes(m[k], j.matrix, tol)
                e = math.frexp(np.abs(m[k]).max())[1]
                r = np.ldexp(m[k], -e)
                min_eigenvalue[k] = np.ldexp(np.linalg.eigvalsh((r + r.T) / 2.0)[0], e)
    checks = [(~finite, lambda k: f"{what} is not finite"),
              (~symmetric, lambda k: f"{what} must be symmetric")]
    if density:
        checks += [
            (np.abs(trace - 1.0) > _TRACE_TOL,
             lambda k: f"{what} must have unit trace, got {float(trace[k])!r}"),
            (min_eigenvalue < -_PSD_SLACK,
             lambda k: f"{what} must be positive semidefinite, "
                       f"minimum eigenvalue {float(min_eigenvalue[k])!r}"),
        ]
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if failing.any():
        k = int(np.argmax(failing))
        message = next(describe(k) for bad, describe in checks if bad[k])
        raise ConstraintError(message + where(k))
    return StateStack(matrices=m, trace=trace, min_eigenvalue=min_eigenvalue,
                      physicality_residual=residual, physical=physical)


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
