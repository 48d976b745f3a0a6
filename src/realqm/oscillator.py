"""Finite-dimensional canonical pairs and spectrum-designed oscillators.

Any list of positive lengths xi_1..xi_D defines symmetric matrices x and p
on R^(2D), block-diagonal over 2x2 blocks

    x_i = diag(xi_i, -xi_i),      p_i = (hbar / (2 xi_i)) [[0, 1], [1, 0]],

which satisfy the canonical bracket {x, p} = I exactly while both
anticommute with the complex structure J.  The oscillator Hamiltonian
p^2/(2m) + m w^2 x^2 / 2 is then diagonal with the doubled level

    E_i = hbar^2/(8 m xi_i^2) + m w^2 xi_i^2 / 2  >=  hbar w / 2

on block i, and inverting that relation lets one design an oscillator with
any target spectrum above hbar*w/2.  Every matrix here is a closed form in
the lengths: H is the diagonal of the one level formula `energy_levels`,
and the translation exp(-(d/hbar) J p) is the diagonal exp(+-d/(2 xi_i)),
so no eigensolver or general matrix exponential is called.

The equal-length case xi_1 = xi_2 = xi in dimension four doubles as a
fermionic oscillator: a second antisymmetric unit K commuting with x and p
yields ladder operators with canonical anticommutation relations and the
number-operator Hamiltonian (hbar w / 2) J K.  Both types derive every matrix
from their lengths and params (a pair's x and p read-only, on first use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import Hamiltonian
from .linalg import ConstraintError, _trusted
from .realify import standard_complex_structure
from .states import physical_density_4d

__all__ = [
    "OscillatorParams",
    "CanonicalPair",
    "FermionicStructure",
    "DualPictureReport",
    "oscillator_hamiltonian",
    "energy_levels",
    "lengths_from_energy",
    "design_spectrum",
    "uncertainty_product",
    "translation_operator",
    "fermionic_propagator",
    "dual_picture",
]

# Slack of the spectral-bound test, in units of hbar*omega.
_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class OscillatorParams:
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < np.inf for v in (self.mass, self.omega, self.hbar)):
            raise ValueError("mass, omega and hbar must be positive")

    @property
    def ground_energy(self) -> float:
        return self.hbar * self.omega / 2.0


@dataclass(frozen=True, eq=False)
class CanonicalPair:
    """Position/momentum pair with {x, p} = I; both anticommute with J."""

    lengths: np.ndarray
    params: OscillatorParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", _check_lengths(self.lengths))

    @property
    def dim(self) -> int:
        return 2 * self.lengths.size

    @cached_property
    def x(self) -> np.ndarray:
        x = np.diag(np.column_stack([self.lengths, -self.lengths]).ravel())
        x.setflags(write=False)
        return x

    @cached_property
    def p(self) -> np.ndarray:
        p = np.zeros((self.dim, self.dim))
        even = np.arange(0, self.dim, 2)
        p[even, even + 1] = p[even + 1, even] = self.params.hbar / (2.0 * self.lengths)
        p.setflags(write=False)
        return p


@dataclass(frozen=True, eq=False)
class FermionicStructure:
    """Fermionic reading of the equal-length pair on R^4, derived from xi and params.

    With xi_1 = xi_2 = xi the squares x^2 = xi^2 I and p^2 = hbar^2/(4 xi^2) I
    are scalars and x p + p x = 0, so with the second imaginary unit K
    (commuting_unit: antisymmetric, squares to -I, commutes with x and p)

        a = x/(2 xi) - (xi/hbar) K p,      a^T = x/(2 xi) + (xi/hbar) K p

    (lowering, raising) satisfy a a^T + a^T a = I and a^2 = 0.  The
    number-operator Hamiltonian hbar w (a^T a - 1/2) then equals both
    -(w/2) K (x p - p x) and (hbar w / 2) J K (hamiltonian); basis_swap is
    the self-inverse permutation S with K = S J S.
    """

    xi: float
    params: OscillatorParams
    x: np.ndarray = field(init=False)
    p: np.ndarray = field(init=False)
    commuting_unit: np.ndarray = field(init=False)
    lowering: np.ndarray = field(init=False)
    raising: np.ndarray = field(init=False)
    hamiltonian: np.ndarray = field(init=False)
    basis_swap: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        xi, params = float(self.xi), self.params
        if not 0.0 < xi < np.inf:
            raise ConstraintError("length must be positive")
        pair = CanonicalPair([xi, xi], params)
        k = np.eye(4, k=-2) - np.eye(4, k=2)  # [[0, -I], [I, 0]], every zero +0.0
        kp, j4 = k @ pair.p, standard_complex_structure(2).matrix
        self.__dict__.update(
            xi=xi, x=pair.x, p=pair.p, commuting_unit=k, basis_swap=np.eye(4)[[0, 2, 1, 3]],
            lowering=pair.x / (2.0 * xi) - (xi / params.hbar) * kp,
            raising=pair.x / (2.0 * xi) + (xi / params.hbar) * kp,
            hamiltonian=0.5 * params.hbar * params.omega * (j4 @ k))


@dataclass(frozen=True, eq=False)
class DualPictureReport:
    """Side-by-side expectations in the J picture and the swapped K picture."""

    rho: np.ndarray
    rho_tilde: np.ndarray
    energy: float
    energy_tilde: float
    x_expectation: float
    x_expectation_tilde: float
    rho_t: np.ndarray
    rho_tilde_t: np.ndarray


def _check_lengths(xis) -> np.ndarray:
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    if xis.ndim != 1 or xis.size < 1:
        raise ValueError("expected a nonempty list of lengths")
    if not np.all(np.isfinite(xis)) or np.any(xis <= 0.0):
        raise ConstraintError("all lengths must be positive")
    return xis


def oscillator_hamiltonian(pair: CanonicalPair) -> Hamiltonian:
    """p^2/(2m) + m w^2 x^2 / 2 at the pair's params: diagonal, with level E_i
    on block i as E_i I_2, so it commutes exactly with the standard J even
    though x and p anticommute with it.  Overflow raises ConstraintError."""
    h = np.diag(energy_levels(pair.lengths, pair.params).repeat(2))
    return _trusted(Hamiltonian, matrix=h, complex_linear=True)


def energy_levels(xis, params: OscillatorParams) -> np.ndarray:
    """E_i = hbar^2/(8 m xi_i^2) + m w^2 xi_i^2 / 2, one per block.

    Computed as h h/(2m) + (m/2)(w w)(xi xi) from the entry h = hbar/(2 xi)
    of p, so each level is bit for bit the diagonal of the dense
    p^2/(2m) + m w^2 x^2 / 2; a level that overflows raises ConstraintError.
    By the arithmetic-geometric mean inequality every level is at least
    hbar*w/2, with equality exactly at xi^2 = hbar/(2 m w).
    """
    xis = _check_lengths(xis)
    with np.errstate(over="ignore", invalid="ignore"):
        h = params.hbar / (2.0 * xis)
        levels = h * h / (2.0 * params.mass) + 0.5 * params.mass * (
            params.omega * params.omega) * (xis * xis)
    if not np.isfinite(levels).all():
        raise ConstraintError("the oscillator Hamiltonian is not finite at these parameters")
    return levels


def lengths_from_energy(energy: float, params: OscillatorParams,
                        branch: str = "plus") -> float:
    """Invert the level formula: xi = sqrt((2E +- sqrt(4E^2 - hbar^2 w^2)) / (2 m w^2)).

    Both branches reproduce the same energy; "plus" is the larger length.
    Energies below the bound hbar*w/2 by more than 1e-12 hbar*w, or whose
    xi^2 is not a positive float, are rejected.  With
    S = 2E + sqrt(2E - hbar w) sqrt(2E + hbar w) the roots are S/(2 m w^2)
    and hbar^2/(2 m S), forming neither 4E^2 nor a difference.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    bound = params.ground_energy
    if not np.isfinite(energy):
        raise ConstraintError(f"target energy {float(energy)!r} is not finite")
    if energy < bound - _BOUND_SLACK * (params.hbar * params.omega):
        raise ConstraintError(f"target energy {float(energy)!r} is below the spectral bound "
                              f"hbar*omega/2 = {float(bound)!r}")
    with np.errstate(all="ignore"):
        two_e, hbar_w = 2.0 * energy, params.hbar * params.omega
        s = two_e + np.sqrt(max(two_e - hbar_w, 0.0)) * np.sqrt(two_e + hbar_w)
        xi_sq = (s / (2.0 * params.mass * (params.omega * params.omega)) if branch == "plus"
                 else params.hbar / (2.0 * params.mass * s) * params.hbar)
    if not (np.isfinite(xi_sq) and xi_sq > 0.0):
        raise ConstraintError(f"target energy {float(energy)!r} gives a length squared of "
                              f"{float(xi_sq)!r}, outside the positive float range")
    return float(np.sqrt(xi_sq))


def design_spectrum(targets, params: OscillatorParams, branch="plus") -> np.ndarray:
    """Lengths whose oscillator Hamiltonian has exactly the target levels.

    `branch` is either one policy for every level or a per-level list.
    Duplicate targets are allowed and yield fourfold-degenerate levels on
    the real side.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.size < 1:
        raise ValueError("expected at least one target energy")
    if isinstance(branch, str):
        branches = [branch] * targets.size
    else:
        branches = list(branch)
        if len(branches) != targets.size:
            raise ValueError("per-level branch list must match the number of targets")
    return np.array([
        lengths_from_energy(float(e), params, b) for e, b in zip(targets, branches)
    ])


def uncertainty_product(alpha: float, beta: float, gamma: float, delta: float,
                        xis, params: OscillatorParams) -> float:
    """Closed form of Δx Δp for the general physical state on R^4:

        hbar * sqrt((alpha+beta)^2 + alpha*beta*(xi1/xi2 - xi2/xi1)^2)

    which is bounded below by hbar/2 and attains the bound whenever
    xi1 = xi2.  State parameters are validated first.
    """
    physical_density_4d(alpha, beta, gamma, delta)
    xis = _check_lengths(xis)
    if xis.size != 2:
        raise ValueError("the closed form needs exactly two lengths")
    ratio = xis[0] / xis[1] - xis[1] / xis[0]
    return params.hbar * float(np.sqrt((alpha + beta) ** 2 + alpha * beta * ratio**2))


def translation_operator(pair: CanonicalPair, distance: float) -> np.ndarray:
    """exp(-(d/hbar) J p) for the standard J, the diagonal exp(+-d/(2 xi_i)),
    interleaved: J p is diag(-+hbar/(2 xi_i)), so hbar cancels.  Symplectic
    (each block's two entries are reciprocal) but not orthogonal for d != 0.
    A result that is not finite raises ConstraintError, as in `linalg.expm`."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = distance / (2.0 * pair.lengths)
        entries = np.exp(np.column_stack([k, -k]).ravel())
    if not np.isfinite(entries).all():
        raise ConstraintError("matrix exponential is not finite")
    return np.diag(entries)


def _rotation(unit: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta * unit) = cos(theta) I + sin(theta) unit for unit^2 = -I."""
    return np.cos(theta) * np.eye(unit.shape[0]) + np.sin(theta) * unit


def fermionic_propagator(fs: FermionicStructure, t: float) -> np.ndarray:
    """exp(-(t/hbar) J H') computed in its reduced form exp((w t / 2) K).

    K^2 = -I makes this the planar rotation cos(w t / 2) I + sin(w t / 2) K,
    so the propagator is orthogonal with period 4 pi / w.
    """
    return _rotation(fs.commuting_unit, fs.params.omega * t / 2.0)


def dual_picture(alpha: float, beta: float, gamma: float, delta: float,
                 fs: FermionicStructure, t: float) -> DualPictureReport:
    """Compare a physical state with its swapped image rho~ = S rho S.

    rho~ commutes with K instead of J.  Both pictures share the energy
    Tr(rho H') = Tr(rho~ H') = 2 delta hbar w, but position expectations
    differ: Tr(rho x) = 0 while Tr(rho~ x) = 2 (alpha - beta) xi.  The
    swapped state evolves with exp((w t / 2) J), the S-conjugate of the
    fermionic propagator.
    """
    rho = physical_density_4d(alpha, beta, gamma, delta).matrix
    s = fs.basis_swap
    rho_tilde = s @ rho @ s
    h_prime = fs.hamiltonian
    u = fermionic_propagator(fs, t)
    j4 = standard_complex_structure(2).matrix
    u_tilde = _rotation(j4, fs.params.omega * t / 2.0)
    return DualPictureReport(
        rho=rho,
        rho_tilde=rho_tilde,
        energy=float(np.trace(rho @ h_prime)),
        energy_tilde=float(np.trace(rho_tilde @ h_prime)),
        x_expectation=float(np.trace(rho @ fs.x)),
        x_expectation_tilde=float(np.trace(rho_tilde @ fs.x)),
        rho_t=u @ rho @ u.T,
        rho_tilde_t=u_tilde @ rho_tilde @ u_tilde.T,
    )
