"""Finite-dimensional canonical pairs and spectrum-designed oscillators.

Any list of positive lengths xi_1..xi_D defines symmetric matrices x and p
on R^(2D), block-diagonal over 2x2 blocks

    x_i = diag(xi_i, -xi_i),      p_i = (hbar / (2 xi_i)) [[0, 1], [1, 0]],

which satisfy the canonical bracket {x, p} = I exactly while both
anticommute with the complex structure J.  The oscillator Hamiltonian
p^2/(2m) + m w^2 x^2 / 2 is then diagonal with the doubled level

    E_i = hbar^2/(8 m xi_i^2) + m w^2 xi_i^2 / 2  >=  hbar w / 2

on block i, and inverting that relation lets one design an oscillator with
any target spectrum above hbar*w/2.

The equal-length case xi_1 = xi_2 = xi in dimension four doubles as a
fermionic oscillator: a second antisymmetric unit K commuting with x and p
yields ladder operators with canonical anticommutation relations and the
number-operator Hamiltonian (hbar w / 2) J K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Hamiltonian
from .linalg import ConstraintError, expm
from .realify import ComplexStructure, standard_complex_structure
from .states import physical_density_4d

__all__ = [
    "OscillatorParams",
    "CanonicalPair",
    "FermionicStructure",
    "DualPictureReport",
    "build_canonical_pair",
    "oscillator_hamiltonian",
    "energy_levels",
    "lengths_from_energy",
    "design_spectrum",
    "uncertainty_product",
    "translation_operator",
    "build_fermionic",
    "fermionic_propagator",
    "dual_picture",
]

_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class OscillatorParams:
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.mass <= 0.0 or self.omega <= 0.0 or self.hbar <= 0.0:
            raise ValueError("mass, omega and hbar must be positive")

    @property
    def ground_energy(self) -> float:
        return self.hbar * self.omega / 2.0


@dataclass(frozen=True)
class CanonicalPair:
    """Position/momentum pair with {x, p} = I; both anticommute with J."""

    x: np.ndarray
    p: np.ndarray

    @property
    def dim(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class FermionicStructure:
    """Equal-length four-dimensional pair reread as a fermionic oscillator.

    commuting_unit is the second imaginary unit K (antisymmetric, squares
    to -I, commutes with x and p); lowering/raising obey a a^T + a^T a = I
    and a^2 = 0; hamiltonian is the number-operator form, equal to
    (hbar w / 2) J K; basis_swap is the self-inverse permutation S with
    K = S J S.
    """

    xi: float
    params: OscillatorParams
    x: np.ndarray
    p: np.ndarray
    commuting_unit: np.ndarray
    lowering: np.ndarray
    raising: np.ndarray
    hamiltonian: np.ndarray
    basis_swap: np.ndarray


@dataclass(frozen=True)
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


def build_canonical_pair(xis, params: OscillatorParams) -> CanonicalPair:
    xis = _check_lengths(xis)
    d = xis.size
    x = np.zeros((2 * d, 2 * d))
    p = np.zeros((2 * d, 2 * d))
    for i, xi in enumerate(xis):
        x[2 * i, 2 * i] = xi
        x[2 * i + 1, 2 * i + 1] = -xi
        p[2 * i, 2 * i + 1] = params.hbar / (2.0 * xi)
        p[2 * i + 1, 2 * i] = params.hbar / (2.0 * xi)
    return CanonicalPair(x=x, p=p)


def oscillator_hamiltonian(pair: CanonicalPair, params: OscillatorParams) -> Hamiltonian:
    """p^2/(2m) + m w^2 x^2 / 2: diagonal, and commutes with J even though
    x and p individually anticommute with it."""
    m = pair.p @ pair.p / (2.0 * params.mass)
    m = m + 0.5 * params.mass * params.omega**2 * (pair.x @ pair.x)
    return Hamiltonian(matrix=m, complex_linear=True)


def energy_levels(xis, params: OscillatorParams) -> np.ndarray:
    """E_i = hbar^2/(8 m xi_i^2) + m w^2 xi_i^2 / 2, one per block.

    By the arithmetic-geometric mean inequality every level is at least
    hbar*w/2, with equality exactly at xi^2 = hbar/(2 m w).
    """
    xis = _check_lengths(xis)
    kinetic = params.hbar**2 / (8.0 * params.mass * xis**2)
    potential = 0.5 * params.mass * params.omega**2 * xis**2
    return kinetic + potential


def lengths_from_energy(energy: float, params: OscillatorParams,
                        branch: str = "plus") -> float:
    """Invert the level formula: xi = sqrt((2E +- sqrt(4E^2 - hbar^2 w^2)) / (2 m w^2)).

    Both branches reproduce the same energy; "plus" is the larger length.
    Energies below the bound hbar*w/2, or whose xi^2 is not a positive float,
    are rejected.  With S = 2E + sqrt(2E - hbar w) sqrt(2E + hbar w) the roots
    are S/(2 m w^2) and hbar^2/(2 m S), forming neither 4E^2 nor a difference.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    bound = params.ground_energy
    if not np.isfinite(energy):
        raise ConstraintError(f"target energy {energy!r} is not finite")
    if energy < bound - _BOUND_SLACK:
        raise ConstraintError(
            f"target energy {energy!r} is below the spectral bound hbar*omega/2 = {bound!r}")
    two_e, hbar_w = 2.0 * energy, params.hbar * params.omega
    with np.errstate(all="ignore"):
        s = two_e + np.sqrt(max(two_e - hbar_w, 0.0)) * np.sqrt(two_e + hbar_w)
        xi_sq = (s / (2.0 * params.mass * params.omega**2) if branch == "plus"
                 else params.hbar / (2.0 * params.mass * s) * params.hbar)
    if not (np.isfinite(xi_sq) and xi_sq > 0.0):
        raise ConstraintError(f"target energy {energy!r} gives a length squared of "
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


def translation_operator(pair: CanonicalPair, distance: float,
                         j: ComplexStructure, hbar: float = 1.0) -> np.ndarray:
    """exp(-(d/hbar) J p): a spatial translation that is symplectic but,
    because J p is symmetric, not orthogonal for d != 0."""
    if hbar <= 0.0:
        raise ValueError("hbar must be positive")
    if pair.dim != j.dim:
        raise ValueError("pair dimension does not match the complex structure")
    return expm(-(distance / hbar) * (j.matrix @ pair.p))


def build_fermionic(xi: float, params: OscillatorParams) -> FermionicStructure:
    """Fermionic reading of the equal-length pair on R^4.

    With xi_1 = xi_2 = xi the squares x^2 = xi^2 I and p^2 = hbar^2/(4 xi^2) I
    are scalars and x p + p x = 0, so

        a = x/(2 xi) - (xi/hbar) K p,      a^T = x/(2 xi) + (xi/hbar) K p

    satisfy a a^T + a^T a = I and a^2 = 0.  The number-operator Hamiltonian
    hbar w (a^T a - 1/2) then equals both -(w/2) K (x p - p x) and
    (hbar w / 2) J K.
    """
    xi = float(xi)
    if xi <= 0.0:
        raise ConstraintError("length must be positive")
    pair = build_canonical_pair([xi, xi], params)
    k = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    swap = np.eye(4)[[0, 2, 1, 3]]
    kp = k @ pair.p
    lowering = pair.x / (2.0 * xi) - (xi / params.hbar) * kp
    raising = pair.x / (2.0 * xi) + (xi / params.hbar) * kp
    j4 = standard_complex_structure(2).matrix
    h_prime = 0.5 * params.hbar * params.omega * (j4 @ k)
    return FermionicStructure(
        xi=xi,
        params=params,
        x=pair.x,
        p=pair.p,
        commuting_unit=k,
        lowering=lowering,
        raising=raising,
        hamiltonian=h_prime,
        basis_swap=swap,
    )


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
