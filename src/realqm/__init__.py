"""Quantum mechanics on a real Hilbert space.

A complex Hilbert space of dimension d is treated as R^(2d) with the
imaginary unit represented by an antisymmetric operator J with J^2 = -I.
Observables are all real symmetric matrices; physical states are the
J-commuting density matrices (the complex-theory states, with trace
halved); dynamics is generated through the symplectic bracket
{A, B} = A Omega B - B Omega A with Omega = -J/hbar.
"""

from .checks import CheckResult, SUITE_NAMES, run_checks
from .dynamics import (
    Hamiltonian,
    Propagator,
    SymplecticForm,
    evolve,
    expectation_grid,
    hamiltonian,
    jacobi_residual,
    liouville_grid,
    liouville_rhs,
    poisson_bracket,
    propagator,
    symplectic_lie_form_check,
)
from .linalg import (
    ConstraintError,
    DEFAULT_TOL,
    Tolerance,
    anticommutes,
    commutes,
    expm,
    is_antisymmetric,
    is_symmetric,
    sym_eig,
)
from .oscillator import (
    CanonicalPair,
    DualPictureReport,
    FermionicStructure,
    OscillatorParams,
    design_spectrum,
    dual_picture,
    energy_levels,
    fermionic_propagator,
    lengths_from_energy,
    oscillator_hamiltonian,
    translation_operator,
    uncertainty_product,
)
from .realify import (
    ComplexStructure,
    GeneratorSpaceRanks,
    LinearAntilinearSplit,
    OperatorFlags,
    classify,
    conjugation_operator,
    embed_matrix,
    embed_vector,
    extract_matrix,
    generator_space_ranks,
    matrix_set_rank,
    scalar_products,
    split_linear_antilinear,
    standard_complex_structure,
)
from .states import (
    DensityMatrix,
    MeasurementStatistics,
    SpectralDecomposition,
    StateStack,
    are_orthogonal_states,
    density_matrix,
    expectation,
    measurement_statistics,
    physical_density_4d,
    physical_from_complex,
    sharp_realizability,
    spectral_decompose,
    state_stack,
    variance,
)
from .tensor import (
    EscapeCheck,
    FactorSpace,
    ProductSpace,
    build_product_space,
    lift_operator,
    physical_basis,
    physical_escape_check,
    subspace_projector,
    subspace_unit_relation,
    validate_product_density,
)

__version__ = "0.1.0"
