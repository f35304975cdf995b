"""Exact and numerical dynamics of multi-level Landau-Zener sweeps.

Model builders (one sloped level over flat levels, and two parallel sloped
levels over flat levels), their exact spectral data and closed-form
scattering solution, commuting-integral and flat-connection verification,
and an independent time-ordered propagator oracle.
"""

from .ado import (
    ADOParams,
    BVectorSet,
    EKZSolution,
    FourierResult,
    QuadratureSpec,
    ado_sweep,
    b_vector_stack,
    b_vectors,
    closed_form_solution,
    coupling_matrix,
    ekz_operators,
    ekz_residual_check,
    lz_probability,
    spinor_eigenbasis,
    survival_from_transform,
    time_domain_wavefunction,
    zero_curvature_residual,
)
from .demkov_osherov import (
    DOHamiltonianEntries,
    DOParams,
    SpectralFlow,
    bow_tie_sweep,
    do_sweep,
    eigenpairs,
    entries_from_gamma,
    gamma_from_entries,
    spectral_roots,
    track_spectral_flow,
    transition_table,
)
from .errors import (
    BranchPointError,
    ConfigError,
    DegenerateSpectralError,
    DimensionError,
    LziError,
    NoRealShiftError,
    NumericalError,
    QuadratureError,
    SameSiteError,
)
from .gaudin import (
    CommutativityReport,
    SpectralConfig,
    kz_flatness_residual,
    richardson_derivative,
    richardson_integral,
    verify_commuting,
)
from .propagator import (
    AffineHamiltonian,
    InteractionPicture,
    PropagationSpec,
    TransitionResult,
    evolve_operator,
    population_trajectory,
    transition_matrix,
)
from .spin import (
    SiteSystem,
    SpinRep,
    commutator,
    dot_coupling,
    embed,
    hermiticity_defect,
    max_abs,
    pauli_u2_basis,
    site_operators,
    spin_generators,
)

__version__ = "0.1.0"
