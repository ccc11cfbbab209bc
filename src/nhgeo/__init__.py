"""nhgeo: geometric response tensors for non-Hermitian operators and
quadratic fermionic master equations."""

__version__ = "0.1.0"

from . import errors
from .biortho import BiorthogonalSystem, build_biortho, gauge_rescale
from .linalg import (
    EigDecomposition,
    eig_general,
    inverse,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    solve_sylvester,
    solve_sylvester_pair,
)
from .tensors import (
    AGPMatrix,
    GeoTensor,
    OperatorFamily,
    agp_elements,
    agp_residual,
    berry_connection,
    chi_hermitian,
    eta_tensor,
    projector_deformation,
    zeta_limited,
    zeta_tensor,
)
from .ssh import (
    SSHParams,
    SSHPhase,
    bloch,
    bloch_family,
    classify_phase,
    ssh_eigenstates,
    zeta_finite_sum,
    zeta_summand,
    zeta_thermodynamic,
)
from .liouville import (
    AGPQuadratic,
    LiouvillianFamily,
    MajoranaCorrelation,
    QuadraticLiouvillian,
    TranslationInvariantModel,
    agp_quadratic,
    assemble_real_space,
    build_liouvillian,
    bures_metric,
    gamma_k,
    gaussian_tensors,
    kspace_blocks,
    log_derivative,
    rapidities,
    real_space_family,
    steady_state_dgamma,
    steady_state_gamma,
    zeta_ness,
    zeta_ness_k,
    zeta_tilde_gaussian,
    zeta_tilde_ness_from_gamma,
)
from .kitaev import (
    DissipativeKitaevModel,
    KitaevParams,
    dphi,
    gamma_k_weak,
    phi_k,
    weak_coupling_tensors,
    zeta_kitaev_sum,
    zeta_kitaev_thermo,
    zeta_tilde_kitaev_sum,
)
from .oracle import (
    FockRep,
    build_fock,
    build_superop,
    correlation_from_rho,
    ness_from_kernel,
    ness_state_index,
    quadratic_superop,
    superop_family,
    third_quant_superops,
)

__all__ = [name for name in dir() if not name.startswith("_")]
