"""nhgeo: geometric response tensors for non-Hermitian operators and
quadratic fermionic master equations."""

__version__ = "0.1.0"

from .biortho import build_biortho
from .linalg import (
    EigDecomposition, eig_general, inverse, load_matrix, matrix_from_json, matrix_to_json,
    save_matrix, solve_sylvester, solve_sylvester_pair,
)
from .tensors import (
    GeoTensor, OperatorFamily, agp_elements, chi_hermitian, eta_tensor, stencil_tensors,
    zeta_limited, zeta_tensor,
)
from .ssh import (
    SSHParams, SSHPhase, bloch, bloch_family, bloch_sum, classify_phase, ssh_eigenstates,
    zeta_finite_sum, zeta_summand, zeta_thermodynamic,
)
from .liouville import (
    AGPQuadratic, LiouvillianFamily, MajoranaCorrelation, QuadraticLiouvillian,
    TranslationInvariantModel, agp_quadratic, assemble_real_space, build_liouvillian,
    gamma_k, gaussian_tensors, log_derivative, rapidities, real_space_family,
    steady_state_dgamma, steady_state_gamma, zeta_ness, zeta_ness_k,
    zeta_tilde_ness_from_gamma,
)
from .kitaev import (
    DissipativeKitaevModel, KitaevParams, dphi, gamma_k_weak, phi_k, weak_coupling_tensors,
    zeta_kitaev_sum, zeta_kitaev_thermo,
)
from .oracle import (
    FockRep, build_fock, build_superop, correlation_from_rho, ness_from_kernel,
    ness_state_index, quadratic_superop, superop_family, third_quant_superops,
)

__all__ = [
    # biortho
    "build_biortho",
    # linalg
    "EigDecomposition", "eig_general", "inverse", "load_matrix", "matrix_from_json",
    "matrix_to_json", "save_matrix", "solve_sylvester", "solve_sylvester_pair",
    # tensors
    "GeoTensor", "OperatorFamily", "agp_elements", "chi_hermitian", "eta_tensor",
    "stencil_tensors", "zeta_limited", "zeta_tensor",
    # ssh
    "SSHParams", "SSHPhase", "bloch", "bloch_family", "bloch_sum", "classify_phase",
    "ssh_eigenstates", "zeta_finite_sum", "zeta_summand", "zeta_thermodynamic",
    # liouville
    "AGPQuadratic", "LiouvillianFamily", "MajoranaCorrelation", "QuadraticLiouvillian",
    "TranslationInvariantModel", "agp_quadratic", "assemble_real_space", "build_liouvillian",
    "gamma_k", "gaussian_tensors", "log_derivative", "rapidities", "real_space_family",
    "steady_state_dgamma", "steady_state_gamma", "zeta_ness", "zeta_ness_k",
    "zeta_tilde_ness_from_gamma",
    # kitaev
    "DissipativeKitaevModel", "KitaevParams", "dphi", "gamma_k_weak", "phi_k",
    "weak_coupling_tensors", "zeta_kitaev_sum", "zeta_kitaev_thermo",
    # oracle
    "FockRep", "build_fock", "build_superop", "correlation_from_rho", "ness_from_kernel",
    "ness_state_index", "quadratic_superop", "superop_family", "third_quant_superops",
]
