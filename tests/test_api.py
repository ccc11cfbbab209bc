import inspect
import types

import pytest

import nhgeo
from nhgeo import biortho, errors, kitaev, liouville, linalg, oracle, ssh, tensors

#: one-pair, one-kind and test-only wrappers, replaced by the engines
#: gaussian_tensors, weak_coupling_tensors, stencil_tensors and the model
#: blocks, the second eigensystem type, replaced by EigDecomposition, and
#: names that no production or verify path reaches, now test references
#: (the SSH closed-form eigenstates and Bloch matrix, the Gaussian
#: logarithmic derivative and the writer of the JSON matrix format), the
#: public inverse with its error and the 2x2 fork of the pair solver, and
#: the one-point views, unwrapped records and general 2x2 pencil that every
#: caller replaced by band_sums, weak_coupling_sums, eig_general, the Gamma
#: array, the phase tuple and _lyapunov_2x2
DELETED = ("berry_connection", "bures_metric", "gauge_rescale", "kspace_blocks",
           "projector_deformation", "projector_fd", "zeta_tilde_gaussian",
           "zeta_tilde_kitaev_sum", "BiorthogonalSystem", "ssh_eigenstates",
           "log_derivative", "save_matrix", "matrix_to_json", "bloch", "inverse",
           "SingularMatrix", "_pair_solver_2x2", "bloch_sum", "weak_coupling_tensors",
           "zeta_kitaev_sum", "rapidities", "MajoranaCorrelation", "SSHPhase", "_pencil_2x2")


def test_written_public_names():
    assert len(set(nhgeo.__all__)) == len(nhgeo.__all__)
    for name in nhgeo.__all__:
        assert not isinstance(getattr(nhgeo, name), types.ModuleType), name
    for name in DELETED:
        assert name not in nhgeo.__all__
        for mod in (nhgeo, biortho, errors, kitaev, liouville, linalg, oracle, ssh, tensors):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"


#: the oracle entry points take only what a caller outside the tests sets
ORACLE_PARAMETERS = {
    tensors.eta_tensor: ["fam", "lam", "n"],
    tensors.zeta_tensor: ["fam", "lam", "n"],
    tensors.zeta_limited: ["fam", "lam", "n"],
    tensors.chi_hermitian: ["fam", "lam", "n"],
    tensors.stencil_tensors: ["fam", "lam", "n", "kinds", "route", "gauge"],
    tensors.agp_elements: ["fam", "lam", "mu_dir", "mu_reg"],
    oracle.superop_family: ["fock", "liou_family"],
}


@pytest.mark.parametrize("func", list(ORACLE_PARAMETERS), ids=lambda f: f.__name__)
def test_oracle_signatures(func):
    assert list(inspect.signature(func).parameters) == ORACLE_PARAMETERS[func]
