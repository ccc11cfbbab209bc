import types

import nhgeo
from nhgeo import biortho, kitaev, liouville, tensors

#: one-pair, one-kind and test-only wrappers, replaced by the engines
#: gaussian_tensors, weak_coupling_tensors, stencil_tensors and the model blocks
DELETED = ("berry_connection", "bures_metric", "gauge_rescale", "kspace_blocks",
           "projector_deformation", "projector_fd", "zeta_tilde_gaussian",
           "zeta_tilde_kitaev_sum")


def test_written_public_names():
    assert len(set(nhgeo.__all__)) == len(nhgeo.__all__)
    for name in nhgeo.__all__:
        assert not isinstance(getattr(nhgeo, name), types.ModuleType), name
    for name in DELETED:
        assert name not in nhgeo.__all__
        for mod in (nhgeo, biortho, kitaev, liouville, tensors):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
