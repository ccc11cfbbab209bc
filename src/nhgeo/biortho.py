"""Biorthogonal eigensystems of non-Hermitian matrices.

A diagonalizable ``K`` has right eigenvectors ``K r_n = w_n r_n`` and left
eigenvectors ``K^+ l_n = conj(w_n) l_n`` normalized so that ``l_m^+ r_n =
delta_{mn}``.  Left vectors are obtained from the inverse of the right
eigenvector matrix rather than from a second eigensolve: this pins the
left/right pairing by construction, which is the main failure mode of
biorthogonal codes near clustered eigenvalues.  The system is the
:class:`~nhgeo.linalg.EigDecomposition` itself, whose ``left_vectors`` and
Gram matrices are formed when first read.
"""
from __future__ import annotations

from .errors import NearDefective
from .linalg import EigDecomposition, eig_general


def build_biortho(K) -> EigDecomposition:
    """The biorthogonal eigensystem of ``K``, a matrix or, for a caller that
    keeps one, its :func:`eig_general` decomposition: that decomposition,
    once checked to be diagonalizable.

    It runs no SVD: the gap tests on the system decide on its
    ``norm_bounds`` and read the exact ``norm`` only near their threshold.
    A degenerate spectrum is not an error here: the engines that divide by a
    gap test it themselves and raise DegenerateSpectrum.

    Raises
    ------
    NearDefective
        If the right eigenvector matrix has condition number above 1e12.
    """
    dec = K if isinstance(K, EigDecomposition) else eig_general(K)
    if not dec.is_diagonalizable_estimate:
        raise NearDefective(
            f"eigenvector condition number {dec.condition:.3e}: "
            "matrix too close to defective for a biorthogonal system"
        )
    return dec
