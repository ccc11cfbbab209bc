"""Biorthogonal eigensystems of non-Hermitian matrices.

A diagonalizable ``K`` has right eigenvectors ``K r_n = w_n r_n`` and left
eigenvectors ``K^+ l_n = conj(w_n) l_n`` normalized so that ``l_m^+ r_n =
delta_{mn}``.  Left vectors are obtained from the inverse of the right
eigenvector matrix rather than from a second eigensolve: this pins the
left/right pairing by construction, which is the main failure mode of
biorthogonal codes near clustered eigenvalues.

Normalization convention: right vectors have unit Euclidean norm and the
left vectors absorb all remaining scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearDefective
from .linalg import EigDecomposition, eig_general


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Eigenvalues with paired right/left eigenvector matrices.

    ``right[:, n]`` and ``left[:, n]`` satisfy ``left^+ right = I``.  The
    Gram matrices are properties, formed when asked for (a stencil point
    reads neither).  ``condition`` is the exact 2-norm condition number of
    the unit-column right eigenvector matrix the eigensolve returned (gauge
    independent), and ``norm`` is the exact ``||K||_2``
    (``EigDecomposition.norm``), the scale of every gap and degeneracy test
    on this system; at N > 2 each was one SVD.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: float
    norm: float

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    @property
    def gram_right(self) -> np.ndarray:
        """The right-vector Gram matrix ``C_{mn} = <m_R|n_R>``."""
        return self.right.conj().T @ self.right

    @property
    def gram_left(self) -> np.ndarray:
        """``<m_L|n_L>``, equal to the inverse of ``gram_right``."""
        return self.left.conj().T @ self.left


def build_biortho(K) -> BiorthogonalSystem:
    """Construct the biorthogonal eigensystem of ``K``, a matrix or, for a
    caller that keeps one, its :func:`eig_general` decomposition.

    It reads the decomposition's exact ``condition`` and ``norm``, so at
    N > 2 it runs the two SVDs that :func:`eig_general` leaves undone.  A
    degenerate spectrum is not an error here: the engines that divide by a
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
    return BiorthogonalSystem(dec.eigenvalues, dec.right_vectors, dec.right_inverse.conj().T,
                              dec.condition, dec.norm)
