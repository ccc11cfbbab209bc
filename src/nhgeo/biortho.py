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
from .linalg import eig_general


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Eigenvalues with paired right/left eigenvector matrices.

    ``right[:, n]`` and ``left[:, n]`` satisfy ``left^+ right = I``.
    ``gram_right`` is the right-vector Gram matrix ``C_{mn} = <m_R|n_R>``;
    the left Gram matrix equals its inverse and is exposed as a property.
    ``condition`` is the 2-norm condition number of the unit-column right
    eigenvector matrix the eigensolve returned (gauge independent), and
    ``norm`` is ``||K||_2`` (``EigDecomposition.norm``), the scale of every
    gap and degeneracy test on this system.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    gram_right: np.ndarray
    condition: float
    norm: float

    @property
    def dim(self) -> int:
        return self.right.shape[0]

    @property
    def gram_left(self) -> np.ndarray:
        """``<m_L|n_L>``, equal to the inverse of ``gram_right``."""
        return self.left.conj().T @ self.left


def build_biortho(K) -> BiorthogonalSystem:
    """Construct the biorthogonal eigensystem of ``K``.

    A degenerate spectrum is not an error here: the engines that divide by
    a gap test it themselves and raise DegenerateSpectrum.

    Raises
    ------
    NearDefective
        If the right eigenvector matrix has condition number above 1e12.
    """
    dec = eig_general(K)
    if not dec.is_diagonalizable_estimate:
        raise NearDefective(
            f"eigenvector condition number {dec.condition:.3e}: "
            "matrix too close to defective for a biorthogonal system"
        )
    R = dec.right_vectors
    L = dec.right_inverse.conj().T
    return BiorthogonalSystem(dec.eigenvalues, R, L, R.conj().T @ R, dec.condition, dec.norm)

