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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumWarning, NearDefective
from .linalg import eig_general

#: relative eigenvalue gap under which a DegenerateSpectrumWarning is emitted
DEGENERACY_RTOL = 1e-10


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

    def min_gap(self) -> float:
        """Smallest pairwise eigenvalue distance."""
        w = self.eigenvalues
        d = np.abs(w[:, None] - w[None, :])
        d[np.diag_indices_from(d)] = np.inf
        return float(d.min())


def build_biortho(K, *, warn_degenerate: bool = True) -> BiorthogonalSystem:
    """Construct the biorthogonal eigensystem of ``K``.

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
    sys = BiorthogonalSystem(dec.eigenvalues, R, L, R.conj().T @ R, dec.condition, dec.norm)
    if warn_degenerate:
        scale = max(sys.norm, 1.0)
        if sys.min_gap() < DEGENERACY_RTOL * scale:
            warnings.warn(
                f"eigenvalue gap {sys.min_gap():.3e} below {DEGENERACY_RTOL:.0e}*||K||",
                DegenerateSpectrumWarning,
                stacklevel=2,
            )
    return sys

