"""Exact small-system reference constructions.

Dense Jordan-Wigner Majorana matrices, the full vectorized master-equation
generator, fermionic superoperator pairs obeying canonical anticommutation
relations, steady-state extraction from the kernel, and an adapter exposing
the dense generator as an :class:`~nhgeo.tensors.OperatorFamily` so the
generic tensor engine can be run against it directly.

Everything here scales as 4^n and is intentionally limited to n <= 4 modes;
it exists to validate the structure-matrix machinery, not to be fast.

Vectorization is column-stacking, so the trace inner product
``Tr(rho1^+ rho2)`` is the plain vector inner product and superoperator
adjoints are literal conjugate transposes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateKernel, ShapeMismatch, TooLarge
from .liouville import LiouvillianFamily, MajoranaCorrelation
from .tensors import OperatorFamily

MAX_MODES = 4


@dataclass(frozen=True)
class FockRep:
    """Dense Majorana matrices w_1..w_2n and the parity operator W.

    Convention: per-mode basis (|0>, |1>), annihilator c = [[0, 1], [0, 0]],
    site-major Jordan-Wigner strings, w_{2j-1} = c_j + c_j^+,
    w_{2j} = i(c_j - c_j^+), W = i^n w_1 w_2 ... w_{2n}.
    """

    n: int
    majoranas: tuple
    W: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** self.n


def build_fock(n: int) -> FockRep:
    if n > MAX_MODES:
        raise TooLarge(f"dense Fock construction limited to n <= {MAX_MODES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    I2 = np.eye(2, dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    c_loc = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ws = []
    for j in range(n):
        ops = [Z] * j + [c_loc] + [I2] * (n - j - 1)
        c = ops[0]
        for o in ops[1:]:
            c = np.kron(c, o)
        ws.append(c + c.conj().T)
        ws.append(1j * (c - c.conj().T))
    W = (1j) ** n * np.eye(2 ** n, dtype=complex)
    for w in ws:
        W = W @ w
    return FockRep(n, tuple(ws), W)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    N = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape(N, N, order="F")


def spre(A: np.ndarray) -> np.ndarray:
    """Superoperator of left multiplication: vec(A rho)."""
    return np.kron(np.eye(A.shape[0]), A)


def spost(B: np.ndarray) -> np.ndarray:
    """Superoperator of right multiplication: vec(rho B)."""
    return np.kron(B.T, np.eye(B.shape[0]))


def build_superop(fock: FockRep, H_mat, bath_vectors: Sequence) -> np.ndarray:
    """Dense generator of ``drho/dt = -i[H, rho] + sum_k (L rho L^+ - {L^+L, rho}/2)``.

    ``H = w^T H_mat w`` and ``L_k = l_k^T w`` in the Majorana matrices of
    ``fock``.  Pass an empty bath list for purely unitary generators.
    """
    n2 = 2 * fock.n
    H_mat = np.asarray(H_mat, dtype=complex)
    if H_mat.shape != (n2, n2):
        raise ShapeMismatch(f"H_mat must be {n2}x{n2}")
    ws = fock.majoranas
    H = np.zeros((fock.dim, fock.dim), dtype=complex)
    for i in range(n2):
        for j in range(n2):
            if H_mat[i, j] != 0:
                H += H_mat[i, j] * ws[i] @ ws[j]
    L = -1j * (spre(H) - spost(H))
    for l in bath_vectors:
        l = np.asarray(l, dtype=complex)
        if l.shape != (n2,):
            raise ShapeMismatch(f"bath vector must have length {n2}")
        Lk = sum(l[i] * ws[i] for i in range(n2))
        LdL = Lk.conj().T @ Lk
        L += spre(Lk) @ spost(Lk.conj().T) - 0.5 * (spre(LdL) + spost(LdL))
    return L


def third_quant_superops(fock: FockRep):
    """Superoperator ladder pairs: a_j(rho) = -(i/2) W [w_j, rho] and its
    anticommutator partner; together they satisfy canonical anticommutation
    relations on the doubled space, and the partner is the Hilbert-Schmidt
    adjoint of a_j."""
    a, ad = [], []
    sW = spre(fock.W)
    for w in fock.majoranas:
        sWw = spre(fock.W @ w)
        pw = spost(w)
        a.append(-0.5j * (sWw - sW @ pw))
        ad.append(-0.5j * (sWw + sW @ pw))
    return a, ad


def quadratic_superop(fock: FockRep, X, Y) -> np.ndarray:
    """Generator assembled from the structure matrices:
    ``-(sum_ij X_ij ad_i a_j + 1/2 Y_ij ad_i ad_j)``."""
    a, ad = third_quant_superops(fock)
    n2 = 2 * fock.n
    L = np.zeros((fock.dim ** 2, fock.dim ** 2), dtype=complex)
    for i in range(n2):
        for j in range(n2):
            if X[i, j] != 0:
                L -= X[i, j] * ad[i] @ a[j]
            if Y[i, j] != 0:
                L -= 0.5 * Y[i, j] * ad[i] @ ad[j]
    return L


def _kernel_index(ev) -> int:
    """Index of the eigenvalue of least modulus in ``ev``; DegenerateKernel
    if the second-smallest modulus is within 1e-8 of it."""
    order = np.argsort(np.abs(ev))
    if len(ev) > 1 and abs(ev[order[1]]) - abs(ev[order[0]]) < 1e-8:
        raise DegenerateKernel(
            f"|eig| gap {abs(ev[order[1]]) - abs(ev[order[0]]):.3e} below 1e-8"
        )
    return int(order[0])


def ness_from_kernel(fock: FockRep, superop: np.ndarray):
    """Steady state from the kernel eigenvector of the generator.

    Returns ``(rho, MajoranaCorrelation)`` with rho Hermitized, positive
    semidefinite within tolerance and trace-normalized.

    Raises
    ------
    DegenerateKernel
        If the second-smallest eigenvalue modulus is within 1e-8 of the
        smallest (kernel not one-dimensional).
    """
    ev, evec = np.linalg.eig(superop)
    rho = unvec(evec[:, _kernel_index(ev)])
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise DegenerateKernel("kernel vector is traceless; not a state")
    rho = rho / tr
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise DegenerateKernel("kernel state not positive semidefinite")
    return rho, MajoranaCorrelation(correlation_from_rho(fock, rho))


def correlation_from_rho(fock: FockRep, rho: np.ndarray) -> np.ndarray:
    """Gamma_{ij} = Tr(rho [w_i, w_j]) / 2."""
    n2 = 2 * fock.n
    ws = fock.majoranas
    G = np.zeros((n2, n2), dtype=complex)
    for i in range(n2):
        for j in range(i + 1, n2):
            val = 0.5 * np.trace(rho @ (ws[i] @ ws[j] - ws[j] @ ws[i]))
            G[i, j] = val
            G[j, i] = -val
    return G


def superop_family(fock: FockRep, liou_family: LiouvillianFamily) -> OperatorFamily:
    """Expose the dense generator of a quadratic family to the tensor engine.

    The value is :func:`build_superop` on the family's H and its bath matrix
    M, factorized into jump vectors by eigendecomposition (the generator
    depends on the bath only through M).  The generator is
    :func:`quadratic_superop`, linear in (X, Y), so its derivative is exact:
    ``quadratic_superop(dX, dY)`` on the family's ``dxy``.
    """
    if fock.n > 3:
        raise TooLarge("superoperator families limited to n <= 3")

    def f(lam):
        liou = liou_family(lam)
        evals, V = np.linalg.eigh(liou.M)
        baths = [np.sqrt(max(ev, 0.0)) * V[:, i] for i, ev in enumerate(evals)]
        return build_superop(fock, liou.H_mat, baths)

    def df(mu, lam):
        return quadratic_superop(fock, *liou_family.dxy(mu, lam))

    return OperatorFamily(fock.dim ** 2, liou_family.num_params, f, df, name="superop")


def ness_state_index(fam: OperatorFamily, lam) -> int:
    """Canonical-order index of the steady state: the eigenvalue closest to
    zero, picked as :func:`ness_from_kernel` picks it (DegenerateKernel
    unless it is the only one within 1e-8 of the least modulus)."""
    from .biortho import build_biortho

    return _kernel_index(build_biortho(fam(lam)).eigenvalues)
