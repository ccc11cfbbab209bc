"""Quadratic fermionic Liouvillians in the Majorana representation.

A Hamiltonian ``H = w^T Hmat w`` (``Hmat`` antisymmetric, purely imaginary)
with linear jump operators ``L_k = l_k^T w`` closes on two structure
matrices

    X = 4i Hmat + 2 Re(M),      Y = -4i Im(M),      M = sum_k l_k l_k^+,

whose eigenvalues (rapidities) build the full relaxation spectrum.  The
steady-state Majorana correlation matrix ``Gamma`` (Hermitian, antisymmetric,
purely imaginary, eigenvalues in [-1, 1]) solves ``X Gamma + Gamma X^T = Y``.

The steady-state mixed geometric tensor is evaluated at the matrix level,

    zeta_{mu nu} = 1/2 Tr(d_mu Gamma d_nu Gamma) + Tr(Xcal^mu Gamma d_nu Gamma),

with ``Xcal^mu`` obtained spectrally from ``d_mu X``; normal-mode operators
are never materialized.  A translation-invariant variant works per momentum
block.  Gaussian-state closed forms (Bures metric, purity-weighted
response) operate directly on ``Gamma`` and its derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadBath,
    BadHamiltonian,
    DegenerateRapidities,
    NonUniqueSteadyState,
    PureStateSingular,
    ShapeMismatch,
)
from .linalg import (
    _blocks,
    _entries,
    _mul,
    _pair_solver_2x2,
    _raise_first,
    _scale_verdict,
    _sylvester_solver,
    _trace_sum,
    _transpose,
    as_square,
    eig_general,
    lowest_failing_block,
)
from .tensors import GeoTensor, _direction, _integer, _kinds, _params


@dataclass(frozen=True)
class QuadraticLiouvillian:
    """Validated (Hmat, M) pair with the derived structure matrices X, Y."""

    n: int
    H_mat: np.ndarray
    M: np.ndarray
    X: np.ndarray
    Y: np.ndarray


@dataclass(frozen=True)
class MajoranaCorrelation:
    """Steady-state two-point matrix: Gamma_{ij} = <[w_i, w_j]> / 2."""

    Gamma: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        """Real occupancy eigenvalues (Gamma is Hermitian)."""
        return np.linalg.eigvalsh(self.Gamma)

    def physicality_defect(self) -> float:
        """How far the spectrum leaves [-1, 1]."""
        ev = self.eigenvalues()
        return float(max(0.0, ev.max() - 1.0, -1.0 - ev.min()))


@dataclass(frozen=True)
class AGPQuadratic:
    """Quadratic transport generator: real ``Xcal`` and imaginary antisymmetric ``Ycal``."""

    direction: int
    Xcal: np.ndarray
    Ycal: np.ndarray


def bath_matrix(bath_vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    M = np.zeros((dim, dim), dtype=complex)
    for l in bath_vectors:
        l = np.asarray(l, dtype=complex)
        if l.shape != (dim,):
            raise ShapeMismatch(f"bath vector shape {l.shape}, expected ({dim},)")
        M += np.outer(l, l.conj())
    return M


def _hamiltonian_matrix(n: int, H_mat) -> np.ndarray:
    """``H_mat`` as a complex 2n x 2n array, else ShapeMismatch; BadHamiltonian
    unless it is antisymmetric and Hermitian (purely imaginary)."""
    dim = 2 * n
    H_mat = as_square(H_mat, "H_mat")
    if H_mat.shape[0] != dim:
        raise ShapeMismatch(f"H_mat must be {dim}x{dim}")
    if np.abs(H_mat + H_mat.T).max() > 1e-12 * max(1.0, np.abs(H_mat).max()):
        raise BadHamiltonian("H_mat must be antisymmetric")
    if np.abs(H_mat - H_mat.conj().T).max() > 1e-12 * max(1.0, np.abs(H_mat).max()):
        raise BadHamiltonian("H_mat must be Hermitian (purely imaginary entries)")
    return H_mat


def build_liouvillian(n: int, H_mat, bath_vectors=None, *, M=None) -> QuadraticLiouvillian:
    """Validate inputs and derive X, Y.

    Either a list of bath vectors ``l_k`` or the bath matrix ``M`` directly
    may be given (only ``Re M`` and ``Im M`` enter X and Y).
    """
    dim = 2 * n
    H_mat = _hamiltonian_matrix(n, H_mat)
    if (bath_vectors is None) == (M is None):
        raise ValueError("pass exactly one of bath_vectors or M")
    if M is None:
        M = bath_matrix(bath_vectors, dim)
    else:
        M = as_square(M, "M")
        if M.shape[0] != dim:
            raise ShapeMismatch(f"M must be {dim}x{dim}")
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.conj().T).max() > 1e-10 * scale:
        raise BadBath("bath matrix must be Hermitian")
    if np.linalg.eigvalsh((M + M.conj().T) / 2).min() < -1e-10 * scale:
        raise BadBath("bath matrix must be positive semidefinite")
    X = 4j * H_mat + 2 * M.real
    Y = -4j * M.imag
    return QuadraticLiouvillian(n, H_mat, M, X, Y)


def rapidities(liou: QuadraticLiouvillian):
    """Eigenvalues of X (canonical order) and the diagonalizing transform U."""
    dec = eig_general(liou.X)
    return dec.eigenvalues, dec.right_vectors


def steady_state_gamma(liou: QuadraticLiouvillian) -> MajoranaCorrelation:
    """Unique steady-state correlation matrix from the Sylvester equation.

    Raises
    ------
    NonUniqueSteadyState
        If min Re(x_j) is not strictly positive (kernel not one-dimensional).
    """
    return MajoranaCorrelation(_steady_state(liou)[2])


def _steady_state(liou: QuadraticLiouvillian, dec=None):
    """``(dec, solve, Gamma)``: the decomposition of X (``dec`` when the caller
    has it), the checked solver of ``X G + G X^T = Y`` on it, and Gamma."""
    dec = dec or eig_general(liou.X)
    xmin = dec.eigenvalues.real.min()
    if _scale_verdict(lambda m: xmin <= 1e-12 * m, dec):  # 1e-12 * max(1, ||X||_2)
        raise NonUniqueSteadyState(f"min Re(rapidity) = {xmin:.3e}: steady state not unique")
    solve = _sylvester_solver(liou.X, dec)
    return dec, solve, solve(liou.Y)


# ---------------------------------------------------------------------------
# parameterized families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiouvillianFamily:
    """lambda -> QuadraticLiouvillian, with its exact derivative.

    ``deriv_func(mu, lam)`` returns ``(dX, dY)``, the derivatives of the
    structure matrices along direction ``mu`` (central differences serve
    only as oracles).
    """

    n: int
    num_params: int
    func: Callable[[np.ndarray], QuadraticLiouvillian]
    deriv_func: Callable[[int, np.ndarray], tuple]
    name: str = ""

    def __call__(self, lam) -> QuadraticLiouvillian:
        return self.func(_params(lam, self.num_params))

    def dxy(self, mu: int, lam):
        """``(dX, dY)`` along ``mu``; ShapeMismatch outside ``[0, num_params)``
        or unless both are ``2n x 2n``."""
        lam = _params(lam, self.num_params)
        _direction(mu, self.num_params)
        dX, dY = self.deriv_func(mu, lam)
        if np.shape(dX) != (2 * self.n,) * 2 or np.shape(dY) != (2 * self.n,) * 2:
            raise ShapeMismatch(f"dX, dY are {np.shape(dX)}, {np.shape(dY)}, expected 2n x 2n")
        return dX, dY


#: relative resolution of the transport generator: a rapidity gap below
#: ``RAPIDITY_RTOL * max(|x|, 1)`` is degenerate, and such a pair is coupled
#: when its element of ``U^-1 dX U`` exceeds ``RAPIDITY_RTOL * max(|num|, 1)``
RAPIDITY_RTOL = 1e-8


def _offdiag_generator(x, U, dX, Ui):
    """Off-diagonal part of (dU^-1) U from the spectral formula.

    Entry (i, j) is ``-(U^-1 dX U)_{ij} / (x_j - x_i)``, with ``Ui = U^-1``
    (as ``EigDecomposition.right_inverse``).  Degenerate pairs are tolerated
    when the coupling element vanishes (symmetry-decoupled sectors); a
    coupled degenerate pair raises, the first in row-major order
    (``RAPIDITY_RTOL`` sets both tests).
    """
    num = Ui @ dX @ U
    gaps = x[None, :] - x[:, None]
    degenerate = np.abs(gaps) < RAPIDITY_RTOL * max(np.abs(x).max(), 1.0)
    off = degenerate & ~np.eye(len(x), dtype=bool)
    if off.any():
        coupled = off & (np.abs(num) > RAPIDITY_RTOL * max(np.abs(num).max(), 1.0))
        if coupled.any():
            i, j = np.argwhere(coupled)[0]
            raise DegenerateRapidities(
                f"rapidities {i},{j} degenerate with coupling {abs(num[i, j]):.3e}")
    # adding the mask leaves every nondegenerate gap unchanged
    return np.where(degenerate, 0.0, -num / (gaps + degenerate))


def _xcal(x, U, dX, Ui) -> np.ndarray:
    """Transport generator ``Xcal = U A U^-1`` along one direction, ``A`` from
    :func:`_offdiag_generator` and ``Ui = U^-1``."""
    return U @ _offdiag_generator(x, U, dX, Ui) @ Ui


def _ness_tensor(dG, Xcal, Gamma) -> np.ndarray:
    """``1/2 Tr(dG_mu dG_nu) + Tr(Xcal_mu Gamma dG_nu)`` for all direction pairs."""
    dG = np.asarray(dG)
    return np.einsum("aij,bji->ab", 0.5 * dG + np.asarray(Xcal) @ Gamma, dG)


def _ness_state(fam: LiouvillianFamily, lam, dec=None):
    """The dense steady-state driver: ``(Gamma, dG, dec, dxy)`` at the checked
    ``lam`` from one decomposition ``dec`` of X (the caller's, when it has
    one).  ``dxy[mu]`` is ``(dX_mu, dY_mu)``, and ``dG[mu]`` solves
    ``X dGamma + dGamma X^T = dY - dX Gamma - Gamma dX^T``."""
    dec, solve, Gamma = _steady_state(fam(lam), dec)
    dxy = [fam.dxy(mu, lam) for mu in range(fam.num_params)]
    return Gamma, [solve(dY - dX @ Gamma - Gamma @ dX.T) for dX, dY in dxy], dec, dxy


def steady_state_dgamma(fam: LiouvillianFamily, lam):
    """``(Gamma, [dGamma_mu])``: the steady-state correlation matrix and its
    exact derivative along every direction, from one decomposition of X
    (:func:`_ness_state`); finite differences lose accuracy near critical
    regions."""
    return _ness_state(fam, _params(lam, fam.num_params))[:2]


def agp_quadratic(fam: LiouvillianFamily, lam, mu_dir: int) -> AGPQuadratic:
    """Quadratic-form transport generator (Xcal, Ycal) along one direction;
    ShapeMismatch for a ``mu_dir`` outside ``[0, num_params)``."""
    lam = _params(lam, fam.num_params)
    _direction(mu_dir, fam.num_params)
    Gamma, dG, dec, dxy = _ness_state(fam, lam)
    Xcal = _xcal(dec.eigenvalues, dec.right_vectors, dxy[mu_dir][0], dec.right_inverse)
    Ycal = dG[mu_dir] + Xcal @ Gamma + Gamma @ Xcal.T
    return AGPQuadratic(mu_dir, Xcal, Ycal)


#: tensor kinds that :func:`ness_tensors` contracts
NESS_KINDS = ("zeta", "zeta_limited", "bures")


def ness_tensors(fam: LiouvillianFamily, lam, kinds: Sequence[str], *,
                 dec=None) -> dict[str, GeoTensor]:
    """The steady-state tensors ``kinds`` over all parameter directions; the
    Liouvillian counterpart of :func:`nhgeo.tensors.sum_over_states`.

    One decomposition of X (``dec`` when the caller has it) gives Gamma, every
    ``dGamma_mu`` and, for ``zeta`` only (so only ``zeta`` raises
    DegenerateRapidities), every ``Xcal_mu``.  ``zeta_limited`` and ``bures``
    come from one :func:`gaussian_tensors` call on Gamma and the dGammas.
    """
    kinds = _kinds(kinds, NESS_KINDS, "ness_tensors")
    lam = _params(lam, fam.num_params)
    Gamma, dG, dec, dxy = _ness_state(fam, lam, dec)
    out = {}
    for kind in kinds:  # each check is made at the first kind that needs it
        if kind == "zeta":
            x, U, Ui = dec.eigenvalues, dec.right_vectors, dec.right_inverse
            out[kind] = _ness_tensor(dG, [_xcal(x, U, dX, Ui) for dX, _ in dxy], Gamma)
        elif kind not in out:
            out.update(gaussian_tensors(Gamma, dG, [k for k in kinds if k != "zeta"]))
    return {kind: GeoTensor(kind, "ness", np.asarray(out[kind], dtype=complex), lam,
                            {"n": fam.n}) for kind in kinds}


def zeta_ness(fam: LiouvillianFamily, lam) -> GeoTensor:
    """Steady-state mixed tensor over all parameter directions."""
    return ness_tensors(fam, lam, ["zeta"])["zeta"]


# ---------------------------------------------------------------------------
# translation-invariant (momentum block) variant
# ---------------------------------------------------------------------------

def _chain_length(L) -> int:
    """``L`` as a number of unit cells: an integer >= 1, else ShapeMismatch."""
    if not _integer(L) or L < 1:
        raise ShapeMismatch(f"L must be an integer >= 1, got {L!r}")
    return int(L)


def _over_k(k, block, lam=()) -> np.ndarray:
    """``block`` broadcast over the stack axes of ``k`` and of the points of
    ``lam`` (:meth:`TranslationInvariantModel.x_block`): an ``(L, 1, 1)``
    column gives ``(L, b, b)``, and with parameters of ``P`` points as
    ``(P, 1, 1, 1)`` columns ``(P, L, b, b)``; a scalar ``k`` at one point
    leaves a single block."""
    shape = np.shape(k)[:-2]
    if np.ndim(lam) > 1:  # points
        shape = np.broadcast_shapes(shape, np.shape(lam)[1:-2])
    shape += np.shape(block)[-2:]
    return block if np.shape(block) == shape else np.broadcast_to(block, shape).copy()


def _read_xy(model, k, lam, mu=None):
    """``(x, y(k))``: x at the momenta ``(k, -k)`` on a new leading axis, with
    ``x(k) = 4i h(k) + m(k) + m(-k)^T`` and ``y(k) = -2 (m(k) - m(-k)^T)``,
    from one ``h_block`` and one ``m_block`` call at ``(k, -k)``; with a
    direction ``mu``, their derivatives from ``dh_block`` and ``dm_block``."""
    kk = np.reshape([k, -k], (2, *(np.shape(k) or (1, 1))))  # a scalar k as a column
    if mu is None:
        h, m = model.h_block(kk, lam), model.m_block(kk, lam)
    else:
        _direction(mu, model.num_params)
        h, m = model.dh_block(mu, kk, lam), model.dm_block(mu, kk, lam)
    on_k = np.ndim(m) >= np.ndim(kk)  # else m does not depend on k
    mT = np.swapaxes(m[::-1] if on_k else m, -1, -2)  # m(-k)^T at (k, -k)
    y = -2.0 * (m - mT)
    return _over_k(kk, 4j * h + m + mT, lam), _over_k(k, y[0] if on_k else y, lam)


class TranslationInvariantModel:
    """Two-band translation-invariant model defined by momentum blocks.

    Subclasses provide the 2x2 blocks ``h_block(k, lam)``, ``m_block(k, lam)``
    and their exact derivatives ``dh_block(mu, k, lam)``, ``dm_block(mu, k, lam)``.
    Block methods must broadcast over ``k`` and over a leading stack of
    parameter points: given a column of momenta of shape ``(..., L, 1, 1)``
    and ``lam`` as one point or as ``num_params`` columns ``(P, 1, 1, 1)``
    of P points, they return the ``(..., P, L, 2, 2)`` stack or, for a block
    that depends on neither, a single 2x2 block.  Elementwise numpy
    arithmetic does both, and gives each point the blocks it gets alone.
    """

    num_params = 0
    bands = 2

    def h_block(self, k: float, lam) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def m_block(self, k: float, lam) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def dh_block(self, mu: int, k: float, lam) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def dm_block(self, mu: int, k: float, lam) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    # -- derived quantities (one block, or a stack over k and points) --------

    def x_block(self, k, lam) -> np.ndarray:
        return _read_xy(self, k, lam)[0][0]

    def y_block(self, k, lam) -> np.ndarray:
        return _read_xy(self, k, lam)[1]

    def dx_block(self, mu: int, k, lam) -> np.ndarray:
        return _read_xy(self, k, lam, mu)[0][0]

    def dy_block(self, mu: int, k, lam) -> np.ndarray:
        return _read_xy(self, k, lam, mu)[1]


def gamma_k(model: TranslationInvariantModel, k, lam) -> np.ndarray:
    """Momentum-block correlation solving x(k) g + g x(-k)^T = y(k): one 2x2
    block at a scalar ``k``, the ``(L, 2, 2)`` stack at ``L`` momenta; a view
    of :func:`_gamma_blocks` whose error is that of the lowest failing k."""
    lam = _params(lam, model.num_params)[None]
    x, xmT, y, _ = _momentum_blocks(model, lam, np.ravel(k), False)
    with lowest_failing_block():
        gk = _gamma_blocks(x, xmT, y)[0]
    return np.reshape(_blocks(gk), np.shape(k) + (2, 2))


def zeta_ness_k(model: TranslationInvariantModel, lam, L: int) -> GeoTensor:
    """Steady-state tensor as a Brillouin-zone sum of per-block traces:
    :func:`zeta_ness_k_sums` at one point, all L momentum blocks solved as
    one stack (see :func:`_ness_k_sum`)."""
    lam = _params(lam, model.num_params)
    L = _chain_length(L)
    return GeoTensor("zeta", "ness", zeta_ness_k_sums([(model, lam)], L)[0], lam,
                     {"L": L, "route": "kspace"})


def zeta_ness_k_sums(points, L: int) -> np.ndarray:
    """:func:`zeta_ness_k` at each of ``points``, pairs ``(model, lam)`` of
    one chain length ``L``, as a ``(P, d, d)`` array from one pass.

    The momentum blocks of the points of each model (by identity) are read
    in one stacked call of its block methods (:func:`_momentum_blocks`),
    the reads of several models joined in point order (:func:`_joined`),
    and the ``P * L`` blocks are solved as one stack by :func:`_ness_k_sum`,
    which sums each point's blocks on their own; so each point gets its
    one-point tensor bit for bit.  A failure is that of the first failing
    point, the error it raises alone, and carries ``p * L + k`` as
    ``exc.block``; inside a pass (:func:`~nhgeo.linalg.flagged_blocks`)
    the failing blocks are recorded, and a failing point's sums are not its
    tensor.
    """
    L = _chain_length(L)
    ks = 2.0 * np.pi * np.arange(L) / L
    if len({model.num_params for model, _ in points}) != 1:
        raise ShapeMismatch("zeta_ness_k_sums needs models of one number of parameters")
    at = {}  # the points of each model, in order of first appearance
    for p, (model, _) in enumerate(points):
        at.setdefault(id(model), []).append(p)
    reads = []
    for ps in at.values():
        model = points[ps[0]][0]
        lams = np.array([_params(points[p][1], model.num_params) for p in ps])
        reads.append(_momentum_blocks(model, lams, ks, True))
    return _ness_k_sum(_joined(reads, list(at.values())), len(points))


def _momentum_blocks(model: TranslationInvariantModel, lams, ks, derivatives: bool):
    """The read step of the momentum drivers at the points ``lams (P, d)``
    of ``model``: the entry tuples ``(x, xmT, y, (dx, dxmT, dy))`` at the
    1-D momenta ``ks``, the block of point ``p`` at ``ks[j]`` at the flat
    index ``p * L + j``.  Each block method is called once (per direction),
    on every point and momentum: ``lam`` reaches it as ``d`` columns ``(P,
    1, 1, 1)`` and the momenta ``(ks, -ks)`` as a ``(2, 1, L, 1, 1)``
    array, and x(k), x(-k)^T and y(k) are formed from that read
    (:func:`_read_xy`).  With ``derivatives``, every dx_mu and dy_mu too
    (their entries stacked over directions mu, ``(d, P L)``)."""
    P, L = len(lams), len(ks)
    lam = np.reshape(np.transpose(lams), (-1, P, 1, 1, 1))
    kc = ks[None, :, None, None]  # after the points' axis

    def entries(x, y):  # x (..., 2, P, L, 2, 2), y as entries (..., P L); x(-k) transposed
        x, y = (tuple(e.reshape(e.shape[:-2] + (P * L,)) for e in _entries(b)) for b in (x, y))
        return tuple(e[..., 0, :] for e in x), _transpose(tuple(e[..., 1, :] for e in x)), y

    x, xmT, y = entries(*_read_xy(model, kc, lam))
    if not derivatives:
        return x, xmT, y, None
    reads = zip(*(_read_xy(model, kc, lam, mu) for mu in range(model.num_params)))
    # a model without parameters has empty derivative stacks
    empty = [np.zeros((0, 2, P, L, 2, 2)), np.zeros((0, P, L, 2, 2))]
    return x, xmT, y, entries(*([np.stack(r) for r in reads] or empty))


def _joined(reads, at):
    """The reads of :func:`_momentum_blocks` at the points ``at[i]`` of a
    pass (read ``i`` holds the blocks of the points ``at[i]``, in order),
    joined into one read in point order; one read is returned as it is."""
    if len(reads) == 1:
        return reads[0]
    P = sum(map(len, at))

    def join(parts):
        if isinstance(parts[0], tuple):
            return tuple(join(p) for p in zip(*parts))
        lead, L = parts[0].shape[:-1], parts[0].shape[-1] // len(at[0])
        out = np.empty(lead + (P, L), dtype=complex)
        for part, ps in zip(parts, at):
            out[..., ps, :] = part.reshape(lead + (len(ps), L))
        return out.reshape(lead + (P * L,))

    return join(reads)


def _gamma_blocks(x, xmT, y):
    """The momentum steady-state driver: Gamma(k) as an entry tuple from the
    entry tuples of x(k), x(-k)^T and y(k) (:func:`_momentum_blocks`), the
    solver of ``x(k) G + G x(-k)^T = Y`` and the eigenpairs ``(a, Ua,
    Ua^-1)`` of x(k) it is built on.  Each check is made per block, into
    the caller's record (:func:`~nhgeo.linalg.lowest_failing_block`)."""
    solve, eig_x = _pair_solver_2x2(x, xmT)
    return solve(y), solve, eig_x


def _ness_k_sum(blocks, points: int) -> np.ndarray:
    """The per-block steady-state tensor summed over the blocks of each of
    ``points`` runs of equally many consecutive blocks: ``(points, d, d)``.

    ``blocks`` is what :func:`_momentum_blocks` reads: x and dx_mu at k and
    -k, the directions mu stacked along a leading axis.  Every step below is
    2x2 entry arithmetic, elementwise per block.  The pencil solver of
    :func:`_gamma_blocks` gives every dGamma_mu(k), its eigenpairs every
    Xcal_mu(k) (:func:`_xcal_2x2`), and the zone sums are one
    :func:`~nhgeo.linalg._trace_sum`, one matrix product per run.  Every
    check goes into one record (:func:`~nhgeo.linalg.lowest_failing_block`):
    each block is checked once, and the lowest failing k wins.
    """
    x, xmT, y, (dx, dxmT, dy) = blocks
    with lowest_failing_block():
        gk, solve, (a, Ua, Uai) = _gamma_blocks(x, xmT, y)
        if not len(dy[0]):  # a model without parameters
            return np.zeros((points, 0, 0), dtype=complex)
        rhs = (y - xg - gx for y, xg, gx in zip(dy, _mul(dx, gk), _mul(gk, dxmT)))
        dg = solve(tuple(rhs))
        # zeta_{mu nu} = sum_k Tr[(1/2 dGamma_mu + Xcal_mu Gamma) dGamma_nu]
        terms = tuple(0.5 * g + xg for g, xg in zip(dg, _mul(_xcal_2x2(a, Ua, Uai, dx), gk))), dg

    def per_point(E):  # entries (d, points * L) as (d, points, L)
        return tuple(e.reshape(len(e), points, -1) for e in E)

    return _trace_sum(*map(per_point, terms))


def _xcal_2x2(x, U, Ui, dX):
    """:func:`_xcal` on 2x2 blocks: the eigenvalues ``x = (x0, x1)`` and the
    entry tuples ``U``, ``Ui = U^-1`` and ``dX``, whose entries may carry a
    leading axis of directions.  The degeneracy test of
    :func:`_offdiag_generator` (``RAPIDITY_RTOL``) is made per block and
    direction; a block fails at its first coupled direction."""
    n00, n01, n10, n11 = num = _mul(_mul(Ui, dX), U)
    gap = x[1] - x[0]
    degenerate = abs(gap) < RAPIDITY_RTOL * np.maximum(np.maximum(abs(x[0]), abs(x[1])), 1.0)
    if degenerate.any():
        scale = RAPIDITY_RTOL * np.maximum(np.max(np.abs(num), axis=0), 1.0)
        # one row per direction; the pair (0, 1) is reported before (1, 0)
        rows = [np.reshape(degenerate & (abs(n) > scale), (-1, gap.size)) for n in (n01, n10)]
        coupled = rows[0] | rows[1]

        def message(i):
            mu = np.argmax(coupled[:, i])
            pair, n = ("0,1", n01) if rows[0][mu, i] else ("1,0", n10)
            n = abs(np.reshape(n, (-1, gap.size))[mu, i])
            return f"rapidities {pair} degenerate with coupling {n:.3e}"

        _raise_first(coupled.any(axis=0).reshape(gap.shape), DegenerateRapidities, message)
        gap = np.where(degenerate, np.inf, gap)  # an uncoupled pair gets A = 0
    a01, a10 = -n01 / gap, n10 / gap  # A = [[0, a01], [a10, 0]]
    u00, u01, u10, u11 = U
    return _mul((u01 * a10, u00 * a01, u11 * a10, u10 * a01), Ui)  # U A U^-1


def _k_column(L: int) -> np.ndarray:
    """The momenta ``2 pi j / L`` of a length-L chain as an ``(L, 1, 1)`` column."""
    return (2.0 * np.pi * np.arange(L) / L)[:, None, None]


def _real_space(kc, block) -> np.ndarray:
    """Fourier assembly of momentum blocks, site-major:
    ``A[(j, a), (r, b)] = (1/L) sum_k e^{i k (j - r)} block(k)_{ab}``,
    that is, one inverse FFT over the k column ``kc`` gives ``c[n]`` and
    the circulant ``A[j, r] = c[(j - r) mod L]``."""
    c = np.fft.ifft(_over_k(kc, block), axis=0)
    L, b = c.shape[0], c.shape[-1]
    shift = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    return c[shift].transpose(0, 2, 1, 3).reshape(b * L, b * L)


def assemble_real_space(model: TranslationInvariantModel, lam, L: int) -> QuadraticLiouvillian:
    """Build the length-L real-space Liouvillian from the momentum blocks
    ``h_block`` and ``m_block``, Fourier-assembled by :func:`_real_space`."""
    lam = _params(lam, model.num_params)
    kc = _k_column(_chain_length(L))
    H = _real_space(kc, model.h_block(kc, lam))
    M = _real_space(kc, model.m_block(kc, lam))
    # project out Fourier round-off so validation sees clean structure
    H = (H - H.T) / 2
    H = (H + H.conj().T) / 2
    M = (M + M.conj().T) / 2
    return build_liouvillian(H.shape[0] // 2, H, M=M)


def real_space_family(model: TranslationInvariantModel, L: int) -> LiouvillianFamily:
    """Real-space LiouvillianFamily wrapping :func:`assemble_real_space`.

    dX and dY are exact: the k stacks of dx_mu and dy_mu, formed from one
    read of ``dh_block`` and ``dm_block`` at ``(k, -k)`` (:func:`_read_xy`),
    are Fourier-assembled as X and Y are, then projected
    onto the structure of X and Y, dX real and dY imaginary antisymmetric.
    They are not Liouvillians, so they skip :func:`build_liouvillian`'s
    validation.
    """
    L = _chain_length(L)
    kc = _k_column(L)

    def dxy(mu, lam):
        dx, dy = _read_xy(model, kc, lam, mu)
        dX = _real_space(kc, dx[0]).real.astype(complex)
        dY = _real_space(kc, dy)
        return dX, 1j * (dY - dY.T).imag / 2

    return LiouvillianFamily(
        n=model.bands * L // 2,
        num_params=model.num_params,
        func=lambda lam: assemble_real_space(model, lam, L),
        deriv_func=dxy,
        name="real-space",
    )


# ---------------------------------------------------------------------------
# Gaussian-state closed forms
# ---------------------------------------------------------------------------

def _gamma_eigenbasis(Gamma, *dGammas, pure: bool = False):
    """Eigenvalues ``g`` and eigenvectors ``V`` of Gamma (one matrix or a stack
    ``(..., n, n)``) from one ``eigh``, and each of ``dGammas`` in that basis.

    Each block must be Hermitian (ShapeMismatch) and, with ``pure``, have no
    eigenvalue product ``g_j g_k`` within 1e-10 of 1 (PureStateSingular); in
    one record, the lowest failing block wins, as a loop over blocks finds it.
    """
    Gamma = as_square(Gamma, "Gamma", stack=True)
    herm_defect = np.abs(Gamma - np.swapaxes(Gamma.conj(), -1, -2)).max(axis=(-2, -1))
    not_herm = herm_defect > 1e-8 * np.maximum(np.abs(Gamma).max(axis=(-2, -1)), 1.0)
    g, V = np.linalg.eigh(Gamma)
    with lowest_failing_block():
        _raise_first(not_herm, ShapeMismatch,
                     lambda b: "Gamma must be Hermitian (imaginary antisymmetric)")
        if pure:
            at_pure = np.abs(1.0 - g[..., :, None] * g[..., None, :]).min(axis=(-2, -1)) < 1e-10
            _raise_first(at_pure, PureStateSingular,
                         lambda b: "correlation spectrum touches a pure-state direction")
    Vh = np.swapaxes(V.conj(), -1, -2)
    return g, V, [Vh @ np.asarray(d, dtype=complex) @ V for d in dGammas]


#: tensor kinds that :func:`gaussian_tensors` contracts
GAUSSIAN_KINDS = ("zeta_limited", "bures")


def gaussian_tensors(Gamma, dGammas, kinds: Sequence[str]) -> dict[str, np.ndarray]:
    """Real ``d x d`` Gaussian-state tensors ``kinds`` from one eigendecomposition
    of Gamma, ``w sum_{jk} (dG_mu)_{jk} (dG_nu)_{kj} / den_{jk}`` in its eigenbasis:

    - ``bures``, the Bures metric: ``w = 1/8``, ``den = 1 - g_j g_k``
      (PureStateSingular where it vanishes);
    - ``zeta_limited``, the purity-weighted response
      ``(1/2) Tr[(1+Gamma^2)^-1 dG_mu (1+Gamma^2)^-1 dG_nu]``: ``w = 1/2``,
      ``den = (1 + g_j^2)(1 + g_k^2)``.

    On a stack ``(..., n, n)`` (each ``dGammas[mu]`` of the same shape) the
    traces are summed over the blocks; see :func:`_gamma_eigenbasis`.
    """
    kinds = _kinds(kinds, GAUSSIAN_KINDS, "gaussian_tensors")
    g, _, dG = _gamma_eigenbasis(Gamma, *dGammas, pure="bures" in kinds)
    gj, gk = g[..., :, None], g[..., None, :]
    out = {}
    for kind in kinds:
        w, den = (0.125, 1.0 - gj * gk) if kind == "bures" else (
            0.5, (1.0 + gj ** 2) * (1.0 + gk ** 2))
        out[kind] = np.array([[(w * np.sum(a * np.swapaxes(b, -1, -2) / den)).real
                               for b in dG] for a in dG])
    return out


def zeta_tilde_ness_from_gamma(Gamma, dGamma_mu, dGamma_nu) -> float:
    """Exact correlation-matrix form of ``2^n Tr(d_mu rho d_nu rho)``.

    Derived from the Gaussian overlap ``Tr(rho_1 rho_2) = 2^-n
    sqrt(det(1 + Gamma_1 Gamma_2))`` by differentiating both arguments:

    ``S [ 1/2 Tr(P dGm dGn) - 1/2 Tr(P G dGn P dGm G)
          + 1/4 Tr(P G dGm) Tr(P G dGn) ]``

    with ``P = (1 + Gamma^2)^-1`` and ``S = sqrt(det(1 + Gamma^2))``
    (= ``2^n Tr(rho^2)``, the inverse participation weight).
    """
    G = as_square(Gamma, "Gamma")
    dGm = np.asarray(dGamma_mu, dtype=complex)
    dGn = np.asarray(dGamma_nu, dtype=complex)
    eye = np.eye(G.shape[0])
    P = np.linalg.inv(eye + G @ G)
    S = np.sqrt(np.linalg.det(eye + G @ G).real)
    t1 = 0.5 * np.trace(P @ dGm @ dGn)
    t2 = -0.5 * np.trace(P @ G @ dGn @ P @ dGm @ G)
    t3 = 0.25 * np.trace(P @ G @ dGm) * np.trace(P @ G @ dGn)
    return float((S * (t1 + t2 + t3)).real)
