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
block.  Since X is real and Y imaginary, the block at -k is the complex
conjugate of the block at k, and so is its summand: the momentum sums run
over the half zone.  Gaussian-state closed forms (Bures
metric, purity-weighted response) operate directly on ``Gamma`` and its
derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadBath,
    BadHamiltonian,
    DegenerateRapidities,
    NonConvergence,
    NonUniqueSteadyState,
    PureStateSingular,
    ShapeMismatch,
)
from .linalg import (
    _adjoint,
    _blocks,
    _eig_2x2,
    _k_grid,
    _lyapunov_2x2,
    _mul,
    _raise_first,
    _scale_verdict,
    _sylvester_solver,
    _zone_sums,
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


#: the entry order of the transpose of a block, ``(a, c, b, d)``
_T = [0, 2, 1, 3]


def _pauli(s0, sx, sy):
    """The entries ``(a, b, c, d)`` of ``s0 + sx sigma_x + sy sigma_y``."""
    return s0, sx + sy * -1j, sx + sy * 1j, s0


def _entry_stack(E, shape) -> np.ndarray:
    """The entries ``E = (a, b, c, d)`` of a block method as one complex
    ``(4, *shape)`` stack, each entry broadcast to ``shape``."""
    out = np.empty((4, *shape), dtype=complex)
    for o, e in zip(out, E):
        o[...] = e
    return out


def _read_xy(model, k, lam, mu=None):
    """``(x, xmT, y)``: the complex entry stacks ``(4, ...)`` of x(k), x(-k)^T
    and y(k), with ``x(k) = 4i h(k) + m(k) + m(-k)^T`` and ``y(k) = -2 (m(k)
    - m(-k)^T)``, from one ``h_block`` and one ``m_block`` call at the
    momenta ``(k, -k)``; with a direction ``mu``, their derivatives from
    ``dh_block`` and ``dm_block``.

    ``k`` is a scalar or 1-D, ``lam`` one point or ``d`` columns ``(P,
    1)`` of P points, which put the points' axis before the momenta.  The
    read runs under ``np.errstate(over="ignore", invalid="ignore")``: a
    block that overflows is non-finite, and the checks of its caller
    report it."""
    kk = np.stack([k, -k])
    if np.ndim(lam) > 1:  # points
        kk = kk[:, None]
    shape = np.broadcast_shapes(kk.shape, np.shape(lam)[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        if mu is None:
            h, m = model.h_block(kk, lam), model.m_block(kk, lam)
        else:
            _direction(mu, model.num_params)
            h, m = model.dh_block(mu, kk, lam), model.dm_block(mu, kk, lam)
        h, m = _entry_stack(h, shape), _entry_stack(m, shape)
        x = 4j * h
        x += m
        x += m[_T, ::-1]  # m(-k)^T at (k, -k)
        y = m[:, 0] - m[_T, 1]
        y *= -2.0
        return x[:, 0], x[_T, 1], y


class TranslationInvariantModel:
    """Two-band translation-invariant model defined by momentum blocks.

    Subclasses provide the 2x2 blocks ``h_block(k, lam)``, ``m_block(k, lam)``
    and their exact derivatives ``dh_block(mu, k, lam)``, ``dm_block(mu, k,
    lam)``, each as the entry tuple ``(a, b, c, d)`` of ``[[a, b], [c, d]]``.
    Each entry is a number or an array that broadcasts against the momenta
    ``k`` and the parameters ``lam``: ``k`` comes as an array of any shape,
    ``lam`` as one point or as ``num_params`` columns ``(P, 1)`` of P
    points, and the entries broadcast to the ``(..., P, L)`` stack (numpy
    arithmetic on ``k`` and the unpacked ``lam`` does both, and gives each
    point the blocks it gets alone).  An entry that depends on neither may
    be a number; :func:`_pauli` gives the entries of ``s0 + sx sigma_x + sy
    sigma_y``.

    These four methods are the whole interface.  The engines read them
    through :func:`_read_xy`, which forms x(k), x(-k)^T and y(k), or with a
    direction their derivatives; :func:`assemble_real_space` reads ``h_block``
    and ``m_block`` alone.

    The blocks must obey the conjugation rule of a real X and an imaginary
    Y (:func:`build_liouvillian`): ``x(-k) = conj x(k)`` and ``y(k)``
    Hermitian, at every k and lam, and the same for ``dx_mu`` and
    ``dy_mu``.  The momentum sums (:func:`zeta_ness_k_sums`) read only the
    half zone and solve x(-k)^T = x(k)^H from the decomposition of x(k), and
    :func:`assemble_real_space` projects H and M onto their physical parts;
    a model that breaks the rule gets other numbers from each route.
    """

    num_params = 0

    def h_block(self, k, lam) -> tuple:  # pragma: no cover - interface
        raise NotImplementedError

    def m_block(self, k, lam) -> tuple:  # pragma: no cover - interface
        raise NotImplementedError

    def dh_block(self, mu: int, k, lam) -> tuple:  # pragma: no cover - interface
        raise NotImplementedError

    def dm_block(self, mu: int, k, lam) -> tuple:  # pragma: no cover - interface
        raise NotImplementedError


def gamma_k(model: TranslationInvariantModel, k, lam) -> np.ndarray:
    """Momentum-block correlation solving x(k) g + g x(-k)^T = y(k) (:func:`_ness_solver`):
    one 2x2 block at a scalar ``k``, the ``(L, 2, 2)`` stack at ``L`` momenta."""
    lam = _params(lam, model.num_params)[:, None, None]  # a (d, 1, 1) column
    x, xmT, y = _read_xy(model, np.ravel(k), lam)
    with lowest_failing_block():
        gk = _ness_solver(x, xmT)[0](y)
    return np.reshape(_blocks(gk), np.shape(k) + (2, 2))


def zeta_ness_k(model: TranslationInvariantModel, lam, L: int) -> GeoTensor:
    """Steady-state tensor as a Brillouin-zone sum of per-block traces:
    :func:`zeta_ness_k_sums` at one point, whose failure carries the block
    ``j`` of ``2 pi j / L`` as ``exc.block``."""
    lam = _params(lam, model.num_params)
    L = _chain_length(L)
    return GeoTensor("zeta", "ness", zeta_ness_k_sums(model, [lam], L)[0], lam,
                     {"L": L, "route": "kspace"})


def zeta_ness_k_sums(model: TranslationInvariantModel, lams, L: int) -> np.ndarray:
    """:func:`zeta_ness_k` of ``model`` at each of the points ``lams``, of one
    chain length ``L``, as a ``(P, d, d)`` array from one pass; no points
    give a ``(0, d, d)`` array and read no block.

    By the conjugation rule of :class:`TranslationInvariantModel` the
    summand at -k is the conjugate of the one at k, so the sums run on the
    half zone (:func:`~nhgeo.linalg._zone_sums`), with imaginary parts
    exactly 0: one read of all the points (:func:`_momentum_blocks`), and
    their ``P * (L // 2 + 1)`` blocks solved as one stack
    (:func:`_ness_k_terms`).  A failure is that of the first failing point,
    the error it raises alone, with ``p * (L // 2 + 1) + j`` as
    ``exc.block``; in a pass a failing point's sums are not its tensor.
    """
    L, d = _chain_length(L), model.num_params
    lams = np.array([_params(lam, d) for lam in lams]).reshape(len(lams), d)
    if not len(lams):
        return np.zeros((0, d, d), dtype=complex)
    return _zone_sums(L, lambda ks: _momentum_blocks(model, lams, ks), _ness_k_terms)["zeta"]


def _momentum_blocks(model: TranslationInvariantModel, lams, ks):
    """The read of the momentum drivers at the points ``lams (P, d)`` of
    ``model``: the entry stacks ``(x, xmT, y, (dx, dy))`` at the 1-D momenta
    ``ks``, x, x(-k)^T and y ``(4, P, L)``, every dx_mu and dy_mu ``(4, d,
    P, L)``, from one call of each block method (per direction, after the
    value) on ``(P, 1)`` parameter columns (:func:`_read_xy`)."""
    lam = np.transpose(lams)[..., None]
    x, xmT, y = _read_xy(model, ks, lam)
    dxy = np.empty((2, 4, model.num_params, len(lams), len(ks)), dtype=complex)
    for mu in range(model.num_params):
        dxy[0, :, mu], _, dxy[1, :, mu] = _read_xy(model, ks, lam, mu)
    return x, xmT, y, tuple(dxy)


def _ness_solver(x, xmT):
    """The solver of ``x(k) G + G x(-k)^T = Y`` and the eigenpairs ``(a, U,
    U^-1)`` of x(k): ``x(-k)^T = x(k)^H`` by the conjugation rule, so one
    eigendecomposition serves (:func:`~nhgeo.linalg._lyapunov_2x2`).  Its
    checks, per block: the eigenpairs of x(k), then ShapeMismatch where
    x(-k)^T is not finite, then the pencil ``a_i + conj a_j``."""
    eig = _eig_2x2(x)
    _raise_first(~np.isfinite(xmT).all(axis=0), ShapeMismatch,
                 lambda i: "2x2 block has non-finite entries")
    return _lyapunov_2x2(*eig)


def _ness_k_terms(blocks) -> dict:
    """The summand of :func:`zeta_ness_k_sums`: ``{"zeta": t}``, the tensor
    ``t (d, d, P, n)`` of each block that :func:`_momentum_blocks` reads, in
    2x2 entry arithmetic.  The solver of :func:`_ness_solver` gives Gamma(k)
    and every dGamma_mu(k), whose right-hand side ``dy - dx Gamma - Gamma
    dx^H`` takes ``Gamma dx^H = (dx Gamma)^H`` (Gamma is Hermitian), and the
    eigenpairs of x(k) every Xcal_mu(k) (:func:`_xcal_2x2`).  Each block is
    checked once, the last check NonConvergence where its tensor is not
    finite."""
    x, xmT, y, (dx, dy) = blocks
    solve, (a, U, Ui) = _ness_solver(x, xmT)
    if not len(dy[0]):  # a model without parameters
        return {"zeta": np.zeros((0, 0) + np.shape(y[0]))}
    gk = solve(y)
    xg = _mul(dx, gk)
    dg = solve(tuple(e - p - q for e, p, q in zip(dy, xg, _adjoint(xg))))
    # zeta_{mu nu}(k) = Tr[(1/2 dGamma_mu + Xcal_mu Gamma) dGamma_nu]
    p0, p1, p2, p3 = (0.5 * g + xg for g, xg in zip(dg, _mul(_xcal_2x2(a, U, Ui, dx), gk)))
    q0, q1, q2, q3 = dg
    t = p0[:, None] * q0 + p1[:, None] * q2 + p2[:, None] * q1 + p3[:, None] * q3
    _raise_first(~np.isfinite(t).all(axis=(0, 1)), NonConvergence,
                 lambda i: "steady-state summand is not finite")
    return {"zeta": t}


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


def _real_space(E) -> np.ndarray:
    """Fourier assembly of the entry stack ``E (4, L)`` of the blocks at the
    momenta :func:`~nhgeo.linalg._k_grid`, site-major: ``A[(j, a), (r, b)]
    = (1/L) sum_k e^{i k (j - r)} block(k)_{ab}``, that is, one inverse FFT
    over k gives ``c[n]`` and the circulant ``A[j, r] = c[(j - r) mod L]``."""
    c = np.fft.ifft(E, axis=-1)
    L = c.shape[-1]
    shift = (np.arange(L)[:, None] - np.arange(L)[None, :]) % L
    return c[:, shift].reshape(2, 2, L, L).transpose(2, 0, 3, 1).reshape(2 * L, 2 * L)


def assemble_real_space(model: TranslationInvariantModel, lam, L: int) -> QuadraticLiouvillian:
    """Build the length-L real-space Liouvillian from the momentum blocks
    ``h_block`` and ``m_block``, Fourier-assembled by :func:`_real_space`
    under ``np.errstate(over="ignore", invalid="ignore")``: a block that
    overflows makes a non-finite matrix, which :func:`build_liouvillian`
    rejects."""
    lam = _params(lam, model.num_params)
    ks = _k_grid(_chain_length(L))
    with np.errstate(over="ignore", invalid="ignore"):
        H = _real_space(_entry_stack(model.h_block(ks, lam), ks.shape))
        M = _real_space(_entry_stack(model.m_block(ks, lam), ks.shape))
        # project out Fourier round-off so validation sees clean structure
        H = (H - H.T) / 2
        H = (H + H.conj().T) / 2
        M = (M + M.conj().T) / 2
    return build_liouvillian(L, H, M=M)


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
    ks = _k_grid(L)

    def dxy(mu, lam):
        dx, _, dy = _read_xy(model, ks, lam, mu)
        with np.errstate(over="ignore", invalid="ignore"):
            dX = _real_space(dx).real.astype(complex)
            dY = _real_space(dy)
            return dX, 1j * (dY - dY.T).imag / 2

    return LiouvillianFamily(
        n=L,
        num_params=model.num_params,
        func=lambda lam: assemble_real_space(model, lam, L),
        deriv_func=dxy,
        name="real-space",
    )


# ---------------------------------------------------------------------------
# Gaussian-state closed forms
# ---------------------------------------------------------------------------

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

    Gamma must be Hermitian (ShapeMismatch).
    """
    kinds = _kinds(kinds, GAUSSIAN_KINDS, "gaussian_tensors")
    Gamma = as_square(Gamma, "Gamma")
    not_herm = np.abs(Gamma - Gamma.conj().T).max() > 1e-8 * max(np.abs(Gamma).max(), 1.0)
    g, V = np.linalg.eigh(Gamma)
    _raise_first(not_herm, ShapeMismatch,
                 lambda b: "Gamma must be Hermitian (imaginary antisymmetric)")
    gj, gk = g[:, None], g[None, :]
    if "bures" in kinds:
        _raise_first(np.abs(1.0 - gj * gk).min() < 1e-10, PureStateSingular,
                     lambda b: "correlation spectrum touches a pure-state direction")
    dG = [V.conj().T @ np.asarray(d, dtype=complex) @ V for d in dGammas]
    out = {}
    for kind in kinds:
        w, den = (0.125, 1.0 - gj * gk) if kind == "bures" else (
            0.5, (1.0 + gj ** 2) * (1.0 + gk ** 2))
        out[kind] = np.array([[(w * np.sum(a * b.T / den)).real for b in dG] for a in dG])
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
