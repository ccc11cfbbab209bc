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
block.  Gaussian-state closed forms (logarithmic derivative, Bures metric,
purity-weighted response) operate directly on ``Gamma`` and its derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadBath,
    BadHamiltonian,
    DegenerateRapidities,
    NhgeoError,
    NonUniqueSteadyState,
    PureStateSingular,
    ShapeMismatch,
)
from .linalg import (
    PENCIL_RTOL,
    _eig_2x2,
    _pencil,
    _raise_first,
    _sylvester_solver,
    as_square,
    eig_general,
    norm2,
    solve_sylvester,
    solve_sylvester_pair,
)
from .tensors import GeoTensor, _direction, _params, central_difference


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
    x = dec.eigenvalues
    if x.real.min() <= 1e-12 * max(1.0, dec.norm):
        raise NonUniqueSteadyState(
            f"min Re(rapidity) = {x.real.min():.3e}: steady state not unique"
        )
    solve = _sylvester_solver(liou.X, dec)
    return dec, solve, solve(liou.Y)


# ---------------------------------------------------------------------------
# parameterized families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiouvillianFamily:
    """lambda -> QuadraticLiouvillian, with optional analytic dX/dY.

    ``deriv_func(mu, lam)`` must return ``(dX, dY)``; when absent both are
    obtained by central differences of the (entrywise smooth) X(lam), Y(lam),
    two more family evaluations per direction.  :func:`real_space_family`
    and the ``quad-liouville`` command-line model supply analytic ones.
    """

    n: int
    num_params: int
    func: Callable[[np.ndarray], QuadraticLiouvillian]
    deriv_func: Optional[Callable[[int, np.ndarray], tuple]] = None
    name: str = ""

    def __call__(self, lam) -> QuadraticLiouvillian:
        return self.func(_params(lam, self.num_params))

    def dxy(self, mu: int, lam):
        lam = _params(lam, self.num_params)
        if self.deriv_func is not None:
            return self.deriv_func(mu, lam)

        def xy(l):  # one family evaluation per stencil point
            liou = self(l)
            return np.vstack([liou.X, liou.Y])

        return tuple(np.split(central_difference(xy, lam, mu), 2))


def _offdiag_generator(x, U, dX, *, Ui=None):
    """Off-diagonal part of (dU^-1) U from the spectral formula.

    Entry (i, j) is ``-(U^-1 dX U)_{ij} / (x_j - x_i)``.  Degenerate pairs
    are tolerated when the coupling element vanishes (symmetry-decoupled
    sectors); a coupled degenerate pair raises.  Stacks ``x (..., n)``,
    ``U, dX (..., n, n)`` are handled blockwise: a gap is degenerate below
    ``1e-8 * max(|x|, 1)`` and a coupling vanishes below ``1e-8 * max(|num|,
    1)`` of its block.  ``Ui`` is ``U^-1`` when the caller has it (as
    ``EigDecomposition.right_inverse``, or from one inverse of a stack).
    """
    n = x.shape[-1]
    num = (np.linalg.inv(U) if Ui is None else Ui) @ dX @ U
    gaps = x[..., None, :] - x[..., :, None]
    degenerate = np.abs(gaps) < 1e-8 * np.maximum(
        np.abs(x).max(axis=-1), 1.0)[..., None, None]
    off = degenerate & ~np.eye(n, dtype=bool)
    if off.any():
        scale = np.maximum(np.abs(num).max(axis=(-2, -1)), 1.0)[..., None, None]
        coupled = off & (np.abs(num) > 1e-8 * scale)
        blocks_c, blocks_n = coupled.reshape(-1, n, n), num.reshape(-1, n, n)

        def message(b):
            i, j = np.argwhere(blocks_c[b])[0]
            return f"rapidities {i},{j} degenerate with coupling {abs(blocks_n[b, i, j]):.3e}"

        _raise_first(coupled.any(axis=(-2, -1)), DegenerateRapidities, message)
    # adding the mask leaves every nondegenerate gap unchanged
    return np.where(degenerate, 0.0, -num / (gaps + degenerate))


def _xcal(x, U, dX, Ui=None) -> np.ndarray:
    """Transport generator ``Xcal = U A U^-1`` along one direction, ``A`` from
    :func:`_offdiag_generator`; blockwise on stacks."""
    Ui = np.linalg.inv(U) if Ui is None else Ui
    return U @ _offdiag_generator(x, U, dX, Ui=Ui) @ Ui


def _ness_tensor(dG, Xcal, Gamma) -> np.ndarray:
    """``1/2 Tr(dG_mu dG_nu) + Tr(Xcal_mu Gamma dG_nu)`` for all direction pairs.

    ``dG[mu]``, ``Xcal[mu]`` and ``Gamma`` may be stacks ``(..., n, n)``; the
    traces are then summed over all blocks.
    """
    n = Gamma.shape[-1]
    shape = (len(dG), Gamma.size // (n * n), n, n)
    dG = np.reshape(dG, shape)
    XG = np.reshape(Xcal, shape) @ np.reshape(Gamma, shape[1:])
    return np.einsum("akij,bkji->ab", 0.5 * dG + XG, dG)


def _dgamma(solve, Gamma, dX, dY) -> np.ndarray:
    """``dGamma`` from ``X dGamma + dGamma X^T = dY - dX Gamma - Gamma dX^T``,
    with ``solve`` a solver of ``X G + G X^T = Y``."""
    return solve(dY - dX @ Gamma - Gamma @ dX.T)


def steady_state_dgamma(liou: QuadraticLiouvillian, Gamma: np.ndarray, dX, dY) -> np.ndarray:
    """Derivative of the steady-state correlation matrix.

    Differentiates the defining relation analytically:
    ``X dGamma + dGamma X^T = dY - dX Gamma - Gamma dX^T``.  This avoids
    finite differences of Gamma, which lose accuracy near critical regions;
    a finite-difference fallback remains available through the family object
    for validation.
    """
    return _dgamma(lambda Y: solve_sylvester(liou.X, Y), Gamma, dX, dY)


def agp_quadratic(fam: LiouvillianFamily, lam, mu_dir: int) -> AGPQuadratic:
    """Quadratic-form transport generator (Xcal, Ycal) along one direction;
    ShapeMismatch for a ``mu_dir`` outside ``[0, num_params)``."""
    lam = _params(lam, fam.num_params)
    _direction(mu_dir, fam.num_params)
    dec, solve, Gamma = _steady_state(fam(lam))
    dX, dY = fam.dxy(mu_dir, lam)
    Xcal = _xcal(dec.eigenvalues, dec.right_vectors, dX, dec.right_inverse)
    dG = _dgamma(solve, Gamma, dX, dY)
    Ycal = dG + Xcal @ Gamma + Gamma @ Xcal.T
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
    kinds = list(kinds)
    unknown = [k for k in kinds if k not in NESS_KINDS]
    if unknown:
        raise ValueError(f"steady-state tensors do not include {unknown}")
    lam = _params(lam, fam.num_params)
    dec, solve, Gamma = _steady_state(fam(lam), dec)
    dxy = [fam.dxy(mu, lam) for mu in range(fam.num_params)]
    dG = [_dgamma(solve, Gamma, dX, dY) for dX, dY in dxy]
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
    if isinstance(L, (bool, np.bool_)) or not isinstance(L, (int, np.integer)) or L < 1:
        raise ShapeMismatch(f"L must be an integer >= 1, got {L!r}")
    return int(L)


def _over_k(k, block) -> np.ndarray:
    """``block`` broadcast over the stack axes of ``k``: an ``(L, 1, 1)``
    column gives ``(L, b, b)``, a scalar ``k`` leaves a single block."""
    shape = np.shape(k)[:-2] + np.shape(block)[-2:]
    return block if np.shape(block) == shape else np.broadcast_to(block, shape).copy()


class TranslationInvariantModel:
    """Two-band translation-invariant model defined by momentum blocks.

    Subclasses / instances provide ``h_block(k, lam)`` and ``m_block(k, lam)``
    (2x2) plus optional analytic derivatives ``dh_block`` and ``dm_block``.
    Block methods must broadcast over ``k``: given a column of momenta of
    shape ``(L, 1, 1)`` they return an ``(L, 2, 2)`` stack or, for a block
    that does not depend on ``k``, a single 2x2 block.
    """

    num_params = 0
    bands = 2

    def h_block(self, k: float, lam) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def m_block(self, k: float, lam) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def dh_block(self, mu: int, k: float, lam):
        return None

    def dm_block(self, mu: int, k: float, lam):
        return None

    # -- derived quantities (one block, or a stack over a k column) ----------

    def x_block(self, k, lam) -> np.ndarray:
        mT = np.swapaxes(self.m_block(-k, lam), -1, -2)
        return _over_k(k, 4j * self.h_block(k, lam) + self.m_block(k, lam) + mT)

    def y_block(self, k, lam) -> np.ndarray:
        mT = np.swapaxes(self.m_block(-k, lam), -1, -2)
        return _over_k(k, -2.0 * (self.m_block(k, lam) - mT))

    def dx_block(self, mu: int, k, lam) -> np.ndarray:
        dh = self.dh_block(mu, k, lam)
        dm = self.dm_block(mu, k, lam)
        dmT = self.dm_block(mu, -k, lam)
        if dh is None or dm is None or dmT is None:
            return central_difference(lambda l: self.x_block(k, l), lam, mu)
        return _over_k(k, 4j * dh + dm + np.swapaxes(dmT, -1, -2))

    def dy_block(self, mu: int, k, lam) -> np.ndarray:
        dm = self.dm_block(mu, k, lam)
        dmT = self.dm_block(mu, -k, lam)
        if dm is None or dmT is None:
            return central_difference(lambda l: self.y_block(k, l), lam, mu)
        return _over_k(k, -2.0 * (dm - np.swapaxes(dmT, -1, -2)))


def gamma_k(model: TranslationInvariantModel, k: float, lam) -> np.ndarray:
    """Momentum-block correlation: solves x(k) g + g x(-k)^T = y(k)."""
    x = model.x_block(k, lam)
    xmT = np.swapaxes(model.x_block(-k, lam), -1, -2)
    return solve_sylvester_pair(x, xmT, model.y_block(k, lam))


def zeta_ness_k(model: TranslationInvariantModel, lam, L: int) -> GeoTensor:
    """Steady-state tensor as a Brillouin-zone sum of per-block traces.

    All L momentum blocks are evaluated and solved as one ``(L, 2, 2)``
    stack; see :func:`_ness_k_sum`.
    """
    lam = _params(lam, model.num_params)
    L = _chain_length(L)
    vals = _ness_k_sum(model, lam, 2.0 * np.pi * np.arange(L) / L)
    return GeoTensor("zeta", "ness", vals, lam, {"L": L, "route": "kspace"})


def _ness_k_sum(model: TranslationInvariantModel, lam, ks) -> np.ndarray:
    """Sum over the momenta ``ks`` of the per-block steady-state tensor.

    x(k) and x(-k)^T are decomposed once, in closed form; the pairs serve
    the pencil solves for Gamma(k) and every dGamma_mu(k) as well as every
    Xcal_mu(k).  Each check is made per block.  When blocks fail, the error
    is that of the lowest failing k in the order a loop over k would check
    them: a failure at block ``b`` is raised only after the blocks before
    ``b`` have passed every check.
    """
    kc = ks[:, None, None]
    try:
        x = model.x_block(kc, lam)
        xmT = np.swapaxes(model.x_block(-kc, lam), -1, -2)
        a, Ua = _eig_2x2(x)
        b, Ub = _eig_2x2(xmT)
        Uai = np.linalg.inv(Ua)
        scale = np.maximum(np.maximum(norm2(x), norm2(xmT)), 1.0)
        solve = _pencil(a, Ua, Uai, b, Ub, np.linalg.inv(Ub), PENCIL_RTOL * scale)
        gk = solve(model.y_block(kc, lam))
        dgs, xcals = [], []
        for mu in range(model.num_params):
            dx = model.dx_block(mu, kc, lam)
            dxmT = np.swapaxes(model.dx_block(mu, -kc, lam), -1, -2)
            dgs.append(solve(model.dy_block(mu, kc, lam) - dx @ gk - gk @ dxmT))
            xcals.append(_xcal(a, Ua, dx, Uai))
    except NhgeoError as exc:
        if exc.block:  # the blocks before it may fail a later check
            _ness_k_sum(model, lam, ks[:exc.block])
        raise
    return _ness_tensor(dgs, xcals, gk)


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

    dX and dY are analytic: the k stacks of ``model.dx_block`` and
    ``model.dy_block`` are Fourier-assembled as X and Y are (a model without
    analytic ``dh_block``/``dm_block`` falls back to central differences per
    block there), then projected onto the structure of X and Y, dX real and
    dY imaginary antisymmetric.  They are not Liouvillians, so they skip
    :func:`build_liouvillian`'s validation.
    """
    L = _chain_length(L)
    kc = _k_column(L)

    def dxy(mu, lam):
        dX = _real_space(kc, model.dx_block(mu, kc, lam)).real.astype(complex)
        dY = _real_space(kc, model.dy_block(mu, kc, lam))
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
    eigenvalue product ``g_j g_k`` within 1e-10 of 1 (PureStateSingular); the
    error is that of the lowest failing block, as a loop over blocks finds it.
    """
    Gamma = as_square(Gamma, "Gamma", stack=True)
    herm_defect = np.abs(Gamma - np.swapaxes(Gamma.conj(), -1, -2)).max(axis=(-2, -1))
    not_herm = herm_defect > 1e-8 * np.maximum(np.abs(Gamma).max(axis=(-2, -1)), 1.0)
    g, V = np.linalg.eigh(Gamma)
    at_pure = np.zeros_like(not_herm)
    if pure:
        at_pure = np.abs(1.0 - g[..., :, None] * g[..., None, :]).min(axis=(-2, -1)) < 1e-10
    pure_before = (np.cumsum(at_pure.ravel()) > at_pure.ravel()).reshape(at_pure.shape)
    _raise_first(not_herm & ~pure_before, ShapeMismatch,
                 lambda b: "Gamma must be Hermitian (imaginary antisymmetric)")
    _raise_first(at_pure, PureStateSingular,
                 lambda b: "correlation spectrum touches a pure-state direction")
    Vh = np.swapaxes(V.conj(), -1, -2)
    return g, V, [Vh @ np.asarray(d, dtype=complex) @ V for d in dGammas]


def log_derivative(Gamma, dGamma) -> np.ndarray:
    """Kernel K of the Gaussian logarithmic derivative: Gamma K Gamma - K = dGamma.

    Solved elementwise in the eigenbasis of Gamma:
    ``K_{jk} = (dGamma)_{jk} / (g_j g_k - 1)``.

    Raises
    ------
    PureStateSingular
        If some eigenvalue product g_j g_k reaches 1 (pure-state direction).
    """
    g, V, (dG,) = _gamma_eigenbasis(Gamma, dGamma, pure=True)
    den = g[..., :, None] * g[..., None, :] - 1.0
    return V @ (dG / den) @ np.swapaxes(V.conj(), -1, -2)


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
    unknown = [k for k in kinds if k not in GAUSSIAN_KINDS]
    if unknown:
        raise ValueError(f"Gaussian-state tensors do not include {unknown}")
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
