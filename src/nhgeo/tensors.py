"""Geometric tensors of parameterized (non-Hermitian) operator families.

Two derivative engines differentiate the biorthogonal eigensystem of
``K(lambda)`` along parameter directions.

:func:`sum_over_states` is the production engine.  One eigensolve gives the
transport-generator matrix elements ``<m_L|d_mu K|n_R> / (w_n - w_m)``
(:func:`agp_elements`), and with them every eigenvector derivative in the
parallel-transport gauge; ``eta``, ``zeta`` and ``zeta_limited`` are then
matrix contractions.  :func:`sum_over_blocks` makes the single-state
contractions on a stack of 2x2 blocks at once and sums them (Brillouin-zone
sums of Bloch matrices).

:func:`stencil_tensors` is the independent oracle, with the signature and
kinds of :func:`sum_over_states`: one central-difference stencil
(:func:`_stencil`, at the default step of :func:`central_difference`) serves
every requested kind, raises DegenerateSpectrum where the engine does, and
reports its step in ``GeoTensor.meta["fd_step"]``.  :func:`eta_tensor`,
:func:`zeta_tensor` and :func:`zeta_limited` are ``stencil_tensors(fam, lam,
n, [kind])[kind]`` for one kind each.  Eigenvectors at stencil points carry
an arbitrary solver gauge, so each stencil system is

1. matched state-by-state to the center point by largest left-right overlap
   (ContinuationAmbiguous if that fails),
2. phase-fixed so the overlap with the center left vector is real positive
   (a smooth reference gauge that passes exactly through the center), and
3. optionally rescaled by a user-supplied gauge function, applied relative
   to the center so its derivative survives into the connection.

The tensors themselves are algebraically gauge invariant; the optional gauge
hook exists so that invariance is a testable property rather than an
assumption.

Tensor kinds
------------
``chi``
    Hermitian reference tensor (Fubini-Study metric + curvature), computed
    through an independent Hermitian eigensolver path.
``eta``
    Left-right generalization; vanishes identically on Liouvillian steady
    states because their left eigenvector is the identity.
``zeta``
    The gauge-invariant mixed tensor, available through three routes that
    must agree: :func:`sum_over_states` (matrix elements of the adiabatic
    transport generator) and, on the stencil, ``route='overlap'``
    (Gram-weighted covariant-derivative overlaps; default) and
    ``route='projector'`` (Gram-weighted projector counterterms).
``zeta_limited`` / ``zeta_limited_rescaled``
    The single-state Hermitian positive-semidefinite member of the overlap
    sum, optionally divided by <n_L|n_L><n_R|n_R>.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .biortho import build_biortho
from .errors import (
    ContinuationAmbiguous,
    DegenerateSpectrum,
    NearDefective,
    NotHermitian,
    ShapeMismatch,
)
from .linalg import (
    DEFECTIVE_COND,
    EigDecomposition,
    _adjoint,
    _blocks,
    _cond_inv,
    _eig_2x2,
    _entries,
    _mul,
    _raise_first,
    _scale_verdict,
    as_square,
    canonical_order,
    lowest_failing_block,
    norm2,
)

_EPS_THIRD = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: smallest acceptable matching overlap |<n_L(0)|m_R(lam')>| across a stencil
MATCH_THRESHOLD = 0.5

GaugeFunc = Callable[[np.ndarray], np.ndarray]


def _params(lam, num_params: int) -> np.ndarray:
    """``lam`` as a float vector of ``num_params`` entries, else ShapeMismatch."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (num_params,):
        raise ShapeMismatch(f"expected {num_params} parameters, got shape {lam.shape}")
    return lam


def _finite(name: str, value) -> None:
    """ValueError unless ``value`` is a finite real number (a boolean is not)."""
    try:
        if type(value) not in (bool, np.bool_) and math.isfinite(value):
            return
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (a boolean is not)."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def _mu_reg(mu_reg) -> float:
    """The regularization cutoff ``mu_reg`` as a float; ValueError unless it
    is a real number >= 0 that :func:`_finite` accepts."""
    if not isinstance(mu_reg, (int, float, np.integer, np.floating)) or not mu_reg >= 0:
        raise ValueError(f"mu_reg must be a finite number >= 0, got {mu_reg!r}")
    _finite("mu_reg", mu_reg)
    return float(mu_reg)


def _kinds(kinds: Sequence[str], provided: Sequence[str], engine: str) -> list[str]:
    """``kinds`` as a list; ValueError naming those that ``engine`` does not provide."""
    kinds = list(kinds)
    missing = [k for k in kinds if k not in provided]
    if missing:
        raise ValueError(f"{engine} does not provide {missing}")
    return kinds


def _direction(mu_dir: int, num_params: int) -> None:
    """ShapeMismatch unless ``mu_dir`` is a direction index (a negative one
    would silently select another direction)."""
    if not 0 <= mu_dir < num_params:
        raise ShapeMismatch(f"direction {mu_dir} out of range for {num_params} parameters")


def _step(lam: np.ndarray, mu: int, h: float | None = None) -> float:
    """The step of :func:`central_difference` along ``mu``: ``h``, by default
    ``eps^(1/3) * max(1, |lam_mu|)``.  ValueError unless ``h`` is a finite
    number > 0."""
    if h is None:
        return float(_EPS_THIRD * max(1.0, abs(lam[mu])))
    if not 0 < h < np.inf:  # also rejects NaN
        raise ValueError(f"finite-difference step must be a finite number > 0, got {h!r}")
    return h


def central_difference(f, lam, mu: int, h: float | None = None):
    """Central difference ``(f(lam + h e_mu) - f(lam - h e_mu)) / 2h`` of an array function.

    The step defaults to ``eps^(1/3) * max(1, |lam_mu|)`` (:func:`_step`).
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    h = _step(lam, mu, h)
    e = np.zeros(lam.shape)
    e[mu] = h
    return (f(lam + e) - f(lam - e)) / (2 * h)


@dataclass(frozen=True)
class OperatorFamily:
    """A parameter-dependent complex square matrix ``K(lambda)``.

    Parameters
    ----------
    dim : matrix dimension N
    num_params : number of real parameters d
    func : lambda-vector -> (N, N) complex ndarray
    deriv_func : (direction, lambda-vector) -> (N, N) ndarray, the exact
        d K / d lambda_mu (central differences serve only as oracles)
    """

    dim: int
    num_params: int
    func: Callable[[np.ndarray], np.ndarray]
    deriv_func: Callable[[int, np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, lam) -> np.ndarray:
        lam = _params(lam, self.num_params)
        K = as_square(self.func(lam), f"{self.name or 'family'}(lambda)")
        if K.shape[0] != self.dim:
            raise ShapeMismatch(f"family returned dim {K.shape[0]}, declared {self.dim}")
        return K

    def derivative(self, mu: int, lam) -> np.ndarray:
        """d K / d lambda_mu; ShapeMismatch for a ``mu`` outside ``[0, num_params)``
        or unless it is ``dim x dim``."""
        lam = _params(lam, self.num_params)
        _direction(mu, self.num_params)
        dK = as_square(self.deriv_func(mu, lam), "dK")
        if dK.shape[0] != self.dim:
            raise ShapeMismatch(f"derivative has dim {dK.shape[0]}, declared {self.dim}")
        return dK


@dataclass
class GeoTensor:
    """A d x d tensor over parameter directions with provenance metadata."""

    kind: str
    state_index: object  # int eigenstate index or "ness"
    values: np.ndarray
    lam: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def berry_curvature(self) -> np.ndarray:
        """-1/2 of the imaginary part (antisymmetric curvature)."""
        return -0.5 * self.values.imag

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.values - self.values.conj().T).max())

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Hermitized tensor (PSD check)."""
        H = (self.values + self.values.conj().T) / 2
        return float(np.linalg.eigvalsh(H).min())


# ---------------------------------------------------------------------------
# stencil machinery
# ---------------------------------------------------------------------------

def _match(bras, right, needed):
    """Continue the reference states ``needed`` onto the columns of ``right``.

    Row ``n`` of ``bras`` is the reference left vector ``<n_L|``.  State
    ``n`` goes to the unit-norm column ``m`` with the largest overlap
    ``|<n_L|m_R>|``.  Returns the matched column indices and the phases
    ``|o|/o`` that make each overlap ``o`` real positive.  Raises
    ContinuationAmbiguous below ``MATCH_THRESHOLD`` or when two states match
    the same column.
    """
    overlaps = (bras @ right).tolist()  # as Python scalars: a few operations per state follow
    taken: dict[int, int] = {}
    phases = []
    for n in needed:
        ov = [abs(o) for o in overlaps[n]]
        m = ov.index(max(ov))  # the first largest, as np.argmax
        if ov[m] < MATCH_THRESHOLD:
            raise ContinuationAmbiguous(
                f"state {n}: best stencil overlap {ov[m]:.3f} below "
                f"{MATCH_THRESHOLD} (crossing inside stencil?)"
            )
        if m in taken:
            raise ContinuationAmbiguous(
                f"states {taken[m]} and {n} both match stencil state {m}"
            )
        taken[m] = n
        phases.append(ov[m] / overlaps[n][m])
    return list(taken), phases


def _checked(fam: OperatorFamily, lam, n: int) -> np.ndarray:
    """Validated parameter vector; ShapeMismatch if ``n`` is not a state index
    (a negative one would silently select another state)."""
    if not 0 <= n < fam.dim:
        raise ShapeMismatch(f"state index {n} out of range for dim {fam.dim}")
    return _params(lam, fam.num_params)


def _require_gaps(w, states, at_scale) -> None:
    """DegenerateSpectrum unless every gap ``|w_m - w_n|`` of a state ``n`` in
    ``states`` is at least ``1e-10 * scale``.

    ``at_scale(pred)`` applies a predicate monotone in the scale to it: for
    one system ``max(1, ||K||_2)``, decided on its norm bracket
    (:func:`~nhgeo.linalg._scale_verdict`, which reads the exact norm only
    near the threshold).  ``w`` may be a stack ``(..., N)`` of spectra,
    each block tested against its own scale
    (:func:`~nhgeo.linalg._raise_first`).
    """
    for n in states:
        gap = np.abs(w - w[..., n:n + 1])
        gap[..., n] = np.inf
        small = gap.min(axis=-1)
        _raise_first(at_scale(lambda m: small < 1e-10 * m), DegenerateSpectrum,
                     lambda i: f"eigenvalue {n} degenerate within 1e-10*||K||")


def _stencil(fam: OperatorFamily, lam, needed: Sequence[int], *,
             gauge: GaugeFunc | None = None):
    """Center eigensystem and derivatives ``(sys0, dR, dL)`` of the states
    ``needed`` at ``lam``: ``dR[mu, :, i]`` is ``|d_mu n_R>`` and ``dL[mu,
    :, i]`` is ``|d_mu n_L>`` of the i-th state of ``sorted(needed)``.

    Raises DegenerateSpectrum, as :func:`sum_over_states` does, if a needed
    state has a gap below ``1e-10 * max(||K||, 1)``: there the derivative
    depends on the solver's choice of basis in the degenerate space.
    """
    lam = _params(lam, fam.num_params)
    sys0 = build_biortho(fam(lam))
    needed = sorted(set(int(n) for n in needed))
    _require_gaps(sys0.eigenvalues, needed, lambda pred: _scale_verdict(pred, sys0))
    N = fam.dim
    g0 = np.asarray(gauge(lam), dtype=complex) if gauge is not None else None
    bras = sys0.right_inverse

    def columns_at(lamp):
        """Matched, phase-fixed [right; left] columns of the system at ``lamp``."""
        sysp = build_biortho(fam(lamp))
        cols, phases = _match(bras, sysp.right_vectors, needed)
        # from Python scalars: numpy indexing per column costs more at small
        # N, and fancy indexing (right[:, cols]) made 2-thread sweeps ~1.5x slower
        rows = sysp.right_vectors.tolist() + sysp.left_vectors.tolist()
        block = np.array([[row[m] * p for m, p in zip(cols, phases)] for row in rows])
        if gauge is not None:
            f = np.exp((np.asarray(gauge(lamp), dtype=complex) - g0)[needed])
            block[:N] *= f
            block[N:] *= np.conj(1.0 / f)
        return block

    D = np.array([central_difference(columns_at, lam, mu) for mu in range(fam.num_params)])
    return sys0, D[:, :N], D[:, N:]


# ---------------------------------------------------------------------------
# transport-generator matrix elements
# ---------------------------------------------------------------------------

def _generator(num: np.ndarray, w: np.ndarray, mu_reg: float, at_scale) -> np.ndarray:
    """Generator elements ``num[..., m, n] / (w_n - w_m)`` with a zero diagonal.

    ``num`` holds ``<m_L|dK|n_R>`` (one matrix or a stack over directions).
    ``mu_reg > 0`` selects the kernel ``conj(w_n - w_m) / (|w_n - w_m|^2 +
    mu_reg^2)``; the exact kernel raises DegenerateSpectrum if any gap is
    below ``1e-10 * scale`` (``at_scale`` as for :func:`_require_gaps`).
    """
    diff = w[None, :] - w[:, None]  # (m, n) -> w_n - w_m
    off = ~np.eye(len(w), dtype=bool)
    if mu_reg == 0.0:
        gaps = np.abs(diff[off])
        if at_scale(lambda m: (gaps < 1e-10 * m).any()):
            raise DegenerateSpectrum(
                "spectrum degenerate within 1e-10*||K||; pass mu_reg > 0"
            )
        elements = num / np.where(off, diff, 1.0)
    else:
        # squares of np.float64: an overflow is inf, not OverflowError, and
        # leaves the kernel 0, with no warning
        with np.errstate(over="ignore"):
            elements = np.conj(diff) * num / (np.abs(diff) ** 2 + np.float64(mu_reg) ** 2)
    return np.where(off, elements, 0.0)


def agp_elements(fam: OperatorFamily, lam, mu_dir: int, mu_reg: float = 0.0) -> np.ndarray:
    """Off-diagonal transport-generator elements in the biorthogonal basis.

    With a spectral gap, element (m, n) is ``<m_L|dK|n_R> / (w_n - w_m)``,
    i.e. ``<m_L|A|n_R>``; the diagonal is gauge-fixed to zero, and the dense
    operator is ``R @ A @ R^-1`` in the right eigenvectors ``R`` of
    :func:`~nhgeo.biortho.build_biortho`.
    A positive ``mu_reg`` switches to the regularized kernel
    ``conj(w_n - w_m) / (|w_n - w_m|^2 + mu_reg^2)`` which stays finite
    through degeneracies.

    Raises
    ------
    ShapeMismatch
        If ``mu_dir`` is not in ``[0, num_params)``.
    DegenerateSpectrum
        If ``mu_reg == 0`` and some eigenvalue gap is below ``1e-10 * ||K||``.
    """
    lam = _params(lam, fam.num_params)
    _direction(mu_dir, fam.num_params)
    mu_reg = _mu_reg(mu_reg)
    sys = build_biortho(fam(lam))
    dK = fam.derivative(mu_dir, lam)
    num = sys.right_inverse @ dK @ sys.right_vectors
    return _generator(num, sys.eigenvalues, mu_reg, lambda pred: _scale_verdict(pred, sys))


#: tensor kinds that :func:`sum_over_states` contracts
SOS_KINDS = ("eta", "zeta", "zeta_limited", "zeta_limited_rescaled")


def sum_over_states(
    fam: OperatorFamily,
    lam,
    n: int,
    kinds: Sequence[str],
    *,
    mu_reg: float = 0.0,
    sys: EigDecomposition | None = None,
) -> dict[str, GeoTensor]:
    """The tensors ``kinds`` of eigenstate ``n`` from one eigensystem.

    In the parallel-transport gauge the generator matrices ``A_mu`` of
    :func:`agp_elements` give every eigenvector derivative:
    ``|d_mu n_R> = sum_m |m_R> A_mu[m, n]`` and
    ``<d_mu n_L| = -sum_m A_mu[n, m] <m_L|``.  With the Gram matrices
    ``C = <m_R|n_R>`` and ``Cinv = <m_L|n_L>`` each kind is a contraction:

    - ``eta = -A_mu[n, :] A_nu[:, n]``;
    - ``zeta = Cinv[:, n]^H A_mu^H C A_nu[:, n]``;
    - ``zeta_limited = Cinv[n, n] A_mu[:, n]^H C A_nu[:, n]``, divided by
      ``Cinv[n, n] <n_R|n_R>`` for ``zeta_limited_rescaled``.

    ``K``, the eigensystem and ``<m_L|d_mu K|n_R>`` are computed once for
    all kinds; ``sys`` is the eigensystem of ``fam(lam)``
    (:func:`~nhgeo.biortho.build_biortho`) when the caller has built it.
    ``zeta`` uses the whole generator, so ``mu_reg``
    regularizes it and its exact kernel needs every gap.  ``eta`` and
    ``zeta_limited`` use only row and column ``n`` of the exact kernel, so
    only the gaps ``w_m - w_n`` must be open: a degenerate pair of other
    states does not change them.

    Raises
    ------
    ShapeMismatch
        If ``n`` is not a state index.
    NearDefective
        If the eigenvector matrix is too ill-conditioned.
    DegenerateSpectrum
        If a gap is below ``1e-10 * ||K||`` where a kind needs the exact
        kernel: a gap at ``n`` for ``eta`` and ``zeta_limited``, any gap
        for ``zeta`` with ``mu_reg == 0``.
    """
    kinds = _kinds(kinds, SOS_KINDS, "sum_over_states")
    mu_reg = _mu_reg(mu_reg)
    lam = _checked(fam, lam, n)
    if sys is None:
        sys = build_biortho(fam(lam))
    at_scale = lambda pred: _scale_verdict(pred, sys)
    w = sys.eigenvalues
    C = sys.gram_right
    num = np.stack([
        sys.right_inverse @ fam.derivative(mu, lam) @ sys.right_vectors
        for mu in range(fam.num_params)
    ])

    state_kinds = [k for k in kinds if k != "zeta"]
    if state_kinds:
        ln = sys.left_vectors[:, n]
        state = _state_tensors(state_kinds, num, w, C, (ln.conj() @ ln).real, n, at_scale, 1)

    out = {}
    for kind in kinds:
        if kind == "zeta":
            A = _generator(num, w, mu_reg, at_scale)
            vals = (A @ sys.gram_left[:, n]).conj() @ C @ A[:, :, n].T
            meta = {"route": "agp", "mu_reg": mu_reg}
        else:
            vals, meta = state[kind][0], {"route": "agp", "mu_reg": 0.0}
        out[kind] = GeoTensor(kind, n, vals, lam, meta)
    return out


def _state_tensors(kinds, num, w, C, lnln, n: int, at_scale, points: int
                   ) -> dict[str, np.ndarray]:
    """``eta``, ``zeta_limited`` and ``zeta_limited_rescaled`` of state ``n``
    from row and column ``n`` of the exact generator (see
    :func:`sum_over_states`), each of shape ``(points, d, d)``.

    ``num[mu, ..., m, j]`` is ``<m_L|d_mu K|j_R>``, ``w`` the spectrum,
    ``C`` the right Gram matrix and ``lnln`` is ``<n_L|n_L>``.  They describe
    one system, or a stack of blocks along the axis after ``mu`` (``num (d,
    B, N, N)``, ``w (B, N)``, ``C (B, N, N)``, ``lnln`` ``(B,)``).  The
    stack holds ``points`` runs of equally many consecutive blocks, and the
    tensors of each run are summed.  Raises DegenerateSpectrum, for the first
    failing block, if a gap ``|w_m - w_n|`` is below ``1e-10 * scale``
    (``at_scale`` as for :func:`_require_gaps`).
    """
    _require_gaps(w, [n], at_scale)
    d, N = len(num), w.shape[-1]
    # one code path: one system is a stack of one block
    num, w, C = num.reshape(d, -1, N, N), w.reshape(-1, N), C.reshape(-1, N, N)
    others = np.arange(N) != n
    gap = np.where(others, w[:, n, None] - w, 1.0)  # w_n - w_m
    col = np.where(others, num[..., n] / gap, 0.0)  # A_mu[:, n]

    def per_point(x):  # (d, B, ...) as contiguous (points, d, m): one matrix per point
        return np.ascontiguousarray(np.reshape(x, (d, points, -1)).transpose(1, 0, 2))

    def zone_sum(left, right):  # out[p, a, b]: sum of left[a] * right[b] over p's blocks and entries
        return per_point(left) @ per_point(np.broadcast_to(right, left.shape)).swapaxes(-1, -2)

    out = {}
    for kind in kinds:
        if kind == "eta":
            row = np.where(others, num[..., n, :] / -gap, 0.0)  # A_mu[n, :]
            out[kind] = -zone_sum(row, col)
        else:
            # zeta_limited_rescaled divides by <n_L|n_L><n_R|n_R>
            weight = lnln if kind == "zeta_limited" else 1.0 / C[:, n, n].real
            # weight_k conj(col[a, k, i]) C[k, i, j] col[b, k, j], summed over k, i, j
            left = np.reshape(weight, (-1, 1, 1)) * col.conj()[..., None] * C
            out[kind] = zone_sum(left, col[..., None, :])
    return out


#: tensor kinds of one state that :func:`sum_over_blocks` sums over blocks
STATE_KINDS = ("eta", "zeta_limited", "zeta_limited_rescaled")


def sum_over_blocks(K, dK, n: int, kinds: Sequence[str]) -> dict[str, np.ndarray]:
    """The tensors ``kinds`` of state ``n`` of every 2x2 block of ``K (L, 2,
    2)``, summed over the blocks (a Brillouin-zone sum of Bloch blocks); for
    a stack ``K (P, L, 2, 2)`` of P points, the ``(P, d, d)`` sums of each
    point's L blocks.

    This is :func:`sum_over_states` on all blocks at once, in 2x2 entry
    arithmetic (:func:`~nhgeo.linalg._entries`).  ``dK (d, 2, 2)`` holds the
    derivative directions, the same for every block.  Each block is
    decomposed in closed form (:func:`~nhgeo.linalg._eig_2x2`) with its
    eigenvalues in canonical order and unit right vectors; its left vectors
    come from the adjugate inverse.  ``<m_L|d_mu K|n_R>``, the Gram matrix
    and ``<n_L|n_L>`` of every block go to :func:`_state_tensors` as one
    stack, which contracts them and sums them per point.  Every step is
    elementwise per block and each point's sum is one matrix product of its
    own, so a point's tensors do not depend on the points beside it: a
    sweep joins many points in one pass and gets their one-point values bit
    for bit.

    Each check of the per-matrix engine is made per block, in its order:
    ShapeMismatch for a non-finite block and NonConvergence for an eigenpair
    residual above ``1e-10 * ||K||``; NearDefective if the eigenvector
    condition number exceeds 1e12; DegenerateSpectrum if the gap is below
    ``1e-10 * max(||K||_2, 1)``.  In one record, the error is that of the
    lowest failing block (:func:`~nhgeo.linalg.lowest_failing_block`), and
    carries its flat index (``p * L + k`` on a stack of points) as ``exc.block``.
    """
    kinds = _kinds(kinds, STATE_KINDS, "sum_over_blocks")
    K = np.asarray(K, dtype=complex)
    dK = np.asarray(dK, dtype=complex)
    if K.ndim not in (3, 4) or K.shape[-2:] != (2, 2) or not K.size:
        raise ShapeMismatch(f"expected a stack (L, 2, 2) or (P, L, 2, 2) of blocks, "
                            f"got shape {K.shape}")
    if dK.ndim != 3 or dK.shape[1:] != (2, 2):
        raise ShapeMismatch(f"expected directions (d, 2, 2), got shape {dK.shape}")
    if not 0 <= n < 2:
        raise ShapeMismatch(f"state index {n} out of range for dim 2")
    points = len(K) if K.ndim == 4 else None
    K = K.reshape(-1, 2, 2)
    with lowest_failing_block():
        w, R, norm = _eig_2x2(_entries(K), distinct=False)  # equal eigenvalues are judged below
        swap = canonical_order(np.stack(w, axis=-1), norm)[:, 0] == 1
        if swap.any():
            w = tuple(np.where(swap, v, u) for u, v in zip(w, w[::-1]))
            R = tuple(np.where(swap, v, u) for u, v in zip(R, (R[1], R[0], R[3], R[2])))
        cond, Rinv = _cond_inv(R)
        _raise_first(~(cond <= DEFECTIVE_COND), NearDefective,
                     lambda i: f"eigenvector condition number {cond[i]:.3e} above 1e12")
        # <m_L| is row m of R^-1; entries of shape (d, B), one per direction and block
        num = _mul(_mul(Rinv, tuple(e[:, None] for e in _entries(dK))), R)
        C = _mul(_adjoint(R), R)
        lnln = abs(Rinv[2 * n]) ** 2 + abs(Rinv[2 * n + 1]) ** 2
        out = _state_tensors(kinds, _blocks(num), np.stack(w, axis=-1), _blocks(C), lnln, n,
                             lambda pred: pred(np.maximum(norm, 1.0)), points or 1)
    return out if points else {kind: v[0] for kind, v in out.items()}


# ---------------------------------------------------------------------------
# Hermitian reference tensor
# ---------------------------------------------------------------------------

def chi_hermitian(fam: OperatorFamily, lam, n: int) -> GeoTensor:
    """Geometric tensor of eigenstate ``n`` of a Hermitian family.

    Computed through an independent Hermitian eigensolver path (not the
    biorthogonal machinery), so it can serve as the reference in Hermitian
    collapse checks.  Real part is the Fubini-Study metric; the curvature is
    ``-1/2`` of the imaginary part (``GeoTensor.berry_curvature``).
    """
    lam = _checked(fam, lam, n)
    d = fam.num_params
    meta = {"fd_step": [_step(lam, mu) for mu in range(d)]}
    K = fam(lam)
    scale = max(norm2(K), 1.0)
    if np.abs(K - K.conj().T).max() > 1e-12 * scale:
        raise NotHermitian("family is not Hermitian at this parameter point")
    _, V0 = np.linalg.eigh(K)
    bras = V0.conj().T

    def matched(lamp):
        Kp = fam(lamp)
        if np.abs(Kp - Kp.conj().T).max() > 1e-12 * scale:
            raise NotHermitian("family leaves the Hermitian domain inside the stencil")
        _, V = np.linalg.eigh(Kp)
        cols, phases = _match(bras, V, range(fam.dim))
        return np.column_stack([V[:, m] for m in cols]) * phases

    # rows |d_mu v>: chi = <d_mu v|d_nu v> - <d_mu v|v><v|d_nu v>
    dv = np.array([central_difference(matched, lam, mu)[:, n] for mu in range(d)])
    v = V0[:, n]
    vals = dv.conj() @ dv.T - np.multiply.outer(dv.conj() @ v, dv @ v.conj())
    return GeoTensor("chi", n, vals, lam, meta)


# ---------------------------------------------------------------------------
# non-Hermitian tensors
# ---------------------------------------------------------------------------

def stencil_tensors(
    fam: OperatorFamily,
    lam,
    n: int,
    kinds: Sequence[str],
    *,
    route: str = "overlap",
    gauge: GaugeFunc | None = None,
) -> dict[str, GeoTensor]:
    """The tensors ``kinds`` of eigenstate ``n`` from one finite-difference stencil.

    The oracle of :func:`sum_over_states`, with its signature and kinds.  With
    ``|D_mu n_R> = |d_mu n_R> - A_mu |n_R>`` and ``A_mu = <n_L|d_mu n_R>``:

    - ``eta = <d_mu n_L|d_nu n_R> - <d_mu n_L|n_R> A_nu``;
    - ``zeta = sum_m Cinv[n, m] <D_mu m_R|D_nu n_R>`` (``route='overlap'``),
      or the same sum in counterterm form (``route='projector'``),
      ``<d_mu m_R|d_nu n_R> - <d_mu m_R|m_L><m_R|d_nu n_R>
      - (<d_mu m_R|n_R> - C[m, n] <d_mu m_R|m_L>) A_nu``;
    - ``zeta_limited = <n_L|n_L><D_mu n_R|D_nu n_R>`` (Hermitian, PSD),
      divided by ``<n_L|n_L><n_R|n_R>`` for ``zeta_limited_rescaled``.

    The stencil differentiates every state if ``zeta`` is requested, else
    state ``n`` alone, in ``1 + 2d`` eigensolves; ``meta["fd_step"]`` holds
    its default step along each direction (:func:`central_difference`).  An
    unknown kind or route (ValueError) or an unknown state index
    (ShapeMismatch) raises before any evaluation, and a gap below ``1e-10 *
    max(||K||, 1)`` at a differentiated state raises DegenerateSpectrum.
    """
    kinds = _kinds(kinds, SOS_KINDS, "stencil_tensors")
    if route not in ("overlap", "projector"):
        raise ValueError(f"unknown route {route!r}")
    lam = _checked(fam, lam, n)
    d = fam.num_params
    meta = {"fd_step": [_step(lam, mu) for mu in range(d)]}
    every = "zeta" in kinds
    sys0, dR, dL = _stencil(fam, lam, range(fam.dim) if every else [n], gauge=gauge)
    R, L = sys0.right_vectors, sys0.left_vectors
    rn, ln = R[:, n], L[:, n]
    lnc = ln.conj()
    # rows |d_mu n_R> and <d_mu n_L|: per-pair dots on contiguous rows keep
    # eta bit-identical between the one-state and the every-state stencil
    dRn = np.ascontiguousarray(dR[:, :, n if every else 0])
    dLc = dL[:, :, n if every else 0].conj()
    conn = [lnc @ v for v in dRn]  # A_nu = <n_L|d_nu n_R>

    out = {}
    for kind in kinds:
        if kind == "eta":
            lr = [v @ rn for v in dLc]
            vals = np.array([[dLc[a] @ dRn[b] - lr[a] * conn[b] for b in range(d)]
                             for a in range(d)])
        elif kind == "zeta" and route == "projector":
            w = sys0.gram_left[n]  # Cinv[n, m]
            dRc = dR.conj()
            lm = np.einsum("aim,im->am", dRc, L) * w  # Cinv[n, m] <d_mu m_R|m_L>
            vals = ((dRc @ w) @ dRn.T - lm @ (R.conj().T @ dRn.T)
                    + np.multiply.outer(lm @ sys0.gram_right[:, n] - (rn @ dRc) @ w, conn))
        else:
            Dn = dRn - np.multiply.outer(conn, rn)  # rows |D_nu n_R>
            if kind == "zeta":
                D = dR - np.einsum("im,aim->am", L.conj(), dR)[:, None] * R  # |D_mu m_R>
                vals = (D.conj() @ sys0.gram_left[n]) @ Dn.T
            else:
                lnln = (lnc @ ln).real
                vals = lnln * (Dn.conj() @ Dn.T)
                if kind == "zeta_limited_rescaled":
                    vals = vals / (lnln * (rn.conj() @ rn).real)
        out[kind] = GeoTensor(kind, n, vals, lam,
                              {"route": route, **meta} if kind == "zeta" else dict(meta))
    return out


def eta_tensor(fam: OperatorFamily, lam, n: int) -> GeoTensor:
    """Left-right tensor <d_mu n_L|d_nu n_R> - <d_mu n_L|n_R><n_L|d_nu n_R>
    (:func:`stencil_tensors`)."""
    return stencil_tensors(fam, lam, n, ["eta"])["eta"]


def zeta_tensor(fam: OperatorFamily, lam, n: int) -> GeoTensor:
    """Gauge-invariant mixed tensor of eigenstate ``n`` (:func:`stencil_tensors`,
    overlap route)."""
    return stencil_tensors(fam, lam, n, ["zeta"])["zeta"]


def zeta_limited(fam: OperatorFamily, lam, n: int) -> GeoTensor:
    """Single-state tensor <n_L|n_L><D_mu n_R|D_nu n_R> (Hermitian, PSD;
    :func:`stencil_tensors`)."""
    return stencil_tensors(fam, lam, n, ["zeta_limited"])["zeta_limited"]
