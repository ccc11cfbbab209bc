"""Non-Hermitian Su-Schrieffer-Heeger chain (momentum space).

Two-band Bloch matrices ``[[0, a], [b, 0]]`` with asymmetric intracell
hopping ``t +- delta`` (intercell hopping fixed to 1), the band function
``eps(k) = a b``, phase labels from the two gap conditions ``|t -+ delta| =
1``, Brillouin-zone sums of the mixed geometric tensor over the (t, delta)
plane, and the corresponding thermodynamic-limit expressions.

All computations are on 2x2 Bloch blocks, no real-space Hamiltonian (open
boundaries and skin-effect physics are out of scope).  :func:`band_sums`
gives every sum on the k-grids of many points at once, in closed form from
one read of ``a``, ``b`` and :func:`eps`, the one expression of the band
function: no eigensolve runs.  :func:`zeta_finite_sum` and
:func:`bloch_sum` are its one-point views.  Two oracles check it:
:func:`~nhgeo.tensors.sum_over_blocks` on the stack of Bloch matrices
(:func:`_bloch`), and the finite-difference stencil on
:func:`bloch_family`, the fixed-k block as an operator family.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSpectrum,
    FSingular,
    NearDefective,
    NonConvergence,
    OnCriticalLine,
    ShapeMismatch,
)
from .linalg import DEFECTIVE_COND, _grid_check, _k_grid, _raise_first, lowest_failing_block
from .tensors import STATE_KINDS, GeoTensor, OperatorFamily, _finite, _integer, _kinds

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_DX_DDELTA = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
#: d/dt, d/ddelta of every Bloch block: the directions of the sum_over_blocks oracle
_DIRECTIONS = np.stack([_SX, _DX_DDELTA])


@dataclass(frozen=True)
class SSHParams:
    """Mean intracell hopping ``t``, imbalance ``delta``, chain length ``L``."""

    t: float
    delta: float
    L: int

    def __post_init__(self):
        _finite("t", self.t)
        _finite("delta", self.delta)
        if not _integer(self.L) or self.L < 2:
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")

    @property
    def k_grid(self) -> np.ndarray:
        return _k_grid(self.L)


@dataclass(frozen=True)
class SSHPhase:
    """Region labels: s1 = '+' iff |t - delta| > 1, s2 = '+' iff |t + delta| > 1."""

    s1: str
    s2: str

    def astuple(self) -> tuple[str, str]:
        return (self.s1, self.s2)


def _hoppings(t, delta, k):
    """The off-diagonals ``a = t - delta + e^{-ik}`` and ``b = t + delta +
    e^{ik}`` of the Bloch matrices at hoppings ``t``, ``delta`` that
    broadcast against the momenta ``k``."""
    return t - delta + np.exp(-1j * k), t + delta + np.exp(1j * k)


def _bloch(t, delta, k) -> np.ndarray:
    """2x2 Bloch matrix ``[[0, a], [b, 0]]`` (:func:`_hoppings`): the stack
    ``(..., 2, 2)`` of the blocks (a ``(P, 1)`` column of points and ``L``
    momenta give ``(P, L, 2, 2)``)."""
    a, b = _hoppings(t, delta, k)
    K = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)) + (2, 2), dtype=complex)
    K[..., 0, 1] = a
    K[..., 1, 0] = b
    return K


def _eps(a, b):
    """``a b`` in real arithmetic, which rounds a scalar as the same entry of
    an array (numpy's complex multiply does not always); inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.asarray(a.real * b.real - a.imag * b.imag, dtype=complex)
        e.imag = a.real * b.imag + a.imag * b.real
    return e[()]


def eps(t: float, delta: float, k) -> np.ndarray | complex:
    """Band function ``eps(k) = a b`` of the Bloch off-diagonals
    (:func:`_hoppings`): the Bloch eigenvalues are ``+-sqrt(eps)``."""
    return _eps(*_hoppings(t, delta, k))


def bloch_family(params: SSHParams, k: float) -> OperatorFamily:
    """The fixed-k Bloch matrix as a two-parameter family over (t, delta).

    Production sums go through :func:`band_sums`; the finite-difference
    stencil on this family serves ``verify`` and the tests only, as the
    independent oracle of those sums."""

    def f(lam):
        return _bloch(lam[0], lam[1], k)

    def df(mu, lam):
        return _SX if mu == 0 else _DX_DDELTA

    return OperatorFamily(2, 2, f, df, name=f"nh-ssh(k={k:.6g})")


def bloch_sum(params: SSHParams, n: int, kinds) -> dict[str, GeoTensor]:
    """Brillouin-zone sums over the k-grid of the tensors ``kinds`` of band
    ``n`` (``eta``, ``zeta_limited``, ``zeta_limited_rescaled``) over
    (t, delta): :func:`band_sums` at one point."""
    kinds = _kinds(kinds, STATE_KINDS, "bloch_sum")
    lam = np.array([params.t, params.delta])
    return {kind: GeoTensor(kind, n, v[0], lam, {"L": params.L, "route": "closed-form"})
            for kind, v in band_sums([params], n, kinds).items()}


#: tensor kinds that :func:`band_sums` evaluates
BAND_KINDS = ("zeta", *STATE_KINDS)


def band_sums(points: Sequence[SSHParams], n: int, kinds) -> dict[str, np.ndarray]:
    """The Brillouin-zone sums ``kinds`` over (t, delta) at each of ``points``,
    which share one ``L``, as ``(P, 2, 2)`` arrays: ``zeta``, and ``eta``,
    ``zeta_limited`` and ``zeta_limited_rescaled`` of band ``n``; no points
    give ``(0, 2, 2)`` arrays.

    One pass reads the Bloch off-diagonals of every point once
    (:func:`_hoppings`), forms ``eps = a b`` (:func:`eps`), makes the grid
    check on ``|eps|`` (:func:`~nhgeo.linalg._grid_check`) and sums the
    closed-form summands of :func:`_state_summands` over each point's own k
    axis, so a point's sums are those of the point alone, bit for bit.  In
    one record (:func:`~nhgeo.linalg.lowest_failing_block`), a failure is
    that of the first failing point, as it raises alone, with ``p * L + k``
    as ``exc.block``; in a pass a failing point's sums are not its tensors.
    :func:`~nhgeo.tensors.sum_over_blocks` on the Bloch matrices
    (:func:`_bloch`) is the eigensolver route to the same sums, their oracle.
    """
    kinds = _kinds(kinds, BAND_KINDS, "band_sums")
    if not points:
        return {kind: np.zeros((0, 2, 2), dtype=complex) for kind in kinds}
    L = points[0].L
    if any(p.L != L for p in points):
        raise ShapeMismatch("band_sums needs points of one chain length L")
    ks = points[0].k_grid
    a, b = _hoppings(np.array([p.t for p in points])[:, None],
                     np.array([p.delta for p in points])[:, None], ks)
    e = _eps(a, b)
    with lowest_failing_block():
        _grid_check(abs(e), ks, "eps(k) vanishes on the grid")
        summands = _state_summands(a, b, e, n, kinds)
    # (2, 2, P, L) summed over each point's k axis
    return {kind: np.moveaxis(summands[kind].sum(axis=-1), -1, 0).astype(complex)
            for kind in kinds}


def _state_summands(a, b, e, n: int, kinds) -> dict[str, np.ndarray]:
    """The per-k summands ``(2, 2, ...)`` of ``kinds`` (of band ``n``) over
    the Bloch blocks ``[[0, a], [b, 0]]`` with band function ``e = a b``.

    With ``w = (a - b, a + b) = (-2 (delta + i sin k), 2 (t + cos k))``, the
    derivatives of the block along (t, delta) contracted between its two
    eigenstates, the sum-over-states forms are::

        eta_{mu nu}                   = -w_mu w_nu / (16 eps^2)
        zeta_limited_rescaled_{mu nu} = conj(w_mu) w_nu / (16 |eps|^2)
        zeta_limited_{mu nu}          = zeta_limited_rescaled_{mu nu}
                                        * (|a|^2 + |eps|) (|b|^2 + |eps|) / (4 |eps|^2)
        zeta_{mu nu}                  = Re zeta_limited_rescaled_{mu nu}

    The eigenvalues ``+-sqrt(eps)`` enter only through ``eps``: no square
    root, and the two bands agree.  The imaginary part that ``zeta`` drops
    is odd in k and cancels between k and -k.  The ratios ``w / eps`` and
    ``|a|^2 / |eps|`` overflow only where the eigensolver does.

    Where a state kind is asked for, the checks of
    :func:`~nhgeo.tensors.sum_over_blocks` are made per block in closed
    form, in its order: ShapeMismatch for non-finite entries; NearDefective
    if the eigenvector condition number ``sqrt(max(|a|, |b|) / min(|a|,
    |b|))`` exceeds 1e12; DegenerateSpectrum if the gap ``2 sqrt|eps|`` is
    below ``1e-10 * max(|a|, |b|, 1)`` (the block's 2-norm, at least 1).
    Every kind then raises NonConvergence where a summand or ``eps`` is not
    finite.  Each check is one :func:`~nhgeo.linalg._raise_first` over the
    blocks (flat index ``p * L + k``), for the record of :func:`band_sums`.
    """
    state = [kind for kind in kinds if kind != "zeta"]
    if state and not 0 <= n < 2:
        raise ShapeMismatch(f"state index {n} out of range for dim 2")
    with np.errstate(all="ignore"):  # the blocks that over- or underflow are judged below
        x = np.array([a - b, a + b]) / (4 * e)  # w / (4 eps), (2, ...)
        finite = np.isfinite(x).all(axis=0) & np.isfinite(e)
        checks = []
        if state:
            ae, aa, ab = abs(e), abs(a), abs(b)
            ra, rb = aa * aa / ae, ab * ab / ae
            lo, hi = np.minimum(aa, ab), np.maximum(aa, ab)
            cond = np.sqrt(hi) / np.sqrt(lo)
            finite &= np.isfinite(ra) & np.isfinite(rb)
            checks = [
                (~(np.isfinite(a) & np.isfinite(b)), ShapeMismatch,
                 lambda i: "2x2 block has non-finite entries"),
                (cond > DEFECTIVE_COND, NearDefective,
                 lambda i: f"eigenvector condition number {cond.flat[i]:.3e} above 1e12"),
                (2 * np.sqrt(ae) < 1e-10 * np.maximum(hi, 1.0), DegenerateSpectrum,
                 lambda i: f"eigenvalue {n} degenerate within 1e-10*||K||"),
            ]
        checks.append((~finite, NonConvergence, lambda i: "band summand is not finite"))
    for m, exc_type, message in checks:
        _raise_first(m.ravel(), exc_type, message)
    out = {}
    s = x.conj()[:, None] * x if set(kinds) - {"eta"} else None
    for kind in kinds:
        if kind == "eta":
            out[kind] = -(x[:, None] * x)
        elif kind == "zeta":
            out[kind] = s.real
        else:
            out[kind] = s * ((ra + 1) * (rb + 1) / 4) if kind == "zeta_limited" else s
    return out


def classify_phase(t: float, delta: float) -> SSHPhase:
    """Phase labels (s1, s2) from |t - delta| and |t + delta| vs 1."""
    _finite("t", t)
    _finite("delta", delta)
    for v in (abs(t - delta), abs(t + delta)):
        if abs(v - 1.0) < 1e-12:
            raise OnCriticalLine(f"|t -+ delta| = {v} is on a gap-closing line")
    return SSHPhase(
        "+" if abs(t - delta) > 1 else "-",
        "+" if abs(t + delta) > 1 else "-",
    )


def zeta_summand(t: float, delta: float, k) -> np.ndarray:
    """Per-k contribution to the Brillouin-zone ``zeta`` sum over (t, delta),
    ``(2, 2, ...)`` over the broadcast shape of ``t``, ``delta`` and ``k``:
    the real part of the per-k ``zeta_limited_rescaled`` (:func:`_state_summands`)."""
    a, b = _hoppings(t, delta, k)
    return _state_summands(a, b, _eps(a, b), 0, ["zeta"])["zeta"]


def zeta_finite_sum(params: SSHParams) -> GeoTensor:
    """Tensor over (t, delta) summed over the k-grid ``k_m = 2 pi m / L``
    (:func:`band_sums` at one point); CriticalKPoint at a gap-closing grid k."""
    return GeoTensor("zeta", "band-sum", band_sums([params], 0, ["zeta"])["zeta"][0],
                     np.array([params.t, params.delta]), {"L": params.L})


def phase_function(t: float, delta: float) -> float:
    """Phase-dependent part of the thermodynamic tensor.

    Piecewise over the (s1, s2) regions; has poles at delta = 0 and
    delta = -+t inside the phases where it is nonzero.
    """
    ph = classify_phase(t, delta).astuple()
    if ph == ("-", "-"):
        return 0.0
    if ph == ("+", "+"):
        den = (delta - t) * (delta + t)
    elif ph == ("-", "+"):
        den = delta * (delta + t)
    else:  # ("+", "-")
        den = delta * (delta - t)
    if abs(den) < 1e-14:
        raise FSingular(
            f"phase {ph} requires the pole-bearing term and delta*(delta -+ t) = 0"
        )
    return (2.0 if ph == ("+", "+") else 1.0) / den


def zeta_thermodynamic(t: float, delta: float) -> GeoTensor:
    """Large-L tensor per unit length over (t, delta).

    Diverges on the gap-closing lines; raises there instead of returning inf.
    """
    f = phase_function(t, delta)  # raises OnCriticalLine / FSingular first
    A = 1.0 / abs((delta + t) ** 2 - 1.0)
    B = 1.0 / abs((delta - t) ** 2 - 1.0)
    vals = np.array(
        [[(A + B + f), (A - B)], [(A - B), (A + B - f)]], dtype=complex
    ) / 16.0
    return GeoTensor(
        "zeta", "band-sum", vals, np.array([t, delta]), {"per_unit_L": True}
    )
