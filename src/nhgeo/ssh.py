"""Non-Hermitian Su-Schrieffer-Heeger chain (momentum space).

Two-band Bloch matrices with asymmetric intracell hopping ``t +- delta``
(intercell hopping fixed to 1), the band function ``eps(k)``, phase labels
from the two gap conditions ``|t -+ delta| = 1``, Brillouin-zone sums of the
mixed geometric tensor over the (t, delta) plane, and the corresponding
thermodynamic-limit expressions.

All computations are on 2x2 Bloch blocks, no real-space Hamiltonian (open
boundaries and skin-effect physics are out of scope).  :func:`band_sums`
gives the closed-form ``zeta`` sum and the sum-over-states ``eta`` and
``zeta_limited`` of one band on the whole k-grid of many points at once
(:func:`zeta_finite_sum` and :func:`bloch_sum` are its one-point views);
:func:`bloch_family` is the fixed-k block as an operator family, for the
finite-difference stencil that serves as their oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CriticalKPoint, FSingular, OnCriticalLine, ShapeMismatch
from .linalg import _flag
from .tensors import (
    STATE_KINDS,
    GeoTensor,
    OperatorFamily,
    _finite,
    _integer,
    _kinds,
    sum_over_blocks,
)

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_DX_DDELTA = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
_DIRECTIONS = np.stack([_SX, _DX_DDELTA])  # d/dt, d/ddelta of every Bloch block


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
        return 2.0 * np.pi * np.arange(self.L) / self.L


@dataclass(frozen=True)
class SSHPhase:
    """Region labels: s1 = '+' iff |t - delta| > 1, s2 = '+' iff |t + delta| > 1."""

    s1: str
    s2: str

    def astuple(self) -> tuple[str, str]:
        return (self.s1, self.s2)


def bloch(params: SSHParams, k) -> np.ndarray:
    """2x2 Bloch matrix with off-diagonals t - delta + e^{-ik}, t + delta + e^{ik};
    for an array of momenta, the stack ``(..., 2, 2)`` of their blocks."""
    return _bloch(params.t, params.delta, k)


def _bloch(t, delta, k) -> np.ndarray:
    """:func:`bloch` at hoppings ``t``, ``delta`` that broadcast against ``k``:
    a ``(P, 1)`` column of points and ``L`` momenta give ``(P, L, 2, 2)``."""
    K = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(k)) + (2, 2), dtype=complex)
    K[..., 0, 1] = t - delta + np.exp(-1j * k)
    K[..., 1, 0] = t + delta + np.exp(1j * k)
    return K


def eps(t: float, delta: float, k) -> np.ndarray | complex:
    """Band function: eigenvalues of the Bloch matrix are +-sqrt(eps)."""
    return 1.0 + t * t - delta * delta + 2.0 * t * np.cos(k) - 2j * delta * np.sin(k)


def _grid_eps(t, delta, ks) -> None:
    """The grid check of every point ``(t[p], delta[p])`` on the k-grid
    ``ks``: CriticalKPoint for the first point where ``|eps(k)| < 1e-12`` at
    a grid k, with ``exc.block = p * L + k`` at the smallest ``|eps|``.  The
    gap closes there and every Brillouin-zone sum diverges, even when
    rounding leaves the Bloch block a finite gap.  Inside
    :func:`~nhgeo.linalg.flagged_blocks` the failing points are flagged
    instead."""
    ae = np.abs(eps(np.reshape(t, (-1, 1)), np.reshape(delta, (-1, 1)), ks))
    bad = ae.min(axis=-1) < 1e-12
    if bad.any() and not _flag(bad[:, None]):
        p = int(np.argmax(bad))
        k = int(np.argmin(ae[p]))
        raise CriticalKPoint(f"eps(k) vanishes on the grid at k = {ks[k]:.6g}",
                             block=p * len(ks) + k)


def bloch_family(params: SSHParams, k: float) -> OperatorFamily:
    """The fixed-k Bloch matrix as a two-parameter family over (t, delta).

    Production sums go through :func:`band_sums`; the finite-difference
    stencil on this family serves ``verify`` and the tests only, as the
    independent oracle of those sums."""

    def f(lam):
        return bloch(SSHParams(lam[0], lam[1], params.L), k)

    def df(mu, lam):
        return _SX if mu == 0 else _DX_DDELTA

    return OperatorFamily(2, 2, f, df, name=f"nh-ssh(k={k:.6g})")


def bloch_sum(params: SSHParams, n: int, kinds) -> dict[str, GeoTensor]:
    """Brillouin-zone sums over the k-grid of the tensors ``kinds`` of band
    ``n`` (``eta``, ``zeta_limited``, ``zeta_limited_rescaled``) over
    (t, delta): :func:`band_sums` at one point."""
    kinds = _kinds(kinds, STATE_KINDS, "bloch_sum")
    lam = np.array([params.t, params.delta])
    return {kind: GeoTensor(kind, n, v[0], lam, {"L": params.L, "route": "sum-over-blocks"})
            for kind, v in band_sums([params], n, kinds).items()}


#: tensor kinds that :func:`band_sums` evaluates
BAND_KINDS = ("zeta", *STATE_KINDS)


def band_sums(points: Sequence[SSHParams], n: int, kinds) -> dict[str, np.ndarray]:
    """The Brillouin-zone sums ``kinds`` over (t, delta) at each of ``points``,
    which share one ``L``, as ``(P, 2, 2)`` arrays: closed-form ``zeta``, and
    ``eta``, ``zeta_limited`` and ``zeta_limited_rescaled`` of band ``n``.

    Every point goes through one pass: the grid check of :func:`_grid_eps`
    first, then one :func:`zeta_summand` array summed per point for
    ``zeta`` and one :func:`~nhgeo.tensors.sum_over_blocks` pass over the
    ``(P, L, 2, 2)`` stack of Bloch matrices for the other kinds.  Each
    point's sums are those of the point alone, bit for bit.  A failure is
    that of the first failing point (the grid check of every point comes
    first) and carries ``p * L + k`` as ``exc.block``; inside
    :func:`~nhgeo.linalg.flagged_blocks` every check flags its failing
    points instead, and a flagged point's sums are not its tensors.
    """
    kinds = _kinds(kinds, BAND_KINDS, "band_sums")
    L = points[0].L
    if any(p.L != L for p in points):
        raise ShapeMismatch("band_sums needs points of one chain length L")
    ks = points[0].k_grid
    t = np.array([p.t for p in points])[:, None]
    delta = np.array([p.delta for p in points])[:, None]
    _grid_eps(t, delta, ks)
    out = {}
    if "zeta" in kinds:  # the summands (2, 2, P, L), summed over k per point
        out["zeta"] = np.moveaxis(zeta_summand(t, delta, ks).sum(axis=-1), -1, 0).astype(complex)
    stacked = [k for k in kinds if k != "zeta"]
    if stacked:
        out.update(sum_over_blocks(_bloch(t, delta, ks), _DIRECTIONS, n, stacked))
    return {kind: out[kind] for kind in kinds}


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
    """Per-k contribution to the Brillouin-zone tensor sum over (t, delta),
    as ``(2, 2, ...)`` over the broadcast shape of ``t``, ``delta`` and ``k``
    (a ``(P, 1)`` column of points and ``L`` momenta give ``(2, 2, P, L)``).

    This is the k-symmetrized value: the full per-k block tensor also carries
    an off-diagonal imaginary part odd in k that cancels between k and -k.
    """
    ae = np.abs(eps(t, delta, k)) ** 2
    ztt = (delta ** 2 + np.sin(k) ** 2) / (4 * ae)
    zdd = (t + np.cos(k)) ** 2 / (4 * ae)
    ztd = -(t + np.cos(k)) * delta / (4 * ae)
    return np.array([[ztt, ztd], [ztd, zdd]])


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
