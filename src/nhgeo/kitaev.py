"""Dissipative Kitaev chain with local gain/loss.

Pairing chain (field ``h``, pairing ``gamma``) with per-site loss
``g mu_- c_j`` and gain ``g mu_+ c_j^+``.  The imbalance
``Lambda = (mu_+^2 - mu_-^2) / (mu_+^2 + mu_-^2)`` sets the overall scale of
all steady-state tensors; the angle
``phi_k = atan2(gamma sin k, h - cos k)`` carries all parameter dependence
in the weak-coupling limit.

The two-argument arctangent fixes the branch; all tensors use the analytic
derivatives of phi, which are smooth across branch cuts, so the choice
cannot affect results.

At weak coupling every tensor is a Bloch-angle sum over the half zone of
the k-grid (:func:`weak_coupling_sums`); the correlation blocks
:func:`gamma_k_weak` and :func:`dgamma_k_weak` serve only as its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (BranchDomainError, NonConvergence, OnCriticalLine, PureStateSingular,
                     ShapeMismatch, UndefinedAngle)
from .linalg import _grid_check, _k_grid, _pow2, _raise_first, _zone_sums
from .liouville import TranslationInvariantModel, _pauli
from .tensors import GeoTensor, _finite, _integer, _kinds

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


@dataclass(frozen=True)
class KitaevParams:
    h: float
    gamma: float
    g: float
    mu_plus: float
    mu_minus: float
    L: int
    weak_coupling: bool = True

    def __post_init__(self):
        for name in ("h", "gamma", "g", "mu_plus", "mu_minus"):
            _finite(name, getattr(self, name))
        if self.g < 0 or self.mu_plus < 0 or self.mu_minus < 0:
            raise ValueError("bath amplitudes must be >= 0")
        if self.mu_plus == 0 and self.mu_minus == 0:
            raise ValueError("mu_+^2 + mu_-^2 must be positive")
        if not _integer(self.L) or self.L < 1:
            raise ValueError(f"L must be an integer >= 1, got {self.L!r}")

    @property
    def Lambda(self) -> float:
        s = _pow2(max(self.mu_plus, self.mu_minus))  # an exact scaling: no square overflows
        p2, m2 = (self.mu_plus * s) ** 2, (self.mu_minus * s) ** 2
        return (p2 - m2) / (p2 + m2)

    @property
    def k_grid(self) -> np.ndarray:
        return _k_grid(self.L)


def phi_k(h: float, gamma: float, k):
    """Bloch angle via atan2(gamma sin k, h - cos k), at a momentum or an
    array of them; UndefinedAngle at the first k where both arguments
    vanish."""
    y, x = gamma * np.sin(k), h - np.cos(k)
    bad = (abs(x) < 1e-300) & (abs(y) < 1e-300)
    if bad.any():
        kbad = np.ravel(np.broadcast_to(k, np.shape(bad)))[np.argmax(bad)]
        raise UndefinedAngle(f"(h - cos k, gamma sin k) = (0, 0) at k = {kbad}")
    return np.arctan2(y, x)


def _bloch_angle(h, gamma, k):
    """One read of the Bloch vector ``(u, v) = (h - cos k, gamma sin k)``, with
    ``h``, ``gamma`` broadcast against the momenta ``k``, under ``np.errstate``
    (an overflow leaves values that are not finite): ``D = u^2 + v^2``,
    ``(d_h phi, d_gamma phi) = (-v, u sin k) / D``, ``cos^2 phi`` and ``sin^2 phi``."""
    s, c = np.sin(k), np.cos(k)
    u = h - c
    with np.errstate(all="ignore"):
        u2, v2 = u ** 2, gamma ** 2 * s ** 2
        D = u2 + v2
        return D, (-gamma * s / D, s * u / D), u2 / D, v2 / D


def dphi(h: float, gamma: float, k):
    """Analytic (d_h phi, d_gamma phi) (:func:`_bloch_angle`); raises where
    the angle is undefined."""
    D, d, _, _ = _bloch_angle(h, gamma, k)
    if np.min(D) < 1e-300:
        raise UndefinedAngle("angle undefined: both arctangent arguments vanish")
    return d


class DissipativeKitaevModel(TranslationInvariantModel):
    """Momentum-block model over parameters (h, gamma) at fixed bath."""

    num_params = 2

    def __init__(self, g: float, mu_plus: float, mu_minus: float):
        self.g = g
        self.mu_plus = mu_plus
        self.mu_minus = mu_minus

    def h_block(self, k, lam):
        h, gam = lam
        return _pauli(0, 0.5 * gam * np.sin(k), 0.5 * (h - np.cos(k)))

    def m_block(self, k, lam):  # squares of np.float64: an overflow is inf, not OverflowError
        g2, p2, m2 = (np.float64(v) ** 2 for v in (self.g, self.mu_plus, self.mu_minus))
        return _pauli(g2 * (p2 + m2) / 4.0, 0, g2 * (p2 - m2) / 4.0)

    def dh_block(self, mu, k, lam):
        return _pauli(0, 0, 0.5) if mu == 0 else _pauli(0, 0.5 * np.sin(k), 0)

    def dm_block(self, mu, k, lam):
        return 0, 0, 0, 0


def gamma_k_weak(params: KitaevParams, k: float) -> np.ndarray:
    """Weak-coupling momentum-block correlation
    ``-Lambda (cos phi sin phi sx + cos^2 phi sy)``."""
    p = phi_k(params.h, params.gamma, k)
    lam = params.Lambda
    return -lam * np.cos(p) * (np.sin(p) * _SX + np.cos(p) * _SY)


def dgamma_k_weak(params: KitaevParams, k: float, mu: int) -> np.ndarray:
    """Analytic parameter derivative of :func:`gamma_k_weak`."""
    p = phi_k(params.h, params.gamma, k)
    dp = dphi(params.h, params.gamma, k)[mu]
    return -params.Lambda * dp * (np.cos(2 * p) * _SX - np.sin(2 * p) * _SY)


#: tensor kinds that :func:`weak_coupling_sums` evaluates
WEAK_KINDS = ("zeta", "zeta_limited", "bures")


def weak_coupling_sums(points: Sequence[KitaevParams], kinds) -> dict[str, np.ndarray]:
    """The weak-coupling sums ``kinds`` over (h, gamma) at ``points`` of one
    ``L``, as ``(P, 2, 2)`` arrays: ``Lambda^2 sum_k w d_mu phi_k d_nu phi_k``
    with the weight ``w`` ``sin^2 phi`` (``zeta``), ``1 / (1 + Lambda^2
    cos^2 phi)^2`` (``zeta_limited``) or ``[(1 - cos^2 phi) / (1 - Lambda^2
    cos^2 phi) + cos^2 phi / (1 + Lambda^2 cos^2 phi)] / 4`` (``bures``).

    ``d_mu phi`` is odd in k, and ``cos^2 phi`` and ``sin^2 phi`` are even, so
    the sums run on the half zone (:func:`~nhgeo.linalg._zone_sums`) from one
    read of the Bloch vectors (:func:`_bloch_angle`).  The checks: the grid
    check on ``D``; for ``bures``, PureStateSingular where ``|1 - Lambda^2
    cos^2 phi| < 1e-10``; NonConvergence where ``D`` or a summand is not
    finite.  A failure is that of the first failing point, with ``p * (L //
    2 + 1) + j`` as ``exc.block``.
    """
    kinds = _kinds(kinds, WEAK_KINDS, "weak_coupling_sums")
    if not points:
        return {kind: np.zeros((0, 2, 2), dtype=complex) for kind in kinds}
    if any(p.L != points[0].L for p in points):
        raise ShapeMismatch("weak_coupling_sums needs points of one chain length L")
    lam2 = np.array([p.Lambda ** 2 for p in points])[:, None]

    def read(ks):
        return ks, _bloch_angle(np.array([p.h for p in points])[:, None],
                                np.array([p.gamma for p in points])[:, None], ks)

    def summand(blocks):
        ks, (D, (dh, dg), c2, s2) = blocks
        terms = {}
        for kind in kinds:
            w = (s2 if kind == "zeta" else 1.0 / (1.0 + lam2 * c2) ** 2 if kind == "zeta_limited"
                 else ((1.0 - c2) / (1.0 - lam2 * c2) + c2 / (1.0 + lam2 * c2)) / 4) * lam2
            hh, gh, gg = w * dh * dh, w * dg * dh, w * dg * dg
            terms[kind] = np.array([[hh, gh], [gh, gg]])
        _grid_check(D, ks, "band gap closes on the grid")
        if "bures" in kinds:
            _raise_first(abs(1.0 - lam2 * c2) < 1e-10, PureStateSingular,
                         lambda i: "correlation spectrum touches a pure-state direction")
        finite = np.isfinite(D)
        for t in terms.values():  # no kinds leave the check on D alone
            finite &= np.isfinite(t).all(axis=(0, 1))
        _raise_first(~finite, NonConvergence, lambda i: "Bloch-angle summand is not finite")
        return terms

    return _zone_sums(points[0].L, read, summand)


def _thermo_gg_outer(ah: float, g: float) -> float:
    """gamma-gamma component per unit L (Lambda^2 factored out), |h| > 1.

    Closed form obtained by contour integration of the defining sum; the
    widely-quoted expression for this component does not reproduce the
    integral, so the residue result is used.  0/0 at |gamma| = 1 is handled
    by the analytic limit (6 h^2 - 5) / (16 h^6).
    """
    g2 = g * g
    if abs(g2 - 1.0) < 1e-9:
        return (6.0 * ah * ah - 5.0) / (16.0 * ah ** 6)
    s = ah * ah + g2 - 1.0
    r = np.sqrt(s)
    N = (
        3 * g2 ** 3 * ah
        + 6 * g2 ** 2 * ah
        - 8 * g2 ** 2 * r
        + 20 * g2 * ah ** 3
        - 16 * g2 * ah ** 2 * r
        - 21 * g2 * ah
        + 16 * g2 * r
        + 8 * ah ** 5
        - 8 * ah ** 4 * r
        - 20 * ah ** 3
        + 16 * ah ** 2 * r
        + 12 * ah
        - 8 * r
    )
    return g2 * N / (8.0 * (g2 - 1.0) ** 3 * s ** 2.5)


def zeta_kitaev_thermo(h: float, gamma: float, Lambda: float) -> GeoTensor:
    """Large-L tensor per unit length over (h, gamma).

    Piecewise in |h|: inside the gapped-pairing region (|h| < 1) the
    off-diagonal component vanishes identically; for |h| > 1 all three
    components are finite away from h^2 + gamma^2 = 1.
    """
    _finite("h", h)
    _finite("gamma", gamma)
    _finite("Lambda", Lambda)
    ah, ag = abs(h), abs(gamma)
    if abs(ah - 1.0) < 1e-12:
        raise OnCriticalLine("|h| = 1 is a critical field")
    lam2 = Lambda ** 2
    if ah < 1.0:
        if ag < 1e-12:
            raise OnCriticalLine("gamma = 0 with |h| < 1 is a critical line")
        zhh = 3.0 / (8.0 * ag * (1.0 - h * h))
        zgg = (1.0 + 3.0 * ag) / (8.0 * ag * (1.0 + ag) ** 3)
        zgh = 0.0
    else:
        s = h * h + gamma * gamma - 1.0
        if s <= 0:
            raise BranchDomainError("h^2 + gamma^2 must exceed 1 for |h| > 1 forms")
        zhh = (3.0 / 8.0) * gamma ** 4 * ah / ((h * h - 1.0) * s ** 2.5)
        zgh = -(3.0 / 8.0) * np.sign(h) * gamma ** 3 / s ** 2.5
        zgg = _thermo_gg_outer(ah, gamma)
    vals = lam2 * np.array([[zhh, zgh], [zgh, zgg]], dtype=complex)
    return GeoTensor(
        "zeta", "ness", vals, np.array([h, gamma]),
        {"per_unit_L": True, "Lambda": Lambda},
    )
