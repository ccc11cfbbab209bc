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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchDomainError, CriticalKPoint, OnCriticalLine, UndefinedAngle
from .liouville import TranslationInvariantModel, gaussian_tensors
from .tensors import GeoTensor

_S0 = np.eye(2, dtype=complex)
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
        if self.g < 0 or self.mu_plus < 0 or self.mu_minus < 0:
            raise ValueError("bath amplitudes must be >= 0")
        if self.mu_plus == 0 and self.mu_minus == 0:
            raise ValueError("mu_+^2 + mu_-^2 must be positive")
        if self.L < 1:
            raise ValueError("L must be >= 1")

    @property
    def Lambda(self) -> float:
        p2, m2 = self.mu_plus ** 2, self.mu_minus ** 2
        return (p2 - m2) / (p2 + m2)

    @property
    def k_grid(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.L) / self.L


def phi_k(h: float, gamma: float, k):
    """Bloch angle via atan2(gamma sin k, h - cos k)."""
    y, x = gamma * np.sin(k), h - np.cos(k)
    if np.isscalar(k) and abs(x) < 1e-300 and abs(y) < 1e-300:
        raise UndefinedAngle(f"(h - cos k, gamma sin k) = (0, 0) at k = {k}")
    return np.arctan2(y, x)


def dphi(h: float, gamma: float, k):
    """Analytic (d_h phi, d_gamma phi); raises where the angle is undefined."""
    s, c = np.sin(k), np.cos(k)
    D = (h - c) ** 2 + gamma ** 2 * s ** 2
    if np.min(D) < 1e-300:
        raise UndefinedAngle("angle undefined: both arctangent arguments vanish")
    return -gamma * s / D, s * (h - c) / D


class DissipativeKitaevModel(TranslationInvariantModel):
    """Momentum-block model over parameters (h, gamma) at fixed bath."""

    num_params = 2

    def __init__(self, g: float, mu_plus: float, mu_minus: float):
        self.g = g
        self.mu_plus = mu_plus
        self.mu_minus = mu_minus

    def h_block(self, k, lam):
        h, gam = lam
        return 0.5 * gam * np.sin(k) * _SX + 0.5 * (h - np.cos(k)) * _SY

    def m_block(self, k, lam):
        g2 = self.g ** 2
        p2, m2 = self.mu_plus ** 2, self.mu_minus ** 2
        return (g2 * (p2 + m2) / 4.0) * _S0 + (g2 * (p2 - m2) / 4.0) * _SY

    def dh_block(self, mu, k, lam):
        if mu == 0:
            return 0.5 * _SY
        return 0.5 * np.sin(k) * _SX

    def dm_block(self, mu, k, lam):
        return np.zeros((2, 2), dtype=complex)


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


def _check_grid(params: KitaevParams):
    ks = params.k_grid
    s, c = np.sin(ks), np.cos(ks)
    D = (params.h - c) ** 2 + params.gamma ** 2 * s ** 2
    if np.min(D) < 1e-12:
        kbad = ks[int(np.argmin(D))]
        raise CriticalKPoint(f"band gap closes on the grid at k = {kbad:.6g}")
    return ks, s, c, D


#: tensor kinds that :func:`weak_coupling_tensors` evaluates
WEAK_KINDS = ("zeta", "zeta_limited", "bures")


def weak_coupling_tensors(params: KitaevParams, kinds) -> dict[str, np.ndarray]:
    """Weak-coupling Brillouin-zone sums ``kinds`` over (h, gamma), from one
    grid check and one set of phi derivatives.

    ``zeta`` and ``zeta_limited`` are the closed forms of
    :func:`zeta_kitaev_sum` and :func:`zeta_tilde_kitaev_sum`; ``bures`` is
    :func:`nhgeo.liouville.gaussian_tensors` of :func:`gamma_k_weak` and
    :func:`dgamma_k_weak` on the ``(L, 2, 2)`` stack of momentum blocks.
    """
    unknown = [k for k in kinds if k not in WEAK_KINDS]
    if unknown:
        raise ValueError(f"weak-coupling tensors do not include {unknown}")
    ks, s, c, D = _check_grid(params)
    h, gam = params.h, params.gamma
    dh = -gam * s / D
    dg = s * (h - c) / D
    lam2 = params.Lambda ** 2
    out = {}
    for kind in kinds:
        if kind == "bures":
            kc = ks[:, None, None]
            dG = [dgamma_k_weak(params, kc, mu) for mu in range(2)]
            out[kind] = gaussian_tensors(gamma_k_weak(params, kc), dG, [kind])[kind] + 0j
            continue
        w = (gam ** 2 * s ** 2 / D if kind == "zeta"  # sin^2 phi
             else 1.0 / (1.0 + lam2 * ((h - c) ** 2 / D)) ** 2)
        zhh, zgh, zgg = (lam2 * float(np.sum(w * a * b)) for a, b in ((dh, dh), (dg, dh), (dg, dg)))
        out[kind] = np.array([[zhh, zgh], [zgh, zgg]], dtype=complex)
    return out


def _weak_tensor(params: KitaevParams, kind: str) -> GeoTensor:
    return GeoTensor(
        kind, "ness", weak_coupling_tensors(params, [kind])[kind],
        np.array([params.h, params.gamma]), {"L": params.L, "Lambda": params.Lambda},
    )


def zeta_kitaev_sum(params: KitaevParams) -> GeoTensor:
    """Steady-state tensor over (h, gamma):
    ``Lambda^2 sum_k sin^2(phi_k) d_mu phi_k d_nu phi_k``."""
    return _weak_tensor(params, "zeta")


def zeta_tilde_kitaev_sum(params: KitaevParams) -> GeoTensor:
    """Purity-weighted single-state tensor:
    ``Lambda^2 sum_k d_mu phi d_nu phi / (1 + Lambda^2 cos^2 phi)^2``."""
    return _weak_tensor(params, "zeta_limited")


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
