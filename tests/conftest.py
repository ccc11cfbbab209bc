import json

import numpy as np
import pytest

from nhgeo.errors import CriticalKPoint, NonConvergence, PureStateSingular
from nhgeo.linalg import _mul, _pair_solver_2x2, _raise_first, _trace_sum, lowest_failing_block
from nhgeo.liouville import _momentum_blocks, _xcal_2x2
from nhgeo.ssh import _bloch
from nhgeo.tensors import central_difference


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def agree(a, b, tol, scale_floor=1.0):
    """Mixed absolute/relative agreement used across the suite."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(scale_floor, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) <= tol * scale


def inside(v, lo, hi):
    """True when ``v`` lies well inside ``(lo, hi)``, False when it lies well
    outside, None within 1% of either end (where the code's bracket, made in
    its own rounding, may fall either way)."""
    if lo * 1.01 < v < hi * 0.99:
        return True
    if v < lo * 0.99 or v > hi * 1.01:
        return False
    return None


def maxdev(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def central_dxy(fam, mu, lam):
    """Central differences of the structure matrices X and Y of the
    LiouvillianFamily ``fam`` along ``mu``: the oracle for its exact ``dxy``."""
    def xy(l):
        liou = fam(l)
        return np.stack([liou.X, liou.Y])

    dX, dY = central_difference(xy, lam, mu)
    return dX, dY


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to numpy's SVD from here on (directly,
    or through ``np.linalg.norm(A, 2)`` and ``np.linalg.cond``)."""
    npla = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 / 1
    calls = []
    for mod in (np.linalg, npla):
        real = mod.svd
        monkeypatch.setattr(mod, "svd", lambda a, *args, _f=real, **kw:
                            calls.append(np.shape(a)) or _f(a, *args, **kw))
    return calls


def matrix_to_json(A) -> dict:
    """``A`` as the JSON matrix object that :func:`nhgeo.linalg.matrix_from_json` reads."""
    A = np.asarray(A, dtype=complex)
    data = [[float(v.real), float(v.imag)] for v in A.ravel(order="C")]
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "data": data}


def save_matrix(path, A) -> None:
    """Write ``A`` to ``path`` in the format that :func:`nhgeo.linalg.load_matrix` reads."""
    with open(path, "w") as fh:
        json.dump(matrix_to_json(A), fh)


def bloch(params, k) -> np.ndarray:
    """The SSH Bloch matrix of ``params`` at the momentum ``k`` (for an array
    of momenta, the stack ``(..., 2, 2)`` of their blocks)."""
    return _bloch(params.t, params.delta, k)


def log_derivative(Gamma, dGamma) -> np.ndarray:
    """Kernel K of the Gaussian logarithmic derivative, ``Gamma K Gamma - K =
    dGamma``, solved elementwise in the eigenbasis of Gamma: ``K_{jk} =
    (dGamma)_{jk} / (g_j g_k - 1)``, PureStateSingular where ``g_j g_k``
    reaches 1.  The reference of the Bures contraction."""
    g, V = np.linalg.eigh(Gamma)
    den = g[:, None] * g[None, :] - 1.0
    if np.abs(den).min() < 1e-10:
        raise PureStateSingular("correlation spectrum touches a pure-state direction")
    return V @ (V.conj().T @ dGamma @ V / den) @ V.conj().T


def ssh_eigenstates(params, k: float):
    """Closed-form right/left eigenstate pairs of the SSH Bloch matrix
    (:func:`bloch`), the reference of the eigensolvers.

    Returns ``(psi_R_plus, psi_R_minus), (psi_L_plus, psi_L_minus)`` as kets,
    biorthonormal pairwise, for the bands ``+-sqrt(eps)`` in that order.
    """
    t, d = params.t, params.delta
    a = t - d + np.exp(-1j * k)
    b = t + d + np.exp(1j * k)
    e = a * b
    if abs(e) < 1e-12:
        raise CriticalKPoint(f"eps = 0 at k = {k:.6g}")
    se = np.sqrt(e)
    psi_r = (
        np.array([1.0, b / se]) / np.sqrt(2.0),
        np.array([-1.0, b / se]) / np.sqrt(2.0),
    )
    # bras are (+-1, a/sqrt(eps))/sqrt(2); kets are their conjugates
    psi_l = (
        np.array([1.0, a / se]).conj() / np.sqrt(2.0),
        np.array([-1.0, a / se]).conj() / np.sqrt(2.0),
    )
    return psi_r, psi_l


def full_zone_sums(model, lams, L) -> np.ndarray:
    """The steady-state zone sums of the TranslationInvariantModel ``model``
    at the points ``lams`` over all L momenta ``2 pi j / L``, ``(P, d, d)``,
    each block's complex summand added as it is: the oracle of the
    half-zone sums of :func:`nhgeo.liouville.zeta_ness_k_sums`, the same
    per-block steps without the weights and the real part.  A failure is
    that of the first failing point at its lowest failing block, with ``p *
    L + j`` as ``exc.block``."""
    P, d = len(lams), model.num_params
    lams = np.array(lams, dtype=float).reshape(P, d)
    x, xmT, y, (dx, dxmT, dy) = _momentum_blocks(model, lams, 2 * np.pi * np.arange(L) / L, True)

    def per_point(E):
        return tuple(e.reshape(len(e), P, L) for e in E)

    with lowest_failing_block():
        solve, (a, Ua, Uai) = _pair_solver_2x2(x, xmT)
        gk = solve(y)
        if not d:
            return np.zeros((P, 0, 0), dtype=complex)
        dg = solve(tuple(y - xg - gx for y, xg, gx in zip(dy, _mul(dx, gk), _mul(gk, dxmT))))
        terms = tuple(0.5 * g + xg for g, xg in zip(dg, _mul(_xcal_2x2(a, Ua, Uai, dx), gk))), dg
        sums = _trace_sum(*map(per_point, terms))
        if not np.isfinite(sums).all():
            _raise_first(~np.isfinite(terms).all(axis=(0, 1, 2)), NonConvergence,
                         lambda i: "steady-state summand is not finite")
    return sums
