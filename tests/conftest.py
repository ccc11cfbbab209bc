import numpy as np
import pytest

from nhgeo.errors import CriticalKPoint
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


def ssh_eigenstates(params, k: float):
    """Closed-form right/left eigenstate pairs of the SSH Bloch matrix
    (:func:`nhgeo.ssh.bloch`), the reference of the eigensolvers.

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
