import json

import numpy as np
import pytest

import nhgeo.kitaev as kitaev_mod
import nhgeo.liouville as liouville_mod
import nhgeo.ssh as ssh_mod
from nhgeo.errors import CriticalKPoint, PureStateSingular
from nhgeo.linalg import _blocks, flagged_blocks, lowest_failing_block
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


def x_block(model, k, lam, mu=None) -> np.ndarray:
    """The 2x2 block x(k) of a ``TranslationInvariantModel``, or with a
    direction ``mu`` dx_mu(k), as the momentum read
    (:func:`nhgeo.liouville._read_xy`) forms it: ``(2, 2)`` at a scalar
    ``k``, ``(L, 2, 2)`` over a 1-D ``k``."""
    return _blocks(liouville_mod._read_xy(model, k, lam, mu)[0])


def y_block(model, k, lam, mu=None) -> np.ndarray:
    """y(k), or dy_mu(k), as :func:`x_block` gives x(k)."""
    return _blocks(liouville_mod._read_xy(model, k, lam, mu)[2])


def full_zone(L, read, summand, how="sum") -> dict:
    """The full-zone counterpart of :func:`nhgeo.linalg._zone_sums`, the oracle
    of its half-zone reduction: the same ``read`` and per-block ``summand`` at
    all L momenta ``2 pi j / L``, each kind as a ``(P, d, d)`` array summed
    with no weights and no real part: by ``how``, of the terms ``t_j``
    (``"sum"``), of their magnitudes (``"size"``), or of ``|t_j - conj
    t_{L-j}|`` (``"mirror"``), how far the terms of mirrored momenta are
    from conjugate in the rounding of their momenta.  A failure is that of
    the first failing point at its lowest failing block, with ``p * L + j``
    as ``exc.block``."""
    blocks = read(2 * np.pi * np.arange(L) / L)
    with lowest_failing_block():
        terms = summand(blocks)
    reduce = {"sum": lambda t: t, "size": abs,
              "mirror": lambda t: abs(t - t[..., -np.arange(L) % L].conj())}[how]
    return {kind: np.moveaxis(reduce(t).sum(axis=-1), -1, 0).astype(complex)
            for kind, t in terms.items()}


def on_the_full_zone(module, sums, *args, how="sum"):
    """``sums(*args)``, an engine of ``module``, with its zone-sum driver
    replaced by :func:`full_zone`: the engine's own read and summand, summed
    over the full zone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_zone_sums",
                   lambda L, read, summand: full_zone(L, read, summand, how))
        return sums(*args)


def full_zone_sums(model, lams, L) -> np.ndarray:
    """:func:`nhgeo.liouville.zeta_ness_k_sums` over the full zone, its oracle."""
    return on_the_full_zone(liouville_mod, liouville_mod.zeta_ness_k_sums, model, lams, L)


def full_band_sums(points, n, kinds, how="sum") -> dict:
    """:func:`nhgeo.ssh.band_sums` over the full zone, its oracle."""
    return on_the_full_zone(ssh_mod, ssh_mod.band_sums, points, n, kinds, how=how)


def full_weak_sums(points, kinds, how="sum") -> dict:
    """:func:`nhgeo.kitaev.weak_coupling_sums` over the full zone, its oracle."""
    return on_the_full_zone(kitaev_mod, kitaev_mod.weak_coupling_sums, points, kinds, how=how)


def half_zone_error(exc, L):
    """``(class, message, block)`` of the error that a half-zone sum over a
    pass of points raises where the full zone of length ``L`` raises
    ``exc``, at the flat block ``p * L + j``: block ``j`` of point ``p`` is
    ``p * (L // 2 + 1) + j`` in the half zone, which holds the lowest failing
    block of a point when a block and its mirror fail together."""
    p, j = divmod(exc.block, L)
    assert j <= L // 2, (exc, L)
    block = p * (L // 2 + 1) + j
    return type(exc), str(exc).replace(f"block {exc.block}:", f"block {block}:"), block


#: the chain lengths of the half-zone oracle tests: odd and even, k = pi on
#: the grid or not, down to the two-block zone
HALF_ZONE_LENGTHS = [2, 3, 4, 7, 8, 33, 64]


def zone_outcomes(sums, points, *args) -> list:
    """``sums(points, *args)`` in one pass: each point's sums per kind, or the
    error it raises alone, read from the pass's record."""
    with flagged_blocks() as flags:
        out = sums(points, *args)
    return [e or {kind: v[p] for kind, v in out.items()}
            for p, e in enumerate(flags.errors(len(points)))]


def assert_matches_full_zone(got, full) -> None:
    """Each point's half-zone outcome ``got`` against its full-zone outcome
    ``full("sum")`` (:func:`zone_outcomes`, with ``full(how)`` the outcomes of
    :func:`full_zone`): the same error class, message and block; else every
    kind with imaginary part exactly 0 and within 1e-13 of the largest
    component of the full-zone sums of the terms' magnitudes, ``full("size")``,
    plus the distance of the full zone's mirrored terms from conjugate,
    ``full("mirror")``, which is the full zone's own rounding.

    Where the terms do not cancel, the first bound is 1e-13 of the largest
    component of the sums; where they do, it is the scale of their rounding
    (the full-zone ``eta`` at t = delta = 8, L = 3 is 8.2e-4 from terms whose
    magnitudes sum to 0.19, and its own imaginary part is 5.6e-17).  The
    second is of the order of rounding but near a gap closing at a mirrored
    pair: at h = cos(2 pi / 3) and gamma = 0.002 (weak coupling, L = 3)
    ``h - cos k`` rounds to 0 at k = 2 pi / 3 and to 6.7e-16 at 4 pi / 3, and
    the full zone's gamma-h component, -1.2e-7, is that rounding amplified
    by 1 / gamma, 1.7e-13 of its largest component (the half zone's is 0).
    """
    want, sizes, mirrors = (full(how) for how in ("sum", "size", "mirror"))
    for g, w, size, mirror in zip(got, want, sizes, mirrors, strict=True):
        if isinstance(w, Exception) or isinstance(g, Exception):
            assert (type(g), str(g), getattr(g, "block", None)) == (type(w), str(w), w.block)
            continue
        assert list(g) == list(w)
        for kind in w:
            assert g[kind].dtype == complex and not g[kind].imag.any()
            bound = 1e-13 * np.abs(size[kind]).max() + np.abs(mirror[kind])
            assert (np.abs(g[kind] - w[kind]) <= bound).all(), kind
