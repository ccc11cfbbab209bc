"""Self-verification suite.

Every check cross-validates an implementation route against an independent
oracle: closed forms against brute-force dense constructions, stencil
derivatives against analytic matrix elements, momentum-space sums against
real-space solves.  The checks are deliberately mutation-sensitive: a sign
flip in any structure matrix breaks at least one route agreement.

``run(level)`` executes the registered checks ("quick" skips the larger
brute-force systems and sweep scans); the acceptance test module asserts the
same functions one by one, so the command line ``verify`` and the test suite
cannot drift apart.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NhgeoError
from .kitaev import (
    WEAK_KINDS,
    DissipativeKitaevModel,
    KitaevParams,
    dgamma_k_weak,
    gamma_k_weak,
    weak_coupling_tensors,
    zeta_kitaev_sum,
    zeta_kitaev_thermo,
)
from .liouville import (
    LiouvillianFamily,
    build_liouvillian,
    gamma_k,
    gaussian_tensors,
    ness_tensors,
    real_space_family,
    steady_state_dgamma,
    steady_state_gamma,
    zeta_ness,
    zeta_ness_k,
    zeta_tilde_ness_from_gamma,
)
from .oracle import (
    build_fock,
    build_superop,
    ness_from_kernel,
    ness_state_index,
    quadratic_superop,
    superop_family,
    third_quant_superops,
)
from .ssh import (
    _DIRECTIONS,
    SSHParams,
    _bloch,
    band_sums,
    bloch_family,
    bloch_sum,
    zeta_finite_sum,
    zeta_summand,
    zeta_thermodynamic,
)
from .tensors import (
    SOS_KINDS,
    STATE_KINDS,
    OperatorFamily,
    central_difference,
    chi_hermitian,
    stencil_tensors,
    sum_over_blocks,
    sum_over_states,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def random_family(rng, N=6, d=2, gap=4.0, coupling=1.0, *, hermitian=False):
    """Well-gapped diagonalizable family, linear in d parameters (analytic
    derivatives); non-Hermitian, or Hermitian with ``hermitian``."""
    def draw(scale):
        B = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        return scale * (B + B.conj().T) / 2 if hermitian else scale * B

    A0 = draw(1.0) + np.diag(gap * np.arange(N))
    parts = [draw(coupling) for _ in range(d)]
    return OperatorFamily(
        N, d,
        lambda lam: A0 + sum(lam[m] * parts[m] for m in range(d)),
        lambda mu, lam: parts[mu],
        name="random-hermitian" if hermitian else "random-nonhermitian",
    )


def random_hermitian_family(rng, N=8, d=2, gap=4.0, coupling=1.0):
    """Well-gapped Hermitian family: :func:`random_family` with ``hermitian``."""
    return random_family(rng, N, d, gap, coupling, hermitian=True)


def random_gauge(rng, N, lam0, scale=0.1):
    """Smooth random gauge function: per-state linear + quadratic in lambda."""
    lam0 = np.asarray(lam0, dtype=float)
    a = scale * (rng.normal(size=(N, lam0.size)) + 1j * rng.normal(size=(N, lam0.size)))
    b = scale * (rng.normal(size=(N, lam0.size)) + 1j * rng.normal(size=(N, lam0.size)))

    def gauge(lam):
        dl = np.asarray(lam, dtype=float) - lam0
        return a @ dl + b @ (dl * dl)

    return gauge


def random_hmat(rng, n):
    B = rng.normal(size=(2 * n, 2 * n))
    return 1j * (B - B.T)


def random_bath(rng, n, k=2):
    return [rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n) for _ in range(k)]


def random_liouvillian_family(rng, n=2, d=2):
    """Quadratic family: H linear in lambda, bath fixed."""
    H0 = random_hmat(rng, n)
    parts = [random_hmat(rng, n) for _ in range(d)]
    baths = random_bath(rng, n)

    def make(lam):
        return build_liouvillian(n, H0 + sum(lam[m] * parts[m] for m in range(d)), baths)

    def dxy(mu, lam):  # X = 4i H + 2 Re M and Y = -4i Im M, the bath fixed
        return 4j * parts[mu], np.zeros_like(parts[mu])

    fam = LiouvillianFamily(n, d, make, dxy, name="random-quadratic")
    return fam, baths


def kitaev_bath_vectors(n, g, mu_plus, mu_minus):
    """Per-site gain/loss jump vectors in the site-major Majorana ordering."""
    vs = []
    for j in range(n):
        lp = np.zeros(2 * n, dtype=complex)
        lm = np.zeros(2 * n, dtype=complex)
        lp[2 * j] = g * mu_plus / 2.0
        lp[2 * j + 1] = 1j * g * mu_plus / 2.0
        lm[2 * j] = g * mu_minus / 2.0
        lm[2 * j + 1] = -1j * g * mu_minus / 2.0
        vs.extend([lp, lm])
    return vs


def brute_ness_rho(fock, famL, baths, lam):
    sup = build_superop(fock, famL(lam).H_mat, baths)
    rho, corr = ness_from_kernel(fock, sup)
    return rho, corr


# ---------------------------------------------------------------------------
# acceptance checks
# ---------------------------------------------------------------------------

def check_hermitian_collapse(full: bool = True):
    """eta, zeta and the limited tensor all collapse to the Hermitian tensor."""
    rng = np.random.default_rng(101)
    worst = 0.0
    n_fams = 20 if full else 6
    for _ in range(n_fams):
        fam = random_hermitian_family(rng)
        lam = rng.uniform(-0.1, 0.1, size=2)
        chi = chi_hermitian(fam, lam, 0).values
        for T in stencil_tensors(fam, lam, 0, ["eta", "zeta", "zeta_limited"]).values():
            worst = max(worst, float(np.abs(T.values - chi).max()))
    return worst <= 1e-9, f"max elementwise deviation from hermitian tensor {worst:.2e}"


def check_gauge_invariance(full: bool = True):
    """eta, zeta, limited tensor unchanged under random gauge functions."""
    rng = np.random.default_rng(202)
    worst = 0.0
    n_fams, n_gauges = (20, 20) if full else (5, 5)
    for _ in range(n_fams):
        fam = random_family(rng)
        lam = rng.uniform(-0.1, 0.1, size=2)
        kinds = ["eta", "zeta", "zeta_limited"]
        base = stencil_tensors(fam, lam, 2, kinds)
        for _ in range(n_gauges):
            gauge = random_gauge(rng, fam.dim, lam)
            for kind, T in stencil_tensors(fam, lam, 2, kinds, gauge=gauge).items():
                ref = base[kind].values
                worst = max(worst, float(np.abs(T.values - ref).max() / np.abs(ref).max()))
    return worst <= 1e-9, f"max relative gauge change {worst:.2e}"


def check_zeta_routes(full: bool = True):
    """Projector, generator and overlap routes agree, and every sum-over-states
    kind agrees with the stencil."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50 if full else 10):
        fam = random_family(rng)
        lam = rng.uniform(-0.1, 0.1, size=2)
        n = int(rng.integers(0, fam.dim))
        sos = sum_over_states(fam, lam, n, SOS_KINDS)
        stencil = stencil_tensors(fam, lam, n, SOS_KINDS)
        z_pr = stencil_tensors(fam, lam, n, ["zeta"], route="projector")["zeta"].values
        pairs = [(stencil[k].values, sos[k].values) for k in SOS_KINDS]
        pairs += [(stencil["zeta"].values, z_pr), (z_pr, sos["zeta"].values)]
        for ref, T in pairs:
            worst = max(worst, float(np.abs(T - ref).max() / max(np.abs(ref).max(), 1e-12)))
    return worst <= 1e-8, f"max relative route disagreement {worst:.2e}"


def check_nh_ssh(full: bool = True):
    """Per-block tensors vs closed-form summands, exact symmetric point,
    thermodynamic limits, the rescaled limited tensor identity, the stacked
    k-grid sums vs per-block stencil sums, and the closed-form band sums vs
    the eigensolver's on the same Bloch blocks."""
    rng = np.random.default_rng(404)
    msgs = []
    ok = True

    # (a) generic engine per momentum block vs closed-form summand
    worst = 0.0
    for _ in range(100 if full else 20):
        t = rng.uniform(0.0, 2.0)
        delta = rng.uniform(-1.0, 1.0)
        k = rng.uniform(0.05, np.pi - 0.05)
        if min(abs(abs(t - delta) - 1), abs(abs(t + delta) - 1)) < 0.05:
            continue
        p = SSHParams(t, delta, 4)
        zp, zm = (stencil_tensors(bloch_family(p, q), [t, delta], 0, ["zeta"])["zeta"].values
                  for q in (k, -k))
        s = zeta_summand(t, delta, k)
        worst = max(worst, float(np.abs((zp + zm) / 2 - s).max()))
        worst = max(worst, float(np.abs(np.diag(zp).real - np.diag(s)).max()))
    ok &= worst <= 1e-8
    msgs.append(f"per-block vs summand {worst:.2e}")

    # (b) exact symmetric point
    zs = zeta_finite_sum(SSHParams(0.0, 0.0, 64)).values
    dev_b = float(
        max(abs(zs[0, 0] - 8.0), abs(zs[1, 1] - 8.0), abs(zs[0, 1]), abs(zs[1, 0]))
    )
    ok &= dev_b <= 1e-12
    msgs.append(f"symmetric point {dev_b:.2e}")

    # (c) large-L sums vs thermodynamic forms, one interior point per phase
    L = 4096 if full else 1024
    worst_c = 0.0
    for (t, d) in [(0.3, 0.2), (2.0, 0.5), (0.9, 0.5), (0.9, -0.5)]:
        fs = zeta_finite_sum(SSHParams(t, d, L)).values / L
        th = zeta_thermodynamic(t, d).values
        worst_c = max(worst_c, float(np.abs(fs - th).max() / np.abs(th).max()))
    ok &= worst_c <= 0.005
    msgs.append(f"thermodynamic rel {worst_c:.2e}")

    # (d) rescaled limited tensor equals zeta per block
    worst_d = 0.0
    k = 0.73
    tgrid = np.linspace(0.05, 1.85, 10)
    dgrid = np.linspace(-0.85, 0.85, 10) + 0.013
    for t in tgrid:
        for d in dgrid:
            if min(abs(abs(t - d) - 1), abs(abs(t + d) - 1)) < 0.04:
                continue
            fam = bloch_family(SSHParams(t, d, 4), k)
            st = stencil_tensors(fam, [t, d], 0, ["zeta", "zeta_limited_rescaled"])
            dev = st["zeta"].values - st["zeta_limited_rescaled"].values
            worst_d = max(worst_d, float(np.abs(dev).max()))
    ok &= worst_d <= 1e-9
    msgs.append(f"rescaled limited vs zeta {worst_d:.2e}")

    # (e) stacked k-grid sums vs per-block stencil sums, both bands
    def rel(T, ref):
        return float(np.abs(T - ref).max() / np.abs(ref).max())

    worst_e = 0.0
    points = [SSHParams(t, d, L) for (t, d, L) in [(0.3, 0.2, 8), (0.9, 0.5, 5), (2.0, -0.5, 16)]
              + ([(1.2, 0.7, 64), (0.05, -0.9, 2)] if full else [])]
    for p in points:
        for n in (0, 1):
            per_k = [stencil_tensors(bloch_family(p, k), [p.t, p.delta], n, STATE_KINDS)
                     for k in p.k_grid]
            for kind, T in bloch_sum(p, n, STATE_KINDS).items():
                worst_e = max(worst_e, rel(T.values, sum(st[kind].values for st in per_k)))
    ok &= worst_e <= 1e-6
    msgs.append(f"stacked vs stencil sums rel {worst_e:.2e}")

    # (f) closed-form band sums vs the eigensolver route on the same Bloch stack
    worst_f = 0.0
    for p in points:
        K = _bloch(p.t, p.delta, p.k_grid)
        for n in (0, 1):
            ref = sum_over_blocks(K, _DIRECTIONS, n, STATE_KINDS)
            for kind, v in band_sums([p], n, STATE_KINDS).items():
                worst_f = max(worst_f, rel(v[0], ref[kind]))
    ok &= worst_f <= 1e-12
    msgs.append(f"closed-form vs eigensolved sums rel {worst_f:.2e}")
    return bool(ok), "; ".join(msgs)


def check_third_quantization(full: bool = True):
    """Ladder superoperator anticommutation relations and the quadratic-form
    reconstruction of the dense generator."""
    rng = np.random.default_rng(505)
    sizes = (1, 2, 3) if full else (1, 2)
    worst_car, worst_rec = 0.0, 0.0
    for n in sizes:
        fock = build_fock(n)
        a, ad = third_quant_superops(fock)
        D = fock.dim ** 2
        eye = np.eye(D)
        for i in range(2 * n):
            for j in range(2 * n):
                car1 = ad[i] @ a[j] + a[j] @ ad[i] - (i == j) * eye
                car2 = a[i] @ a[j] + a[j] @ a[i]
                worst_car = max(worst_car, float(np.abs(car1).max()), float(np.abs(car2).max()))
        for _ in range(20 if full else 5):
            baths = random_bath(rng, n)
            liou = build_liouvillian(n, random_hmat(rng, n), baths)
            direct = build_superop(fock, liou.H_mat, baths)
            quad = quadratic_superop(fock, liou.X, liou.Y)
            worst_rec = max(worst_rec, float(np.abs(direct - quad).max()))
    ok = worst_car <= 1e-12 and worst_rec <= 1e-10
    return ok, f"CAR {worst_car:.2e}; quadratic-form reconstruction {worst_rec:.2e}"


def check_steady_state(full: bool = True):
    """Sylvester steady-state correlations vs kernel extraction."""
    rng = np.random.default_rng(606)
    msgs = []
    ok = True

    # single mode analytic
    n = 1
    g, mup, mum = 1.0, 0.9, 0.5
    baths = kitaev_bath_vectors(n, g, mup, mum)
    liou = build_liouvillian(n, np.zeros((2, 2), dtype=complex), baths)
    G = steady_state_gamma(liou).Gamma
    lam_exp = (mup ** 2 - mum ** 2) / (mup ** 2 + mum ** 2)
    dev = float(abs(G[0, 1] - 1j * lam_exp))
    ok &= dev <= 1e-12
    msgs.append(f"single-mode G12 {dev:.2e}")

    # random n=2 models
    worst = 0.0
    fock2 = build_fock(2)
    for _ in range(10 if full else 3):
        baths = random_bath(rng, 2)
        liou = build_liouvillian(2, random_hmat(rng, 2), baths)
        sup = build_superop(fock2, liou.H_mat, baths)
        _, corr = ness_from_kernel(fock2, sup)
        G = steady_state_gamma(liou).Gamma
        worst = max(worst, float(np.abs(G - corr.Gamma).max()))
        worst = max(worst, steady_state_gamma(liou).physicality_defect())
    ok &= worst <= 1e-8
    msgs.append(f"random n=2 {worst:.2e}")

    # dissipative pairing chain at n=3
    if full:
        model = DissipativeKitaevModel(0.1, 1.0, 0.6)
        famL = real_space_family(model, 3)
        liou3 = famL([0.7, 0.9])
        baths3 = kitaev_bath_vectors(3, 0.1, 1.0, 0.6)
        fock3 = build_fock(3)
        sup3 = build_superop(fock3, liou3.H_mat, baths3)
        _, corr3 = ness_from_kernel(fock3, sup3)
        dev3 = float(np.abs(steady_state_gamma(liou3).Gamma - corr3.Gamma).max())
        ok &= dev3 <= 1e-8
        msgs.append(f"n=3 chain {dev3:.2e}")
    return bool(ok), "; ".join(msgs)


def check_zeta_ness_triple(full: bool = True):
    """Real-space, momentum-space and dense-generator routes agree; the
    momentum route sums the half zone, of an even L = 2 and an odd L = 3."""
    model = DissipativeKitaevModel(0.4, 1.0, 0.6)
    worst = 0.0
    pts = [(0.3, 0.8), (0.7, 1.1), (1.3, 0.6), (1.9, 1.4), (0.5, 0.9)]
    sizes = [2, 3] if full else [2]
    for L in sizes:
        fock = build_fock(L)
        famL = real_space_family(model, L)
        sfam = superop_family(fock, famL)
        for (h, gam) in pts if L == 2 else pts[:3]:
            lam = np.array([h, gam])
            zrs = zeta_ness(famL, lam).values
            zks = zeta_ness_k(model, lam, L).values
            nidx = ness_state_index(sfam, lam)
            zsup = sum_over_states(sfam, lam, nidx, ["zeta"], mu_reg=1e-7)["zeta"].values
            scale = max(1.0, np.abs(zrs).max())
            worst = max(
                worst,
                float(np.abs(zrs - zks).max() / scale),
                float(np.abs(zrs - zsup).max() / scale),
                float(np.abs(zrs.imag).max()),
            )
    return worst <= 1e-6, f"max route disagreement {worst:.2e} (L in {sizes})"


def check_kitaev_closed_forms(full: bool = True):
    """Momentum sums vs thermodynamic closed forms for the dissipative chain."""
    msgs = []
    ok = True
    # (a) exact trigonometric point
    par = KitaevParams(0.0, 1.0, 0.1, 1.0, 0.6, 64)
    z = zeta_kitaev_sum(par).values
    expect = (3.0 / 8.0) * par.Lambda ** 2 * par.L
    dev_a = float(abs(z[0, 0] - expect) / expect)
    ok &= dev_a <= 1e-12
    msgs.append(f"exact sum point {dev_a:.2e}")

    # (b) large-L sums vs closed forms
    L = 2048 if full else 512
    worst_b = 0.0
    for (h, g) in [(0.0, 1.0), (0.5, 0.7), (2.0, 1.0)]:
        par = KitaevParams(h, g, 0.1, 1.0, 0.6, L)
        zs = zeta_kitaev_sum(par).values / L
        th = zeta_kitaev_thermo(h, g, par.Lambda).values
        worst_b = max(worst_b, float(np.abs(zs - th).max() / np.abs(th).max()))
        if (h, g) == (2.0, 1.0):
            pinned = par.Lambda ** 2 / 128.0
            worst_b = max(worst_b, float(abs(th[0, 0].real - pinned) / pinned))
    ok &= worst_b <= 0.005
    msgs.append(f"thermodynamic rel {worst_b:.2e}")

    # (c) cross component vanishes inside the gapped region
    worst_c = 0.0
    for (h, g) in [(0.5, 0.7), (0.3, 1.2)]:
        par = KitaevParams(h, g, 0.1, 1.0, 0.6, L)
        worst_c = max(worst_c, float(abs(zeta_kitaev_sum(par).values[0, 1])))
    ok &= worst_c <= 1e-10
    msgs.append(f"cross component |h|<1 {worst_c:.2e}")
    return bool(ok), "; ".join(msgs)


def check_weak_coupling(full: bool = True):
    """Momentum-block correlation converges to the weak-coupling form as g^2,
    over the whole zone of an L = 16 chain; the weak-coupling sums equal the
    k-sums over the blocks :func:`gamma_k_weak`, :func:`dgamma_k_weak` of
    :func:`gaussian_tensors` and, for ``zeta``, of ``(1 - Tr(G^2) / (2
    Lambda^2)) Tr(dG_mu dG_nu) / 2`` (its weight ``sin^2 phi``)."""
    lam = [0.5, 0.8]
    par = KitaevParams(0.5, 0.8, 1e-3, 1.0, 0.6, 16)
    gw = gamma_k_weak(par, par.k_grid[:, None, None])
    gs = [1e-2, 1e-3, 1e-4]
    devs = []
    for g in gs:
        model = DissipativeKitaevModel(g, 1.0, 0.6)
        devs.append(float(np.abs(gamma_k(model, par.k_grid, lam) - gw).max()))
    slopes = np.diff(np.log(devs)) / np.diff(np.log(gs))
    worst = 0.0  # at |h| < 1 and > 1, Lambda > 0 and < 0
    for h, gam, mu_minus in ((0.5, 0.8, 0.6), (1.7, 0.6, 0.6), (-1.3, 1.2, 1.5)):
        p = KitaevParams(h, gam, 1e-3, 1.0, mu_minus, 16)
        got, ref = weak_coupling_tensors(p, WEAK_KINDS), dict.fromkeys(WEAK_KINDS, 0.0)
        for k in p.k_grid:
            G, dG = gamma_k_weak(p, k), [dgamma_k_weak(p, k, mu) for mu in range(2)]
            forms = gaussian_tensors(G, dG, ["zeta_limited", "bures"])
            forms["zeta"] = (1 - np.trace(G @ G).real / (2 * p.Lambda ** 2)) * np.array(
                [[np.trace(a @ b).real / 2 for b in dG] for a in dG])
            ref = {kind: ref[kind] + forms[kind] for kind in WEAK_KINDS}
        worst = max(worst, *(float(np.abs(got[k] - ref[k]).max() / np.abs(ref[k]).max())
                             for k in WEAK_KINDS))
    ok = bool(np.all(np.abs(slopes - 2.0) <= 0.2)) and worst <= 1e-12
    return ok, (f"deviations {[f'{d:.3e}' for d in devs]}, slopes {np.round(slopes, 3).tolist()}; "
                f"Bloch-angle sums vs block forms rel {worst:.2e}")


def _scan(tensor_at, grid) -> np.ndarray:
    """The real (0, 0) component of ``tensor_at(x)`` at each grid point ``x``;
    NaN where it raises NhgeoError (a gap closing on the k-grid raises
    CriticalKPoint)."""
    vals = np.full(len(grid), np.nan)
    for i, x in enumerate(grid):
        try:
            vals[i] = tensor_at(x).values[0, 0].real
        except NhgeoError:
            pass
    return vals


def check_criticality_detection(full: bool = True):
    """Sweep maxima sit on the phase boundaries; peaks scale with system size."""
    msgs = []
    ok = True
    L = 1024 if full else 256
    npts = 201

    # pairing chain: argmax of the field-field component near h = 1
    hgrid = np.linspace(0.0, 2.0, npts)
    vals = _scan(lambda h: zeta_kitaev_sum(KitaevParams(h, 1.0, 0.1, 1.0, 0.6, L)), hgrid)
    imax = int(np.nanargmax(vals))
    step = hgrid[1] - hgrid[0]
    ok &= abs(hgrid[imax] - 1.0) <= step + 1e-12
    msgs.append(f"chain argmax at h={hgrid[imax]:.3f}")

    # asymmetric-hopping chain: peaks near both |t +- delta| = 1 lines
    tgrid = np.linspace(0.0, 2.0, npts)
    vals = _scan(lambda t: zeta_finite_sum(SSHParams(t, 0.5, L)), tgrid)
    for tc in (0.5, 1.5):
        window = (tgrid > tc - 0.25) & (tgrid < tc + 0.25)
        sub = np.where(window)[0]
        iw = sub[int(np.nanargmax(vals[sub]))]
        ok &= abs(tgrid[iw] - tc) <= step + 1e-12
        msgs.append(f"hopping argmax near {tc}: t={tgrid[iw]:.3f}")

    # finite-size scaling: peak of zeta/L grows when the grid refines with L
    sizes = (256, 512, 1024) if full else (128, 256, 512)
    peaks = []
    for Ls in sizes:
        tg = 1.5 + np.arange(-16, 17) * (2.56 / Ls)
        peaks.append(np.nanmax(_scan(lambda t: zeta_finite_sum(SSHParams(t, 0.5, Ls)), tg)) / Ls)
    ok &= peaks[0] < peaks[1] < peaks[2]
    msgs.append(f"scaled peaks {[f'{p:.3f}' for p in peaks]}")
    return bool(ok), "; ".join(msgs)


def check_eta_ness(full: bool = True):
    """Left-right tensor vanishes on steady states of dense generators."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for n in ((1, 2) if full else (1,)):
        fam, _ = random_liouvillian_family(rng, n=n)
        sfam = superop_family(build_fock(n), fam)
        lam = np.array([0.11, -0.17])
        nidx = ness_state_index(sfam, lam)
        eta = stencil_tensors(sfam, lam, nidx, ["eta"])["eta"].values
        worst = max(worst, float(np.abs(eta).max()))
    return worst <= 1e-9, f"max |eta| on steady states {worst:.2e}"


def check_gaussian_forms(full: bool = True):
    """Correlation-matrix closed forms vs brute-force density-matrix values."""
    rng = np.random.default_rng(808)
    fock = build_fock(2)
    worst_bures, worst_zt, worst_zt_printed = 0.0, 0.0, 0.0
    npts = 10 if full else 3
    for _ in range(npts):
        fam, baths = random_liouvillian_family(rng, n=2)
        lam = rng.uniform(-0.3, 0.3, size=2)
        G, dG = steady_state_dgamma(fam, lam)

        rho, corr = brute_ness_rho(fock, fam, baths, lam)

        def rho_gamma_at(l):  # rho and Gamma are both 4x4 at n = 2: one solve gives both
            rho_l, corr_l = brute_ness_rho(fock, fam, baths, l)
            return np.stack([rho_l, corr_l.Gamma])

        drho, dG_brute = zip(*(central_difference(rho_gamma_at, lam, mu, h=1e-5)
                               for mu in range(2)))

        # density-matrix side: symmetric logarithmic derivative kernels
        p, V = np.linalg.eigh(rho)
        def sld(dr):
            m = V.conj().T @ dr @ V
            return V @ (m / (p[:, None] + p[None, :])) @ V.conj().T

        Gs = [sld(d) for d in drho]
        D = fock.dim
        forms = {kind: t.values.real
                 for kind, t in ness_tensors(fam, lam, ["bures", "zeta_limited"]).items()}
        printed = gaussian_tensors(corr.Gamma, dG_brute, ["zeta_limited"])["zeta_limited"]
        for mu in range(2):
            for nu in range(2):
                b_rho = 0.5 * np.trace(rho @ (Gs[mu] @ Gs[nu] + Gs[nu] @ Gs[mu])).real
                worst_bures = max(worst_bures, abs(b_rho - forms["bures"][mu, nu]))
                zt_rho = float(D * np.trace(drho[mu] @ drho[nu]).real)
                zt_gam = zeta_tilde_ness_from_gamma(G, dG[mu], dG[nu])
                worst_zt = max(worst_zt, abs(zt_rho - zt_gam))
                # printed closed form: route consistency sylvester vs kernel inputs
                zp = forms["zeta_limited"][mu, nu] - printed[mu, nu]
                worst_zt_printed = max(worst_zt_printed, abs(zp))
    ok = worst_bures <= 1e-8 and worst_zt <= 1e-8 and worst_zt_printed <= 1e-8
    return bool(ok), (
        f"bures {worst_bures:.2e}; purity-weighted exact form {worst_zt:.2e}; "
        f"printed form route consistency {worst_zt_printed:.2e}"
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


CHECKS: list[tuple[str, Callable]] = [
    ("hermitian-collapse", check_hermitian_collapse),
    ("gauge-invariance", check_gauge_invariance),
    ("zeta-route-equivalence", check_zeta_routes),
    ("nh-ssh", check_nh_ssh),
    ("third-quantization", check_third_quantization),
    ("steady-state", check_steady_state),
    ("zeta-ness-triple", check_zeta_ness_triple),
    ("kitaev-closed-forms", check_kitaev_closed_forms),
    ("weak-coupling", check_weak_coupling),
    ("criticality-detection", check_criticality_detection),
    ("eta-ness", check_eta_ness),
    ("gaussian-forms", check_gaussian_forms),
]


def run(level: str = "quick", names=None) -> list[CheckResult]:
    """Run the verification checks at the given level ('quick' or 'full')."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    full = level == "full"
    results = []
    for name, func in CHECKS:
        if names is not None and name not in names:
            continue
        t0 = time.time()
        try:
            ok, detail = func(full=full)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), detail, time.time() - t0))
    return results
