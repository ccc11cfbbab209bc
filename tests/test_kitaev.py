import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeo.errors import CriticalKPoint, NhgeoError, OnCriticalLine, UndefinedAngle
from nhgeo.kitaev import (
    WEAK_KINDS,
    DissipativeKitaevModel,
    KitaevParams,
    _bloch_angle,
    dgamma_k_weak,
    dphi,
    gamma_k_weak,
    phi_k,
    weak_coupling_sums,
    zeta_kitaev_thermo,
)
from nhgeo.linalg import flagged_blocks
from nhgeo.liouville import gaussian_tensors

from conftest import (
    HALF_ZONE_LENGTHS,
    assert_matches_full_zone,
    full_weak_sums,
    maxdev,
    zone_outcomes,
)


def bz_average(f, L=2 ** 14):
    ks = 2 * np.pi * np.arange(L) / L
    return np.mean(f(ks))


class TestPhi:
    def test_chain_at_zero_field(self):
        ks = np.linspace(0.1, 3.0, 7)
        dh, dg = dphi(0.0, 1.0, ks)
        assert maxdev(dh, -np.sin(ks)) < 1e-14
        p = phi_k(0.0, 1.0, ks)
        assert maxdev(np.sin(p) ** 2, np.sin(ks) ** 2) < 1e-14

    def test_zero_pairing_outside(self):
        ks = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        assert np.abs(phi_k(1.5, 0.0, ks)).max() == 0.0
        z = weak_coupling_sums([KitaevParams(1.5, 0.0, 0.1, 1.0, 0.6, 16)], ["zeta"])["zeta"]
        assert np.abs(z).max() == 0.0

    def test_derivatives_vanish_at_k0(self):
        dh, dg = dphi(0.7, 0.9, 0.0)
        assert dh == 0.0 and dg == 0.0

    def test_undefined_angle(self):
        with pytest.raises(UndefinedAngle):
            phi_k(1.0, 0.5, 0.0)  # h - cos(0) = 0 and gamma*sin(0) = 0

    def test_undefined_angle_on_an_array(self):
        # an array of momenta that holds the gap closing k = 0 of h = 1 raises
        # as the scalar call does, instead of returning arctan2(0, 0) = 0
        p = KitaevParams(1.0, 1.0, 0.1, 1.0, 0.6, 8)
        with pytest.raises(UndefinedAngle) as want:
            phi_k(1.0, 1.0, 0.0)
        for ks in (p.k_grid, p.k_grid[:, None, None], p.k_grid[::-1], np.array([0.5, 0.0])):
            with pytest.raises(UndefinedAngle) as got:
                phi_k(1.0, 1.0, ks)
            assert str(got.value) == str(want.value)
        for f in (lambda k: gamma_k_weak(p, k), lambda k: dgamma_k_weak(p, k, 0)):
            for k in (0.0, p.k_grid[:, None, None]):
                with pytest.raises(UndefinedAngle):
                    f(k)
        # the grid check runs first: the weak-coupling sums raise CriticalKPoint
        with pytest.raises(CriticalKPoint):
            weak_coupling_sums([p], ["zeta", "bures"])


class TestZetaSum:
    def test_exact_trigonometric_point(self):
        par = KitaevParams(0.0, 1.0, 0.1, 1.0, 0.6, 64)
        z = weak_coupling_sums([par], ["zeta"])["zeta"][0]
        assert abs(z[0, 0] - 0.375 * par.Lambda ** 2 * 64) < 1e-12 * 64

    def test_balanced_bath_zero(self):
        z = weak_coupling_sums([KitaevParams(0.7, 0.9, 0.1, 0.8, 0.8, 32)], ["zeta"])["zeta"][0]
        assert np.abs(z).max() == 0.0

    def test_matches_thermodynamic(self):
        par = KitaevParams(0.6, 0.9, 0.1, 1.0, 0.6, 2048)
        z = weak_coupling_sums([par], ["zeta"])["zeta"][0] / par.L
        th = zeta_kitaev_thermo(0.6, 0.9, par.Lambda).values
        assert maxdev(z, th) < 0.005 * np.abs(th).max()

    def test_real_symmetric_psd(self, rng):
        for _ in range(5):
            h, g = rng.uniform(-1.8, 1.8), rng.uniform(0.2, 1.5)
            try:
                p = KitaevParams(h, g, 0.1, 1.0, 0.6, 128)
                z = weak_coupling_sums([p], ["zeta"])["zeta"][0]
            except CriticalKPoint:
                continue
            assert np.abs(z.imag).max() == 0.0
            assert maxdev(z, z.T) == 0.0
            assert np.linalg.eigvalsh(z.real).min() >= -1e-12

    def test_matches_matrix_machinery(self):
        par = KitaevParams(0.7, 0.9, 1e-3, 1.0, 0.6, 6)
        from nhgeo.liouville import zeta_ness_k

        model = DissipativeKitaevModel(1e-3, 1.0, 0.6)
        zk = zeta_ness_k(model, [0.7, 0.9], 6).values
        assert maxdev(zk, weak_coupling_sums([par], ["zeta"])["zeta"][0]) <= 1e-8 * max(
            1.0, np.abs(zk).max()
        )

    def test_critical_k_point(self):
        with pytest.raises(CriticalKPoint):
            weak_coupling_sums([KitaevParams(1.0, 0.9, 0.1, 1.0, 0.6, 16)], ["zeta"])  # D(k=0) = 0

    def test_lambda_factorization(self):
        z1 = weak_coupling_sums([KitaevParams(0.7, 0.9, 0.1, 1.0, 0.6, 32)], ["zeta"])["zeta"][0]
        par2 = KitaevParams(0.7, 0.9, 0.1, 1.3321, 0.6, 32)
        lam1 = KitaevParams(0.7, 0.9, 0.1, 1.0, 0.6, 32).Lambda
        z_scaled = z1 / lam1 ** 2 * par2.Lambda ** 2
        z2 = weak_coupling_sums([par2], ["zeta"])["zeta"][0]
        assert maxdev(z2, z_scaled) <= 1e-12 * np.abs(z2).max()


def weak_outcome(p, kinds):
    """The sums ``kinds`` at the one point ``p``, or the NhgeoError it raises."""
    try:
        return {kind: v[0] for kind, v in weak_coupling_sums([p], kinds).items()}
    except NhgeoError as exc:
        return exc


@st.composite
def weak_passes(draw, lengths=st.integers(1, 64)):
    """One to four points of one L.  The fields land on the gap closings
    h = +-1 (and, with gamma = 0, h = cos k at a grid momentum k, a gap
    closing at the mirrored pair +-k), or overflow D; a bath with mu_minus =
    0 makes the k = 0 block pure."""
    L = draw(lengths)
    points = []
    for _ in range(draw(st.integers(1, 4))):
        grid = st.integers(0, L - 1).map(lambda j: float(np.cos(2 * np.pi * j / L)))
        h = draw(st.sampled_from([-1.0, 0.0, 1.0, 1e160, -1e308]) | grid | st.floats(-3.0, 3.0))
        gamma = draw(st.sampled_from([0.0, 1.0, 1e200]) | st.floats(-2.0, 2.0))
        mu_minus = draw(st.sampled_from([0.0, 0.6]) | st.floats(0.0, 1.5))
        points.append(KitaevParams(h, gamma, 0.1, draw(st.floats(0.1, 1.5)), mu_minus, L))
    return points


class TestWeakCouplingPasses:
    @settings(max_examples=200, deadline=None)
    @given(points=weak_passes(),
           kinds=st.permutations(WEAK_KINDS).flatmap(
               lambda k: st.integers(1, 3).map(lambda n: k[:n])))
    def test_pass_gives_each_point_its_own_result(self, points, kinds):
        # in a pass the checks record the failing blocks instead of raising;
        # each point reads the error it gets alone from the record, and the
        # others get their one-point sums bit for bit
        with flagged_blocks() as flags:
            sums = weak_coupling_sums(points, kinds)
        for i, (p, exc) in enumerate(zip(points, flags.errors(len(points)))):
            alone = weak_outcome(p, kinds)
            if isinstance(alone, Exception):
                assert (type(exc), str(exc), exc.block) == (type(alone), str(alone), alone.block)
            else:
                assert exc is None
                for kind in kinds:
                    assert sums[kind][i].tobytes() == alone[kind].tobytes()
                    assert np.isfinite(alone[kind]).all()

    def test_first_failing_point_raises(self):
        # h = -1 closes the gap at k = pi, block 4 of L = 8; in a pass its
        # error carries p * (L // 2 + 1) + j, like every blockwise check
        good, bad = (KitaevParams(h, 0.9, 0.1, 1.0, 0.6, 8) for h in (0.5, -1.0))
        with pytest.raises(CriticalKPoint, match="at k = 3.14159") as info:
            weak_coupling_sums([bad], ["zeta"])
        assert info.value.block == 4
        with pytest.raises(CriticalKPoint) as info:
            weak_coupling_sums([good, bad], ["zeta"])
        assert info.value.block == 9

    def test_no_points_and_one_length(self):
        sums = weak_coupling_sums([], ["bures", "zeta"])
        assert list(sums) == ["bures", "zeta"]
        assert all(v.shape == (0, 2, 2) and v.dtype == complex for v in sums.values())
        with pytest.raises(NhgeoError, match="one chain length L"):
            weak_coupling_sums([KitaevParams(0.5, 1.0, 0.1, 1.0, 0.6, L) for L in (8, 16)],
                               ["zeta"])


class TestHalfZone:
    """weak_coupling_sums reads the momenta 2 pi j / L for j = 0..L // 2 only
    and sums Re w_j t_j (w_j = 1 at k = 0 and pi, else 2); the full-zone sum
    of the same summands (:func:`conftest.full_weak_sums`) is its oracle."""

    def test_bloch_angle_obeys_the_rule(self, rng):
        # d_mu phi is odd in k, and cos^2 phi and sin^2 phi are even: every
        # summand is even
        ks = rng.uniform(-4 * np.pi, 4 * np.pi, 64)
        for h, gamma in rng.uniform(-2.0, 2.0, (8, 2)):
            D, (dh, dg), c2, s2 = _bloch_angle(h, gamma, ks)
            Dm, (dhm, dgm), c2m, s2m = _bloch_angle(h, gamma, -ks)
            for odd, odd_m in ((dh, dhm), (dg, dgm)):
                assert maxdev(odd_m, -odd) <= 1e-14 * np.abs(odd).max()
            for even, even_m in ((D, Dm), (c2, c2m), (s2, s2m)):
                assert maxdev(even_m, even) <= 1e-14 * np.abs(even).max()

    @staticmethod
    def full_zone(points, kinds, how):
        """Each point's full-zone outcome, a gap closing reported at its lowest
        momentum: at gamma = 0 the gap closes at a mirrored pair +-k, and
        where rounding leaves the full zone's smallest D at the mirror L - j
        of the block j it reports that block and momentum."""
        L = points[0].L
        out = zone_outcomes(full_weak_sums, points, kinds, how)
        for p, exc in enumerate(out):
            if isinstance(exc, CriticalKPoint) and exc.block > L // 2:
                j = L - exc.block
                k = 2 * np.pi * j / L
                out[p] = CriticalKPoint(f"band gap closes on the grid at k = {k:.6g}", block=j)
        return out

    @settings(max_examples=300, deadline=None)
    @given(points=weak_passes(st.sampled_from(HALF_ZONE_LENGTHS)),
           kinds=st.permutations(WEAK_KINDS).flatmap(
               lambda k: st.integers(1, 3).map(lambda n: k[:n])))
    def test_matches_the_full_zone(self, points, kinds):
        assert_matches_full_zone(
            zone_outcomes(weak_coupling_sums, points, kinds),
            lambda how: self.full_zone(points, kinds, how))

    @pytest.mark.parametrize("L", HALF_ZONE_LENGTHS)
    def test_mirrored_gap_closings(self, L):
        # gamma = 0 and h = cos k at each grid momentum k = 2 pi j / L, |h| < 1:
        # the gap closes at j and at L - j, and the half zone reports the
        # lower, min(j, L - j), with its momentum
        for j in range(L):
            h = float(np.cos(2 * np.pi * j / L))
            if abs(h) == 1.0:
                continue
            point = KitaevParams(h, 0.0, 0.1, 1.0, 0.6, L)
            with pytest.raises(CriticalKPoint) as info:
                weak_coupling_sums([point], ["zeta"])
            lowest = min(j, L - j)
            assert info.value.block == lowest
            assert str(info.value) == (
                f"band gap closes on the grid at k = {2 * np.pi * lowest / L:.6g}")
            full, = zone_outcomes(full_weak_sums, [point], ["zeta"])
            assert type(full) is CriticalKPoint and full.block in (j, L - j)


class TestParams:
    @pytest.mark.parametrize("args, message", [
        ((0.5, np.inf, 0.1, 1, 0.6, 8), "gamma must be a finite number"),
        ((np.nan, 1.0, 0.1, 1, 0.6, 8), "h must be a finite number"),
        ((0.5, 1.0, np.nan, 1, 0.6, 8), "g must be a finite number"),
        ((0.5, 1.0, 0.1, np.inf, 0.6, 8), "mu_plus must be a finite number"),
        ((0.5, 1.0, 0.1, 1, np.nan, 8), "mu_minus must be a finite number"),
        ((0.5, 1.0, 0.1, 1, 0.6, 8.5), "L must be an integer >= 1"),
        ((0.5, 1.0, 0.1, 1, 0.6, False), "L must be an integer >= 1"),
    ])
    def test_rejected(self, args, message):
        # gamma = inf gave NaN weak-coupling tensors
        with pytest.raises(ValueError, match=message):
            KitaevParams(*args)

    def test_numpy_integer_length_accepted(self):
        got, want = (weak_coupling_sums([KitaevParams(0.5, 0.8, 0.1, 1, 0.6, L)], ["zeta"])
                     for L in (np.int64(8), 8))
        assert np.array_equal(got["zeta"], want["zeta"])

    @pytest.mark.parametrize("mu_minus", [0.0, 0.3, 0.6])
    def test_lambda_keeps_its_bits(self, mu_minus):
        # the scaled squares are exact: the unscaled form, bit for bit
        lam = KitaevParams(0.5, 1.0, 0.1, 1.0, mu_minus, 8).Lambda
        assert lam == (1.0 - mu_minus ** 2) / (1.0 + mu_minus ** 2)

    @pytest.mark.parametrize("mu_plus, mu_minus, expected", [
        (1e300, 0.6, 1.0), (0.6, 1e300, -1.0), (1e200, 1e200, 0.0), (3e200, 4e200, -7 / 25)])
    def test_lambda_of_huge_baths(self, mu_plus, mu_minus, expected):
        # mu^2 overflowed: OverflowError
        lam = KitaevParams(0.5, 1.0, 0.1, mu_plus, mu_minus, 8).Lambda
        assert abs(lam - expected) <= 1e-15

    @pytest.mark.parametrize("args", [(np.nan, 1.0, 0.5), (0.5, np.inf, 0.5), (2.0, 1.0, np.nan)])
    def test_nonfinite_thermo_point_rejected(self, args):
        with pytest.raises(ValueError, match="must be a finite number"):
            zeta_kitaev_thermo(*args)


class TestThermo:
    def test_zero_field_unit_pairing(self):
        lam = 0.5
        th = zeta_kitaev_thermo(0.0, 1.0, lam).values
        assert abs(th[0, 0] - 0.375 * lam ** 2) < 1e-15
        assert abs(th[1, 1] - lam ** 2 / 16) < 1e-15
        assert th[0, 1] == 0.0

    def test_outer_field_pinned_value(self):
        lam = 0.7
        th = zeta_kitaev_thermo(2.0, 1.0, lam).values
        assert abs(th[0, 0] - lam ** 2 / 128) < 1e-15

    def test_outer_field_all_components_vs_quadrature(self):
        # includes the gamma-gamma component, where the widely-quoted closed
        # form fails: the residue-derived expression matches the integral
        lam = 1.0
        for (h, g) in [(2.0, 0.5), (2.0, 1.0), (2.0, 1.5), (1.5, 0.4), (1.2, 2.0)]:
            th = zeta_kitaev_thermo(h, g, lam).values

            def shh(ks):
                D = (h - np.cos(ks)) ** 2 + g ** 2 * np.sin(ks) ** 2
                return (g * np.sin(ks)) ** 2 / D * (g * np.sin(ks) / D) ** 2

            def sgg(ks):
                D = (h - np.cos(ks)) ** 2 + g ** 2 * np.sin(ks) ** 2
                return (g * np.sin(ks)) ** 2 / D * (np.sin(ks) * (h - np.cos(ks)) / D) ** 2

            def sgh(ks):
                D = (h - np.cos(ks)) ** 2 + g ** 2 * np.sin(ks) ** 2
                return -(g * np.sin(ks)) ** 2 / D * g * np.sin(ks) ** 2 * (h - np.cos(ks)) / D ** 2

            assert abs(th[0, 0] - bz_average(shh)) < 1e-9
            assert abs(th[1, 1] - bz_average(sgg)) < 1e-9
            assert abs(th[0, 1] - bz_average(sgh)) < 1e-9

    def test_divergence_at_critical_field(self):
        vals = [zeta_kitaev_thermo(h, 1.0, 0.5).values[0, 0].real for h in (0.8, 0.9, 0.95)]
        assert vals[0] < vals[1] < vals[2]

    def test_critical_lines_rejected(self):
        with pytest.raises(OnCriticalLine):
            zeta_kitaev_thermo(1.0, 0.5, 0.5)
        with pytest.raises(OnCriticalLine):
            zeta_kitaev_thermo(0.5, 0.0, 0.5)


class TestZetaTilde:
    def test_small_imbalance_limit(self):
        # denominators tend to 1: the sum reduces to the bare angle response
        h_, g_ = 0.6, 0.9
        L = 64
        par = KitaevParams(h_, g_, 0.1, 1.0, 0.999, L)
        zt = weak_coupling_sums([par], ["zeta_limited"])["zeta_limited"][0] / par.Lambda ** 2
        ks = par.k_grid
        dh, dg = dphi(h_, g_, ks)
        bare = np.array(
            [[np.sum(dh * dh), np.sum(dg * dh)], [np.sum(dg * dh), np.sum(dg * dg)]]
        )
        assert maxdev(zt, bare) < 0.01 * np.abs(bare).max()

    def test_route_agreement_with_gaussian_form(self):
        par = KitaevParams(0.7, 0.9, 1e-4, 1.0, 0.6, 4)
        L = par.L
        dim = 2 * L
        ks = par.k_grid
        G = np.zeros((dim, dim), dtype=complex)
        dG = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
        for j in range(L):
            for r in range(L):
                ph = np.exp(1j * ks * (j - r))
                G[2 * j : 2 * j + 2, 2 * r : 2 * r + 2] = (
                    sum(p * gamma_k_weak(par, k) for p, k in zip(ph, ks)) / L
                )
                for mu in range(2):
                    dG[mu][2 * j : 2 * j + 2, 2 * r : 2 * r + 2] = (
                        sum(p * dgamma_k_weak(par, k, mu) for p, k in zip(ph, ks)) / L
                    )
        full = gaussian_tensors(G, dG, ["zeta_limited"])["zeta_limited"]
        assert maxdev(full, weak_coupling_sums([par], ["zeta_limited"])["zeta_limited"][0]) <= 1e-8

    def test_sandwich_bounds(self):
        par = KitaevParams(0.6, 0.8, 0.1, 1.0, 0.4, 128)
        lam2 = par.Lambda ** 2
        ks = par.k_grid
        dh, dg = dphi(par.h, par.gamma, ks)
        for comp, dd in ((0, dh), (1, dg)):
            unweighted = lam2 * np.sum(dd * dd)
            zt = weak_coupling_sums([par], ["zeta_limited"])["zeta_limited"][0, comp, comp].real
            assert unweighted / (1 + lam2) ** 2 - 1e-12 <= zt <= unweighted + 1e-12


class TestSingularSet:
    def test_maxima_on_critical_set(self):
        # local maxima of the field-field component sit on |h|=1 or gamma=0
        L = 1024
        hs = np.linspace(-1.6, 1.6, 64)
        gs = np.linspace(-1.2, 1.2, 64)
        vals = np.full((64, 64), np.nan)
        for i, h in enumerate(hs):
            for j, g in enumerate(gs):
                try:
                    z = weak_coupling_sums([KitaevParams(h, g, 0.1, 1.0, 0.6, L)], ["zeta"])["zeta"]
                    vals[i, j] = z[0, 0, 0].real / L
                except CriticalKPoint:
                    vals[i, j] = np.inf
        dh = hs[1] - hs[0]
        dg = gs[1] - gs[0]
        for i in range(1, 63):
            for j in range(1, 63):
                v = vals[i, j]
                if not np.isfinite(v):
                    continue
                window = vals[i - 1 : i + 2, j - 1 : j + 2]
                if v >= np.nanmax(window[np.isfinite(window)]) and v > 0.5:
                    near_field = min(abs(abs(hs[i]) - 1.0), 10) <= dh
                    near_gamma0 = abs(gs[j]) <= dg and abs(hs[i]) < 1.0
                    assert near_field or near_gamma0, (hs[i], gs[j], v)

    def test_finite_size_peak_growth(self):
        peaks = []
        for L in (256, 512, 1024, 2048):
            v = weak_coupling_sums([KitaevParams(1.0 - 1.0 / L, 1.0, 0.1, 1.0, 0.6, L)], ["zeta"])
            peaks.append(v["zeta"][0, 0, 0].real / L)
        assert peaks[0] < peaks[1] < peaks[2] < peaks[3]
