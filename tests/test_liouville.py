import numpy as np
import pytest

import nhgeo.linalg as linalg_mod
import nhgeo.liouville as liouville_mod
from nhgeo.errors import (
    BadBath,
    BadHamiltonian,
    DegenerateRapidities,
    NonUniqueSteadyState,
    PureStateSingular,
    ShapeMismatch,
    SingularPencil,
)
from nhgeo.kitaev import DissipativeKitaevModel, KitaevParams, gamma_k_weak
from nhgeo.liouville import (
    LiouvillianFamily,
    TranslationInvariantModel,
    agp_quadratic,
    assemble_real_space,
    build_liouvillian,
    bures_metric,
    gamma_k,
    kspace_blocks,
    log_derivative,
    rapidities,
    real_space_family,
    steady_state_gamma,
    zeta_ness,
    zeta_ness_k,
    zeta_tilde_gaussian,
)
from nhgeo.linalg import eig_general, solve_sylvester, solve_sylvester_pair
from nhgeo.verify import kitaev_bath_vectors, random_bath, random_hmat, random_liouvillian_family

from conftest import maxdev

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
S0 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


class SymmetricBathModel(TranslationInvariantModel):
    """No parameters, k-independent bath: y(k) vanishes."""

    def h_block(self, k, lam):
        return 0.5 * np.sin(k) * SX

    def m_block(self, k, lam):
        return 0.7 * S0


class ZeroRhsModel(TranslationInvariantModel):
    """No parameters, k-independent bath: Gamma(k) vanishes."""

    def h_block(self, k, lam):
        return 0.5 * (1.2 - np.cos(k)) * SY

    def m_block(self, k, lam):
        return 0.3 * S0


class DrivenBathModel(TranslationInvariantModel):
    """Two parameters, a k-dependent bath and no analytic derivatives, so
    dx/dy fall back to central differences.  The Hermitian part of x(k) is
    at least 0.8, which keeps the steady state unique."""

    num_params = 2

    def h_block(self, k, lam):
        t, d = lam
        return 0.5 * t * np.sin(k) * SX + 0.5 * (d - np.cos(k)) * SY

    def m_block(self, k, lam):
        t, d = lam
        return 0.6 * S0 + 0.2 * np.cos(k) * SX + 0.25 * d * SY


BLOCK_MODELS = [
    (DissipativeKitaevModel(0.3, 1.0, 0.6), [0.7, 0.9]),
    (SymmetricBathModel(), []),
    (ZeroRhsModel(), []),
    (DrivenBathModel(), [0.8, 0.4]),
]


def single_mode_baths(g, mup, mum):
    return kitaev_bath_vectors(1, g, mup, mum)


class TestBuildLiouvillian:
    def test_single_mode_worked_example(self):
        g, mup, mum = 0.7, 1.1, 0.4
        liou = build_liouvillian(1, np.zeros((2, 2)), single_mode_baths(g, mup, mum))
        x_expected = g * g * (mup ** 2 + mum ** 2) / 2 * np.eye(2)
        y_expected = 1j * g * g * (mup ** 2 - mum ** 2) * J
        assert maxdev(liou.X, x_expected) < 1e-14
        assert maxdev(liou.Y, y_expected) < 1e-14

    def test_no_bath_gives_unitary_structure(self, rng):
        H = random_hmat(rng, 2)
        liou = build_liouvillian(2, H, M=np.zeros((4, 4)))
        assert np.abs(liou.Y).max() == 0.0
        assert maxdev(liou.X, 4j * H) == 0.0

    def test_structure_random(self, rng):
        liou = build_liouvillian(3, random_hmat(rng, 3), random_bath(rng, 3))
        assert np.abs(liou.X.imag).max() < 1e-12 * np.abs(liou.X).max()
        assert maxdev(liou.Y, -liou.Y.T) < 1e-12 * max(1.0, np.abs(liou.Y).max())
        assert maxdev(liou.Y, liou.Y.conj().T) < 1e-12 * max(1.0, np.abs(liou.Y).max())

    def test_bad_hamiltonian(self, rng):
        with pytest.raises(BadHamiltonian):
            build_liouvillian(1, np.eye(2), M=np.zeros((2, 2)))

    def test_bad_bath(self, rng):
        H = random_hmat(rng, 1)
        with pytest.raises(BadBath):
            build_liouvillian(1, H, M=-np.eye(2))


class TestSteadyState:
    def test_single_mode_correlation(self):
        g, mup, mum = 0.5, 1.0, 0.6
        liou = build_liouvillian(1, np.zeros((2, 2)), single_mode_baths(g, mup, mum))
        lam = (mup ** 2 - mum ** 2) / (mup ** 2 + mum ** 2)
        G = steady_state_gamma(liou).Gamma
        assert abs(G[0, 1] - 1j * lam) < 1e-12

    def test_balanced_bath_maximally_mixed(self):
        liou = build_liouvillian(1, np.zeros((2, 2)), single_mode_baths(0.5, 0.8, 0.8))
        assert np.abs(steady_state_gamma(liou).Gamma).max() < 1e-14

    def test_non_unique_rejected(self):
        liou = build_liouvillian(1, np.zeros((2, 2)), M=np.zeros((2, 2)))
        with pytest.raises(NonUniqueSteadyState):
            steady_state_gamma(liou)

    def test_physical_spectrum(self, rng):
        for _ in range(5):
            liou = build_liouvillian(3, random_hmat(rng, 3), random_bath(rng, 3))
            corr = steady_state_gamma(liou)
            assert corr.physicality_defect() <= 1e-9
            assert maxdev(corr.Gamma, -corr.Gamma.T) < 1e-10


class TestRapidities:
    def test_scalar_matrix(self):
        liou = build_liouvillian(1, np.zeros((2, 2)), single_mode_baths(0.5, 1.0, 0.6))
        x, U = rapidities(liou)
        expect = 0.25 * (1.0 + 0.36) / 2
        assert maxdev(x, [expect, expect]) < 1e-14

    def test_residual(self, rng):
        liou = build_liouvillian(2, random_hmat(rng, 2), random_bath(rng, 2))
        x, U = rapidities(liou)
        assert maxdev(liou.X @ U, U * x[None, :]) < 1e-9 * np.linalg.norm(liou.X)


class TestAgpQuadratic:
    def test_parameter_independent(self, rng):
        liou_fixed = build_liouvillian(2, random_hmat(rng, 2), random_bath(rng, 2))
        fam = LiouvillianFamily(2, 1, lambda lam: liou_fixed)
        agp = agp_quadratic(fam, [0.3], 0)
        assert np.abs(agp.Xcal).max() < 1e-10
        assert np.abs(agp.Ycal).max() < 1e-10

    def test_fixed_eigenbasis_varying_rates(self, rng):
        # X eigenbasis constant: the generator reduces to the correlation drift
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        B = rng.normal(size=(4, 4))
        Mim = 0.05 * (B - B.T)

        def make(lam):
            d = np.array([2.0 + lam[0], 2.5 + 2 * lam[0], 3.0 - lam[0], 3.5])
            M = Q @ np.diag(d) @ Q.T + 1j * Mim
            return build_liouvillian(2, np.zeros((4, 4)), M=M)

        fam = LiouvillianFamily(2, 1, make)
        agp = agp_quadratic(fam, [0.1], 0)
        assert np.abs(agp.Xcal).max() < 1e-8
        liou = fam([0.1])
        G = steady_state_gamma(liou).Gamma
        dX, dY = fam.dxy(0, [0.1])
        dG = liouville_mod.steady_state_dgamma(liou, G, dX, dY)
        assert maxdev(agp.Ycal, dG) < 1e-8

    def test_structure_invariants(self, rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        agp = agp_quadratic(fam, [0.1, -0.2], 0)
        assert np.abs(agp.Xcal.imag).max() <= 1e-10 * max(1.0, np.abs(agp.Xcal).max())
        assert maxdev(agp.Ycal, -agp.Ycal.T) <= 1e-10 * max(1.0, np.abs(agp.Ycal).max())
        assert np.abs(agp.Ycal.real).max() <= 1e-10 * max(1.0, np.abs(agp.Ycal).max())

    def test_coupled_degenerate_rates_rejected(self, rng):
        # two equal rapidities whose eigenvectors are mixed by the derivative
        def make(lam):
            M = np.diag([2.0, 2.0, 3.0, 4.0]).astype(complex)
            M[0, 1] = M[1, 0] = lam[0]
            return build_liouvillian(2, np.zeros((4, 4)), M=M)

        fam = LiouvillianFamily(2, 1, make)
        with pytest.raises(DegenerateRapidities):
            agp_quadratic(fam, [0.0], 0)

    def test_stacked_generator_equals_per_block(self, rng):
        # tolerances scale per block: beside a block of norm 1e6, a gap of
        # 1e-6 is still resolved and a coupling of 1e-5 still counts
        big = 1e6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        xb = np.linalg.eigvals(big)
        xs = np.array([xb, [1.0, 1.0 + 1e-6], [2.0, 3.0 + 1j]])
        Us = np.stack([np.eye(2), [[1.0, 0.3], [0.0, 1.0]], [[1.0, 1.0], [1j, -1j]]])
        dXs = np.stack([big, rng.normal(size=(2, 2)), rng.normal(size=(2, 2))])
        A = liouville_mod._offdiag_generator(xs, Us, dXs)
        for x, U, dX, a in zip(xs, Us, dXs, A):
            assert np.array_equal(a, liouville_mod._offdiag_generator(x, U, dX))
        assert np.abs(A[1]).max() > 1e-3  # the small gap is resolved, not zeroed

        xs[1] = [1.0, 1.0 + 1e-10]  # degenerate, with coupling 1e-5
        dXs[1] = [[0.0, 1e-5], [0.0, 0.0]]
        with pytest.raises(DegenerateRapidities):
            liouville_mod._offdiag_generator(xs[1], Us[1], dXs[1])
        with pytest.raises(DegenerateRapidities) as info:
            liouville_mod._offdiag_generator(xs, Us, dXs)
        assert info.value.block == 1

    def test_uncoupled_degenerate_pair_tolerated(self, rng):
        # rapidities 0 and 1 coincide but dX does not couple them: their
        # entries are zero, the rest equal the spectral formula entry by entry
        x = np.array([1.0, 1.0, 2.5, 0.5 + 1j])
        dX = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dX[0, 1] = dX[1, 0] = 0.0
        A = liouville_mod._offdiag_generator(x, np.eye(4, dtype=complex), dX)
        ref = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                if x[i] != x[j]:
                    ref[i, j] = -dX[i, j] / (x[j] - x[i])
        assert np.array_equal(A, ref)


class TestZetaNess:
    def test_constant_correlation_zero(self):
        # varying Hamiltonian angle leaves the single-mode steady state fixed
        def make(lam):
            H = lam[0] * 1j * 0.3 * J
            return build_liouvillian(1, H, single_mode_baths(0.6, 1.0, 0.5))

        fam = LiouvillianFamily(1, 1, make)
        z = zeta_ness(fam, [0.4])
        assert np.abs(z.values).max() < 1e-10

    def test_real_on_random_families(self, rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        z = zeta_ness(fam, [0.12, -0.07])
        assert np.abs(z.values.imag).max() <= 1e-9

    def test_matches_kspace_routes(self):
        kitaev = DissipativeKitaevModel(0.4, 1.0, 0.6)
        cases = [(kitaev, [0.7, 0.9]), (kitaev, [1.4, 0.5]), (DrivenBathModel(), [0.8, 0.4])]
        for model, lam in cases:
            for L in (2, 3, 5, 8):
                zr = zeta_ness(real_space_family(model, L), lam)
                zk = zeta_ness_k(model, lam, L)
                assert maxdev(zr.values, zk.values) <= 1e-8, (lam, L)

    @pytest.mark.parametrize("L", [2, 3, 8, None])  # None: a random family
    def test_equals_one_solve_per_quantity(self, L, rng):
        # reference: Gamma and each dGamma_mu by their own solve_sylvester,
        # each of which decomposes X again
        if L is None:
            fam, _ = random_liouvillian_family(rng, n=2)
            lam = [0.12, -0.07]
        else:
            fam = real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), L)
            lam = [0.7, 0.9]
        liou = fam(lam)
        dec = eig_general(liou.X)
        Gamma = solve_sylvester(liou.X, liou.Y)
        dG, Xcal = [], []
        for mu in range(fam.num_params):
            dX, dY = fam.dxy(mu, lam)
            dG.append(solve_sylvester(liou.X, dY - dX @ Gamma - Gamma @ dX.T))
            Xcal.append(liouville_mod._xcal(dec.eigenvalues, dec.right_vectors, dX,
                                            dec.right_inverse))
        ref = liouville_mod._ness_tensor(dG, Xcal, Gamma)
        assert np.array_equal(zeta_ness(fam, lam).values, ref)

    @pytest.mark.parametrize("call", [
        zeta_ness,
        lambda fam, lam: agp_quadratic(fam, lam, 1),
        lambda fam, lam: steady_state_gamma(fam(lam)),
    ], ids=["zeta_ness", "agp_quadratic", "steady_state_gamma"])
    def test_one_eigensolve_per_call(self, call, monkeypatch):
        calls = []

        def counting(K):
            calls.append(K)
            return eig_general(K)

        monkeypatch.setattr(linalg_mod, "eig_general", counting)
        monkeypatch.setattr(liouville_mod, "eig_general", counting)
        call(real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), 8), [0.7, 0.9])
        assert len(calls) == 1


class TestKspace:
    def test_symmetric_bath_no_drive(self):
        x, y = kspace_blocks(SymmetricBathModel(), 1.1, [])
        assert np.abs(y).max() == 0.0

    def test_kitaev_blocks_match_definitions(self):
        model = DissipativeKitaevModel(0.3, 1.0, 0.6)
        lam = [0.7, 0.9]
        k = 1.3
        x, y = kspace_blocks(model, k, lam)
        g2 = 0.09
        expect_x = (
            g2 * (1.0 + 0.36) / 2 * np.eye(2)
            + 2j * 0.9 * np.sin(k) * np.array([[0, 1], [1, 0]])
            + 2j * (0.7 - np.cos(k)) * np.array([[0, -1j], [1j, 0]])
        )
        expect_y = -g2 * (1.0 - 0.36) * np.array([[0, -1j], [1j, 0]])
        assert maxdev(x, expect_x) < 1e-14
        assert maxdev(y, expect_y) < 1e-14

    def test_fourier_assembly_consistency(self):
        # the inverse-FFT assembly equals the direct Fourier sum of the
        # blocks, at odd and even L
        cases = [(DissipativeKitaevModel(0.3, 1.0, 0.6), [0.7, 0.9]), (DrivenBathModel(), [0.8, 0.4])]
        for model, lam in cases:
            for L in (1, 4, 5, 8, 9):
                liou = assemble_real_space(model, lam, L)
                ks = 2 * np.pi * np.arange(L) / L
                for j in range(L):
                    for r in range(L):
                        ph = np.exp(1j * ks * (j - r))
                        xa = sum(p * model.x_block(k, lam) for p, k in zip(ph, ks)) / L
                        ya = sum(p * model.y_block(k, lam) for p, k in zip(ph, ks)) / L
                        blk = np.s_[2 * j : 2 * j + 2, 2 * r : 2 * r + 2]
                        assert maxdev(liou.X[blk], xa) < 1e-13, (L, j, r)
                        assert maxdev(liou.Y[blk], ya) < 1e-13, (L, j, r)

    def test_gamma_k_weak_coupling_limit(self):
        par = KitaevParams(0.5, 0.8, 1e-3, 1.0, 0.6, 4)
        model = DissipativeKitaevModel(1e-3, 1.0, 0.6)
        k = 1.1
        assert maxdev(gamma_k(model, k, [0.5, 0.8]), gamma_k_weak(par, k)) <= 1e-6

    def test_gamma_k_zero_rhs(self):
        assert np.abs(gamma_k(ZeroRhsModel(), 0.9, [])).max() < 1e-14

    def test_gamma_k_residual(self):
        model = DissipativeKitaevModel(0.5, 1.0, 0.3)
        lam = [0.6, 1.2]
        k = 2.0
        g = gamma_k(model, k, lam)
        x = model.x_block(k, lam)
        xmT = model.x_block(-k, lam).T
        y = model.y_block(k, lam)
        assert np.linalg.norm(x @ g + g @ xmT - y) <= 1e-10 * np.linalg.norm(y)

    @pytest.mark.parametrize("model, lam", [
        (DissipativeKitaevModel(0.4, 1.0, 0.6), [0.7, 0.9]),
        (DissipativeKitaevModel(0.1, 1.0, 0.6), [1.6, 0.3]),
        (DrivenBathModel(), [0.8, 0.4]),
    ])
    def test_matches_per_k_loop(self, model, lam):
        # reference: one k at a time, LAPACK eigenvectors in Xcal and a fresh
        # pencil solve per right-hand side; the stacked pipeline reorders the
        # arithmetic, so agreement is to a tolerance, not bit for bit
        L, d = 12, model.num_params
        ref = np.zeros((d, d), dtype=complex)
        for k in 2 * np.pi * np.arange(L) / L:
            x, xmT = model.x_block(k, lam), model.x_block(-k, lam).T
            dec = eig_general(x)
            gk = gamma_k(model, k, lam)
            dgs, xcals = [], []
            for mu in range(d):
                dx = model.dx_block(mu, k, lam)
                rhs = model.dy_block(mu, k, lam) - dx @ gk - gk @ model.dx_block(mu, -k, lam).T
                dgs.append(solve_sylvester_pair(x, xmT, rhs))
                xcals.append(liouville_mod._xcal(dec.eigenvalues, dec.right_vectors, dx))
            for mu in range(d):
                for nu in range(d):
                    ref[mu, nu] += 0.5 * np.trace(dgs[mu] @ dgs[nu]) + np.trace(
                        xcals[mu] @ gk @ dgs[nu])
        got = zeta_ness_k(model, lam, L).values
        assert maxdev(got, ref) <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("model, lam", BLOCK_MODELS)
    def test_stacked_blocks_equal_per_k_blocks(self, model, lam):
        # a (L, 1, 1) column of momenta gives the stack of the single blocks,
        # bit for bit; constant blocks are broadcast to (L, 2, 2)
        ks = np.concatenate([2 * np.pi * np.arange(7) / 7, -1.3 * np.arange(1, 4)])
        kc = ks[:, None, None]
        for name in ("x_block", "y_block"):
            got = getattr(model, name)(kc, lam)
            assert got.shape == (len(ks), 2, 2)
            assert np.array_equal(got, np.stack([getattr(model, name)(k, lam) for k in ks]))
        for mu in range(model.num_params):
            for name in ("dx_block", "dy_block"):
                got = getattr(model, name)(mu, kc, lam)
                want = np.stack([getattr(model, name)(mu, k, lam) for k in ks])
                assert got.shape == (len(ks), 2, 2)
                assert np.array_equal(got, want)

    def test_gap_closing_k_point_raises(self):
        # h = 1, gamma = 1 closes the gap at k = 0: x(0) is a multiple of 1
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        with pytest.raises(SingularPencil):
            zeta_ness_k(model, [1.0, 1.0], 8)

    def test_benchmark_sweep_gap_closing_row_raises(self):
        # the h = 1 row of the strong-coupling Kitaev sweep (g = 0.1, L = 128)
        model = DissipativeKitaevModel(0.1, 1.0, 0.6)
        with pytest.raises(SingularPencil):
            zeta_ness_k(model, [1.0, 1.0], 128)

    def test_nonfinite_parameter_raises(self):
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        with pytest.raises(ShapeMismatch):
            zeta_ness_k(model, [np.nan, 0.9], 4)

    @pytest.mark.parametrize("L", [0, -3, 2.5, "4", True])
    def test_invalid_length_rejected(self, L):
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        with pytest.raises(ShapeMismatch):
            zeta_ness_k(model, [0.7, 0.9], L)
        with pytest.raises(ShapeMismatch):
            assemble_real_space(model, [0.7, 0.9], L)
        with pytest.raises(ShapeMismatch):
            real_space_family(model, L)

    def test_wrong_parameter_count_rejected(self):
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        with pytest.raises(ShapeMismatch):
            zeta_ness_k(model, [0.7], 4)
        with pytest.raises(ShapeMismatch):
            assemble_real_space(model, [0.7], 3)
        with pytest.raises(ShapeMismatch):
            real_space_family(model, 3)([0.7, 0.9, 0.1])

    @pytest.mark.parametrize("degenerate, nonfinite, expected", [
        (1, 2, SingularPencil),
        (2, 1, ShapeMismatch),
    ])
    def test_lowest_failing_k_wins(self, degenerate, nonfinite, expected):
        # a loop over k stops at the first failing k, whichever check fails
        # there; the stacked evaluation reports the same error
        ks = 2 * np.pi * np.arange(4) / 4

        class Faulty(TranslationInvariantModel):
            num_params = 1

            def h_block(self, k, lam):
                flat = np.isclose(k, ks[degenerate])  # x(k) = 1 there
                return np.where(flat, 0.0, 0.5 + 0.1 * lam[0]) * SY

            def m_block(self, k, lam):
                bad = np.isclose(k, ks[nonfinite])
                return (0.5 + np.where(bad, np.nan, 0.0)) * S0

        with pytest.raises(expected) as info:
            zeta_ness_k(Faulty(), [0.3], 4)
        assert info.value.block == min(degenerate, nonfinite)

    def test_zeta_ness_k_balanced_bath_zero(self):
        model = DissipativeKitaevModel(0.4, 0.8, 0.8)  # Lambda = 0
        z = zeta_ness_k(model, [0.7, 0.9], 4)
        assert np.abs(z.values).max() < 1e-12


class TestGaussianForms:
    def test_log_derivative_zero_correlation(self, rng):
        dG = 1j * (lambda B: B - B.T)(rng.normal(size=(4, 4)))
        K = log_derivative(np.zeros((4, 4)), dG)
        assert maxdev(K, -dG) < 1e-12

    def test_log_derivative_residual(self, rng):
        for _ in range(5):
            fam, _ = random_liouvillian_family(rng, n=2)
            liou = fam([0.1, 0.1])
            G = steady_state_gamma(liou).Gamma
            dX, dY = fam.dxy(0, [0.1, 0.1])
            dG = liouville_mod.steady_state_dgamma(liou, G, dX, dY)
            K = log_derivative(G, dG)
            assert np.linalg.norm(G @ K @ G - K - dG) <= 1e-9 * max(1.0, np.linalg.norm(dG))

    def test_pure_state_rejected(self):
        G = 1j * np.kron(np.eye(1), J)  # eigenvalues exactly +-1
        with pytest.raises(PureStateSingular):
            log_derivative(G, np.zeros((2, 2)))

    def test_bures_zero_derivative(self, rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        G = steady_state_gamma(fam([0.0, 0.0])).Gamma
        assert bures_metric(G, np.zeros((4, 4)), np.zeros((4, 4))) == 0.0

    def test_bures_log_derivative_contraction(self, rng):
        # dual route: (1/4) Tr(K_mu (Gamma K_nu Gamma - K_nu)) reproduces it
        fam, _ = random_liouvillian_family(rng, n=2)
        lam = [0.07, -0.03]
        liou = fam(lam)
        G = steady_state_gamma(liou).Gamma
        dG = []
        for mu in range(2):
            dX, dY = fam.dxy(mu, lam)
            dG.append(liouville_mod.steady_state_dgamma(liou, G, dX, dY))
        for mu in range(2):
            for nu in range(2):
                direct = bures_metric(G, dG[mu], dG[nu])
                Kn = log_derivative(G, dG[nu])
                alt = -0.125 * np.trace(dG[mu] @ Kn).real
                assert abs(direct - alt) <= 1e-9 * max(1.0, abs(direct))

    def test_bures_direction_matrix_psd(self, rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        lam = [0.05, -0.11]
        liou = fam(lam)
        G = steady_state_gamma(liou).Gamma
        dG = []
        for mu in range(2):
            dX, dY = fam.dxy(mu, lam)
            dG.append(liouville_mod.steady_state_dgamma(liou, G, dX, dY))
        B = np.array([[bures_metric(G, dG[a], dG[b]) for b in range(2)] for a in range(2)])
        assert maxdev(B, B.T) <= 1e-10 * max(1.0, np.abs(B).max())
        assert np.linalg.eigvalsh((B + B.T) / 2).min() >= -1e-10

    def test_zeta_tilde_maximally_mixed(self, rng):
        B = rng.normal(size=(4, 4))
        dG = 1j * (B - B.T)
        got = zeta_tilde_gaussian(np.zeros((4, 4)), dG, dG)
        assert abs(got - 0.5 * np.trace(dG @ dG).real) < 1e-12

    def test_exact_ness_form_vs_purity(self, rng):
        # S = sqrt(det(1 + G^2)) equals 2^n Tr(rho^2); zero-derivative limit
        fam, baths = random_liouvillian_family(rng, n=2)
        from nhgeo.oracle import build_fock
        from nhgeo.verify import brute_ness_rho

        G = steady_state_gamma(fam([0.0, 0.0])).Gamma
        rho, _ = brute_ness_rho(build_fock(2), fam, baths, [0.0, 0.0])
        S = np.sqrt(np.linalg.det(np.eye(4) + G @ G).real)
        assert abs(S - 4 * np.trace(rho @ rho).real) < 1e-10


class TestMutationSensitivity:
    def test_generator_sign_flip_detected(self, rng, monkeypatch):
        # a corrupted transport generator must move the steady-state tensor
        # by far more than the route-agreement tolerance, so the agreement
        # checks are sensitive to this mutation
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        lam = np.array([0.3, 0.8])
        fam = real_space_family(model, 3)
        healthy = zeta_ness(fam, lam).values
        assert maxdev(healthy, zeta_ness_k(model, lam, 3).values) <= 1e-8

        orig = liouville_mod._offdiag_generator

        def corrupted(x, U, dX, **kw):
            return -orig(x, U, dX, **kw)

        monkeypatch.setattr(liouville_mod, "_offdiag_generator", corrupted)
        mutated = zeta_ness(fam, lam).values
        assert maxdev(healthy, mutated) > 1e-3


def _pair_form(G, dGm, dGn, kind):
    """One component of a Gaussian form from its own eigendecomposition."""
    g, V = np.linalg.eigh(G)
    A, B = (V.conj().T @ np.asarray(d, dtype=complex) @ V for d in (dGm, dGn))
    if kind == "bures":
        return float((0.125 * np.sum(A * B.T / (1.0 - g[:, None] * g[None, :]))).real)
    den = (1.0 + g[:, None] ** 2) * (1.0 + g[None, :] ** 2)
    return float((0.5 * np.sum(A * B.T / den)).real)


class TestGaussianTensors:
    KINDS = ["zeta_limited", "bures"]

    @staticmethod
    def gamma_family(rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        lam = [0.07, -0.03]
        liou = fam(lam)
        G = steady_state_gamma(liou).Gamma
        dG = [liouville_mod.steady_state_dgamma(liou, G, *fam.dxy(mu, lam)) for mu in range(2)]
        return G, dG

    @pytest.mark.parametrize("L", [2, 3, 8])
    def test_ness_tensors_one_eigh_and_pairwise_values(self, L, monkeypatch):
        fam = real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), L)
        lam = np.array([0.7, 0.9])
        real, shapes = np.linalg.eigh, []

        def counting(A, *args, **kwargs):
            shapes.append(np.shape(A))
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        got = liouville_mod.ness_tensors(fam, lam, self.KINDS)
        monkeypatch.undo()
        assert shapes == [(2 * L, 2 * L)]  # one eigh of Gamma for both kinds
        liou = fam(lam)
        G = steady_state_gamma(liou).Gamma
        dG = [liouville_mod.steady_state_dgamma(liou, G, *fam.dxy(mu, lam)) for mu in range(2)]
        for kind in self.KINDS:
            ref = np.array([[_pair_form(G, a, b, kind) for b in dG] for a in dG], dtype=complex)
            assert np.array_equal(got[kind].values, ref), kind

    def test_one_pair_calls_are_components(self, rng):
        G, dG = self.gamma_family(rng)
        forms = liouville_mod.gaussian_tensors(G, dG, self.KINDS)
        for mu in range(2):
            for nu in range(2):
                assert bures_metric(G, dG[mu], dG[nu]) == forms["bures"][mu, nu]
                assert zeta_tilde_gaussian(G, dG[mu], dG[nu]) == forms["zeta_limited"][mu, nu]

    def test_single_matrix_is_a_stack_of_one(self, rng):
        G, dG = self.gamma_family(rng)
        one = liouville_mod.gaussian_tensors(G, dG, self.KINDS)
        stack = liouville_mod.gaussian_tensors(G[None], [d[None] for d in dG], self.KINDS)
        for kind in self.KINDS:
            assert np.array_equal(one[kind], stack[kind]), kind

    @pytest.mark.parametrize("gap, finite", [
        (1e-3, True), (1e-9, True), (2e-10, True), (5e-11, False), (1e-13, False), (0.0, False),
    ])
    def test_eigenvalues_near_plus_minus_one(self, rng, gap, finite):
        # Gamma has eigenvalues +-g (and +-0.3), with 1 - g^2 = gap
        G = np.kron(np.diag([np.sqrt(1.0 - gap), 0.3]), SY)
        B = rng.normal(size=(4, 4))
        dG = [1j * (B - B.T)]
        zl = liouville_mod.gaussian_tensors(G, dG, ["zeta_limited"])["zeta_limited"]
        assert np.isfinite(zl).all()  # finite up to and at a pure state
        if finite:
            assert np.isfinite(liouville_mod.gaussian_tensors(G, dG, ["bures"])["bures"]).all()
        else:
            with pytest.raises(PureStateSingular) as info:
                liouville_mod.gaussian_tensors(G, dG, ["bures"])
            assert info.value.block == 0 and "block" not in str(info.value)

    @staticmethod
    def blocks(rng):
        B = rng.normal(size=(4, 4))
        base = 1j * (B - B.T)  # Hermitian, imaginary antisymmetric
        skew = np.zeros((4, 4))
        skew[0, 1] = 1.0
        return {
            "big": 1e6 * base + 1e-3 * skew,  # defect 1e-9 of its own scale: Hermitian
            "defect": 0.1 * base + 1e-6 * skew,  # 1e-6 of a unit scale: not Hermitian
            "pure": np.kron(np.eye(2), SY),  # eigenvalues exactly +-1
        }

    @pytest.mark.parametrize("order, kinds, error, block", [
        (("big", "defect", "pure"), ["bures"], ShapeMismatch, 1),
        (("big", "pure", "defect"), ["bures"], PureStateSingular, 1),
        (("big", "pure", "defect"), ["zeta_limited"], ShapeMismatch, 2),
        (("pure", "defect"), ["zeta_limited", "bures"], PureStateSingular, 0),
        (("defect", "pure"), ["bures", "zeta_limited"], ShapeMismatch, 0),
        (("big", "big", "pure"), ["bures"], PureStateSingular, 2),
    ])
    def test_stack_checks_per_block(self, rng, order, kinds, error, block):
        blocks = self.blocks(rng)
        G = np.stack([blocks[name] for name in order])
        dG = [np.stack([blocks["defect"]] * len(order))]
        with pytest.raises(error) as info:
            liouville_mod.gaussian_tensors(G, dG, kinds)
        assert info.value.block == block
        assert str(info.value).startswith(f"block {block}: ")

    def test_stack_sums_blocks(self, rng):
        blocks = self.blocks(rng)
        B = rng.normal(size=(2, 4, 4))
        dG = [1j * (b - b.T) for b in B]
        G = np.stack([blocks["big"], blocks["pure"]])
        got = liouville_mod.gaussian_tensors(G, [np.stack([d, -d]) for d in dG], ["zeta_limited"])
        parts = [liouville_mod.gaussian_tensors(Gb, [s * d for d in dG], ["zeta_limited"])
                 for Gb, s in zip(G, (1, -1))]
        ref = sum(p["zeta_limited"] for p in parts)
        assert np.abs(got["zeta_limited"] - ref).max() <= 1e-12 * np.abs(ref).max()
        big = liouville_mod.gaussian_tensors(blocks["big"], dG, ["bures"])["bures"]
        assert np.isfinite(big).all()  # the 1e6-scale block passes on its own
