import numpy as np
import pytest

from nhgeo.biortho import build_biortho
from nhgeo.errors import DegenerateKernel, TooLarge
from nhgeo.liouville import (
    LiouvillianFamily,
    build_liouvillian,
    steady_state_dgamma,
    steady_state_gamma,
    zeta_tilde_ness_from_gamma,
)
from nhgeo.oracle import (
    build_fock,
    build_superop,
    ness_from_kernel,
    ness_state_index,
    quadratic_superop,
    spre,
    superop_family,
    third_quant_superops,
    unvec,
    vec,
)
from nhgeo.tensors import eta_tensor, sum_over_states, zeta_limited
from nhgeo.verify import kitaev_bath_vectors, random_bath, random_hmat, random_liouvillian_family

from conftest import maxdev

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestFock:
    def test_single_mode_matrices(self):
        fock = build_fock(1)
        w1, w2 = fock.majoranas
        assert maxdev(w1, SX) == 0.0
        assert maxdev(w2, -SY) == 0.0  # convention: basis (|0>, |1>), c = [[0,1],[0,0]]
        assert maxdev(fock.W, 1j * w1 @ w2) == 0.0
        assert maxdev(fock.W @ fock.W, np.eye(2)) == 0.0
        assert maxdev(fock.W, fock.W.conj().T) == 0.0

    def test_car_exact(self):
        for n in (1, 2, 3):
            fock = build_fock(n)
            for i, wi in enumerate(fock.majoranas):
                for j, wj in enumerate(fock.majoranas):
                    anti = wi @ wj + wj @ wi
                    assert maxdev(anti, 2.0 * (i == j) * np.eye(fock.dim)) == 0.0

    def test_too_large(self):
        with pytest.raises(TooLarge):
            build_fock(5)


class TestSuperop:
    def test_zero_inputs_zero_generator(self):
        fock = build_fock(1)
        L = build_superop(fock, np.zeros((2, 2)), [])
        assert np.abs(L).max() == 0.0

    def test_trace_preservation(self, rng):
        fock = build_fock(2)
        L = build_superop(fock, random_hmat(rng, 2), random_bath(rng, 2))
        ivec = vec(np.eye(fock.dim))
        assert np.abs(ivec.conj() @ L).max() <= 1e-12 * np.abs(L).max()

    def test_hermiticity_preservation(self, rng):
        fock = build_fock(2)
        L = build_superop(fock, random_hmat(rng, 2), random_bath(rng, 2))
        D = fock.dim
        S = np.zeros((D * D, D * D))
        for i in range(D):
            for j in range(D):
                S[i + D * j, j + D * i] = 1.0
        assert maxdev(S @ L @ S, L.conj()) <= 1e-12 * np.abs(L).max()

    def test_pure_loss_vacuum(self):
        fock = build_fock(1)
        L = build_superop(fock, np.zeros((2, 2)), kitaev_bath_vectors(1, 1.0, 0.0, 0.7))
        rho, _ = ness_from_kernel(fock, L)
        assert maxdev(rho, np.diag([1.0, 0.0])) < 1e-12

    def test_spectrum_contains_rapidity_combinations(self, rng):
        baths = random_bath(rng, 2)
        liou = build_liouvillian(2, random_hmat(rng, 2), baths)
        fock = build_fock(2)
        Ls = build_superop(fock, liou.H_mat, baths)
        spec = np.linalg.eigvals(Ls)
        x = np.linalg.eigvals(liou.X)
        combos = [0.0]
        combos += [-xi for xi in x]
        combos += [-(x[i] + x[j]) for i in range(4) for j in range(i + 1, 4)]
        for c in combos:
            assert np.abs(spec - c).min() < 1e-7


class TestThirdQuantization:
    def test_car_single_mode(self):
        fock = build_fock(1)
        a, ad = third_quant_superops(fock)
        eye = np.eye(4)
        for i in range(2):
            for j in range(2):
                assert maxdev(ad[i] @ a[j] + a[j] @ ad[i], (i == j) * eye) <= 1e-12
                assert np.abs(a[i] @ a[j] + a[j] @ a[i]).max() <= 1e-12

    def test_partner_is_adjoint(self):
        fock = build_fock(2)
        a, ad = third_quant_superops(fock)
        for ai, adi in zip(a, ad):
            assert maxdev(adi, ai.conj().T) <= 1e-12

    def test_quadratic_form_reconstruction(self, rng):
        for n in (1, 2):
            fock = build_fock(n)
            for _ in range(5):
                baths = random_bath(rng, n)
                liou = build_liouvillian(n, random_hmat(rng, n), baths)
                direct = build_superop(fock, liou.H_mat, baths)
                quad = quadratic_superop(fock, liou.X, liou.Y)
                assert maxdev(direct, quad) <= 1e-10

    def test_number_operator_commutators(self):
        # [ad_i a_j, ad_k] = delta_jk ad_i on the doubled space
        fock = build_fock(2)
        a, ad = third_quant_superops(fock)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    N = ad[i] @ a[j]
                    comm = N @ ad[k] - ad[k] @ N
                    assert maxdev(comm, (j == k) * ad[i]) <= 1e-12


class TestNessFromKernel:
    def test_single_mode_occupation(self):
        mup, mum = 0.9, 0.5
        fock = build_fock(1)
        L = build_superop(fock, np.zeros((2, 2)), kitaev_bath_vectors(1, 1.0, mup, mum))
        rho, corr = ness_from_kernel(fock, L)
        occ = mup ** 2 / (mup ** 2 + mum ** 2)
        lam = (mup ** 2 - mum ** 2) / (mup ** 2 + mum ** 2)
        assert abs(rho[1, 1].real - occ) < 1e-12
        assert abs(corr.Gamma[0, 1] - 1j * lam) < 1e-12

    def test_balanced_bath_infinite_temperature(self):
        fock = build_fock(2)
        L = build_superop(fock, np.zeros((4, 4)), kitaev_bath_vectors(2, 1.0, 0.7, 0.7))
        rho, _ = ness_from_kernel(fock, L)
        assert maxdev(rho, np.eye(4) / 4) < 1e-12

    def test_state_index_rejects_degenerate_kernel(self):
        # the zero generator (H = 0, M = 0): every eigenvalue is 0
        zero = LiouvillianFamily(
            1, 1, lambda lam: build_liouvillian(1, np.zeros((2, 2)), M=np.zeros((2, 2))),
            lambda mu, lam: (np.zeros((2, 2)), np.zeros((2, 2))))
        sfam = superop_family(build_fock(1), zero)
        assert np.abs(sfam([0.0])).max() == 0.0
        with pytest.raises(DegenerateKernel):
            ness_state_index(sfam, [0.0])

    def test_state_index_picks_the_kernel_state(self, rng):
        # one kernel pick: the eigenvector at ness_state_index is the kernel state
        fam, _ = random_liouvillian_family(rng, n=2)
        fock = build_fock(2)
        sfam = superop_family(fock, fam)
        lam = np.array([0.04, -0.11])
        sys = build_biortho(sfam(lam))
        rho = unvec(sys.right_vectors[:, ness_state_index(sfam, lam)])
        rho = (rho + rho.conj().T) / 2
        rho_kernel, _ = ness_from_kernel(fock, sfam(lam))
        assert maxdev(rho / np.trace(rho).real, rho_kernel) <= 1e-10

    def test_degenerate_kernel_rejected(self):
        fock = build_fock(1)
        with pytest.raises(DegenerateKernel):
            ness_from_kernel(fock, np.zeros((4, 4)))

    def test_matches_sylvester_route(self, rng):
        fock = build_fock(3)
        baths = random_bath(rng, 3)
        liou = build_liouvillian(3, random_hmat(rng, 3), baths)
        L = build_superop(fock, liou.H_mat, baths)
        _, corr = ness_from_kernel(fock, L)
        assert maxdev(corr.Gamma, steady_state_gamma(liou).Gamma) <= 1e-8


class TestSuperopFamily:
    def test_zeta_route_agreement(self, rng):
        from nhgeo.liouville import zeta_ness

        fam, _ = random_liouvillian_family(rng, n=2)
        fock = build_fock(2)
        sfam = superop_family(fock, fam)
        lam = np.array([0.09, -0.14])
        nidx = ness_state_index(sfam, lam)
        zs = sum_over_states(sfam, lam, nidx, ["zeta"], mu_reg=1e-8)["zeta"].values
        zm = zeta_ness(fam, lam).values
        assert maxdev(zs, zm) <= 1e-6 * max(1.0, np.abs(zm).max())

    def test_eta_vanishes_on_steady_state(self, rng):
        fam, _ = random_liouvillian_family(rng, n=1)
        fock = build_fock(1)
        sfam = superop_family(fock, fam)
        lam = np.array([0.2, -0.1])
        nidx = ness_state_index(sfam, lam)
        assert np.abs(eta_tensor(sfam, lam, nidx).values).max() <= 1e-9

    def test_limited_tensor_matches_gaussian_form(self, rng):
        # generic-engine single-state tensor on the dense generator equals the
        # exact correlation-matrix expression for 2^n Tr(drho drho)
        fam, _ = random_liouvillian_family(rng, n=1)
        fock = build_fock(1)
        sfam = superop_family(fock, fam)
        lam = np.array([0.13, -0.08])
        nidx = ness_state_index(sfam, lam)
        zt = zeta_limited(sfam, lam, nidx).values

        G, dG = steady_state_dgamma(fam, lam)
        ref = np.array(
            [[zeta_tilde_ness_from_gamma(G, dG[a], dG[b]) for b in range(2)] for a in range(2)]
        )
        assert maxdev(zt, ref) <= 1e-6 * max(1.0, np.abs(ref).max())

    def test_bath_factorization_equivalent(self, rng):
        # generator depends on the jump vectors only through the bath matrix
        fam, baths = random_liouvillian_family(rng, n=2)
        fock = build_fock(2)
        lam = np.array([0.05, 0.02])
        explicit = build_superop(fock, fam(lam).H_mat, baths)
        factorized = superop_family(fock, fam)
        assert maxdev(explicit, factorized(lam)) <= 1e-10

    @pytest.mark.parametrize("model", ["kitaev", "random"])
    def test_exact_derivative(self, rng, monkeypatch, model):
        # the generator is linear in (X, Y): its derivative is the generator of
        # (dX, dY), taken without central differences of the dense matrix
        import nhgeo.tensors as tensors_mod
        from nhgeo.kitaev import DissipativeKitaevModel
        from nhgeo.liouville import real_space_family

        fock = build_fock(2)
        if model == "kitaev":
            fam = real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), 2)
            lam = np.array([0.7, 1.1])
        else:
            fam, lam = random_liouvillian_family(rng, n=2)[0], np.array([0.06, -0.03])
        sfam = superop_family(fock, fam)
        fd = [tensors_mod.central_difference(sfam, lam, mu) for mu in range(2)]
        calls = []
        real = tensors_mod.central_difference
        monkeypatch.setattr(tensors_mod, "central_difference",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        for mu in range(2):
            assert maxdev(sfam.derivative(mu, lam), fd[mu]) <= 1e-8 * np.abs(fd[mu]).max()
        assert calls == []


class TestVecConventions:
    def test_vec_unvec_roundtrip(self, rng):
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert maxdev(unvec(vec(rho)), rho) == 0.0

    def test_spre_is_left_multiplication(self, rng):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rng.normal(size=(4, 4))
        assert maxdev(unvec(spre(A) @ vec(rho)), A @ rho) < 1e-14
