import numpy as np
import pytest

import nhgeo.linalg as linalg_mod
import nhgeo.liouville as liouville_mod
from nhgeo.cli import QuadLiouvilleAdapter
from nhgeo.errors import (
    BadBath,
    BadHamiltonian,
    DegenerateRapidities,
    NhgeoError,
    NonConvergence,
    NonUniqueSteadyState,
    PureStateSingular,
    ShapeMismatch,
    SingularPencil,
)
from nhgeo.kitaev import DissipativeKitaevModel, KitaevParams, gamma_k_weak
from nhgeo.liouville import (
    LiouvillianFamily,
    TranslationInvariantModel,
    _pauli,
    agp_quadratic,
    assemble_real_space,
    build_liouvillian,
    gamma_k,
    physicality_defect,
    real_space_family,
    steady_state_dgamma,
    steady_state_gamma,
    zeta_ness,
    zeta_ness_k,
    zeta_ness_k_sums,
)
from nhgeo.linalg import eig_general, norm2, solve_sylvester, solve_sylvester_pair
from nhgeo.verify import kitaev_bath_vectors, random_bath, random_hmat, random_liouvillian_family

from conftest import (
    central_dxy,
    full_zone_sums,
    inside,
    log_derivative,
    maxdev,
    save_matrix,
    x_block,
    y_block,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
SY = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


class SymmetricBathModel(TranslationInvariantModel):
    """No parameters, k-independent bath: y(k) vanishes."""

    def h_block(self, k, lam):
        return _pauli(0, 0.5 * np.sin(k), 0)

    def m_block(self, k, lam):
        return _pauli(0.7, 0, 0)


class ZeroRhsModel(TranslationInvariantModel):
    """No parameters, k-independent bath: Gamma(k) vanishes."""

    def h_block(self, k, lam):
        return _pauli(0, 0, 0.5 * (1.2 - np.cos(k)))

    def m_block(self, k, lam):
        return _pauli(0.3, 0, 0)


class DrivenBathModel(TranslationInvariantModel):
    """Two parameters and a k-dependent bath that depends on one of them.
    The Hermitian part of x(k) is at least 0.8, which keeps the steady
    state unique."""

    num_params = 2

    def h_block(self, k, lam):
        t, d = lam
        return _pauli(0, 0.5 * t * np.sin(k), 0.5 * (d - np.cos(k)))

    def m_block(self, k, lam):
        t, d = lam
        return _pauli(0.6, 0.2 * np.cos(k), 0.25 * d)

    def dh_block(self, mu, k, lam):
        return _pauli(0, 0.5 * np.sin(k), 0) if mu == 0 else _pauli(0, 0, 0.5)

    def dm_block(self, mu, k, lam):
        return _pauli(0, 0, 0) if mu == 0 else _pauli(0, 0, 0.25)


def lapack_eigenpairs(x):
    dec = eig_general(x)
    return dec.eigenvalues, dec.right_vectors


def closed_form_eigenpairs(x):
    w, U, _ = linalg_mod._eig_2x2(linalg_mod._entries(x))
    return np.array(w), linalg_mod._blocks(U)


def per_k_loop(model, lam, L, eigenpairs=lapack_eigenpairs):
    """``zeta_ness_k`` one k at a time: dense Xcal on the ``eigenpairs`` of
    x(k), LAPACK's by default, and a fresh pencil solve per right-hand side
    (Gamma(k) too, not the ``gamma_k`` view of the code under test)."""
    d = model.num_params
    ref = np.zeros((d, d), dtype=complex)
    for k in 2 * np.pi * np.arange(L) / L:
        x, xmT = x_block(model, k, lam), x_block(model, -k, lam).T
        w, U = eigenpairs(x)
        gk = solve_sylvester_pair(x, xmT, y_block(model, k, lam))
        dgs, xcals = [], []
        for mu in range(d):
            dx = x_block(model, k, lam, mu)
            rhs = y_block(model, k, lam, mu) - dx @ gk - gk @ x_block(model, -k, lam, mu).T
            dgs.append(solve_sylvester_pair(x, xmT, rhs))
            xcals.append(liouville_mod._xcal(w, U, dx, np.linalg.inv(U)))
        for mu in range(d):
            for nu in range(d):
                ref[mu, nu] += 0.5 * np.trace(dgs[mu] @ dgs[nu]) + np.trace(
                    xcals[mu] @ gk @ dgs[nu])
    return ref


#: faults of :func:`faulty_model` and the error and message each raises
FAULT_ERRORS = {"nonfinite": ShapeMismatch, "degenerate": SingularPencil,
                "pencil": SingularPencil, "rapidities": DegenerateRapidities}
FAULT_MESSAGES = {"nonfinite": "non-finite entries", "degenerate": "degenerate eigenvalues",
                  "pencil": "min |a_i + b_j|", "rapidities": "rapidities 0,1 degenerate"}


def faulty_model(faults, L=4):
    """A one-parameter model, evaluated at lam = 0.3, whose block at ``2 pi j
    / L`` has the faults ``faults[j]``, joined by ``+``; a key ``(lam, j)``
    puts them at that block of the point ``lam`` only:

    - ``nonfinite``: a NaN bath entry;
    - ``degenerate``: x(k) = 1, equal eigenvalues;
    - ``pencil``: no bath at +-k, so x(k) = 4i h and x(-k)^T have opposite
      eigenvalues, a vanishing pencil value;
    - ``rapidities``: the eigenvalues 1 +- 4e-10 of x(k) at lam = 0.3,
      distinct but degenerate for Xcal, coupled by the derivative 4i sx;
    - ``nonfinite_at_minus_k``: a NaN Hamiltonian at -k, so that x(-k)^T,
      not x(k), is non-finite;
    - ``nonfinite_derivative``: a NaN Hamiltonian derivative, which every
      block check passes.
    """
    ks = 2 * np.pi * np.arange(L) / L

    def at(k, lam, fault):
        """Where the momenta ``k`` at ``lam`` are a grid point with ``fault``."""
        out = np.zeros(np.broadcast_shapes(np.shape(k), np.shape(lam)), dtype=bool)
        for key, f in faults.items():
            point, j = key if isinstance(key, tuple) else (lam, key)
            if fault in f.split("+"):
                out |= np.isclose(k, ks[j]) & (lam == point)
        return out

    class Faulty(TranslationInvariantModel):
        num_params = 1

        def h_block(self, k, lam):
            lam, = lam
            rapidities = at(k, lam, "rapidities")
            s = np.where(at(k, lam, "degenerate"), 0.0, 0.5 + 0.1 * lam)
            s = np.where(at(-k, lam, "nonfinite_at_minus_k"), np.nan, s)
            return _pauli(0, np.where(rapidities, lam - 0.3, 0.0), np.where(rapidities, 1e-10, s))

        def m_block(self, k, lam):
            lam, = lam
            m = np.where(at(np.abs(k), lam, "pencil"), 0.0, 0.5)
            return _pauli(np.where(at(k, lam, "nonfinite"), np.nan, m), 0, 0)

        def dh_block(self, mu, k, lam):
            lam, = lam
            rapidities = at(k, lam, "rapidities")
            s = np.where(at(k, lam, "degenerate"), 0.0, 0.1)
            s = np.where(at(-k, lam, "nonfinite_at_minus_k") | at(k, lam, "nonfinite_derivative"),
                         np.nan, s)
            return _pauli(0, np.where(rapidities, 1.0, 0.0), np.where(rapidities, 0.0, s))

        def dm_block(self, mu, k, lam):
            lam, = lam
            return _pauli(np.where(at(k, lam, "nonfinite"), np.nan, 0.0), 0, 0)

    return Faulty()


#: the stacked momentum entry points on the four momenta of :func:`faulty_model`
ZONE_CALLS = {
    "zeta_ness_k": lambda model: zeta_ness_k(model, [0.3], 4),
    "gamma_k": lambda model: gamma_k(model, 2 * np.pi * np.arange(4) / 4, [0.3]),
}


def quad_liouville_family(rng, tmp_path):
    """The ``quad-liouville`` command-line family on random H0, bath and two
    dH files."""
    mats = {"H0": random_hmat(rng, 2), "dH0": random_hmat(rng, 2), "dH1": random_hmat(rng, 2),
            "bath": sum(np.outer(v, v.conj()) for v in random_bath(rng, 2))}
    paths = {name: str(tmp_path / f"{name}.json") for name in mats}
    for name, A in mats.items():
        save_matrix(paths[name], A)
    return QuadLiouvilleAdapter(paths["H0"], paths["bath"], [paths["dH0"], paths["dH1"]]).family()


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
        G = steady_state_gamma(liou)
        assert abs(G[0, 1] - 1j * lam) < 1e-12

    def test_balanced_bath_maximally_mixed(self):
        liou = build_liouvillian(1, np.zeros((2, 2)), single_mode_baths(0.5, 0.8, 0.8))
        assert np.abs(steady_state_gamma(liou)).max() < 1e-14

    def test_non_unique_rejected(self):
        liou = build_liouvillian(1, np.zeros((2, 2)), M=np.zeros((2, 2)))
        with pytest.raises(NonUniqueSteadyState):
            steady_state_gamma(liou)

    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_non_unique_verdict_is_exact(self, N, svd_calls):
        # min Re x against 1e-12 max(||X||_2, 1), decided on the Frobenius
        # bracket of ||X||_2; the SVD runs when the bracket widened by 2,
        # [1e-12 ||X||_F / (2 sqrt(N)), 2e-12 ||X||_F], straddles min Re x
        def generator(x0):
            V = np.random.default_rng(N).normal(size=(N, N)) + N * np.eye(N)
            X = V @ np.diag([x0, *range(1, N)]) @ np.linalg.inv(V)
            return liouville_mod.QuadraticLiouvillian(N // 2, None, None, X, np.zeros((N, N)))

        scale = max(norm2(generator(0.0).X), 1.0)
        seen = set()
        for f in np.geomspace(1e-2, 1e2, 20):
            liou = generator(f * 1e-12 * scale)
            xmin = eig_general(liou.X).eigenvalues.real.min()
            unique = not xmin <= 1e-12 * max(norm2(liou.X), 1.0)
            frob = 1e-12 * np.linalg.norm(liou.X)
            svd_calls.clear()
            try:
                steady_state_gamma(liou)
                assert unique
            except NonUniqueSteadyState:
                assert not unique
            expected = inside(xmin, max(frob / np.sqrt(N), 1e-12) / 2, 2 * max(frob, 1e-12))
            if expected is not None:
                assert (svd_calls != []) is expected, f
            seen.add((svd_calls != [], unique))
        assert seen == {(False, True), (True, True), (True, False), (False, False)}

    def test_physical_spectrum(self, rng):
        for _ in range(5):
            liou = build_liouvillian(3, random_hmat(rng, 3), random_bath(rng, 3))
            G = steady_state_gamma(liou)
            assert physicality_defect(G) <= 1e-9
            assert maxdev(G, -G.T) < 1e-10


class TestRapidities:
    def test_scalar_matrix(self):
        liou = build_liouvillian(1, np.zeros((2, 2)), single_mode_baths(0.5, 1.0, 0.6))
        x = eig_general(liou.X).eigenvalues
        expect = 0.25 * (1.0 + 0.36) / 2
        assert maxdev(x, [expect, expect]) < 1e-14

    def test_residual(self, rng):
        liou = build_liouvillian(2, random_hmat(rng, 2), random_bath(rng, 2))
        dec = eig_general(liou.X)
        x, U = dec.eigenvalues, dec.right_vectors
        assert maxdev(liou.X @ U, U * x[None, :]) < 1e-9 * np.linalg.norm(liou.X)


class TestAgpQuadratic:
    def test_parameter_independent(self, rng):
        liou_fixed = build_liouvillian(2, random_hmat(rng, 2), random_bath(rng, 2))
        zero = np.zeros((4, 4), dtype=complex)
        fam = LiouvillianFamily(2, 1, lambda lam: liou_fixed, lambda mu, lam: (zero, zero))
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

        def dxy(mu, lam):  # X = 2 Re M, Y = -4i Im M
            return 2 * Q @ np.diag([1.0, 2.0, -1.0, 0.0]) @ Q.T, np.zeros((4, 4))

        fam = LiouvillianFamily(2, 1, make, dxy)
        agp = agp_quadratic(fam, [0.1], 0)
        assert np.abs(agp.Xcal).max() < 1e-8
        _, (dG,) = steady_state_dgamma(fam, [0.1])
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

        dM = np.zeros((4, 4))
        dM[0, 1] = dM[1, 0] = 1.0
        fam = LiouvillianFamily(2, 1, make, lambda mu, lam: (2 * dM, np.zeros((4, 4))))
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

        def stacked(xs, Us, dXs):  # the stack route: 2x2 entry arithmetic
            U = linalg_mod._entries(Us)
            return linalg_mod._blocks(liouville_mod._xcal_2x2(
                (xs[:, 0], xs[:, 1]), U, linalg_mod._inv(U), linalg_mod._entries(dXs)))

        Xcal = stacked(xs, Us, dXs)
        for x, U, dX, got in zip(xs, Us, dXs, Xcal):
            # each block as a stack of one gives the same bits
            assert np.array_equal(got, stacked(x[None], U[None], dX[None])[0])
            want = liouville_mod._xcal(x, U, dX, np.linalg.inv(U))
            assert maxdev(got, want) <= 1e-14 * np.abs(want).max()
        assert np.abs(Xcal[1]).max() > 1e-3  # the small gap is resolved, not zeroed

        xs[1] = [1.0, 1.0 + 1e-10]  # degenerate, with coupling 1e-5
        dXs[1] = [[0.0, 1e-5], [0.0, 0.0]]
        with pytest.raises(DegenerateRapidities):
            liouville_mod._xcal(xs[1], Us[1], dXs[1], np.linalg.inv(Us[1]))
        with pytest.raises(DegenerateRapidities) as info:
            stacked(xs, Us, dXs)
        assert info.value.block == 1
        assert "rapidities 0,1 degenerate with coupling 1.000e-05" in str(info.value)

    def test_uncoupled_degenerate_pair_tolerated(self, rng):
        # rapidities 0 and 1 coincide but dX does not couple them: their
        # entries are zero, the rest equal the spectral formula entry by entry
        x = np.array([1.0, 1.0, 2.5, 0.5 + 1j])
        dX = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dX[0, 1] = dX[1, 0] = 0.0
        I = np.eye(4, dtype=complex)
        A = liouville_mod._offdiag_generator(x, I, dX, I)
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

        fam = LiouvillianFamily(1, 1, make, lambda mu, lam: (4j * 0.3j * J, np.zeros((2, 2))))
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

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_near_gap_closing_matches_kspace(self, eps):
        # h = 1 + eps puts a rapidity pair 4 eps apart.  X is exactly real,
        # so it goes to LAPACK's real eigensolver.  The bound is set from
        # measurement: 1.1e-14 here, against 1.6e-13 and 4.1e-13 from the
        # complex routine on the same X
        model = DissipativeKitaevModel(0.1, 1.0, 0.6)
        lam = [1 + eps, 1]
        fam = real_space_family(model, 8)
        assert not fam(lam).X.imag.any()
        zk = zeta_ness_k(model, lam, 8).values
        assert maxdev(zeta_ness(fam, lam).values, zk) <= 3e-14 * np.abs(zk).max()

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

    @pytest.mark.parametrize("L", [3, None])  # None: a random family
    def test_steady_state_dgamma_equals_kronecker_solve(self, L, rng):
        # reference: X G + G X^T = Y as the N^2 system (X (x) 1 + 1 (x) X) vec G
        # = vec Y, row-major, for Gamma and then each dGamma_mu
        if L is None:
            fam, _ = random_liouvillian_family(rng, n=2)
            lam = [0.12, -0.07]
        else:
            fam = real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), L)
            lam = [0.7, 0.9]
        liou = fam(lam)
        N = liou.X.shape[0]
        eye = np.eye(N)
        kron = np.kron(liou.X, eye) + np.kron(eye, liou.X)

        def solve(Y):
            return np.linalg.solve(kron, Y.ravel()).reshape(N, N)

        Gamma = solve(liou.Y)
        G, dG = steady_state_dgamma(fam, lam)
        assert maxdev(G, Gamma) <= 1e-12 * np.abs(Gamma).max()
        assert len(dG) == fam.num_params
        for mu in range(fam.num_params):
            dX, dY = fam.dxy(mu, lam)
            ref = solve(dY - dX @ Gamma - Gamma @ dX.T)
            assert maxdev(dG[mu], ref) <= 1e-11 * np.abs(ref).max(), mu

    @pytest.mark.parametrize("call", [
        zeta_ness,
        lambda fam, lam: agp_quadratic(fam, lam, 1),
        lambda fam, lam: steady_state_gamma(fam(lam)),
        steady_state_dgamma,
    ], ids=["zeta_ness", "agp_quadratic", "steady_state_gamma", "steady_state_dgamma"])
    def test_one_eigensolve_per_call(self, call, monkeypatch):
        calls = []

        def counting(K):
            calls.append(K)
            return eig_general(K)

        monkeypatch.setattr(linalg_mod, "eig_general", counting)
        monkeypatch.setattr(liouville_mod, "eig_general", counting)
        call(real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), 8), [0.7, 0.9])
        assert len(calls) == 1

    @pytest.mark.parametrize("build, lam", [
        *(pytest.param(lambda rng, tmp_path, model=model, L=L: real_space_family(model, L), lam,
                       id=f"{name}-{L}")
          for name, model, lam in [
              ("kitaev", DissipativeKitaevModel(0.4, 1.0, 0.6), [0.7, 0.9]),
              ("driven-bath", DrivenBathModel(), [0.8, 0.4]),  # a bath that depends on lam
          ] for L in (2, 3, 8)),
        pytest.param(lambda rng, tmp_path: random_liouvillian_family(rng, n=2)[0],
                     [0.12, -0.07], id="random_liouvillian_family"),
        pytest.param(quad_liouville_family, [0.12, -0.07], id="quad-liouville"),
    ])
    def test_analytic_dxy_match_central_differences(self, rng, tmp_path, build, lam):
        # every LiouvillianFamily the package builds
        fam = build(rng, tmp_path)
        for mu in range(fam.num_params):
            dX, dY = fam.dxy(mu, lam)
            fX, fY = central_dxy(fam, mu, lam)  # differences of whole family evaluations
            assert maxdev(dX, fX) <= 1e-8 and maxdev(dY, fY) <= 1e-8, mu
            # the structure of X and Y: dX real, dY imaginary antisymmetric
            assert not dX.imag.any() and not dY.real.any()
            assert np.array_equal(dY, -dY.T)

    def test_real_space_point_assembles_once(self, monkeypatch):
        calls = {"assemble_real_space": 0, "eig_general": 0}

        def counting(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counting(liouville_mod, "assemble_real_space")
        counting(liouville_mod, "eig_general")
        counting(linalg_mod, "eig_general")
        zeta_ness(real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), 8), [0.7, 0.9])
        assert calls == {"assemble_real_space": 1, "eig_general": 1}

    def test_real_space_point_runs_no_svd(self, svd_calls):
        # every test on ||X||_2 and the eigenvector condition number is
        # decided on their brackets, far from its threshold here
        zeta_ness(real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), 8), [0.7, 0.9])
        assert svd_calls == []


class TestKspace:
    def test_model_interface_is_the_four_block_methods(self):
        # x, y and their derivatives are formed by the one momentum read
        # (liouville._read_xy), not by methods of the model
        methods = {name for name, v in vars(TranslationInvariantModel).items() if callable(v)}
        assert methods == {"h_block", "m_block", "dh_block", "dm_block"}

    def test_symmetric_bath_no_drive(self):
        y = y_block(SymmetricBathModel(), 1.1, [])
        assert np.abs(y).max() == 0.0

    def test_kitaev_blocks_match_definitions(self):
        model = DissipativeKitaevModel(0.3, 1.0, 0.6)
        lam = [0.7, 0.9]
        k = 1.3
        x, y = x_block(model, k, lam), y_block(model, k, lam)
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
                        xa = sum(p * x_block(model, k, lam) for p, k in zip(ph, ks)) / L
                        ya = sum(p * y_block(model, k, lam) for p, k in zip(ph, ks)) / L
                        blk = np.s_[2 * j : 2 * j + 2, 2 * r : 2 * r + 2]
                        assert maxdev(liou.X[blk], xa) < 1e-13, (L, j, r)
                        assert maxdev(liou.Y[blk], ya) < 1e-13, (L, j, r)

    def test_gamma_k_weak_coupling_limit(self):
        par = KitaevParams(0.5, 0.8, 1e-3, 1.0, 0.6, 4)
        model = DissipativeKitaevModel(1e-3, 1.0, 0.6)
        k = 1.1
        assert maxdev(gamma_k(model, k, [0.5, 0.8]), gamma_k_weak(par, k)) <= 1e-6

    @pytest.mark.parametrize("model, lam", BLOCK_MODELS)
    def test_gamma_k_zone_is_the_stack_of_blocks(self, model, lam):
        # a 1-D array of momenta gives the (L, 2, 2) stack; each block is the
        # one-k view to rounding and solves its own pencil (off k = 0 and pi,
        # where the symmetric bath model's x(k) is a multiple of 1)
        ks = 0.3 + 2 * np.pi * np.arange(12) / 12
        got = gamma_k(model, ks, lam)
        assert got.shape == (12, 2, 2) and gamma_k(model, ks[5], lam).shape == (2, 2)
        scale = max(1.0, np.abs(got).max())
        for k, g in zip(ks, got):
            assert maxdev(g, gamma_k(model, k, lam)) <= 1e-15 * scale
            ref = solve_sylvester_pair(x_block(model, k, lam), x_block(model, -k, lam).T,
                                       y_block(model, k, lam))
            assert maxdev(g, ref) <= 1e-13 * scale

    def test_gamma_k_zero_rhs(self):
        assert np.abs(gamma_k(ZeroRhsModel(), 0.9, [])).max() < 1e-14

    def test_gamma_k_residual(self):
        model = DissipativeKitaevModel(0.5, 1.0, 0.3)
        lam = [0.6, 1.2]
        k = 2.0
        g = gamma_k(model, k, lam)
        x = x_block(model, k, lam)
        xmT = x_block(model, -k, lam).T
        y = y_block(model, k, lam)
        assert np.linalg.norm(x @ g + g @ xmT - y) <= 1e-10 * np.linalg.norm(y)

    @pytest.mark.parametrize("model, lam", [
        (DissipativeKitaevModel(0.4, 1.0, 0.6), [0.7, 0.9]),
        (DissipativeKitaevModel(0.1, 1.0, 0.6), [1.6, 0.3]),
        (DrivenBathModel(), [0.8, 0.4]),
    ])
    def test_matches_per_k_loop(self, model, lam):
        # the stacked pipeline reorders the arithmetic, so agreement is to a
        # tolerance, not bit for bit
        ref = per_k_loop(model, lam, 12)
        got = zeta_ness_k(model, lam, 12).values
        assert maxdev(got, ref) <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("eps", [10.0 ** -e for e in range(2, 13, 2)])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_near_gap_closing_k(self, eps, side):
        # the benchmark's strong-coupling Kitaev sweep: at h = 1 the gap closes
        # at k = 0; beside it the tensor is finite and the per-k loop agrees.
        # x(0) = 0.0068 + 2i (h - 1) sy has the rapidity gap 4 eps, and dx(0)
        # is diagonal in its eigenbasis.  LAPACK's eigenvectors carry an error
        # ~1e-16 / gap, which at eps = 1e-12 reads as a coupling of 9e-7 of
        # degenerate rapidities, so the loop takes the exact closed-form pairs
        model, lam = DissipativeKitaevModel(0.1, 1.0, 0.6), [1.0 + side * eps, 1.0]
        got = zeta_ness_k(model, lam, 128).values
        assert np.isfinite(got).all()
        ref = per_k_loop(model, lam, 128, closed_form_eigenpairs)
        assert maxdev(got, ref) <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("model, lam", BLOCK_MODELS)
    def test_stacked_blocks_equal_per_k_blocks(self, model, lam):
        # a 1-D array of momenta gives the stack of the single blocks, bit
        # for bit; constant entries are broadcast to (L, 2, 2)
        ks = np.concatenate([2 * np.pi * np.arange(7) / 7, -1.3 * np.arange(1, 4)])
        for mu in [None, *range(model.num_params)]:
            for block in (x_block, y_block):
                got = block(model, ks, lam, mu)
                assert got.shape == (len(ks), 2, 2)
                assert np.array_equal(got, np.stack([block(model, k, lam, mu) for k in ks]))

    def test_gap_closing_k_point_raises(self):
        # h = 1, gamma = 1 closes the gap at k = 0: x(0) is a multiple of 1
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        with pytest.raises(SingularPencil):
            zeta_ness_k(model, [1.0, 1.0], 8)

    def test_benchmark_sweep_gap_closing_row_raises(self):
        # the h = 1 row of the strong-coupling Kitaev sweep (g = 0.1, L = 128)
        model = DissipativeKitaevModel(0.1, 1.0, 0.6)
        with pytest.raises(SingularPencil) as info:
            zeta_ness_k(model, [1.0, 1.0], 128)
        assert info.value.block == 0

    def test_nonfinite_parameter_raises(self):
        model = DissipativeKitaevModel(0.4, 1.0, 0.6)
        with pytest.raises(ShapeMismatch):
            zeta_ness_k(model, [np.nan, 0.9], 4)

    @pytest.mark.parametrize("call", [
        lambda model, lam: zeta_ness_k(model, lam, 8),
        lambda model, lam: gamma_k(model, 0.3, lam),
        lambda model, lam: assemble_real_space(model, lam, 4),
    ], ids=["zeta_ness_k", "gamma_k", "assemble_real_space"])
    def test_overflowing_parameter_raises_its_check(self, call):
        # x(k) = 4i h(k) + ... overflows at h = 1e308: the blocks are not
        # finite, which the checks report (warnings are errors here)
        with pytest.raises(ShapeMismatch, match="non-finite"):
            call(DissipativeKitaevModel(0.1, 1.0, 0.6), [1e308, 1.0])

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

    @pytest.mark.parametrize("call", list(ZONE_CALLS))
    @pytest.mark.parametrize("degenerate, nonfinite, expected", [
        (1, 2, SingularPencil),
        (2, 1, ShapeMismatch),
    ])
    def test_lowest_failing_k_wins(self, degenerate, nonfinite, expected, call):
        # a loop over k stops at the first failing k, whichever check fails
        # there; the stacked evaluation reports the same error
        model = faulty_model({degenerate: "degenerate", nonfinite: "nonfinite"})
        with pytest.raises(expected) as info:
            ZONE_CALLS[call](model)
        assert info.value.block == min(degenerate, nonfinite)

    @pytest.mark.parametrize("fault, other", [
        (f, o) for f in ("pencil", "rapidities") for o in ("nonfinite", "degenerate", "pencil",
                                                           "rapidities") if o != f
    ])
    @pytest.mark.parametrize("order", ["earlier", "later"])
    def test_lowest_failing_k_wins_every_check(self, fault, other, order):
        # the pencil and rapidity checks come after the eigenpair checks; a
        # failing block before them still wins, one after them does not
        at, other_at = (2, 1) if order == "earlier" else (1, 3)
        with pytest.raises(FAULT_ERRORS[fault]):
            zeta_ness_k(faulty_model({at: fault}), [0.3], 4)
        with pytest.raises(Exception) as info:
            zeta_ness_k(faulty_model({at: fault, other_at: other}), [0.3], 4)
        first = min(at, other_at)
        kind = fault if first == at else other
        assert type(info.value) is FAULT_ERRORS[kind]
        assert info.value.block == first
        assert FAULT_MESSAGES[kind] in str(info.value)

    @pytest.mark.parametrize("call", list(ZONE_CALLS))
    def test_checks_of_x_before_x_minus_k(self, call):
        # at k = pi/2, x(k) = 1 fails the degeneracy check and x(-k)^T the
        # earlier finiteness check; a loop decomposes x(k) first
        with pytest.raises(ShapeMismatch) as info:
            ZONE_CALLS[call](faulty_model({1: "nonfinite_at_minus_k"}))
        assert info.value.block == 1
        with pytest.raises(SingularPencil) as info:
            ZONE_CALLS[call](faulty_model({1: "degenerate+nonfinite_at_minus_k"}))
        assert info.value.block == 1
        assert "degenerate eigenvalues" in str(info.value)

    def test_zeta_ness_k_balanced_bath_zero(self):
        model = DissipativeKitaevModel(0.4, 0.8, 0.8)  # Lambda = 0
        z = zeta_ness_k(model, [0.7, 0.9], 4)
        assert np.abs(z.values).max() < 1e-12


class TestConjugationRule:
    """Every built-in and test model obeys the conjugation rule of
    TranslationInvariantModel, on which the half-zone sums rest: x(-k) =
    conj x(k) and y(k) Hermitian, and the same for dx_mu and dy_mu, to
    rounding at random k and lam.  :func:`faulty_model` is left out: it
    breaks the rule by design, placing its faults at single momenta."""

    @pytest.mark.parametrize("model", [m for m, _ in BLOCK_MODELS] + [
        DissipativeKitaevModel(1.3, 0.2, 0.9)], ids=lambda m: type(m).__name__)
    def test_blocks_obey_the_rule(self, rng, model):
        ks = rng.uniform(-4 * np.pi, 4 * np.pi, 16)
        for lam in rng.uniform(-2.0, 2.0, (4, model.num_params)):
            for mu in [None, *range(model.num_params)]:
                x, y = x_block(model, ks, lam, mu), y_block(model, ks, lam, mu)
                scale = max(1.0, np.abs(x).max(), np.abs(y).max())
                assert maxdev(x_block(model, -ks, lam, mu), x.conj()) <= 1e-14 * scale
                assert maxdev(y, np.swapaxes(y, -1, -2).conj()) <= 1e-14 * scale


#: the models of the half-zone oracle test, each with a draw of its parameters
HALF_ZONE_MODELS = {
    "kitaev": (DissipativeKitaevModel(0.3, 1.0, 0.6),
               lambda rng: [rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5)]),
    "kitaev-gain": (DissipativeKitaevModel(0.8, 0.4, 1.1),
                    lambda rng: [rng.uniform(-2.0, 2.0), rng.uniform(-1.5, -0.3)]),
    "driven-bath": (DrivenBathModel(), lambda rng: rng.uniform(-1.5, 1.5, 2)),
    "symmetric-bath": (SymmetricBathModel(), lambda rng: []),
    "zero-rhs": (ZeroRhsModel(), lambda rng: []),
}


class TestHalfZone:
    """zeta_ness_k_sums reads the momenta 2 pi j / L for j = 0..L // 2 only and
    sums Re w_j t_j (w_j = 1 at k = 0 and pi, else 2); the sum of every
    block of the full zone (:func:`conftest.full_zone_sums`) is its oracle."""

    @staticmethod
    def per_point(sums, model, lams, L):
        """``sums(model, lams, L)`` in one pass: each point's ``(d, d)`` sums or
        the error it raises alone."""
        with linalg_mod.flagged_blocks() as flags:
            out = sums(model, lams, L)
        return [e or v for v, e in zip(out, flags.errors(len(lams)))]

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 7, 8, 33, 64])
    @pytest.mark.parametrize("name", list(HALF_ZONE_MODELS))
    def test_matches_the_full_zone(self, rng, name, L):
        # the symmetric bath fails at k = 0, where x(0) is a multiple of 1
        model, draw = HALF_ZONE_MODELS[name]
        lams = [draw(rng) for _ in range(3)]
        got = self.per_point(zeta_ness_k_sums, model, lams, L)
        want = self.per_point(full_zone_sums, model, lams, L)
        for g, w in zip(got, want):
            if isinstance(w, Exception):
                assert (type(g), str(g), g.block) == (type(w), str(w), w.block)
                continue
            assert g.shape == w.shape and g.dtype == complex
            assert not g.imag.any()  # exactly 0
            if w.size:
                scale = np.abs(w).max()
                assert maxdev(g.real, w.real) <= 1e-13 * scale
                assert np.abs(w.imag).max() <= 1e-13 * scale  # the mirrors cancel

    @pytest.mark.parametrize("L", [4, 7])
    @pytest.mark.parametrize("fault", ["nonfinite", "degenerate", "pencil", "rapidities",
                                       "nonfinite_at_minus_k", "nonfinite_derivative"])
    def test_mirrored_faults_fail_as_in_the_full_zone(self, fault, L):
        # the fault at j and at L - j, the block's mirror: the full zone reads
        # both and fails at j, the lowest, which the half zone reads too
        for j in range(L // 2 + 1):
            model = faulty_model({j: fault, (L - j) % L: fault}, L)
            with pytest.raises(NhgeoError) as half:
                zeta_ness_k(model, [0.3], L)
            with pytest.raises(NhgeoError) as full:
                full_zone_sums(model, [[0.3]], L)
            got, want = half.value, full.value
            assert (type(got), str(got), got.block) == (type(want), str(want), want.block)
            assert got.block == j

    def test_multi_point_call_counts_half_zone_blocks(self):
        # outside a pass, a call over several points raises the error of its
        # first failing point at the flat block p * (L // 2 + 1) + j, where
        # the full zone counts p * L + j
        L = 6
        model = faulty_model({(0.4, 2): "pencil", (0.6, 1): "degenerate"}, L)
        lams = [[0.5], [0.4], [0.6]]
        with pytest.raises(SingularPencil) as half:
            zeta_ness_k_sums(model, lams, L)
        with pytest.raises(SingularPencil) as full:
            full_zone_sums(model, lams, L)
        assert half.value.block == 1 * (L // 2 + 1) + 2 == 6
        assert full.value.block == 1 * L + 2 == 8
        assert str(half.value).startswith("block 6: min |a_i + b_j|")
        assert str(full.value) == str(half.value).replace("block 6", "block 8")


def one_point_read(model, lam, ks):
    """The momentum entries of one point from reads at a one-point ``lam``
    (:func:`conftest.x_block`), in the layout of
    ``liouville._momentum_blocks``."""
    def E(blocks):
        return tuple(np.ascontiguousarray(e) for e in linalg_mod._entries(blocks))

    d = range(model.num_params)
    return [E(x_block(model, ks, lam)), E(np.swapaxes(x_block(model, -ks, lam), -1, -2)),
            E(y_block(model, ks, lam)),
            *(E(x_block(model, ks, lam, mu)) for mu in d),
            *(E(y_block(model, ks, lam, mu)) for mu in d)]


class TestStackedRead:
    """One read of the blocks of P points of a model, with their parameters as
    (P, 1) columns, holds every point's one-point blocks bit for bit, point p
    at index p of the (P, L) entries."""

    @pytest.mark.parametrize("model, lams", [
        (DissipativeKitaevModel(0.3, 1.0, 0.6), [[0.7, 0.9], [1.0, 1.0], [-0.4, 0.2]]),
        (DrivenBathModel(), [[0.8, 0.4], [0.1, -0.3], [1.2, 0.0]]),
        (SymmetricBathModel(), [[], [], []]),
    ])
    def test_stack_equals_one_point_reads(self, model, lams):
        L, lams = 6, np.array(lams, dtype=float)
        ks = 2 * np.pi * np.arange(L) / L
        x, xmT, y, derivatives = liouville_mod._momentum_blocks(model, lams, ks)
        # the read's entries in the order of one_point_read, directions split
        read = [x, xmT, y, *(tuple(e[mu] for e in E) for E in derivatives
                             for mu in range(model.num_params))]
        for p, lam in enumerate(lams):
            alone = one_point_read(model, lam, ks)
            assert len(alone) == len(read)
            for joined, single in zip(read, alone):
                for a, b in zip(joined, single):
                    assert a[p].tobytes() == b.tobytes()

    def test_pass_over_two_faulty_points(self):
        # each faulty point of one pass gets the error it gets alone, the
        # others their one-point tensors: one model, whose faults lam picks
        from nhgeo.cli import _one_result
        from nhgeo.liouville import zeta_ness_k_sums

        model = faulty_model({(0.4, 2): "pencil", (0.3, 1): "rapidities", (0.3, 3): "nonfinite"})
        lams = [[0.5], [0.4], [0.6], [0.3], [0.7]]

        def evaluate(ps):
            return [{"zeta": z} for z in zeta_ness_k_sums(model, ps, 4)]

        joined = _one_result(evaluate, lams)
        for lam, result in zip(lams, joined):
            alone, = _one_result(evaluate, [lam])
            if isinstance(alone, Exception):
                assert type(result) is type(alone) and str(result) == str(alone)
                assert result.block == alone.block
            else:
                assert result["zeta"].tobytes() == alone["zeta"].tobytes()
        assert [type(r) for r in joined] == [dict, SingularPencil, dict,
                                             DegenerateRapidities, dict]
        assert "block 1: rapidities 0,1 degenerate" in str(joined[3])

    def test_nonfinite_summand_raises(self):
        # a NaN derivative block passes every block check: its NaN tensor was
        # returned as a value
        model = faulty_model({(0.5, 2): "nonfinite_derivative"})
        with pytest.raises(NonConvergence) as info:
            zeta_ness_k(model, [0.5], 4)
        assert info.value.block == 2
        assert "block 2: steady-state summand is not finite" in str(info.value)
        assert np.isfinite(zeta_ness_k(model, [0.3], 4).values).all()

    def test_nonfinite_summand_in_a_pass(self):
        # the pass runs once, where the point with a NaN derivative ran again
        # alone to return its NaN sums as a result
        from nhgeo.cli import _one_result
        from nhgeo.liouville import zeta_ness_k_sums

        model = faulty_model({(0.5, 2): "nonfinite_derivative"})
        calls = []

        def evaluate(ps):
            calls.append(len(ps))
            return [{"zeta": z} for z in zeta_ness_k_sums(model, ps, 4)]

        joined = _one_result(evaluate, [[0.3], [0.5], [0.7]])
        assert calls == [3]
        alone, = _one_result(evaluate, [[0.5]])
        assert type(joined[1]) is type(alone) is NonConvergence
        assert str(joined[1]) == str(alone) and joined[1].block == alone.block == 2
        for lam, result in zip([[0.3], [0.7]], joined[::2]):
            assert result["zeta"].tobytes() == zeta_ness_k(model, lam, 4).values.tobytes()

    def test_no_points_read_no_block(self, monkeypatch):
        from nhgeo.liouville import zeta_ness_k_sums

        monkeypatch.setattr(liouville_mod, "_momentum_blocks", lambda *args: pytest.fail("read"))
        for model in (DissipativeKitaevModel(0.4, 1.0, 0.6), SymmetricBathModel()):
            d = model.num_params
            out = zeta_ness_k_sums(model, [], 8)
            assert out.shape == (0, d, d) and out.dtype == complex


class TestGaussianForms:
    def test_log_derivative_zero_correlation(self, rng):
        dG = 1j * (lambda B: B - B.T)(rng.normal(size=(4, 4)))
        K = log_derivative(np.zeros((4, 4)), dG)
        assert maxdev(K, -dG) < 1e-12

    def test_log_derivative_residual(self, rng):
        for _ in range(5):
            fam, _ = random_liouvillian_family(rng, n=2)
            G, (dG, _) = steady_state_dgamma(fam, [0.1, 0.1])
            K = log_derivative(G, dG)
            assert np.linalg.norm(G @ K @ G - K - dG) <= 1e-9 * max(1.0, np.linalg.norm(dG))

    def test_pure_state_rejected(self):
        G = 1j * np.kron(np.eye(1), J)  # eigenvalues exactly +-1
        with pytest.raises(PureStateSingular):
            log_derivative(G, np.zeros((2, 2)))

    def test_bures_zero_derivative(self, rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        G = steady_state_gamma(fam([0.0, 0.0]))
        zero = np.zeros((4, 4))
        assert not liouville_mod.gaussian_tensors(G, [zero, zero], ["bures"])["bures"].any()

    def test_bures_log_derivative_contraction(self, rng):
        # dual route: (1/4) Tr(K_mu (Gamma K_nu Gamma - K_nu)) reproduces it
        fam, _ = random_liouvillian_family(rng, n=2)
        G, dG = steady_state_dgamma(fam, [0.07, -0.03])
        bures = liouville_mod.gaussian_tensors(G, dG, ["bures"])["bures"]
        for mu in range(2):
            for nu in range(2):
                direct = bures[mu, nu]
                Kn = log_derivative(G, dG[nu])
                alt = -0.125 * np.trace(dG[mu] @ Kn).real
                assert abs(direct - alt) <= 1e-9 * max(1.0, abs(direct))

    def test_bures_direction_matrix_psd(self, rng):
        fam, _ = random_liouvillian_family(rng, n=2)
        G, dG = steady_state_dgamma(fam, [0.05, -0.11])
        B = liouville_mod.gaussian_tensors(G, dG, ["bures"])["bures"]
        assert maxdev(B, B.T) <= 1e-10 * max(1.0, np.abs(B).max())
        assert np.linalg.eigvalsh((B + B.T) / 2).min() >= -1e-10

    def test_zeta_tilde_maximally_mixed(self, rng):
        B = rng.normal(size=(4, 4))
        dG = 1j * (B - B.T)
        got = liouville_mod.gaussian_tensors(np.zeros((4, 4)), [dG], ["zeta_limited"])
        assert abs(got["zeta_limited"][0, 0] - 0.5 * np.trace(dG @ dG).real) < 1e-12

    def test_exact_ness_form_vs_purity(self, rng):
        # S = sqrt(det(1 + G^2)) equals 2^n Tr(rho^2); zero-derivative limit
        fam, baths = random_liouvillian_family(rng, n=2)
        from nhgeo.oracle import build_fock
        from nhgeo.verify import brute_ness_rho

        G = steady_state_gamma(fam([0.0, 0.0]))
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

        def corrupted(x, U, dX, Ui):
            return -orig(x, U, dX, Ui)

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
        G, dG = steady_state_dgamma(fam, lam)
        for kind in self.KINDS:
            ref = np.array([[_pair_form(G, a, b, kind) for b in dG] for a in dG], dtype=complex)
            assert np.array_equal(got[kind].values, ref), kind

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

    def test_hermiticity_against_own_scale(self, rng):
        # the defect is judged against max(|Gamma|, 1): 1e-9 of a 1e6 scale
        # passes, 1e-6 of a unit scale does not, and it is checked before
        # the pure-state test
        B = rng.normal(size=(4, 4))
        base, skew = 1j * (B - B.T), np.zeros((4, 4))
        skew[0, 1] = 1.0
        dG = [base]
        big = liouville_mod.gaussian_tensors(1e6 * base + 1e-3 * skew, dG, ["bures"])["bures"]
        assert np.isfinite(big).all()
        for G in (0.1 * base + 1e-6 * skew, np.kron(np.eye(2), SY) + 1e-6 * skew):
            with pytest.raises(ShapeMismatch, match="^Gamma must be Hermitian") as info:
                liouville_mod.gaussian_tensors(G, dG, ["zeta_limited", "bures"])
            assert info.value.block == 0
