import itertools
import warnings

import numpy as np
import pytest

from nhgeo.biortho import build_biortho
from nhgeo.cli import MatrixFamilyAdapter
from nhgeo.errors import (
    ContinuationAmbiguous,
    DegenerateSpectrum,
    NearDefective,
    NotHermitian,
    NonConvergence,
    ShapeMismatch,
)
from nhgeo.kitaev import DissipativeKitaevModel, KitaevParams, weak_coupling_tensors
from nhgeo.liouville import (
    LiouvillianFamily,
    gaussian_tensors,
    ness_tensors,
    real_space_family,
    zeta_ness,
)
from nhgeo.oracle import build_fock, superop_family
from nhgeo.ssh import SSHParams, bloch_family
from nhgeo.tensors import (
    SOS_KINDS,
    STATE_KINDS,
    OperatorFamily,
    _EPS_THIRD,
    _match,
    _stencil,
    agp_elements,
    central_difference,
    chi_hermitian,
    eta_tensor,
    stencil_tensors,
    sum_over_blocks,
    sum_over_states,
    zeta_limited,
    zeta_tensor,
)
from nhgeo.verify import (
    random_family,
    random_gauge,
    random_hermitian_family,
    random_liouvillian_family,
)

from conftest import maxdev, save_matrix, ssh_eigenstates

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def qubit():
    return OperatorFamily(
        2, 1,
        lambda l: np.cos(l[0]) * SZ + np.sin(l[0]) * SX,
        lambda mu, l: -np.sin(l[0]) * SZ + np.cos(l[0]) * SX,
    )


@pytest.fixture
def nh6(rng):
    return random_family(rng, N=6, d=2)


def matrix_file_family(rng, tmp_path):
    """The ``matrix-file`` command-line family on random K0, dK0, dK1 files."""
    paths = [str(tmp_path / f"{name}.json") for name in ("K0", "dK0", "dK1")]
    for path in paths:
        save_matrix(path, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return MatrixFamilyAdapter(paths[0], paths[1:]).family()


class TestOperatorFamily:
    @pytest.mark.parametrize("build, lam", [
        (lambda rng, tmp_path: random_family(rng, N=6, d=2), [0.07, -0.04]),
        (lambda rng, tmp_path: bloch_family(SSHParams(0.5, 0.1, 8), 0.3), [0.5, 0.1]),
        (lambda rng, tmp_path: superop_family(build_fock(2), random_liouvillian_family(rng)[0]),
         [0.06, -0.03]),
        (matrix_file_family, [0.2, -0.1]),
    ], ids=["random_family", "bloch_family", "superop_family", "matrix-file"])
    def test_analytic_fd_consistency(self, rng, tmp_path, build, lam):
        # every OperatorFamily the package builds
        fam = build(rng, tmp_path)
        for mu in range(fam.num_params):
            ana = fam.derivative(mu, lam)
            fd = central_difference(fam, lam, mu)
            assert np.linalg.norm(ana - fd) <= 1e-5 * np.linalg.norm(ana), mu


class TestCentralDifference:
    @pytest.mark.parametrize("lam_mu", [0.3, -40.0])
    def test_default_step(self, lam_mu):
        points = []

        def f(lam):
            points.append(lam)
            return lam

        lam = np.array([7.0, lam_mu])
        central_difference(f, lam, 1)
        h = np.finfo(float).eps ** (1 / 3) * max(1.0, abs(lam_mu))
        assert points[0][1] - lam_mu == pytest.approx(h, rel=1e-9)
        assert points[1][1] - lam_mu == pytest.approx(-h, rel=1e-9)
        assert points[0][0] == points[1][0] == 7.0

    @pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
    @pytest.mark.parametrize("call", [
        lambda fam, h: central_difference(fam, [0.3], 0, h),
    ], ids=["central_difference"])
    def test_step_must_be_finite_positive(self, qubit, call, h):
        calls = []
        fam = OperatorFamily(2, 1, lambda l: calls.append(l) or qubit.func(l), qubit.deriv_func)
        with pytest.raises(ValueError, match="finite number > 0"):
            call(fam, h)
        assert calls == []  # rejected before any family evaluation


class TestChiHermitian:
    def test_qubit_quarter(self, qubit):
        for th in (0.0, 0.3, 1.1, 2.7):
            chi = chi_hermitian(qubit, [th], 0)
            assert abs(chi.values[0, 0] - 0.25) < 1e-9

    def test_one_parameter_curvature_vanishes(self, qubit):
        chi = chi_hermitian(qubit, [0.4], 0)
        assert abs(chi.berry_curvature[0, 0]) < 1e-12

    def test_parameter_independent_family_zero(self):
        fam = OperatorFamily(3, 2, lambda l: np.diag([0.0, 1.0, 2.0]),
                             lambda mu, l: np.zeros((3, 3)))
        chi = chi_hermitian(fam, [0.1, 0.2], 1)
        assert np.abs(chi.values).max() < 1e-12

    def test_hermitian_psd(self, rng):
        fam = random_hermitian_family(rng)
        chi = chi_hermitian(fam, [0.03, -0.06], 0)
        assert chi.hermiticity_defect() < 1e-9
        assert chi.min_eigenvalue() > -1e-9

    def test_not_hermitian_rejected(self, nh6):
        with pytest.raises(NotHermitian):
            chi_hermitian(nh6, [0.0, 0.0], 0)

    @pytest.mark.parametrize("theta", [0.3, -40.0])
    def test_fd_step_reported(self, qubit, theta):
        assert chi_hermitian(qubit, [theta], 0).meta["fd_step"] == [
            _EPS_THIRD * max(1.0, abs(theta))]


def agp_residual(fam, lam, mu_dir):
    """Residual ``||dK - F - [A, K]|| / ||dK||`` of the transport equation.

    ``F`` carries the eigenvalue derivatives via the Hellmann-Feynman
    diagonal; ``A = R A_elements L^H`` is the dense generator from
    :func:`agp_elements`.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    K = fam(lam)
    sys = build_biortho(K)
    dK = fam.derivative(mu_dir, lam)
    A = sys.right_vectors @ agp_elements(fam, lam, mu_dir) @ sys.left_vectors.conj().T
    dw = np.diag(sys.left_vectors.conj().T @ dK @ sys.right_vectors)
    F = sys.right_vectors @ np.diag(dw) @ sys.left_vectors.conj().T
    resid = dK - F - (A @ K - K @ A)
    return float(np.linalg.norm(resid) / max(np.linalg.norm(dK), 1e-300))


class TestAgpElements:
    def test_commuting_family_zero(self):
        fam = OperatorFamily(
            2, 1, lambda l: np.diag([l[0], 2 * l[0]]),
            lambda mu, l: np.diag([1.0, 2.0]),
        )
        A = agp_elements(fam, [0.7], 0)
        assert np.abs(A).max() < 1e-14

    def test_two_level_forced_element(self):
        w1, w2, v = 0.3, 1.9, 0.8

        def f(l):
            K = np.diag([w1, w2]).astype(complex)
            K[0, 1] = l[0] * v
            return K

        A = agp_elements(OperatorFamily(2, 1, f, lambda mu, l: np.array([[0.0, v], [0.0, 0.0]])),
                         [0.0], 0)
        # element (m=1, n=2) in the basis ordered by eigenvalue
        assert abs(A[0, 1] - v / (w2 - w1)) < 1e-9
        assert np.abs(np.diag(A)).max() == 0.0

    def test_transport_equation_residual(self, rng):
        fam = random_family(rng, N=5, d=1)
        assert agp_residual(fam, [0.05], 0) <= 1e-8

    def test_degenerate_requires_regularization(self):
        fam = OperatorFamily(
            2, 1,
            lambda l: np.array([[1.0, l[0]], [l[0], 1.0]], dtype=complex),
            lambda mu, l: SX,
        )
        with pytest.raises(DegenerateSpectrum):
            agp_elements(fam, [0.0], 0)
        A = agp_elements(fam, [0.0], 0, mu_reg=1e-6)
        assert np.all(np.isfinite(A))


class TestEta:
    def test_hermitian_collapse(self, rng):
        fam = random_hermitian_family(rng, N=6)
        lam = np.array([0.04, -0.08])
        chi = chi_hermitian(fam, lam, 0).values
        assert maxdev(eta_tensor(fam, lam, 0).values, chi) <= 1e-9

    def test_ssh_closed_form_oracle(self):
        # direct evaluation from the closed-form eigenstates
        from nhgeo.ssh import SSHParams, bloch_family

        t, d, k = 0.7, 0.4, 1.3
        fam = bloch_family(SSHParams(t, d, 4), k)
        sysfam = eta_tensor(fam, [t, d], 0).values

        h = 1e-6

        def minus_branch(tt, dd):
            # canonical state 0 (ascending real part) is the -sqrt(eps) branch
            (_, rm), (_, lm) = ssh_eigenstates(SSHParams(tt, dd, 4), k)
            return rm, lm

        r0, l0 = minus_branch(t, d)
        dr, dl = [], []
        for dt, dd in ((h, 0.0), (0.0, h)):
            rp, lp = minus_branch(t + dt, d + dd)
            rm_, lm_ = minus_branch(t - dt, d - dd)
            dr.append((rp - rm_) / (2 * h))
            dl.append((lp - lm_) / (2 * h))
        ref = np.empty((2, 2), dtype=complex)
        for mu in range(2):
            for nu in range(2):
                ref[mu, nu] = dl[mu].conj() @ dr[nu] - (dl[mu].conj() @ r0) * (
                    l0.conj() @ dr[nu]
                )
        assert maxdev(sysfam, ref) < 1e-7


class TestZetaRoutes:
    def test_hermitian_collapse(self, rng):
        fam = random_hermitian_family(rng, N=8)
        lam = np.array([0.02, -0.05])
        chi = chi_hermitian(fam, lam, 0).values
        assert maxdev(zeta_tensor(fam, lam, 0).values, chi) <= 1e-9

    def test_routes_agree(self, nh6, rng):
        lam = rng.uniform(-0.1, 0.1, size=2)
        z_ov = zeta_tensor(nh6, lam, 1).values
        z_pr = stencil_tensors(nh6, lam, 1, ["zeta"], route="projector")["zeta"].values
        z_ag = sum_over_states(nh6, lam, 1, ["zeta"])["zeta"].values
        scale = np.abs(z_ov).max()
        assert maxdev(z_ov, z_pr) <= 1e-8 * scale
        assert maxdev(z_ov, z_ag) <= 1e-8 * scale

    def test_routes_agree_under_gauge(self, nh6, rng):
        lam = rng.uniform(-0.1, 0.1, size=2)
        gauge = random_gauge(rng, 6, lam)
        z_ov = stencil_tensors(nh6, lam, 1, ["zeta"], gauge=gauge)["zeta"].values
        z_pr = stencil_tensors(nh6, lam, 1, ["zeta"], route="projector", gauge=gauge)["zeta"].values
        assert maxdev(z_ov, z_pr) <= 1e-8 * np.abs(z_ov).max()

    def test_unknown_route_rejected(self, nh6):
        calls = []
        fam = OperatorFamily(6, 2, lambda l: calls.append(l) or nh6.func(l), nh6.deriv_func)
        with pytest.raises(ValueError):
            stencil_tensors(fam, [0.0, 0.0], 0, ["zeta"], route="nope")
        assert calls == []  # rejected before any family evaluation

    def test_sum_rule_generator_norm(self, rng):
        fam = random_family(rng, N=5, d=1)
        lam = np.array([0.07])
        total = sum(
            sum_over_states(fam, lam, n, ["zeta"])["zeta"].values[0, 0] for n in range(5)
        )
        sys = build_biortho(fam(lam))
        A_op = sys.right_vectors @ agp_elements(fam, lam, 0) @ sys.left_vectors.conj().T
        assert abs(total - np.linalg.norm(A_op) ** 2) <= 1e-8 * abs(total)
        assert total.real >= 0.0


class TestZetaLimited:
    def test_hermitian_collapse(self, rng):
        fam = random_hermitian_family(rng, N=6)
        lam = np.array([0.03, -0.01])
        chi = chi_hermitian(fam, lam, 0).values
        assert maxdev(zeta_limited(fam, lam, 0).values, chi) <= 1e-9

    def test_positive_semidefinite(self, nh6, rng):
        lam = rng.uniform(-0.1, 0.1, size=2)
        zt = zeta_limited(nh6, lam, 3)
        assert zt.hermiticity_defect() <= 1e-9 * max(1.0, np.abs(zt.values).max())
        assert zt.min_eigenvalue() >= -1e-10


ALL_KIND_SETS = [list(c) for r in range(1, len(SOS_KINDS) + 1)
                 for c in itertools.combinations(SOS_KINDS, r)]


class TestStencilTensors:
    @pytest.mark.parametrize("opts", [{}, {"gauge": True}])
    def test_kinds_equal_wrappers(self, nh6, rng, opts):
        lam = rng.uniform(-0.1, 0.1, size=2)
        if opts.get("gauge"):
            opts = {"gauge": random_gauge(rng, 6, lam)}
        every = stencil_tensors(nh6, lam, 2, SOS_KINDS, **opts)
        assert list(every) == list(SOS_KINDS)
        for kind in SOS_KINDS:
            one = stencil_tensors(nh6, lam, 2, [kind], **opts)[kind]
            assert one.kind == every[kind].kind == kind
            # column n of the every-state stencil is the same computation
            assert np.array_equal(one.values, every[kind].values), kind
            assert one.meta == every[kind].meta
        if not opts:
            wrappers = {"eta": eta_tensor, "zeta": zeta_tensor, "zeta_limited": zeta_limited}
            for kind, wrapper in wrappers.items():
                T = wrapper(nh6, lam, 2)
                assert T.kind == kind
                assert np.array_equal(T.values, every[kind].values), kind
                assert T.meta == every[kind].meta
        projector = stencil_tensors(nh6, lam, 2, ["zeta"], route="projector", **opts)["zeta"]
        assert projector.meta["route"] == "projector"

    @pytest.mark.parametrize("n", [0, 3])
    def test_contractions_match_loops(self, nh6, rng, n):
        """The contractions against per-element loops over the same stencil:
        eta bit-exactly, the reordered sums to 1e-12 relative."""
        from nhgeo.tensors import _stencil

        lam = rng.uniform(-0.1, 0.1, size=2)
        sys0, dR, dL = _stencil(nh6, lam, range(6))
        R, L, C, Cinv = sys0.right_vectors, sys0.left_vectors, sys0.gram_right, sys0.gram_left

        def cov(mu, m):  # |D_mu m_R>
            return dR[mu, :, m] - (L[:, m].conj() @ dR[mu, :, m]) * R[:, m]

        ref = {kind: np.empty((2, 2), dtype=complex) for kind in SOS_KINDS + ("projector",)}
        for a, b in itertools.product(range(2), repeat=2):
            dl, dn = dL[a, :, n], dR[b, :, n]
            ref["eta"][a, b] = dl.conj() @ dn - (dl.conj() @ R[:, n]) * (L[:, n].conj() @ dn)
            ref["zeta"][a, b] = sum(Cinv[n, m] * (cov(a, m).conj() @ cov(b, n)) for m in range(6))
            ref["projector"][a, b] = sum(Cinv[n, m] * (
                dR[a, :, m].conj() @ dn
                - (dR[a, :, m].conj() @ L[:, m]) * (R[:, m].conj() @ dn)
                - (dR[a, :, m].conj() @ R[:, n]) * (L[:, n].conj() @ dn)
                + C[m, n] * (dR[a, :, m].conj() @ L[:, m]) * (L[:, n].conj() @ dn))
                for m in range(6))
            lnln = (L[:, n].conj() @ L[:, n]).real
            ref["zeta_limited"][a, b] = lnln * (cov(a, n).conj() @ cov(b, n))
        ref["zeta_limited_rescaled"] = ref["zeta_limited"] / (
            (L[:, n].conj() @ L[:, n]).real * (R[:, n].conj() @ R[:, n]).real)
        got = stencil_tensors(nh6, lam, n, SOS_KINDS)
        got["projector"] = stencil_tensors(nh6, lam, n, ["zeta"], route="projector")["zeta"]
        assert np.array_equal(got["eta"].values, ref["eta"])
        for kind, T in got.items():
            assert maxdev(T.values, ref[kind]) <= 1e-12 * np.abs(ref[kind]).max(), kind

    def test_one_stencil_for_any_kinds(self, nh6, monkeypatch):
        import nhgeo.tensors as tensors_mod

        calls = {"build_biortho": 0, "_stencil": 0}
        for name in calls:
            real = getattr(tensors_mod, name)
            monkeypatch.setattr(tensors_mod, name, lambda *a, _f=real, _n=name, **k:
                                calls.__setitem__(_n, calls[_n] + 1) or _f(*a, **k))
        d = nh6.num_params
        for kinds in ALL_KIND_SETS:
            for name in calls:
                calls[name] = 0
            stencil_tensors(nh6, [0.02, 0.01], 1, kinds)
            assert calls == {"build_biortho": 1 + 2 * d, "_stencil": 1}, kinds

    def test_invalid_arguments_rejected_before_evaluation(self, nh6):
        calls = []
        fam = OperatorFamily(6, 2, lambda l: calls.append(l) or nh6.func(l), nh6.deriv_func)
        for kinds, route, n, error in (
            (["chi"], "overlap", 0, ValueError),
            (["eta", "bures"], "overlap", 0, ValueError),
            (["zeta"], "agp", 0, ValueError),
            (["eta"], "nope", 0, ValueError),
            (["eta"], "overlap", 6, ShapeMismatch),
            (["zeta"], "overlap", -1, ShapeMismatch),
        ):
            with pytest.raises(error):
                stencil_tensors(fam, [0.0, 0.0], n, kinds, route=route)
        assert calls == []

    def test_degenerate_spectrum(self, rng):
        # states 0 and 1 degenerate at lam = 0, state 2 isolated
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pair = OperatorFamily(3, 1, lambda l: np.diag([1.0, 1.0, 2.0]) + l[0] * D,
                              lambda mu, l: D)
        for kinds in ALL_KIND_SETS:
            with pytest.raises(DegenerateSpectrum, match="eigenvalue 0"):
                stencil_tensors(pair, [0.0], 0, kinds)
            if "zeta" in kinds:  # zeta differentiates every state
                with pytest.raises(DegenerateSpectrum, match="eigenvalue 0"):
                    stencil_tensors(pair, [0.0], 2, kinds)
            else:
                for T in stencil_tensors(pair, [0.0], 2, kinds).values():
                    assert np.isfinite(T.values).all()

    @pytest.mark.parametrize("lam", [[0.03, -0.05], [-40.0, 2.5]])
    def test_fd_step_reported(self, lam):
        points = []

        def f(l):
            points.append(l)
            return np.diag([l[0], l[0] + 1.0 + 0.1j * l[1]])

        fam = OperatorFamily(2, 2, f, lambda mu, l: np.diag([[1.0, 1.0], [0.0, 0.1j]][mu]))
        want = [_EPS_THIRD * max(1.0, abs(x)) for x in lam]
        for kind, T in stencil_tensors(fam, lam, 1, SOS_KINDS).items():
            assert T.meta["fd_step"] == want, kind
        # the step the stencil evaluates at (center, then +-h per direction)
        for mu, h in enumerate(want):
            assert points[1 + 2 * mu][mu] - lam[mu] == pytest.approx(h, rel=1e-9)


class TestSumOverStates:
    @pytest.mark.parametrize("N", [2, 3, 6])
    def test_matches_stencil(self, rng, N):
        for _ in range(3):
            fam = random_family(rng, N=N)
            lam = rng.uniform(-0.1, 0.1, size=2)
            for n in range(N):
                sos = sum_over_states(fam, lam, n, SOS_KINDS)
                for kind, ref in stencil_tensors(fam, lam, n, SOS_KINDS).items():
                    assert sos[kind].kind == ref.kind == kind
                    assert sos[kind].state_index == ref.state_index == n
                    scale = np.abs(ref.values).max()
                    assert maxdev(sos[kind].values, ref.values) <= 1e-8 * scale, kind

    def test_hermitian_collapse(self, rng):
        fam = random_hermitian_family(rng, N=6)
        lam = np.array([0.03, -0.01])
        chi = chi_hermitian(fam, lam, 2).values
        for kind, T in sum_over_states(fam, lam, 2, ["eta", "zeta", "zeta_limited"]).items():
            assert maxdev(T.values, chi) <= 1e-9, kind

    def test_agp_route_is_engine_zeta(self, nh6, rng):
        # zeta is the contraction of the generator matrices of agp_elements
        lam = rng.uniform(-0.1, 0.1, size=2)
        sys = build_biortho(nh6(lam))
        for mu_reg in (0.0, 0.3):
            A = np.stack([agp_elements(nh6, lam, mu, mu_reg) for mu in range(2)])
            route = (A @ sys.gram_left[:, 4]).conj() @ sys.gram_right @ A[:, :, 4].T
            engine = sum_over_states(nh6, lam, 4, SOS_KINDS, mu_reg=mu_reg)["zeta"].values
            assert np.array_equal(route, engine)

    def test_one_eigensolve(self, nh6, monkeypatch):
        import nhgeo.tensors as tensors_mod

        calls = []
        real = tensors_mod.build_biortho
        monkeypatch.setattr(tensors_mod, "build_biortho",
                            lambda K, **kw: calls.append(K) or real(K, **kw))
        sum_over_states(nh6, [0.02, 0.01], 1, SOS_KINDS, mu_reg=0.1)
        assert len(calls) == 1

    def test_kinds_in_requested_order(self, nh6):
        out = sum_over_states(nh6, [0.0, 0.0], 0, ["zeta_limited", "eta"])
        assert list(out) == ["zeta_limited", "eta"]

    def test_degenerate_spectrum_raises(self):
        fam = OperatorFamily(
            2, 1,
            lambda l: np.array([[1.0, l[0]], [l[0], 1.0]], dtype=complex),
            lambda mu, l: SX,
        )
        for kinds in (["zeta"], ["eta"], ["zeta_limited"]):
            with pytest.raises(DegenerateSpectrum):
                sum_over_states(fam, [0.0], 0, kinds)
        # mu_reg regularizes zeta only
        zeta = sum_over_states(fam, [0.0], 0, ["zeta"], mu_reg=1e-6)["zeta"]
        assert np.all(np.isfinite(zeta.values))
        for kind in ("eta", "zeta_limited_rescaled"):
            with pytest.raises(DegenerateSpectrum):
                sum_over_states(fam, [0.0], 0, ["zeta", kind], mu_reg=1e-6)

    def test_degenerate_pair_away_from_state(self, rng):
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        fam = OperatorFamily(3, 1, lambda l: np.diag([1.0, 1.0, 2.0]) + l[0] * D,
                             lambda mu, l: D)
        n = int(np.argmax(np.linalg.eigvals(fam([0.0])).real))
        sos = sum_over_states(fam, [0.0], n, STATE_KINDS)
        for kind, ref in stencil_tensors(fam, [0.0], n, STATE_KINDS).items():
            assert maxdev(sos[kind].values, ref.values) <= 1e-8 * np.abs(ref.values).max(), kind
        # zeta sums over every state, so its exact kernel needs every gap
        with pytest.raises(DegenerateSpectrum):
            sum_over_states(fam, [0.0], n, ["zeta"])
        with pytest.raises(DegenerateSpectrum):
            sum_over_states(fam, [0.0], 1 - (n == 1), ["eta"])

    @pytest.mark.parametrize("eps", [1e-26, 1e-30, 0.0])
    def test_near_defective_raises(self, eps):
        fam = OperatorFamily(
            2, 1,
            lambda l: np.array([[0.0, 1.0], [eps, 0.0]], dtype=complex) + l[0] * SZ,
            lambda mu, l: SZ,
        )
        with pytest.raises(NearDefective):
            sum_over_states(fam, [0.0], 0, SOS_KINDS)

    def test_overflowing_mu_reg_is_not_a_warning(self):
        # mu_reg^2 overflows to inf, which leaves the regularized kernel 0: a
        # library call, outside any pass, returns the zero tensor that the
        # tensor command prints, with no RuntimeWarning
        fam = block_family(np.array([[1.0, 2.0], [0.0, 3.0]]), [SX])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeta = sum_over_states(fam, [0.0], 0, ["zeta"], mu_reg=1e200)["zeta"]
        assert zeta.values.shape == (1, 1) and not zeta.values.any()

    def test_invalid_arguments_rejected(self, nh6):
        with pytest.raises(ValueError, match="does not provide"):
            sum_over_states(nh6, [0.0, 0.0], 0, ["chi"])
        with pytest.raises(ValueError, match="mu_reg"):
            sum_over_states(nh6, [0.0, 0.0], 0, ["eta"], mu_reg=-1.0)


def block_family(B, dK):
    """The constant family ``B`` with derivative directions ``dK``."""
    return OperatorFamily(2, len(dK), lambda l: B, lambda mu, l: dK[mu])


#: a failing block of each check of :func:`sum_over_blocks`, in check order
BLOCK_FAULTS = {
    "nonfinite": ([[np.nan, 0.0], [0.0, 1.0]], ShapeMismatch),
    "residual": ([[1e200, 1.0], [0.0, 2e200]], NonConvergence),  # the quadratic overflows
    "defective": ([[0.0, 0.0], [1.0, 0.0]], NearDefective),
    "degenerate": ([[1.0, 0.0], [0.0, 1.0]], DegenerateSpectrum),
}


class TestSumOverBlocks:
    @pytest.fixture
    def blocks(self, rng):
        K = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        dK = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        return K, dK

    @pytest.mark.parametrize("n", [0, 1])
    def test_equals_per_block_engine(self, blocks, n):
        K, dK = blocks
        got = sum_over_blocks(K, dK, n, STATE_KINDS)
        assert list(got) == list(STATE_KINDS)
        for kind in STATE_KINDS:
            ref = sum(sum_over_states(block_family(B, dK), np.zeros(3), n, [kind])[kind].values
                      for B in K)
            assert maxdev(got[kind], ref) <= 1e-12 * np.abs(ref).max(), kind

    # each edge block raises the error the per-block stencil raises
    EDGES = [
        ([[0.0, 0.0], [1.0, 0.0]], NearDefective),    # a Jordan block
        ([[0.0, 1e-30], [1.0, 0.0]], NearDefective),  # condition ~1e15
        ([[0.0, 1e-22], [1.0, 0.0]], DegenerateSpectrum),  # condition ~1e11, gap 2e-11
        ([[0.0, 0.0], [0.0, 0.0]], DegenerateSpectrum),
        ([[1.0, 0.0], [0.0, 1.0]], DegenerateSpectrum),
    ]

    @pytest.mark.parametrize("edge, error", EDGES)
    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_edge_block_located(self, blocks, edge, error, at):
        K, dK = blocks
        K = K.copy()
        K[at] = edge
        K[-1] = edge  # a later failure of the same kind does not win
        for n in (0, 1):
            with pytest.raises(error) as info:
                sum_over_blocks(K, dK, n, ["zeta_limited"])
            assert info.value.block == at
            assert f"block {at}:" in str(info.value)
        with pytest.raises(error):
            zeta_limited(block_family(np.array(edge, dtype=complex), dK), np.zeros(3), 0)

    def test_first_failing_block_wins_across_checks(self, blocks):
        K, dK = blocks
        K = K.copy()
        K[4] = np.nan                   # ShapeMismatch, the first check
        K[3] = [[1e200, 1.0], [0.0, 2e200]]  # NonConvergence: the quadratic overflows
        K[2] = [[0.0, 0.0], [1.0, 0.0]]  # NearDefective
        K[1] = np.eye(2)                 # DegenerateSpectrum, the last check
        expected = [(1, DegenerateSpectrum), (2, NearDefective), (3, NonConvergence),
                    (4, ShapeMismatch)]
        with np.errstate(all="ignore"):
            for first, error in expected:
                with pytest.raises(error) as info:
                    sum_over_blocks(K[first:], dK, 0, ["eta"])
                assert info.value.block == 0
                with pytest.raises(error) as info:
                    sum_over_blocks(np.concatenate([K[:1], K[first:]]), dK, 0, ["eta"])
                assert info.value.block == 1

    @pytest.mark.parametrize("fault, other", [
        (f, o) for f in ("defective", "degenerate") for o in BLOCK_FAULTS if o != f])
    @pytest.mark.parametrize("order", ["earlier", "later"])
    def test_lowest_failing_block_wins_every_check(self, blocks, fault, other, order):
        K, dK = blocks
        at, other_at = (2, 1) if order == "earlier" else (1, 3)
        K = K.copy()
        K[at], K[other_at] = BLOCK_FAULTS[fault][0], BLOCK_FAULTS[other][0]
        first = min(at, other_at)
        error = BLOCK_FAULTS[fault if first == at else other][1]
        with np.errstate(all="ignore"):
            for n, kinds in ((0, ["eta"]), (1, list(STATE_KINDS))):
                with pytest.raises(error) as info:
                    sum_over_blocks(K, dK, n, kinds)
                assert info.value.block == first

    def test_invalid_arguments_rejected(self, blocks):
        K, dK = blocks
        with pytest.raises(ValueError, match="does not provide"):
            sum_over_blocks(K, dK, 0, ["zeta"])
        for n in (-1, 2):
            with pytest.raises(ShapeMismatch, match="state index"):
                sum_over_blocks(K, dK, n, ["eta"])
        for bad_K, bad_dK in ((K[0], dK), (np.zeros((0, 2, 2)), dK), (np.zeros((6, 3, 3)), dK),
                              (K, dK[0]), (K, np.zeros((2, 3, 3))), (K, dK[None])):
            with pytest.raises(ShapeMismatch):
                sum_over_blocks(bad_K, bad_dK, 0, ["eta"])


class TestStencilAtDegeneracy:
    """The stencil raises DegenerateSpectrum where :func:`sum_over_states`
    does: the derivative of a state inside a degenerate pair depends on the
    solver's choice of basis, so no finite value is trustworthy."""

    @pytest.fixture
    def pair(self, rng):
        # states 0 and 1 degenerate at lam = 0, state 2 isolated
        D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return OperatorFamily(3, 1, lambda l: np.diag([1.0, 1.0, 2.0]) + l[0] * D,
                              lambda mu, l: D)

    ROUTES = {
        "eta": lambda f, n: eta_tensor(f, [0.0], n),
        "zeta_limited": lambda f, n: zeta_limited(f, [0.0], n),
        "zeta_limited_rescaled": lambda f, n: stencil_tensors(
            f, [0.0], n, ["zeta_limited_rescaled"])["zeta_limited_rescaled"],
        "zeta-overlap": lambda f, n: zeta_tensor(f, [0.0], n),
        "zeta-projector": lambda f, n: stencil_tensors(
            f, [0.0], n, ["zeta"], route="projector")["zeta"],
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_degenerate_state_raises(self, pair, route):
        with pytest.raises(DegenerateSpectrum, match="eigenvalue 0"):
            self.ROUTES[route](pair, 0)
        with pytest.raises(DegenerateSpectrum):
            sum_over_states(pair, [0.0], 0, ["eta"])

    def test_isolated_state_matches_engine(self, pair):
        sos = sum_over_states(pair, [0.0], 2, ["eta", "zeta_limited", "zeta_limited_rescaled"])
        for kind, T in sos.items():
            ref = self.ROUTES[kind](pair, 2).values
            assert maxdev(T.values, ref) <= 1e-8 * np.abs(ref).max(), kind
        # zeta differentiates every state, the degenerate pair included
        for route in ("zeta-overlap", "zeta-projector"):
            with pytest.raises(DegenerateSpectrum, match="eigenvalue 0"):
                self.ROUTES[route](pair, 2)

    def test_gap_tested_against_the_norm(self):
        # a 1e-6 gap at state 0 is open at ||K|| = 2, closed at ||K|| = 1e5;
        # the coupling is weak enough that the default step resolves the gap
        for top, closed in ((2.0, False), (1e5, True)):
            fam = OperatorFamily(
                3, 1,
                lambda l, t=top: np.diag([1.0, 1.0 + 1e-6, t]) + 1e-4 * l[0] * SX3,
                lambda mu, l: 1e-4 * SX3,
            )
            if closed:
                with pytest.raises(DegenerateSpectrum):
                    eta_tensor(fam, [0.0], 0)
            else:
                assert np.isfinite(eta_tensor(fam, [0.0], 0).values).all()


SX3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)


class TestBerryConnection:
    """The connection ``A_mu = <n_L|d_mu n_R>`` of the stencil, which
    :func:`stencil_tensors` subtracts in every covariant derivative."""

    def test_parameter_independent_zero(self):
        fam = OperatorFamily(3, 1, lambda l: np.diag([0.0, 1.0, 3.0]) + 0.4j * np.eye(3),
                             lambda mu, l: np.zeros((3, 3)))
        sys0, dR, _ = _stencil(fam, [0.2], [1])
        assert abs(sys0.left_vectors[:, 1].conj() @ dR[0, :, 0]) < 1e-12

    def test_dual_expression(self, nh6, rng):
        lam = rng.uniform(-0.1, 0.1, size=2)
        sys0, dR, dL = _stencil(nh6, lam, [2])
        for mu in range(2):
            direct = sys0.left_vectors[:, 2].conj() @ dR[mu, :, 0]
            dual = -(dL[mu, :, 0].conj() @ sys0.right_vectors[:, 2])
            assert abs(direct - dual) <= 1e-8

    def test_gauge_shift(self, nh6):
        lam = np.array([0.1, -0.07])
        coeff = np.linspace(0.02, 0.12, 6) + 1j * np.linspace(-0.05, 0.05, 6)

        def gauge(l):
            return coeff * (l[0] - lam[0]) + 2.0 * coeff * (l[1] - lam[1])

        n = 2
        conn = []
        for g in (None, gauge):
            sys0, dR, _ = _stencil(nh6, lam, [n], gauge=g)
            conn.append(sys0.left_vectors[:, n].conj() @ dR[0, :, 0])
        assert abs((conn[1] - conn[0]) - coeff[n]) <= 1e-8


class TestContinuation:
    def test_scrambled_stencil_detected(self):
        # stencil eigenbasis equally mixes all center states: no overlap
        # reaches the matching threshold
        from nhgeo.biortho import build_biortho

        d = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
        sys0 = build_biortho(d)
        F = np.fft.fft(np.eye(5)) / np.sqrt(5)
        sysp = build_biortho(F @ d @ F.conj().T)
        with pytest.raises(ContinuationAmbiguous, match="below"):
            _match(sys0.left_vectors.conj().T, sysp.right_vectors, [0, 1, 2, 3, 4])

    def test_two_states_one_column_detected(self):
        # states 0 and 1 both overlap column 0 by 1/sqrt(2), above threshold
        right = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], dtype=complex)
        right /= np.linalg.norm(right, axis=0)
        with pytest.raises(ContinuationAmbiguous, match="states 0 and 1 both match"):
            _match(np.eye(3, dtype=complex), right, [0, 1, 2])


def _bad_state_calls():
    """(name, call(fam, n)) for every entry point that takes a state index."""
    lam = [0.01, -0.02]
    return [
        ("chi", lambda f, n: chi_hermitian(f, lam, n)),
        ("eta", lambda f, n: eta_tensor(f, lam, n)),
        ("zeta-overlap", lambda f, n: zeta_tensor(f, lam, n)),
        ("zeta-projector", lambda f, n: stencil_tensors(f, lam, n, ["zeta"], route="projector")),
        ("zeta-agp", lambda f, n: sum_over_states(f, lam, n, ["zeta"])),
        ("sum-over-states", lambda f, n: sum_over_states(f, lam, n, SOS_KINDS)),
        ("stencil", lambda f, n: stencil_tensors(f, lam, n, SOS_KINDS)),
        ("zeta_limited", lambda f, n: zeta_limited(f, lam, n)),
    ]


@pytest.mark.parametrize("n", [-1, 4])
@pytest.mark.parametrize("call", [c for _, c in _bad_state_calls()],
                         ids=[name for name, _ in _bad_state_calls()])
def test_state_index_out_of_range(rng, n, call):
    fam = random_hermitian_family(rng, N=4)
    with pytest.raises(ShapeMismatch, match="state index"):
        call(fam, n)


@pytest.mark.parametrize("engine", ["agp_elements", "agp_quadratic"])
@pytest.mark.parametrize("past_end", [False, True])
def test_direction_out_of_range_before_eigensolve(rng, monkeypatch, engine, past_end):
    # -1 would select the last direction, d would fail as an untyped IndexError
    import nhgeo.biortho as biortho_mod
    import nhgeo.linalg as linalg_mod
    import nhgeo.liouville as liouville_mod
    from nhgeo.verify import random_liouvillian_family

    calls = []
    for mod in (linalg_mod, biortho_mod, liouville_mod):
        monkeypatch.setattr(mod, "eig_general", lambda *a, **k: calls.append(a))
    if engine == "agp_elements":
        fam, lam, call = random_family(rng, N=3), [0.0, 0.0], agp_elements
    else:
        (fam, _), lam = random_liouvillian_family(rng, n=2), [0.1, 0.1]
        call = liouville_mod.agp_quadratic
    with pytest.raises(ShapeMismatch, match="direction"):
        call(fam, lam, fam.num_params if past_end else -1)
    assert calls == []


@pytest.mark.parametrize("mu", [-1, 2, 7])
@pytest.mark.parametrize("call", [
    lambda mu: bloch_family(SSHParams(0.5, 0.1, 8), 0.3).derivative(mu, [0.5, 0.1]),
    lambda mu: random_family(np.random.default_rng(1)).derivative(mu, [0.0, 0.0]),
    lambda mu: DissipativeKitaevModel(0.4, 1.0, 0.6).dx_block(mu, 0.3, [0.7, 0.9]),
    lambda mu: DissipativeKitaevModel(0.4, 1.0, 0.6).dy_block(mu, 0.3, [0.7, 0.9]),
    lambda mu: real_space_family(DissipativeKitaevModel(0.4, 1.0, 0.6), 4).dxy(mu, [0.7, 0.9]),
], ids=["bloch_family", "random_family", "dx_block", "dy_block", "real_space_family"])
def test_derivative_direction_out_of_range(call, mu):
    # -1 would silently select the last direction, a larger index another one
    with pytest.raises(ShapeMismatch, match="direction"):
        call(mu)


def _wrong_size_families():
    """A 2x2 operator family whose derivative is 3x3, and 4x4 Liouvillian
    families whose (dX, dY) are 3x3 in one or both matrices."""
    from nhgeo.liouville import LiouvillianFamily, build_liouvillian
    from nhgeo.verify import random_bath, random_hmat

    rng = np.random.default_rng(3)
    op = OperatorFamily(2, 1, lambda lam: np.diag([1.0, 2.0 + lam[0]]),
                        lambda mu, lam: np.eye(3))
    liou = build_liouvillian(2, random_hmat(rng, 2), random_bath(rng, 2))
    small, right = np.zeros((3, 3)), np.zeros((4, 4))
    lious = [LiouvillianFamily(2, 1, lambda lam: liou, lambda mu, lam, dxy=dxy: dxy)
             for dxy in ((small, small), (right, small), (small, right))]
    return op, lious


@pytest.mark.parametrize("call", [
    lambda op, lious: op.derivative(0, [0.1]),
    lambda op, lious: sum_over_states(op, [0.1], 0, SOS_KINDS),
    *(lambda op, lious, i=i: lious[i].dxy(0, [0.1]) for i in range(3)),
    lambda op, lious: zeta_ness(lious[0], [0.1]),
], ids=["derivative", "sum_over_states", "dxy", "dxy-dY", "dxy-dX", "zeta_ness"])
def test_derivative_of_wrong_size_rejected(call):
    # a typed error, not numpy's ValueError from a matmul inside an engine
    with pytest.raises(ShapeMismatch, match="expected|declared"):
        call(*_wrong_size_families())


def _never(*args):
    raise AssertionError("evaluated before the kinds were checked")


@pytest.mark.parametrize("engine, call", [
    ("sum_over_states",
     lambda kinds: sum_over_states(OperatorFamily(2, 1, _never, _never), [0.0], 0, kinds)),
    ("stencil_tensors",
     lambda kinds: stencil_tensors(OperatorFamily(2, 1, _never, _never), [0.0], 0, kinds)),
    ("sum_over_blocks",  # an empty stack is a ShapeMismatch once evaluated
     lambda kinds: sum_over_blocks(np.zeros((0, 2, 2)), np.zeros((1, 2, 2)), 0, kinds)),
    ("ness_tensors",
     lambda kinds: ness_tensors(LiouvillianFamily(1, 1, _never, _never), [0.0], kinds)),
    ("gaussian_tensors", lambda kinds: gaussian_tensors(None, [], kinds)),
    ("weak_coupling_tensors",  # h = 1 closes the gap on the grid (CriticalKPoint)
     lambda kinds: weak_coupling_tensors(KitaevParams(1.0, 1.0, 0.1, 1.0, 0.6, 8), kinds)),
])
def test_unknown_kind_rejected_before_evaluation(engine, call):
    # one check and one wording for every engine: the engine and the unknown kinds
    with pytest.raises(ValueError, match=rf"^{engine} does not provide \['chi', 'bogus'\]$"):
        call(["chi", "bogus"])


@pytest.mark.parametrize("mu_reg", [np.nan, np.inf, -np.inf, -1.0, True, "0.5", None,
                                    pytest.param(10 ** 400, id="beyond-float")])
@pytest.mark.parametrize("call", [
    lambda fam, mu_reg: sum_over_states(fam, [0.0, 0.0], 0, ["zeta"], mu_reg=mu_reg),
    lambda fam, mu_reg: agp_elements(fam, [0.0, 0.0], 0, mu_reg),
], ids=["sum_over_states", "agp_elements"])
def test_mu_reg_must_be_finite_and_nonnegative(nh6, call, mu_reg):
    # NaN gave a NaN zeta and inf a zero one
    with pytest.raises(ValueError, match="mu_reg must be a finite number"):
        call(nh6, mu_reg)


@pytest.mark.parametrize("mu_reg", [0, 0.25, np.float32(0.25), np.int64(1)])
def test_mu_reg_any_real_number(nh6, mu_reg):
    zeta = sum_over_states(nh6, [0.0, 0.0], 0, ["zeta"], mu_reg=mu_reg)["zeta"]
    assert zeta.meta["mu_reg"] == float(mu_reg) and type(zeta.meta["mu_reg"]) is float
    ref = sum_over_states(nh6, [0.0, 0.0], 0, ["zeta"], mu_reg=float(mu_reg))["zeta"].values
    assert np.array_equal(zeta.values, ref)
