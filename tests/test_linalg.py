import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeo.biortho import build_biortho
from nhgeo.errors import (
    DegenerateSpectrum,
    NearDefective,
    NhgeoError,
    NonConvergence,
    ShapeMismatch,
    SingularPencil,
)
from nhgeo.linalg import (
    DEFECTIVE_COND,
    _adjoint,
    _blocks,
    _cond_inv,
    _eig_2x2,
    _entries,
    _inv,
    _inverse,
    _lyapunov_2x2,
    _mul,
    _norm,
    _raise_first,
    _sylvester_solver,
    canonical_order,
    eig_general,
    flagged_blocks,
    load_matrix,
    lowest_failing_block,
    matrix_from_json,
    norm2,
    solve_sylvester,
    solve_sylvester_pair,
)
from nhgeo.ssh import SSHParams, bloch_family
from nhgeo.tensors import (
    SOS_KINDS,
    OperatorFamily,
    agp_elements,
    eta_tensor,
    stencil_tensors,
    sum_over_states,
)

from conftest import inside, matrix_to_json, maxdev


def charpoly_coeffs(K):
    """Faddeev-LeVerrier characteristic polynomial coefficients (trace only)."""
    N = K.shape[0]
    coeffs = [1.0 + 0j]
    M = np.zeros_like(K)
    for k in range(1, N + 1):
        M = K @ M + coeffs[-1] * np.eye(N)
        coeffs.append(-np.trace(K @ M) / k)
    return np.array(coeffs)


class TestEigGeneral:
    def test_diagonal_matrix(self):
        dec = eig_general(np.diag([1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0])
        assert np.allclose(np.abs(dec.right_vectors), np.eye(2))
        assert dec.is_diagonalizable_estimate

    def test_jordan_block_flagged_near_defective(self):
        dec = eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not dec.is_diagonalizable_estimate
        assert dec.condition > 1e12

    def test_matches_companion_matrix_roots(self, rng):
        K = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        dec = eig_general(K)
        roots = np.roots(charpoly_coeffs(K))
        roots = roots[np.lexsort((roots.imag, roots.real))]
        got = dec.eigenvalues[np.lexsort((dec.eigenvalues.imag, dec.eigenvalues.real))]
        assert maxdev(got, roots) < 1e-8

    def test_reconstruction(self, rng):
        for _ in range(10):
            K = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
            dec = eig_general(K)
            R = dec.right_vectors
            back = R @ np.diag(dec.eigenvalues) @ np.linalg.inv(R)
            assert maxdev(back, K) <= 1e-8 * np.linalg.norm(K)

    def test_canonical_order_deterministic(self, rng):
        K = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = eig_general(K)
        b = eig_general(K.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.right_vectors, b.right_vectors)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 8]), st.booleans(),
           st.sampled_from([1e-200, 1e-13, 1e3, 1e150]))
    def test_canonical_order_is_scale_invariant(self, seed, N, real, c):
        # the keys are relative to the norm: c K lists its eigenvalues as K does
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(N, N)) + (0 if real else 1j * rng.normal(size=(N, N)))
        w = eig_general(K).eigenvalues
        assert np.abs(eig_general(c * K).eigenvalues / c - w).max() <= 1e-9 * np.abs(w).max()

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeMismatch):
            eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            eig_general(np.zeros((2, 3)))

    @pytest.mark.parametrize("call", [
        eig_general,
        build_biortho,
        lambda E: solve_sylvester(E, E),
        lambda E: solve_sylvester(np.eye(2), E),
    ], ids=["eig_general", "build_biortho", "sylvester_X", "sylvester_Y"])
    def test_rejects_empty(self, call):
        with pytest.raises(ShapeMismatch, match="nonempty"):
            call(np.zeros((0, 0)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_decompose(self, scale, rng):
        # the residual column norms of K would overflow (underflow) unscaled
        dec = eig_general(np.array([[0.0, scale], [scale, 0.0]]))
        assert np.array_equal(np.sort(dec.eigenvalues.real), [-scale, scale])
        assert abs(dec.condition - 1.0) <= 1e-15 and dec.is_diagonalizable_estimate
        K = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        dec = eig_general(K)
        R = dec.right_vectors
        assert maxdev(K @ R / scale, R * dec.eigenvalues / scale) <= 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_residual_checked_at_extreme_magnitudes(self, scale, monkeypatch):
        # wrong eigenvalues must fail the residual test at any magnitude
        # (unscaled, the residuals underflow to 0 at 1e-200)
        real_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda K: (1.5 * real_eig(K)[0], real_eig(K)[1]))
        for K in (np.array([[0.0, scale], [scale, 0.0]]), scale * np.diag([1.0, 2.0, 3.0])):
            with pytest.raises(NonConvergence):
                eig_general(K)

    def test_nan_residual_raises(self, monkeypatch):
        real_eig = np.linalg.eig

        def nan_pair(K):
            w, R = real_eig(K)
            w[0] = np.nan
            return w, R

        monkeypatch.setattr(np.linalg, "eig", nan_pair)
        for K in (np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0])):
            with pytest.raises(NonConvergence):
                eig_general(K)

    def test_right_inverse(self, rng):
        for N in (2, 5):
            dec = eig_general(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
            assert maxdev(dec.right_inverse @ dec.right_vectors, np.eye(N)) <= 1e-12
        dec = eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert dec.right_inverse is None and dec.condition > DEFECTIVE_COND

    @staticmethod
    def checked(K):
        """``eig_general(K)`` of a diagonalizable ``K``, once its unit columns,
        eigenpairs and ``R^-1`` are checked."""
        dec = eig_general(K)
        w, R = dec.eigenvalues, dec.right_vectors
        assert maxdev(np.linalg.norm(R, axis=0), np.ones(len(w))) <= 1e-15
        assert maxdev(K @ R, R * w) <= 1e-12 * norm2(K)
        assert dec.is_diagonalizable_estimate
        assert maxdev(dec.right_inverse @ R, np.eye(len(w))) <= 1e-12 * dec.condition
        assert dec.norm == norm2(K)
        return dec

    @pytest.mark.parametrize("seed, kind", enumerate(
        ["random", "real", "offdiagonal", "mixed", "1e200", "1e-200"]))
    def test_2x2_matches_lapack_references(self, seed, kind):
        """At N = 2 the eigenvalues are LAPACK's complex routine's bit for
        bit (a real K too), the columns are its columns made unit, and the
        condition and ``R^-1`` agree with the SVD and ``np.linalg.inv``."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if kind == "real":
                K = K.real
            elif kind == "offdiagonal":  # as the nh-ssh Bloch blocks
                K *= [[0, 1], [1, 0]]
            elif kind == "mixed":
                K *= 10.0 ** rng.uniform(-8, 8, size=(2, 2))
            elif kind != "random":
                K *= float(kind)
            dec = self.checked(K)
            w, R = np.linalg.eig(K.astype(complex))  # the complex routine, for a real K too
            i = np.lexsort((w.imag, w.real))
            j = np.lexsort((dec.eigenvalues.imag, dec.eigenvalues.real))
            assert np.array_equal(dec.eigenvalues[j], w[i])
            R = R[:, i] / np.linalg.norm(R[:, i], axis=0)
            assert maxdev(dec.right_vectors[:, j], R) <= 1e-15
            ref = np.linalg.cond(R, 2)
            assert abs(dec.condition - ref) <= (1e-12 + 1e-15 * ref) * ref
            assert maxdev(dec.right_inverse[j], np.linalg.inv(R)) <= 1e-12 * ref

    @pytest.mark.parametrize("c", [0.0, 1.0, -2.5 + 1j, 1e200, 1e-200])
    def test_multiple_of_identity(self, c):
        dec = self.checked(c * np.eye(2))
        assert np.array_equal(dec.eigenvalues, [c, c])
        assert np.array_equal(dec.right_vectors, np.eye(2))
        assert dec.condition == 1.0 and np.array_equal(dec.right_inverse, np.eye(2))

    @pytest.mark.parametrize("pair, ordered", [
        ([1.0 + 1e-13, 1.0], [1.0 + 1e-13, 1.0]),  # tied at the resolution: LAPACK's order
        ([1.0, 1.0 + 1e-13], [1.0, 1.0 + 1e-13]),
        ([2.0, 1.0], [1.0, 2.0]),
        ([1j, -1j], [-1j, 1j]),  # equal real parts: by imaginary part
        ([1.0 + 1j, 1.0 - 1j + 1e-13], [1.0 - 1j + 1e-13, 1.0 + 1j]),
    ])
    def test_order(self, pair, ordered):
        dec = self.checked(np.diag(pair))
        assert np.array_equal(dec.eigenvalues, ordered)
        # the eigenvector of pair[i] is the unit vector e_i
        assert np.array_equal(np.abs(dec.right_vectors),
                              np.eye(2)[:, [pair.index(z) for z in ordered]])

    def test_unit_columns_from_scaled_vectors(self, monkeypatch):
        K = np.array([[1.0, 2.0 + 1j], [0.5, -1.0]])
        ref = eig_general(K)
        real_eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda A: (real_eig(A)[0], real_eig(A)[1] * [3.0, -0.25j]))
        dec = self.checked(K)  # unit columns again, each with its new phase
        assert maxdev(np.abs(dec.right_vectors), np.abs(ref.right_vectors)) <= 1e-15

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_jordan_block_near_defective(self, scale):
        K = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
        dec = eig_general(K)
        assert not dec.is_diagonalizable_estimate and dec.right_inverse is None
        assert dec.condition > DEFECTIVE_COND and dec.norm == norm2(K)
        with pytest.raises(NearDefective):
            build_biortho(K)

    @pytest.mark.parametrize("where", ["value", "value_imag", "vector", "value_inf"])
    def test_nonfinite_pair_is_nonconvergence(self, where, monkeypatch):
        real_eig = np.linalg.eig

        def corrupt(K):
            w, R = real_eig(K)
            if where == "value":
                w[1] = np.nan
            elif where == "value_imag":
                w[0] = complex(w[0].real, np.nan)
            elif where == "vector":
                R[1, 0] = np.nan
            else:
                w[0] = np.inf
            return w, R

        monkeypatch.setattr(np.linalg, "eig", corrupt)
        for K in (np.diag([1.0, 2.0]), np.array([[0.0, 1e200], [2e200, 0.0]]),
                  np.array([[1e-200, 1e-200j], [0.0, -1e-200]]),
                  np.array([[1.0, 2j, 0.0], [0.5, -1.0, 1.0], [0.0, 1j, 3.0]]),
                  np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.0, 2.0]])):
            with pytest.raises(NonConvergence):
                eig_general(K)


class TestInverse:
    def test_identity(self):
        assert maxdev(_inverse(np.eye(3)), np.eye(3)) == 0.0

    def test_diagonal(self):
        assert np.allclose(_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_well_conditioned(self, rng):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 3 * np.eye(8)
        assert maxdev(A @ _inverse(A), np.eye(8)) < 1e-10

    def test_singular_is_none(self):
        assert _inverse(np.array([[1.0, 1.0], [1.0, 1.0]])) is None


def block(seed, kind):
    """A 2x2 test block: random, mixed-scale (entries 1e-8..1e8), near
    unitary (s1 ~ s2, where sqrt(f - 2|det|) loses half the digits), or a
    random block scaled by 1e200 or 1e-200."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if kind == "mixed":
        return A * 10.0 ** rng.uniform(-8, 8, size=(2, 2))
    if kind == "unitary":
        return np.linalg.qr(A)[0] * np.exp(rng.normal())
    return A * {"random": 1.0, "1e200": 1e200, "1e-200": 1e-200}[kind]


BLOCK_KINDS = st.sampled_from(["random", "mixed", "unitary", "1e200", "1e-200"])


class TestClosedForms2x2:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BLOCK_KINDS)
    def test_norm2_matches_svd(self, seed, kind):
        A = block(seed, kind)
        ref = np.linalg.norm(A, 2)
        assert abs(norm2(A) - ref) <= 1e-12 * ref
        assert abs(norm2(A.real) - np.linalg.norm(A.real, 2)) <= 1e-12 * ref
        stack = _norm(_entries(np.stack([A, 2 * A, A.T, 0 * A])))
        assert maxdev(stack / ref, [1.0, 2.0, 1.0, 0.0]) <= 1e-12

    def test_norm2_stack_of_mixed_magnitudes(self, rng):
        # each block at its own scale, 1e-200 to 1e200, side by side
        scales = 10.0 ** np.arange(-200, 201, 25)
        stack = scales[:, None, None] * (rng.normal(size=(len(scales), 2, 2))
                                         + 1j * rng.normal(size=(len(scales), 2, 2)))
        for got, B in zip(_norm(_entries(stack)), stack):
            ref = np.linalg.norm(B, 2)
            assert abs(got - ref) <= 1e-12 * ref

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BLOCK_KINDS)
    def test_condition_matches_svd(self, seed, kind):
        A = block(seed, kind)
        unit = A / np.abs(A).max()
        unit /= np.linalg.norm(unit, axis=0)  # as the eigenvector matrices are
        cond, Ai = _cond_inv(_entries(unit))
        ref = np.linalg.cond(unit, 2)
        # beyond 1e3 both routes carry the forward error eps * cond
        assert abs(cond - ref) <= (1e-12 + 1e-15 * ref) * ref
        if cond <= DEFECTIVE_COND:
            assert maxdev(_blocks(Ai) @ unit, np.eye(2)) <= 1e-12 * cond
        for A in (A, unit):
            ref = np.linalg.cond(A, 2)
            if ref <= DEFECTIVE_COND:
                assert maxdev(_inverse(A) @ A, np.eye(2)) <= 1e-12 * ref
            else:
                assert _inverse(A) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_stacked_condition_matches_single(self, seed):
        # unit-column blocks of every kind, as eigenvector matrices are
        stack = np.stack([A / np.abs(A).max() for A in (block(seed + i, kind) for i, kind in
                          enumerate(["random", "mixed", "unitary", "1e200", "1e-200"]))])
        stack /= np.linalg.norm(stack, axis=-2, keepdims=True)
        cond, inv = _cond_inv(_entries(stack))
        for c, Ai, A in zip(cond, _blocks(inv), stack):
            ref = _cond_inv(_entries(A))[0]  # the block alone
            assert abs(c - ref) <= 1e-14 * ref
            if ref <= DEFECTIVE_COND:
                assert maxdev(Ai, _inverse(A)) <= 1e-14 * ref

    def test_stacked_condition_of_singular_block(self):
        R = np.array([[[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        cond, inv = _cond_inv(_entries(R))
        inv = _blocks(inv)
        assert cond[0] == np.inf and cond[1] == 1.0
        assert not np.isfinite(inv[0]).any()
        assert np.array_equal(inv[1], np.eye(2))

    def test_norm2_larger_matrices_use_svd(self, rng):
        for scale in (1.0, 1e200, 1e-200):
            A = scale * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            ref = np.linalg.norm(A, 2)
            assert abs(norm2(A) - ref) <= 1e-12 * ref
        assert norm2(np.zeros((2, 2))) == 0.0 and norm2(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("eps, diagonalizable", [
        (1e-20, True), (1e-22, True), (1e-26, False), (1e-28, False), (0.0, False),
    ])
    def test_near_defective_verdicts(self, eps, diagonalizable):
        # eigenvector condition ~ eps^(-1/2) against the 1e12 bound
        K = np.array([[0.0, 1.0], [eps, 0.0]])
        dec = eig_general(K)
        assert dec.is_diagonalizable_estimate is diagonalizable
        assert bool(np.linalg.cond(dec.right_vectors, 2) <= DEFECTIVE_COND) is diagonalizable
        assert (dec.right_inverse is not None) is diagonalizable
        if diagonalizable:
            assert abs(dec.condition * np.sqrt(eps) - 1.0) <= 1e-6
            build_biortho(K)
        else:
            with pytest.raises(NearDefective):
                build_biortho(K)

    def test_biortho_2x2_runs_no_svd_or_cond(self, rng, monkeypatch):
        # a 2x2 eigensystem is one LAPACK eig and one LU inverse, as at any N,
        # and a stencil point of nh-ssh eta is 1 + 2d = 5 of them
        npla = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 / 1

        calls = []
        for name in ("eig", "svd", "cond", "inv"):
            for mod in (np.linalg, npla):
                real = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, _f=real, _n=name, **k:
                                    calls.append(_n) or _f(*a, **k))
        sys = build_biortho(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert calls == ["eig", "inv"]
        assert maxdev(sys.left_vectors.conj().T @ sys.right_vectors, np.eye(2)) <= 1e-12
        calls.clear()
        p = SSHParams(0.7, 0.5, 64)
        eta_tensor(bloch_family(p, p.k_grid[5]), [p.t, p.delta], 0)
        assert calls == ["eig", "inv"] * 5
        calls.clear()
        # the counters do see larger matrices, whose exact values are read on demand
        sys = build_biortho(rng.normal(size=(3, 3)))
        assert sys.norm > 0 and sys.condition >= 1
        assert set(calls) == {"eig", "svd", "cond", "inv"}

    @pytest.mark.parametrize("N", [2, 3, 8])
    def test_decomposition_norm_is_norm2(self, rng, N):
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            K = scale * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
            assert eig_general(K).norm == norm2(K)
            sys = build_biortho(K)
            assert sys.norm == norm2(K)

    def test_decomposition_norm_is_norm2_on_real_input(self):
        # norm2 reads a real K as the complex copy that eig_general takes; the
        # real SVD differs from the complex one in the last ulp on about a third
        rng = np.random.default_rng(63)
        for N in range(2, 7):
            for _ in range(100):
                K = rng.normal(size=(N, N))
                assert eig_general(K).norm == norm2(K)

    def test_decomposition_norm_spares_svds(self, rng, svd_calls):
        # eig_general runs no SVD at N > 2 away from its thresholds, and a
        # biorthogonal system is that decomposition, checked
        build_biortho(rng.normal(size=(3, 3)))
        assert svd_calls == []
        svd_calls.clear()
        A, B = random_stable(rng, 3), random_stable(rng, 4)
        solve_sylvester_pair(A, B, rng.normal(size=(3, 4)))
        assert svd_calls == []
        svd_calls.clear()
        solve_sylvester_pair(A[:2, :2] + 4 * np.eye(2), B[:2, :2] + 4 * np.eye(2), np.eye(2))
        assert svd_calls == []


def real_matrix(seed, N, kind):
    """A real N x N test matrix: a random one (real and complex-conjugate
    eigenvalues) or one with an all-real spectrum (eigenvalues spread over
    [-1, 1] at least 1/N apart, in an eigenvector basis of condition below e)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=(N, N))
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(N, N)))[0] for _ in range(2))
    S = Q1 @ np.diag(np.exp(rng.uniform(-0.5, 0.5, N))) @ Q2
    w = rng.permutation(np.linspace(-1, 1, N)) + rng.uniform(-0.2, 0.2, N) / N
    return S @ np.diag(w) @ np.linalg.inv(S)


def complex_route(K):
    """``eig_general(K)`` with LAPACK's complex routine for the solve, as a
    ``K`` with a nonzero imaginary part takes."""
    real_eig = np.linalg.eig
    with mock.patch.object(np.linalg, "eig", lambda A: real_eig(np.asarray(A, complex))):
        return eig_general(K)


class TestRealRoute:
    """A real K of N > 2 is solved by LAPACK's real routine; the decomposition
    must be the one the complex routine gives, ordered and checked alike."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 8, 64]),
           st.sampled_from(["random", "real-spectrum"]),
           st.sampled_from([1e-200, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e150]))
    def test_matches_complex_route(self, seed, N, kind, scale):
        K = (scale * real_matrix(seed, N, kind)).astype(complex)  # imaginary part exactly 0
        dec, ref = eig_general(K), complex_route(K)
        for M in (dec.eigenvalues, dec.right_vectors, dec.right_inverse):
            assert M.dtype == complex
        assert dec.norm == ref.norm == norm2(K)
        w, r = dec.eigenvalues, ref.eigenvalues
        if kind == "real-spectrum":
            assert not w.imag.any()
        tol = 1e-12 * dec.norm
        # both in canonical order, holding the same eigenvalues
        assert np.array_equal(canonical_order(w, norm2(K)), np.arange(N))
        match = [int(np.argmin(abs(r - z))) for z in w]
        assert sorted(match) == list(range(N))
        assert np.abs(w - r[match]).max() <= tol
        if scale >= 1e-3:
            # the same order: the same eigenvalue at each position, up to the
            # order within a conjugate pair, which the complex routine's
            # rounding of their real parts decides (below the 1e-12 tie
            # resolution every eigenvalue ties and keeps LAPACK's own order)
            assert (np.minimum(abs(w - r), abs(w - r.conj())) <= tol).all()
        R, Rref = dec.right_vectors, ref.right_vectors[:, match]
        phase = np.sum(Rref.conj() * R, axis=0)
        assert maxdev(R, Rref * (phase / abs(phase))) <= 1e-12 * ref.condition
        assert abs(dec.condition - ref.condition) <= 1e-12 * ref.condition ** 2
        assert dec.is_diagonalizable_estimate and ref.is_diagonalizable_estimate

    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_conjugate_pairs_are_exact(self, N):
        pairs = 0
        for seed in range(10):
            dec = eig_general(real_matrix(seed, N, "random"))
            w, R = dec.eigenvalues, dec.right_vectors
            for i in np.flatnonzero(w.imag):
                partner = np.flatnonzero(w == w[i].conjugate())
                assert len(partner) == 1, (seed, w[i])
                assert np.array_equal(R[:, partner[0]], R[:, i].conj())
                pairs += 1
        assert pairs > 0

    def test_tiny_imaginary_entry_takes_complex_route(self, monkeypatch):
        K = real_matrix(3, 8, "random").astype(complex)
        K[2, 5] += 1e-300j
        real_eig = np.linalg.eig
        solved = []
        monkeypatch.setattr(np.linalg, "eig", lambda A: solved.append(A.dtype) or real_eig(A))
        dec = eig_general(K)
        assert solved == [np.dtype(complex)]
        R, w = dec.right_vectors, dec.eigenvalues
        assert maxdev(K @ R, R * w) <= 1e-12 * dec.norm
        assert np.abs(w - eig_general(K.real).eigenvalues).max() <= 1e-12 * dec.norm
        assert dec.is_diagonalizable_estimate

    @pytest.mark.parametrize("eps, diagonalizable", [(1e-12, True), (1e-30, False), (0.0, False)])
    def test_near_defective_verdict(self, eps, diagonalizable):
        # eigenvalues eps^(1/3) times the cube roots of 1, eigenvector
        # condition ~ eps^(-2/3) against the 1e12 bound
        K = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [eps, 0.0, 0.0]])
        for route in (eig_general, complex_route):
            assert route(K).is_diagonalizable_estimate is diagonalizable
        if diagonalizable:
            build_biortho(K)
        else:
            with pytest.raises(NearDefective):
                build_biortho(K)
            with pytest.raises(NearDefective):
                solve_sylvester(K, np.eye(3))


def pencil_matrix(rng, N, x0):
    """A real non-normal N x N matrix with eigenvalues ``x0, 1, ..., N - 1``."""
    V = rng.normal(size=(N, N)) + N * np.eye(N)
    return V @ np.diag([x0, *range(1, N)]) @ np.linalg.inv(V)


class TestBracketVerdicts:
    """At N > 2 every verdict of eig_general and of the tests on its norm is
    decided on a bracket and must equal the verdict on the exact (SVD) value,
    the SVD running when, and only when, the bracket straddles the threshold
    (the bracket widened by a factor 2)."""

    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_condition(self, N, svd_calls):
        # eigenvalues 1 and 1 + g coupled by 1: condition ~ 2/g, spread over
        # the band [1e12/(2N), 2N 1e12] of cond_1 and beyond, and g = 0
        # (a Jordan block)
        rng = np.random.default_rng(N)
        seen = set()
        for c in [*np.logspace(np.log10(1e12 / (20 * N)), np.log10(20 * N * 1e12), 25), np.inf]:
            K = np.triu(0.1 * rng.normal(size=(N, N)), 1) + np.diag(np.arange(1.0, N + 1))
            K[0, 1], K[1, 1] = 1.0, 1.0 + 2 / c
            svd_calls.clear()
            dec = eig_general(K)
            straddle = svd_calls != []
            R = dec.right_vectors
            diagonalizable = bool(np.linalg.cond(R, 2) <= DEFECTIVE_COND)
            assert dec.is_diagonalizable_estimate is diagonalizable
            assert (dec.right_inverse is None) is not diagonalizable
            cond1 = np.linalg.cond(R, 1)
            expected = inside(cond1, 1e12 / (2 * N), 2 * N * 1e12)
            if expected is not None:
                assert straddle is expected, (c, cond1)
            seen.add((straddle, diagonalizable))
        assert seen == {(False, True), (True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_inverse(self, N, scale, svd_calls):
        rng = np.random.default_rng(N)
        seen = set()
        for c in np.logspace(np.log10(1e12 / (20 * N)), np.log10(20 * N * 1e12), 25):
            U, V = (np.linalg.qr(rng.normal(size=(N, N)))[0] for _ in range(2))
            A = scale * U @ np.diag(np.geomspace(1.0, 1 / c, N)) @ V + 0j  # complex, as in eig_general
            svd_calls.clear()
            Ai = _inverse(A)
            svds = len(svd_calls)
            singular = bool(np.linalg.cond(A, 2) > DEFECTIVE_COND)
            assert (Ai is None) is singular
            # one SVD for a straddled verdict, none otherwise
            straddle = svds > 0
            expected = inside(np.linalg.cond(A, 1), 1e12 / (2 * N), 2 * N * 1e12)
            if expected is not None:
                assert svds == expected, (c, np.linalg.cond(A, 1))
            seen.add((straddle, singular))
        assert seen == {(False, False), (True, False), (True, True), (False, True)}

    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_residual(self, N, svd_calls, monkeypatch):
        # every eigenvalue shifted by f * 1e-10 ||K||_2: each residual is near
        # that, against the bound 1e-10 ||K||_2 and the band
        # [1e-10 ||K||_F / (2 sqrt(N)), 2e-10 ||K||_F] that straddles it
        rng = np.random.default_rng(N)
        K = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        bound, frob = 1e-10 * np.linalg.norm(K, 2), 1e-10 * np.linalg.norm(K)
        real_eig = np.linalg.eig
        seen = set()
        for f in np.geomspace(1e-2, 10.0, 16):
            w, R = real_eig(K)
            w = w + f * bound
            R = R / np.linalg.norm(R, axis=0)
            worst = np.linalg.norm(K @ R - R * w, axis=0).max()
            monkeypatch.setattr(np.linalg, "eig", lambda A, _p=(w, R): _p)
            svd_calls.clear()
            try:
                eig_general(K)
                converged = True
            except NonConvergence:
                converged = False
            assert converged is bool(worst <= bound)
            # a residual not surely inside the bound reads the exact norm,
            # once, which a failure's message reports
            expected = inside(worst, frob / (2 * np.sqrt(N)), 2 * frob)
            if expected is not None:
                assert svd_calls == [(N, N)] * (expected or not converged), f
            seen.add((svd_calls != [], converged))
        assert seen == {(False, True), (True, True), (True, False)}

    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_pencil(self, N, svd_calls):
        # min |x_i + x_j| = 2 x0 against 1e-12 max(||X||_2, 1)
        rng = np.random.default_rng(N)
        scale = max(norm2(pencil_matrix(np.random.default_rng(N), N, 0.0)), 1.0)
        seen = set()
        for f in np.geomspace(1e-2, 1e2, 20):
            X = pencil_matrix(np.random.default_rng(N), N, f * 1e-12 * scale / 2)
            dec = eig_general(X)
            x = dec.eigenvalues
            small = np.abs(x[:, None] + x[None, :]).min()
            singular = bool(small < 1e-12 * max(norm2(X), 1.0))
            frob = 1e-12 * np.linalg.norm(X)
            expected = inside(small, max(frob / np.sqrt(N), 1e-12) / 2, 2 * max(frob, 1e-12))
            for solve in (lambda: _sylvester_solver(X, dec),
                          lambda: solve_sylvester_pair(X, X.T, rng.normal(size=(N, N)))):
                svd_calls.clear()
                try:
                    solve()
                    raised = False
                except SingularPencil:
                    raised = True
                assert raised is singular, f
                if expected is not None:
                    assert (svd_calls != []) is expected, f
            seen.add((svd_calls != [], singular))
        assert seen == {(False, True), (True, True), (True, False), (False, False)}


class TestGapVerdicts:
    """The gap tests of the single-system engines decide ``gap < 1e-10 *
    max(1, ||K||_2)`` on the norm bracket of the eigensystem, as
    :class:`TestBracketVerdicts` does for eig_general: the verdict must equal
    the one on the exact norm, and the norm SVD runs when, and only when,
    the bracket ``[||K||_F / sqrt(N), ||K||_F]`` widened by 2 straddles it."""

    ENGINES = {
        "stencil": lambda fam: stencil_tensors(fam, [0.0], 0, SOS_KINDS),
        "agp": lambda fam: agp_elements(fam, [0.0], 0),
        "sum_over_states": lambda fam: sum_over_states(fam, [0.0], 0, SOS_KINDS),
    }

    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_smallest_gap(self, N, engine, svd_calls):
        # eigenvalues 1 and 1 + f 1e-10 ||K||_2, the smallest gap, around the
        # threshold; the direction K keeps the eigenvectors along the stencil
        scale = max(norm2(pencil_matrix(np.random.default_rng(N), N, 1.0)), 1.0)
        seen = set()
        for f in np.geomspace(1e-2, 1e2, 20):
            K = pencil_matrix(np.random.default_rng(N), N, 1.0 + f * 1e-10 * scale)
            fam = OperatorFamily(N, 1, lambda lam, K=K: (1 + lam[0]) * K, lambda mu, lam, K=K: K)
            w = eig_general(K).eigenvalues
            gap = abs(w[1] - w[0])
            assert gap == np.abs(w[:, None] - w[None, :] + np.diag([np.inf] * N)).min()
            degenerate = bool(gap < 1e-10 * max(norm2(K), 1.0))
            frob = np.linalg.norm(K)
            expected = inside(gap, 1e-10 * max(frob / np.sqrt(N), 1.0) / 2,
                              2e-10 * max(frob, 1.0))
            svd_calls.clear()
            try:
                self.ENGINES[engine](fam)
                raised = False
            except DegenerateSpectrum:
                raised = True
            assert raised is degenerate, f
            if expected is not None:
                assert svd_calls == [(N, N)] * expected, f
            seen.add((svd_calls != [], degenerate))
        assert seen == {(False, True), (True, True), (True, False), (False, False)}


def random_stable(rng, N):
    """Random X with eigenvalues shifted into the right half plane."""
    X = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    shift = np.abs(np.linalg.eigvals(X).real).max()
    return X + (shift + 0.5) * np.eye(N)


class TestSylvester:
    def test_identity_halves_rhs(self):
        y = 0.7
        Y = np.array([[0.0, 1j * y], [-1j * y, 0.0]])
        assert maxdev(solve_sylvester(np.eye(2), Y), Y / 2) < 1e-14

    def test_singular_pencil(self):
        # eigenvalues +1 and -1: the pair sum x_1 + x_2 vanishes
        X = np.diag([1.0, -1.0])
        with pytest.raises(SingularPencil):
            solve_sylvester(X, np.array([[0.0, 1j], [-1j, 0.0]]))

    def test_residual_random_stable(self, rng):
        X = random_stable(rng, 6)
        B = rng.normal(size=(6, 6))
        Y = -4j * (B - B.T) / 2
        G = solve_sylvester(X, Y)
        assert np.linalg.norm(X @ G + G @ X.T - Y) <= 1e-9 * np.linalg.norm(Y)

    def test_hundred_random_instances(self, rng):
        for i in range(100):
            N = int(rng.integers(2, 17))
            X = random_stable(rng, N)
            Y = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            G = solve_sylvester(X, Y)
            assert np.linalg.norm(X @ G + G @ X.T - Y) <= 1e-9 * np.linalg.norm(Y)

    def test_pair_solver_general(self, rng):
        A = random_stable(rng, 5)
        B = random_stable(rng, 5)
        Y = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        G = solve_sylvester_pair(A, B, Y)
        assert np.linalg.norm(A @ G + G @ B - Y) <= 1e-9 * np.linalg.norm(Y)

    def test_pair_solver_2x2(self, rng):
        A = random_stable(rng, 2)
        B = random_stable(rng, 2)
        Y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G = solve_sylvester_pair(A, B, Y)
        assert np.linalg.norm(A @ G + G @ B - Y) <= 1e-12 * np.linalg.norm(Y)


def mixed_stack(rng):
    """A block of norm ~1e10 beside small blocks, one with eigenvalues 1 and
    1 + 1e-6: distinct at its own scale (tolerance 2e-14), degenerate at the
    big block's (tolerance ~1e-4)."""
    big = 1e10 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    near = np.array([[1.0, 0.5], [0.0, 1.0 + 1e-6]])
    small = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.stack([big, near, small])


def eig_blocks(A, **kwargs):
    """:func:`_eig_2x2` of the blocks ``A (..., 2, 2)``, read back as arrays:
    eigenvalues ``(..., 2)`` and right vectors ``(..., 2, 2)``."""
    w, U, _ = _eig_2x2(_entries(A), **kwargs)
    return np.stack(w, axis=-1), _blocks(U)


class TestStackedEig2x2:
    def test_stack_equals_single_blocks(self, rng):
        stack = np.concatenate([mixed_stack(rng), rng.normal(size=(5, 2, 2))])
        w, U = eig_blocks(stack)
        for A, wi, Ui in zip(stack, w, U):
            ws, Us = eig_blocks(A)
            assert np.array_equal(wi, ws) and np.array_equal(Ui, Us)
            assert maxdev(A @ Ui, Ui * wi[None, :]) <= 1e-10 * np.linalg.norm(A, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "mixed", "unitary"]))
    def test_matches_eig_general(self, seed, kind):
        A = block(seed, kind)
        w, U = eig_blocks(A)
        dec = eig_general(A)
        order = np.lexsort((w.imag, w.real))
        # relative to the norm, which the mixed blocks take up to 1e8
        assert maxdev(w[order], dec.eigenvalues) < 1e-14 * np.linalg.norm(A, 2)
        # the same unit vectors up to a phase
        overlaps = np.sum(U[:, order].conj() * dec.right_vectors, axis=0)
        assert maxdev(np.abs(overlaps), [1.0, 1.0]) < 1e-12

    def test_nested_stack_shape(self, rng):
        stack = rng.normal(size=(3, 4, 2, 2))
        w, U = eig_blocks(stack)
        assert w.shape == (3, 4, 2) and U.shape == (3, 4, 2, 2)
        assert np.array_equal(U[2, 1], eig_blocks(stack[2, 1])[1])

    def test_degenerate_block_located(self, rng):
        stack = rng.normal(size=(4, 2, 2))
        stack[2] = 3.0 * np.eye(2)
        with pytest.raises(SingularPencil) as info:
            eig_blocks(stack)
        assert info.value.block == 2
        with pytest.raises(SingularPencil):
            eig_blocks(stack[2])

    def test_near_degenerate_block_decomposes(self):
        # gap 1e-10, far above the 1e-14 test; tr^2 - 4 det cancels to 0 here
        A = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]])
        w, U = eig_blocks(A)
        assert abs((w[1] - w[0]) - 1e-10) <= 1e-16
        assert maxdev(A @ U, U * w[None, :]) <= 1e-15
        with pytest.raises(SingularPencil):
            eig_blocks(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_equal_eigenvalues_left_to_caller(self, rng):
        stack = np.concatenate([rng.normal(size=(3, 2, 2)), [
            [[0.0, 0.0], [1.0, 0.0]],  # defective: the same vector twice
            np.zeros((2, 2)),           # multiples of the identity: unit vectors
            3.0 * np.eye(2),
        ]])
        w, U = eig_blocks(stack, distinct=False)
        w0, U0 = eig_blocks(stack[:3])
        assert np.array_equal(w[:3], w0) and np.array_equal(U[:3], U0)
        assert np.array_equal(U[3], [[0.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(U[4], np.eye(2)) and np.array_equal(U[5], np.eye(2))
        assert np.array_equal(w[3:], [[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]])

    def test_nonfinite_block_rejected(self, rng):
        stack = rng.normal(size=(3, 2, 2))
        stack[1, 0, 1] = np.inf
        with pytest.raises(ShapeMismatch) as info:
            eig_blocks(stack)
        assert info.value.block == 1

    def test_residual_contract(self, rng):
        # finite entries whose trace/determinant quadratic overflows: the
        # pairs come out NaN and must fail the residual test, not pass it
        stack = rng.normal(size=(3, 2, 2))
        stack[1] = [[1e200, 1.0], [0.0, 2e200]]
        with pytest.raises(NonConvergence) as info, np.errstate(all="ignore"):
            eig_blocks(stack)
        assert info.value.block == 1


class TestStackedPencil:
    """The pencil check of :func:`_lyapunov_2x2`, made per block."""

    def test_tolerance_per_block(self, rng):
        # pencil minimum 1e-10 in a unit-norm block passes its own test, though
        # it is below 1e-12 times the norm of the big block beside it
        A = mixed_stack(rng)
        A[1] = np.diag([5e-11 + 1j, 5e-11 - 1j])
        Y = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        G = _lyapunov_2x2(*_eig_2x2(_entries(A)))[0](_entries(Y))
        for Ai, Yi, Gi in zip(A, Y, _blocks(G)):
            assert maxdev(Gi, solve_sylvester_pair(Ai, Ai.conj().T, Yi)) <= 1e-12 * np.abs(Gi).max()

    def test_singular_block_located(self):
        # the eigenvalue 1j of the second block has Re a = 0: a_0 + conj a_0 = 0
        a = (np.array([1.0, 1j, 1.0]), np.array([2.0, 3.0, 2.0]))
        U = _entries(np.broadcast_to(np.eye(2), (3, 2, 2)))
        with pytest.raises(SingularPencil) as info:
            _lyapunov_2x2(a, U, np.ones(3))
        assert info.value.block == 1


def two_checks(first, second, values=np.arange(12.0)):
    """Two blockwise checks over a stack of blocks that hold ``values``:
    ShapeMismatch where the mask ``first`` is set, then SingularPencil where
    ``second`` is."""
    _raise_first(np.array(first, dtype=bool), ShapeMismatch, lambda i: f"first, {values[i]}")
    _raise_first(np.array(second, dtype=bool), SingularPencil, lambda i: f"second, {values[i]}")


class TestBlockRecord:
    """The rule of every stacked route: the first check, in run order, that
    fails at the lowest failing block, as a loop over the blocks finds it."""

    @pytest.mark.parametrize("first, second, error, block", [
        ([0, 0, 1, 0], [0, 1, 0, 1], SingularPencil, 1),  # the masks cross
        ([0, 1, 0, 0], [0, 0, 1, 1], ShapeMismatch, 1),
        ([0, 0, 1, 1], [0, 0, 1, 0], ShapeMismatch, 2),  # a tie: the earlier check
    ])
    def test_lowest_block_then_earlier_check(self, first, second, error, block):
        with pytest.raises(error) as info, lowest_failing_block():
            two_checks(first, second)
        assert info.value.block == block
        name = "first" if error is ShapeMismatch else "second"
        assert str(info.value) == f"block {block}: {name}, {float(block)}"
        # outside a record the first failing check raises at its first block
        with pytest.raises(ShapeMismatch) as info:
            two_checks(first, second)
        assert info.value.block == first.index(1)

    def test_errors_of_each_point(self):
        # three points of four blocks: each reads the error it raises alone,
        # its block and message counted from the point's start
        first = [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
        second = [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1]
        values = np.arange(12.0) ** 2
        with flagged_blocks() as flags:
            two_checks(first, second, values)
        errors = flags.errors(3)
        assert errors[0] is None
        for p, got in ((1, errors[1]), (2, errors[2])):
            part = slice(4 * p, 4 * p + 4)
            with pytest.raises(NhgeoError) as info, lowest_failing_block():
                two_checks(first[part], second[part], values[part])
            want = info.value
            assert (type(got), str(got), got.block) == (type(want), str(want), want.block)
        assert str(errors[1]) == "block 1: second, 25.0" and errors[1].block == 1
        assert str(errors[2]) == "block 3: first, 121.0" and errors[2].block == 3

    def test_later_error_in_the_body(self):
        # the body runs past a recorded failure, which a raising path would
        # have stopped at: the recorded error wins over one raised later
        with pytest.raises(SingularPencil) as info, lowest_failing_block():
            two_checks([0, 0], [0, 1])
            raise NonConvergence("later")
        assert info.value.block == 1
        with pytest.raises(SingularPencil), lowest_failing_block():
            two_checks([0, 0], [0, 1])
            _raise_first(np.True_, NonConvergence, lambda i: "a single matrix")
        # with nothing recorded it propagates, and a single matrix raises at once
        with pytest.raises(NonConvergence, match="later"), lowest_failing_block():
            two_checks([0, 0], [0, 0])
            raise NonConvergence("later")
        with pytest.raises(NonConvergence) as info, lowest_failing_block():
            _raise_first(np.True_, NonConvergence, lambda i: "a single matrix")
            two_checks([0, 0], [0, 1])
        assert str(info.value) == "a single matrix" and info.value.block == 0

    def test_a_record_inside_a_pass_joins_it(self):
        with flagged_blocks() as flags:
            with lowest_failing_block():
                two_checks([0, 0, 0, 1], [0, 0, 1, 0])
            with lowest_failing_block():
                two_checks([1, 0, 0, 0], [0, 0, 0, 0])
        assert [str(e) for e in flags.errors(2)] == ["block 0: first, 0.0",
                                                    "block 0: second, 2.0"]


def scaled_stack(seed, L=12):
    """Seeded random 2x2 blocks, each scaled by 2^-500, 1 or 2^500 (exact)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(L, 2, 2)) + 1j * rng.normal(size=(L, 2, 2))
    return A * np.ldexp(1.0, rng.choice([-500, 0, 500], size=L))[:, None, None]


def per_block(err, bound):
    """Each block's largest entry of ``err`` is within its ``bound``."""
    return bool((np.abs(err).max(axis=(-2, -1)) <= bound).all())


class TestBlockAlgebra:
    """The 2x2 entry algebra against numpy on seeded random stacks whose
    blocks differ in magnitude by up to 2^1000."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_product(self, seed):
        A, B = scaled_stack(seed), scaled_stack(seed + 1)
        assert np.array_equal(_blocks(_entries(A)), A)
        sizes = np.linalg.norm(A, 2, axis=(-2, -1)) * np.linalg.norm(B, 2, axis=(-2, -1))
        assert per_block(_blocks(_mul(_entries(A), _entries(B))) - A @ B, 1e-15 * sizes)
        assert np.array_equal(_blocks(_adjoint(_entries(A))), A.conj().swapaxes(-1, -2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_lyapunov_step_against_the_pair_solver(self, seed):
        # blocks that obey the conjugation rule, x(-k)^T = x(k)^H, shifted
        # into the right half plane by a tenth of their norm, with Hermitian
        # right-hand sides: the solver on the one decomposition of x solves
        # what the pair solver solves on the decompositions of x and x^H
        rng = np.random.default_rng(seed)

        def stack():  # scaled by 2^-20, 1 or 2^500, above the degeneracy floor 1e-14
            A = rng.normal(size=(12, 2, 2)) + 1j * rng.normal(size=(12, 2, 2))
            return A * np.ldexp(1.0, rng.choice([-20, 0, 500], size=12))[:, None, None]

        X, Y = stack(), stack()
        norms = np.linalg.norm(X, 2, axis=(-2, -1))
        X += (abs(np.linalg.eigvals(X).real).max(axis=-1) + norms / 10)[:, None, None] * np.eye(2)
        x, y = _entries(X), _entries(Y + Y.conj().swapaxes(-1, -2))
        got = _blocks(_lyapunov_2x2(*_eig_2x2(x))[0](y))
        want = np.stack([solve_sylvester_pair(A, A.conj().T, B) for A, B in zip(X, _blocks(y))])
        bound = 1e-13 * np.linalg.norm(want, 2, axis=(-2, -1))
        assert per_block(got - want, bound)
        assert per_block(got - got.conj().swapaxes(-1, -2), bound)  # Hermitian, as Y

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_inverse_and_norm(self, seed):
        A = scaled_stack(seed)
        norm = np.linalg.norm(A, 2, axis=(-2, -1))
        assert np.all(np.abs(_norm(_entries(A)) - norm) <= 1e-14 * norm)
        ref = np.linalg.inv(A)
        cond = norm * np.linalg.norm(ref, 2, axis=(-2, -1))
        bound = 1e-14 * cond * np.linalg.norm(ref, 2, axis=(-2, -1))
        assert per_block(_blocks(_inv(_entries(A))) - ref, bound)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_eigenpairs(self, seed):
        A = scaled_stack(seed)
        # the degeneracy test has the absolute floor 1e-14, which every
        # 2^-500 block is below: the pairs are what is compared here
        w, U, norm = _eig_2x2(_entries(A), distinct=False)
        assert np.array_equal(norm, _norm(_entries(A)))
        w, U = np.stack(w, axis=-1), _blocks(U)
        ref = np.linalg.eigvals(A)
        err = np.minimum(np.abs(w - ref).max(axis=-1), np.abs(w - ref[:, ::-1]).max(axis=-1))
        assert np.all(err <= 1e-12 * norm)
        assert np.all(np.abs(np.linalg.norm(U, axis=-2) - 1.0) <= 1e-15)
        assert per_block(A @ U - U * w[:, None, :], 1e-10 * norm)

    @pytest.mark.parametrize("e", [-500, 0, 500])
    def test_singular_blocks(self, e):
        # rank one, with unit columns as eigenvector matrices have: the
        # determinant is exactly zero
        R = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, -1j], [1j, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        R = R / np.linalg.norm(R, axis=-2, keepdims=True)
        cond, inv = _cond_inv(_entries(R))
        assert np.array_equal(cond, [np.inf, np.inf, 1.0])
        inv = _blocks(inv)
        assert not np.isfinite(inv[:2]).any(axis=(-2, -1)).any()
        assert np.array_equal(inv[2], np.eye(2))
        scaled = np.ldexp(1.0, e) * R
        assert not np.isfinite(_blocks(_inv(_entries(scaled)))[:2]).all(axis=(-2, -1)).any()

    @pytest.mark.parametrize("e", [-500, 0, 500])
    def test_defective_blocks(self, e, rng):
        lam = rng.normal(size=3) + 1j * rng.normal(size=3)
        A = np.ldexp(1.0, e) * np.array([[[l, 1.0], [0.0, l]] for l in lam])
        with pytest.raises(SingularPencil) as info:
            _eig_2x2(_entries(A))
        assert info.value.block == 0
        w, U, _ = _eig_2x2(_entries(A), distinct=False)
        assert np.array_equal(w[0], w[1])
        U = _blocks(U)
        assert np.array_equal(U[..., 0], U[..., 1])  # the same vector twice
        assert np.all(_cond_inv(_entries(U))[0] == np.inf)


class TestMatrixJson:
    def test_fixed_example(self):
        A = np.array([[1.0 + 2.0j, 0.0], [-1.0j, 3.0]])
        obj = matrix_to_json(A)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][0] == [1.0, 2.0]
        assert maxdev(matrix_from_json(obj), A) == 0.0

    def test_malformed_rejected(self):
        with pytest.raises(ShapeMismatch):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    @pytest.mark.parametrize("obj", [
        {"rows": 1, "cols": 1, "data": [1]},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 2.0]]},
        {"rows": 2, "cols": 1, "data": [[1.0, 0.0], [2.0]]},
        {"rows": 1, "cols": 1, "data": [["a", 0.0]]},
        {"rows": 1, "cols": 1, "data": {"re": 1.0}},
        {"rows": 1, "cols": 1, "data": [["1.5", "0"]]},
        {"rows": 1, "cols": 1, "data": [[True, False]]},
        {"rows": 1, "cols": 1, "data": [[1.0, None]]},
        {"rows": "two", "cols": 1, "data": [[1.0, 0.0]]},
        {"rows": 1.5, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]},
        {"rows": True, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]},
        {"rows": "1", "cols": 1, "data": [[1.0, 0.0]]},
        {"rows": -1, "cols": -1, "data": [[1.0, 0.0]]},
        {"cols": 1, "data": [[1.0, 0.0]]},
        [[1.0, 0.0]],
    ])
    def test_malformed_data_rejected(self, obj):
        with pytest.raises(ShapeMismatch):
            matrix_from_json(obj)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "K.json"
        path.write_text("{not json")
        with pytest.raises(ShapeMismatch, match="not a JSON file"):
            load_matrix(path)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(0, 2 ** 31 - 1))
    def test_roundtrip_bit_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        through_text = json.loads(json.dumps(matrix_to_json(A)))
        assert np.array_equal(matrix_from_json(through_text), A)
