import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeo.biortho import build_biortho
from nhgeo.errors import (
    NearDefective,
    NonConvergence,
    ShapeMismatch,
    SingularMatrix,
    SingularPencil,
)
from nhgeo.linalg import (
    DEFECTIVE_COND,
    _cond_inverse,
    _cond_inverse_2x2,
    _eig_2x2,
    _pencil,
    eig_general,
    inverse,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    norm2,
    solve_sylvester,
    solve_sylvester_pair,
)

from conftest import maxdev


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

    def test_rejects_nonfinite(self):
        with pytest.raises(ShapeMismatch):
            eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            eig_general(np.zeros((2, 3)))

    @pytest.mark.parametrize("call", [
        eig_general,
        build_biortho,
        inverse,
        lambda E: solve_sylvester(E, E),
        lambda E: solve_sylvester(np.eye(2), E),
    ], ids=["eig_general", "build_biortho", "inverse", "sylvester_X", "sylvester_Y"])
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


class TestInverse:
    def test_identity(self):
        assert maxdev(inverse(np.eye(3)), np.eye(3)) == 0.0

    def test_diagonal(self):
        assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_well_conditioned(self, rng):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 3 * np.eye(8)
        assert maxdev(A @ inverse(A), np.eye(8)) < 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


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
        stack = norm2(np.stack([A, 2 * A, A.T, 0 * A]))
        assert maxdev(stack / ref, [1.0, 2.0, 1.0, 0.0]) <= 1e-12

    def test_norm2_stack_of_mixed_magnitudes(self, rng):
        # each block at its own scale, 1e-200 to 1e200, side by side
        scales = 10.0 ** np.arange(-200, 201, 25)
        stack = scales[:, None, None] * (rng.normal(size=(len(scales), 2, 2))
                                         + 1j * rng.normal(size=(len(scales), 2, 2)))
        for got, B in zip(norm2(stack), stack):
            ref = np.linalg.norm(B, 2)
            assert abs(got - ref) <= 1e-12 * ref

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), BLOCK_KINDS)
    def test_condition_matches_svd(self, seed, kind):
        A = block(seed, kind)
        unit = A / np.abs(A).max()
        unit /= np.linalg.norm(unit, axis=0)  # as the eigenvector matrices are
        for A in (A, unit):
            ref = np.linalg.cond(A, 2)
            cond, Ai = _cond_inverse(A)
            # beyond 1e3 both routes carry the forward error eps * cond
            assert abs(cond - ref) <= (1e-12 + 1e-15 * ref) * ref
            if cond <= DEFECTIVE_COND:
                assert maxdev(Ai @ A, np.eye(2)) <= 1e-12 * cond

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_stacked_condition_matches_single(self, seed):
        # unit-column blocks of every kind, as eigenvector matrices are
        stack = np.stack([A / np.abs(A).max() for A in (block(seed + i, kind) for i, kind in
                          enumerate(["random", "mixed", "unitary", "1e200", "1e-200"]))])
        stack /= np.linalg.norm(stack, axis=-2, keepdims=True)
        cond, inv = _cond_inverse_2x2(stack)
        for c, Ai, A in zip(cond, inv, stack):
            ref, ref_inv = _cond_inverse(A)
            assert abs(c - ref) <= 1e-14 * ref
            if ref_inv is not None:
                assert maxdev(Ai, ref_inv) <= 1e-14 * ref

    def test_stacked_condition_of_singular_block(self):
        R = np.array([[[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        cond, inv = _cond_inverse_2x2(R)
        assert cond[0] == np.inf and cond[1] == 1.0
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

    def test_biortho_2x2_runs_no_svd_cond_or_inverse(self, rng, monkeypatch):
        npla = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 / 1

        calls = []
        for name in ("svd", "cond", "inv"):
            for mod in (np.linalg, npla):
                real = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *a, _f=real, _n=name, **k:
                                    calls.append(_n) or _f(*a, **k))
        sys = build_biortho(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        assert calls == []
        assert maxdev(sys.left.conj().T @ sys.right, np.eye(2)) <= 1e-12
        build_biortho(rng.normal(size=(3, 3)))  # the counters do see larger matrices
        assert set(calls) == {"svd", "cond", "inv"}

    @pytest.mark.parametrize("N", [2, 3, 8])
    def test_decomposition_norm_is_norm2(self, rng, N):
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            K = scale * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
            assert eig_general(K).norm == norm2(K)
            sys = build_biortho(K)
            assert sys.norm == norm2(K)

    def test_decomposition_norm_spares_svds(self, rng, svd_calls):
        # eig_general makes two SVDs at N > 2, ||K||_2 and the condition
        # number; its callers read ||K||_2 from the decomposition
        build_biortho(rng.normal(size=(3, 3)))
        assert svd_calls == [(3, 3)] * 2
        svd_calls.clear()
        A, B = random_stable(rng, 3), random_stable(rng, 4)
        solve_sylvester_pair(A, B, rng.normal(size=(3, 4)))
        assert svd_calls == [(3, 3)] * 2 + [(4, 4)] * 2
        svd_calls.clear()
        solve_sylvester_pair(A[:2, :2] + 4 * np.eye(2), B[:2, :2] + 4 * np.eye(2), np.eye(2))
        assert svd_calls == []


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

    def test_pair_solver_2x2_closed_form(self, rng):
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


class TestStackedEig2x2:
    def test_stack_equals_single_blocks(self, rng):
        stack = np.concatenate([mixed_stack(rng), rng.normal(size=(5, 2, 2))])
        w, U = _eig_2x2(stack)
        for A, wi, Ui in zip(stack, w, U):
            ws, Us = _eig_2x2(A)
            assert np.array_equal(wi, ws) and np.array_equal(Ui, Us)
            assert maxdev(A @ Ui, Ui * wi[None, :]) <= 1e-10 * np.linalg.norm(A, 2)

    def test_matches_eig_general(self, rng):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, U = _eig_2x2(A)
        dec = eig_general(A)
        order = np.lexsort((w.imag, w.real))
        assert maxdev(w[order], dec.eigenvalues) < 1e-13
        # the same unit vectors up to a phase
        overlaps = np.sum(U[:, order].conj() * dec.right_vectors, axis=0)
        assert maxdev(np.abs(overlaps), [1.0, 1.0]) < 1e-12

    def test_nested_stack_shape(self, rng):
        stack = rng.normal(size=(3, 4, 2, 2))
        w, U = _eig_2x2(stack)
        assert w.shape == (3, 4, 2) and U.shape == (3, 4, 2, 2)
        assert np.array_equal(U[2, 1], _eig_2x2(stack[2, 1])[1])

    def test_degenerate_block_located(self, rng):
        stack = rng.normal(size=(4, 2, 2))
        stack[2] = 3.0 * np.eye(2)
        with pytest.raises(SingularPencil) as info:
            _eig_2x2(stack)
        assert info.value.block == 2
        with pytest.raises(SingularPencil):
            _eig_2x2(stack[2])

    def test_near_degenerate_block_decomposes(self):
        # gap 1e-10, far above the 1e-14 test; tr^2 - 4 det cancels to 0 here
        A = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]])
        w, U = _eig_2x2(A)
        assert abs((w[1] - w[0]) - 1e-10) <= 1e-16
        assert maxdev(A @ U, U * w[None, :]) <= 1e-15
        with pytest.raises(SingularPencil):
            _eig_2x2(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_equal_eigenvalues_left_to_caller(self, rng):
        stack = np.concatenate([rng.normal(size=(3, 2, 2)), [
            [[0.0, 0.0], [1.0, 0.0]],  # defective: the same vector twice
            np.zeros((2, 2)),           # multiples of the identity: unit vectors
            3.0 * np.eye(2),
        ]])
        w, U = _eig_2x2(stack, distinct=False)
        w0, U0 = _eig_2x2(stack[:3])
        assert np.array_equal(w[:3], w0) and np.array_equal(U[:3], U0)
        assert np.array_equal(U[3], [[0.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(U[4], np.eye(2)) and np.array_equal(U[5], np.eye(2))
        assert np.array_equal(w[3:], [[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]])

    def test_nonfinite_block_rejected(self, rng):
        stack = rng.normal(size=(3, 2, 2))
        stack[1, 0, 1] = np.inf
        with pytest.raises(ShapeMismatch) as info:
            _eig_2x2(stack)
        assert info.value.block == 1

    def test_residual_contract(self, rng):
        # finite entries whose trace/determinant quadratic overflows: the
        # pairs come out NaN and must fail the residual test, not pass it
        stack = rng.normal(size=(3, 2, 2))
        stack[1] = [[1e200, 1.0], [0.0, 2e200]]
        with pytest.raises(NonConvergence) as info, np.errstate(all="ignore"):
            _eig_2x2(stack)
        assert info.value.block == 1


class TestStackedPencil:
    def test_tolerance_per_block(self, rng):
        # pencil minimum 1e-10 in a unit-norm block passes its own test, though
        # it is below 1e-12 times the norm of the big block beside it
        A = mixed_stack(rng)
        A[1] = np.diag([1.0, 2.0])
        B = np.stack([A[0].T + 1e6 * np.eye(2), np.diag([-1.0 + 1e-10, 0.5]), A[2] + 5 * np.eye(2)])
        Y = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        (a, Ua), (b, Ub) = _eig_2x2(A), _eig_2x2(B)
        scale = np.maximum(np.linalg.norm(A, 2, axis=(-2, -1)), np.linalg.norm(B, 2, axis=(-2, -1)))
        G = _pencil(a, Ua, np.linalg.inv(Ua), b, Ub, np.linalg.inv(Ub),
                    1e-12 * np.maximum(scale, 1.0))(Y)
        for Ai, Bi, Yi, Gi in zip(A, B, Y, G):
            assert maxdev(Gi, solve_sylvester_pair(Ai, Bi, Yi)) <= 1e-12 * np.abs(Gi).max()

    def test_singular_block_located(self, rng):
        a = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]])
        b = np.array([[0.5, 1.0], [-3.0, 2.0], [0.5, 0.5]])
        U = np.broadcast_to(np.eye(2), (3, 2, 2))
        with pytest.raises(SingularPencil) as info:
            _pencil(a, U, U, b, U, U, np.full(3, 1e-12))
        assert info.value.block == 1


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
