import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhgeo.errors import NonConvergence, ShapeMismatch, SingularMatrix, SingularPencil
from nhgeo.linalg import (
    _eig_2x2,
    _pencil,
    eig_general,
    inverse,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
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
