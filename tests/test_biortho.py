import numpy as np
import pytest

from nhgeo.biortho import build_biortho
from nhgeo.errors import NearDefective
from nhgeo.ssh import SSHParams

from conftest import bloch, maxdev, ssh_eigenstates


def random_diagonalizable(rng, N=6):
    K = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return K + np.diag(3.0 * np.arange(N))


class TestBuildBiortho:
    def test_hermitian_left_equals_right(self, rng):
        B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        K = B + B.conj().T + np.diag(4.0 * np.arange(5))
        sys = build_biortho(K)
        # left and right columns agree up to the (unimodular) column phases
        for n in range(5):
            o = sys.left_vectors[:, n].conj() @ sys.right_vectors[:, n]
            assert abs(abs(o) - 1.0) < 1e-10
            assert maxdev(sys.left_vectors[:, n], sys.right_vectors[:, n] / o) < 1e-9
        assert maxdev(sys.gram_right, np.eye(5)) < 1e-10

    def test_two_level_gram_analytic(self):
        a, b = 1.3, 0.4
        sys = build_biortho(np.array([[0.0, a], [b, 0.0]]))
        expected = (a - b) / (a + b)
        assert abs(abs(sys.gram_right[0, 1]) - abs(expected)) < 1e-12

    def test_ssh_bloch_matches_closed_forms(self):
        p = SSHParams(0.7, 0.4, 4)
        k = 1.3
        sys = build_biortho(bloch(p, k))
        (prp, prm), (plp, plm) = ssh_eigenstates(p, k)
        # match by eigenvalue sign: closed forms ordered (+sqrt, -sqrt)
        e = sys.eigenvalues
        for closed_r, closed_l, ev in ((prp, plp, "+"), (prm, plm, "-")):
            target = np.argmax(e.real) if ev == "+" else np.argmin(e.real)
            r = sys.right_vectors[:, target]
            l = sys.left_vectors[:, target]
            # proportional up to the biorthogonal gauge
            ratio = closed_r / r
            assert np.abs(ratio - ratio[0]).max() < 1e-9
            ratio_l = closed_l / l
            assert np.abs(ratio_l - ratio_l[0]).max() < 1e-9
            # products are gauge independent
            assert maxdev(np.outer(r, l.conj()), np.outer(closed_r, closed_l.conj())) < 1e-9

    def test_biorthonormality_random(self, rng):
        for _ in range(50):
            sys = build_biortho(random_diagonalizable(rng))
            assert maxdev(sys.left_vectors.conj().T @ sys.right_vectors, np.eye(6)) <= 1e-10

    def test_gram_matrices_inverse_pair(self, rng):
        sys = build_biortho(random_diagonalizable(rng))
        assert maxdev(sys.gram_left @ sys.gram_right, np.eye(6)) <= 1e-8

    def test_left_eigenvectors_of_adjoint(self, rng):
        K = random_diagonalizable(rng)
        sys = build_biortho(K)
        for n in range(6):
            ln = sys.left_vectors[:, n]
            res = K.conj().T @ ln - sys.eigenvalues[n].conj() * ln
            assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(K)

    def test_near_defective_raises(self):
        with pytest.raises(NearDefective):
            build_biortho(np.array([[0.0, 1.0], [0.0, 0.0]]))

