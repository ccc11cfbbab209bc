"""Dense complex matrix primitives.

General (non-Hermitian) eigendecomposition with a canonical eigenvalue
order, matrix inverse with conditioning guard, continuous-Lyapunov /
Sylvester solves by the spectral method, and the JSON on-disk matrix format
used by the command line tools.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    NearDefective,
    NonConvergence,
    ShapeMismatch,
    SingularMatrix,
    SingularPencil,
)

#: condition number of the eigenvector matrix above which a matrix is
#: treated as (numerically) defective
DEFECTIVE_COND = 1e12

#: resolution used when ordering eigenvalues: values closer than this are
#: regarded as tied and keep their input-derived order
ORDER_TIE_RESOLUTION = 1e-12


def as_square(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a square complex ndarray with finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ShapeMismatch(f"{name} has non-finite entries")
    return A


def canonical_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by (Re, Im), ascending.

    Keys are quantized at ``ORDER_TIE_RESOLUTION`` so that values that agree
    to that resolution are ties; the stable sort then keeps input order,
    which makes the ordering reproducible run to run.
    """
    re = np.round(eigenvalues.real / ORDER_TIE_RESOLUTION) * ORDER_TIE_RESOLUTION
    im = np.round(eigenvalues.imag / ORDER_TIE_RESOLUTION) * ORDER_TIE_RESOLUTION
    return np.lexsort((im, re))


@dataclass(frozen=True)
class EigDecomposition:
    """Right eigendecomposition in canonical eigenvalue order.

    ``right_vectors[:, n]`` is the unit-norm right eigenvector of
    ``eigenvalues[n]``.  ``condition`` is the 2-norm condition number of the
    eigenvector matrix; ``is_diagonalizable_estimate`` is False when it
    exceeds ``DEFECTIVE_COND`` (reported, not fatal).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    condition: float
    is_diagonalizable_estimate: bool


def eig_general(K) -> EigDecomposition:
    """Eigendecomposition of a general complex square matrix.

    Raises
    ------
    NonConvergence
        If the underlying QR iteration fails or the per-pair residual
        ``||K v - w v||`` exceeds ``1e-10 * ||K||``.
    """
    K = as_square(K, "K")
    try:
        w, R = np.linalg.eig(K)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(str(exc)) from exc
    order = canonical_order(w)
    w, R = w[order], R[:, order]
    R = R / np.linalg.norm(R, axis=0)

    scale = np.linalg.norm(K, 2)
    resid = np.linalg.norm(K @ R - R * w[None, :], axis=0)
    if scale > 0 and np.any(resid > 1e-10 * scale):
        raise NonConvergence(
            f"eigenpair residual {resid.max():.3e} exceeds 1e-10*||K||"
        )
    cond = float(np.linalg.cond(R, 2))
    return EigDecomposition(w, R, cond, cond <= DEFECTIVE_COND)


def inverse(A) -> np.ndarray:
    """Matrix inverse, guarded by a condition-number bound of 1e12."""
    A = as_square(A, "A")
    try:
        cond = np.linalg.cond(A, 2)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularMatrix(str(exc)) from exc
    if not np.isfinite(cond) or cond > DEFECTIVE_COND:
        raise SingularMatrix(f"condition number {cond:.3e} above 1e12")
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def _raise_first(bad, exc_type, message):
    """Raise ``exc_type`` for the first block flagged in the mask ``bad``.

    ``bad`` has one entry per block of a stack (shape ``()`` for a single
    matrix); ``message(i)`` describes the block of flat index ``i``.  For a
    stack the error names that block and carries its index as ``exc.block``.
    """
    bad = np.asarray(bad)
    if bad.any():
        i = int(np.argmax(bad))
        exc = exc_type(message(i) if bad.ndim == 0 else f"block {i}: {message(i)}")
        exc.block = i
        raise exc


def _norm2_2x2(A) -> np.ndarray:
    """Spectral norm of each 2x2 block of ``A (..., 2, 2)``, in closed form.

    With ``f = s1^2 + s2^2`` (Frobenius) and ``d = s1 s2 = |det A|``:
    ``s1 = (sqrt(f + 2d) + sqrt(f - 2d)) / 2``.
    """
    f = (A.real ** 2 + A.imag ** 2).sum(axis=(-2, -1))
    d = np.abs(A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0])
    return (np.sqrt(f + 2 * d) + np.sqrt(np.maximum(f - 2 * d, 0.0))) / 2


def _eig_2x2(A: np.ndarray):
    """Closed-form eigendecomposition of 2x2 matrices with distinct eigenvalues.

    ``A`` is one 2x2 matrix or a stack of shape ``(..., 2, 2)``; every test
    below is made per block.  Eigenvalues come from the trace/determinant
    quadratic, which avoids the catastrophic cancellation the iterative
    solver introduces in nearly trace-degenerate pencil sums; its
    discriminant is formed as ``(a00 - a11)^2 + 4 a01 a10``, since
    ``tr^2 - 4 det`` cancels for nearly equal diagonals.  The pairs
    keep the contract of :func:`eig_general`: non-finite blocks raise
    ``ShapeMismatch`` and a residual above ``1e-10 * ||A||`` raises
    ``NonConvergence``.
    """
    A = np.asarray(A, dtype=complex)
    stack = A.shape[:-2]
    A = A.reshape(-1, 2, 2)  # one code path: a single block is a stack of one

    def check(bad, exc_type, message):
        _raise_first(bad.reshape(stack), exc_type, message)

    check(~np.isfinite(A).all(axis=(-2, -1)), ShapeMismatch,
          lambda i: "2x2 block has non-finite entries")
    tr = A[:, 0, 0] + A[:, 1, 1]
    disc = np.sqrt((A[:, 0, 0] - A[:, 1, 1]) ** 2 + 4 * A[:, 0, 1] * A[:, 1, 0])
    a1 = (tr - disc) / 2
    a2 = (tr + disc) / 2
    check(np.abs(a1 - a2) < 1e-14 * np.maximum(1.0, np.abs(a1) + np.abs(a2)),
          SingularPencil, lambda i: "2x2 block has (near-)degenerate eigenvalues")
    w = np.stack([a1, a2], axis=-1)
    # a nonzero column of (A - other*I) spans each eigenvector
    B = A[:, None] - w[:, ::-1, None, None] * np.eye(2)
    n = np.linalg.norm(B, axis=-2)
    U = np.where(n[..., :1] >= n[..., 1:], B[..., :, 0], B[..., :, 1])
    U = np.swapaxes(U / np.maximum(n[..., :1], n[..., 1:]), -1, -2)
    scale = _norm2_2x2(A)
    resid = np.linalg.norm(A @ U - U * w[:, None, :], axis=-2).max(axis=-1)
    # written so that a NaN residual (overflow in the quadratic) fails too
    check(~(resid <= 1e-10 * scale), NonConvergence,
          lambda i: f"eigenpair residual {resid[i]:.3e} exceeds 1e-10*||A||")
    return w.reshape(stack + (2,)), U.reshape(stack + (2, 2))


def _pencil(a, Ua, Uai, b, Ub, Ubi, tol):
    """Solver of ``A G + G B = Y`` from ``A = Ua diag(a) Uai``, ``B = Ub diag(b) Ubi``.

    Stacks of decompositions solve blockwise.  The pencil ``a_i + b_j`` is
    checked once, per block against ``tol``; the returned function then maps
    any right-hand side (stack) to its solution.
    """
    denom = a[..., :, None] + b[..., None, :]
    small = np.abs(denom).min(axis=(-2, -1))
    _raise_first(small < tol, SingularPencil,
                 lambda i: f"min |a_i + b_j| = {np.ravel(small)[i]:.3e} below tolerance")
    return lambda Y: Ua @ ((Uai @ Y @ Ub) / denom) @ Ubi


def solve_sylvester_pair(A, B, Y, *, pencil_tol: float = 1e-12) -> np.ndarray:
    """Solve ``A G + G B = Y`` by diagonalizing both coefficient matrices.

    With ``A = Ua Da Ua^-1`` and ``B = Ub Db Ub^-1`` the solution is
    ``G = Ua [ (Ua^-1 Y Ub)_{ij} / (a_i + b_j) ] Ub^-1``.  2x2 blocks use a
    closed-form eigendecomposition so that the pencil sums ``a_i + b_j`` are
    formed without cancellation.

    Raises
    ------
    SingularPencil
        If some ``|a_i + b_j|`` is below ``pencil_tol * max(||A||, ||B||, 1)``.
    """
    A = as_square(A, "A")
    B = as_square(B, "B")
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (A.shape[0], B.shape[0]):
        raise ShapeMismatch(f"right-hand side shape {Y.shape} incompatible")
    if A.shape[0] == 2 and B.shape[0] == 2:
        a, Ua = _eig_2x2(A)
        b, Ub = _eig_2x2(B)
    else:
        da = eig_general(A)
        db = eig_general(B)
        if not (da.is_diagonalizable_estimate and db.is_diagonalizable_estimate):
            raise NearDefective("coefficient matrix near defective")
        a, Ua = da.eigenvalues, da.right_vectors
        b, Ub = db.eigenvalues, db.right_vectors
    scale = max(np.linalg.norm(A, 2), np.linalg.norm(B, 2), 1.0)
    return _pencil(a, Ua, np.linalg.inv(Ua), b, Ub, np.linalg.inv(Ub), pencil_tol * scale)(Y)


def solve_sylvester(X, Y) -> np.ndarray:
    """Solve ``X G + G X^T = Y`` (spectral method).

    The eigendecomposition of ``X`` is reused for the transposed factor:
    ``G = U [ (U^-1 Y U^-T)_{ij} / (x_i + x_j) ] U^T``.  The residual
    ``||X G + G X^T - Y||`` is checked against ``1e-9 * ||Y||``.
    """
    X = as_square(X, "X")
    Y = as_square(Y, "Y")
    if X.shape != Y.shape:
        raise ShapeMismatch("X and Y must have equal shapes")
    dec = eig_general(X)
    if not dec.is_diagonalizable_estimate:
        raise NearDefective(
            f"eigenvector condition {dec.condition:.3e} above {DEFECTIVE_COND:.0e}"
        )
    x, U = dec.eigenvalues, dec.right_vectors
    denom = x[:, None] + x[None, :]
    scale = max(np.linalg.norm(X, 2), 1.0)
    if np.abs(denom).min() < 1e-12 * scale:
        raise SingularPencil(
            f"min |x_i + x_j| = {np.abs(denom).min():.3e} below 1e-12*||X||"
        )
    Ui = np.linalg.inv(U)
    G = (Ui @ Y @ Ui.T) / denom
    out = U @ G @ U.T
    ynorm = np.linalg.norm(Y)
    resid = np.linalg.norm(X @ out + out @ X.T - Y)
    if ynorm > 0 and resid > 1e-9 * ynorm:
        raise SingularPencil(
            f"solution residual {resid:.3e} exceeds 1e-9*||Y|| (ill-conditioned pencil)"
        )
    return out


# ---------------------------------------------------------------------------
# JSON matrix format: {"rows": N, "cols": N, "data": [[re, im], ...]} row-major
# ---------------------------------------------------------------------------

def matrix_to_json(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ShapeMismatch("only 2-d matrices are serializable")
    data = [[float(v.real), float(v.imag)] for v in A.ravel(order="C")]
    return {"rows": int(A.shape[0]), "cols": int(A.shape[1]), "data": data}


def complex_pairs(data, what: str = "data") -> np.ndarray:
    """A list of ``[re, im]`` pairs as a complex vector, else ShapeMismatch.

    Each parsed ``[re, im]`` row is one complex128 in memory, so the view
    is bit-exact.  Entries must be JSON numbers: strings and booleans are
    rejected, not converted.
    """
    try:
        raw = np.asarray(data)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise ShapeMismatch(f"{what} is not a list of [re, im] pairs: {exc}") from exc
    if raw.dtype.kind not in "iuf":
        raise ShapeMismatch(f"{what} entries are not numbers (dtype {raw.dtype})")
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ShapeMismatch(f"{what} is not a list of [re, im] pairs (shape {raw.shape})")
    return np.ascontiguousarray(raw, dtype=float).view(complex)[:, 0]


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed matrix object: {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols)):
        raise ShapeMismatch(f"matrix rows/cols must be integers, got {rows!r}, {cols!r}")
    flat = complex_pairs(data, "matrix data")
    if rows < 0 or cols < 0 or len(flat) != rows * cols:
        raise ShapeMismatch(
            f"matrix object declares {rows}x{cols} but carries {len(flat)} entries"
        )
    return flat.reshape(rows, cols)


def save_matrix(path, A) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(A), fh)


def load_json(path):
    """The JSON value stored in ``path``; ShapeMismatch if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ShapeMismatch(f"{path} is not a JSON file: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(load_json(path))
