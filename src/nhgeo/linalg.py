"""Dense complex matrix primitives.

General (non-Hermitian) eigendecomposition with a canonical eigenvalue
order, matrix inverse with conditioning guard, continuous-Lyapunov /
Sylvester solves by the spectral method, and the JSON on-disk matrix format
used by the command line tools.
"""
from __future__ import annotations

import json
import math
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

#: smallest admissible Sylvester pencil value |a_i + b_j|, relative to
#: max(||A||, ||B||, 1); below it a solve raises SingularPencil
PENCIL_RTOL = 1e-12


def as_square(M, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    """Validate and return ``M`` as a nonempty square complex ndarray with
    finite entries; with ``stack``, a stack ``(..., n, n)`` of them."""
    A = np.asarray(M, dtype=complex)
    if (A.ndim < 2 or A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2] or not A.size:
        raise ShapeMismatch(f"{name} must be nonempty and square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ShapeMismatch(f"{name} has non-finite entries")
    return A


def canonical_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by (Re, Im), ascending, along the last
    axis (each block of a stack ``(..., N)`` on its own).

    Keys are quantized at ``ORDER_TIE_RESOLUTION`` so that values that agree
    to that resolution are ties; the stable sort then keeps input order,
    which makes the ordering reproducible run to run.
    """
    keys = np.array([eigenvalues.imag, eigenvalues.real])
    return np.lexsort(np.rint(keys / ORDER_TIE_RESOLUTION) * ORDER_TIE_RESOLUTION)


@dataclass(frozen=True)
class EigDecomposition:
    """Right eigendecomposition in canonical eigenvalue order.

    ``right_vectors[:, n]`` is the unit-norm right eigenvector of
    ``eigenvalues[n]``.  ``condition`` is the 2-norm condition number of the
    eigenvector matrix; ``is_diagonalizable_estimate`` is False when it
    exceeds ``DEFECTIVE_COND`` (reported, not fatal).  ``right_inverse`` is
    the inverse of ``right_vectors``, or None when ``condition`` exceeds
    ``DEFECTIVE_COND``.  ``norm`` is ``||K||_2``, the value the residual
    test scales by (equal to :func:`norm2` of ``K``), so that callers
    holding the decomposition need not compute it again.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    condition: float
    is_diagonalizable_estimate: bool
    right_inverse: np.ndarray | None
    norm: float


def _pow2(m: float) -> float:
    """Power of two ``s`` with ``m * s`` in [0.5, 1) (1 for ``m = 0``).

    ``m`` is the largest |Re| or |Im| entry of a matrix; scaling the matrix
    by ``s`` is exact and keeps its products clear of overflow and underflow.
    """
    return math.ldexp(1.0, -max(math.frexp(m)[1], -1021))


def _scaled_2x2(A):
    """The entries ``a, b, c, d`` of the 2x2 ``A`` as Python scalars scaled by
    the power of two ``s`` of :func:`_pow2`, and ``s``.  This is the per-call
    path of the 2x2 closed forms: scalar arithmetic costs a few microseconds
    where numpy's per-call overhead costs tens."""
    (a, b), (c, d) = A.tolist()
    s = _pow2(max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag),
                  abs(c.real), abs(c.imag), abs(d.real), abs(d.imag)))
    return (a * s, b * s, c * s, d * s), s


def _s1_squared(a, b, c, d):
    """``||A||_2^2`` for ``A = [[a, b], [c, d]]``.

    The entries are scalars, or arrays holding one block per element.  It
    is the larger eigenvalue of ``A^H A = [[p, q], [conj(q), r]]``,
    ``(p + r)/2 + sqrt(((p - r)/2)^2 + |q|^2)``: a sum of nonnegative terms,
    so exact to rounding even when ``s1 ~ s2``, where the form
    ``sqrt(f - 2|det A|)`` (``f`` the squared Frobenius norm) loses half the
    digits.  Fourth powers of the entries appear, so the entries should be
    of magnitude near 1 (see :func:`_scaled_2x2`).
    """
    p = abs(a) ** 2 + abs(c) ** 2
    r = abs(b) ** 2 + abs(d) ** 2
    q = abs(a.conjugate() * b + c.conjugate() * d)
    return (p + r) / 2 + ((p - r) ** 2 / 4 + q * q) ** 0.5


def _norm2_2x2(A) -> np.ndarray:
    """Spectral norm of each 2x2 block of ``A (..., 2, 2)``, by
    :func:`_s1_squared`.  Blocks whose squared norm leaves [1e-140, 1e140],
    where a fourth power of an entry may have overflowed or underflowed,
    are computed again after scaling each by its power of two (exact)."""
    def squared(B):
        return _s1_squared(B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1])

    with np.errstate(all="ignore"):  # the blocks that over- or underflow are redone
        sq = squared(A)
    out = np.sqrt(sq)
    redo = ~((sq >= 1e-140) & (sq <= 1e140))
    if redo.any():
        B = A[redo]
        m = np.maximum(np.abs(B.real), np.abs(B.imag)).max(axis=(-2, -1))
        s = np.ldexp(1.0, -np.maximum(np.frexp(m)[1], -1021))
        out[redo] = np.sqrt(squared(B * s[:, None, None])) / s
    return out


def norm2(A):
    """Spectral norm ``||A||_2`` of a matrix, or of each block of a stack
    ``(..., 2, 2)``.

    2x2 matrices and blocks use the closed form of :func:`_s1_squared` on
    entries scaled by a power of two (exact; in a stack only the blocks
    whose magnitude needs it), any other matrix the SVD, which LAPACK
    scales itself: no intermediate overflows or underflows.
    """
    A = np.asarray(A)
    if A.ndim > 2:
        return _norm2_2x2(A)
    if A.shape == (2, 2):
        vals, s = _scaled_2x2(A)
        return _s1_squared(*vals) ** 0.5 / s
    return float(np.linalg.norm(A, 2))


def _residuals(K, w, R):
    """Eigenpair residuals ``||K r_j - w_j r_j||`` and the bound
    ``1e-10 * ||K||_2``, both times the power of two of :func:`_pow2`
    (exact), so that no norm overflows or underflows, and ``||K||_2``
    itself, bit-identical to :func:`norm2`.  2x2 scales the entries, in
    scalar arithmetic; larger ``K`` scales ``K R - R diag(w)``, whose
    entries stay below ``N max|K|``."""
    if K.shape == (2, 2):
        (a, b, c, d), s = _scaled_2x2(K)
        (r00, r01), (r10, r11) = R.tolist()
        w0, w1 = w.tolist()
        resid = []
        for x, y, v in ((r00, r10, w0 * s), (r01, r11, w1 * s)):
            e0, e1 = (a - v) * x + b * y, c * x + (d - v) * y
            resid.append(math.hypot(e0.real, e0.imag, e1.real, e1.imag))
        norm = _s1_squared(a, b, c, d) ** 0.5
        return resid, 1e-10 * norm, norm / s
    s = _pow2(float(max(K.real.max(), -K.real.min(), K.imag.max(), -K.imag.min())))
    E = K @ R
    E -= R * w
    E *= s
    norm = norm2(K)
    return np.linalg.norm(E, axis=0), 1e-10 * norm * s, norm


def _cond_inverse(A):
    """``(cond_2(A), A^-1)``, the inverse None when the condition number
    exceeds ``DEFECTIVE_COND`` or is not finite (so a singular ``A`` raises
    no LinAlgError).

    2x2: ``cond = s1^2 / |det A|`` (as ``s1 s2 = |det A|``) with ``s1^2``
    from :func:`_s1_squared`, and the inverse from the adjugate, both on the
    entries scaled by a power of two.  Larger matrices: the SVD, then an LU
    inverse.
    """
    if A.shape == (2, 2):
        (a, b, c, d), s = _scaled_2x2(A)
        det = a * d - b * c
        cond = _s1_squared(a, b, c, d) / abs(det) if det else math.inf
        if not cond <= DEFECTIVE_COND:
            return cond, None
        f = s / det
        return cond, np.array([[d * f, -b * f], [-c * f, a * f]])
    cond = float(np.linalg.cond(A, 2))
    return cond, np.linalg.inv(A) if cond <= DEFECTIVE_COND else None


def eig_general(K) -> EigDecomposition:
    """Eigendecomposition of a general complex square matrix.

    The residual test is scale-free (:func:`_residuals`): no norm overflows
    or underflows at any magnitude of ``K``.  ``R^-1`` and ``||K||_2`` (the
    closed form at 2x2, the SVD above) are computed here, once, for the
    callers that need them.

    Raises
    ------
    NonConvergence
        If the underlying QR iteration fails or the per-pair residual
        ``||K v - w v||`` exceeds ``1e-10 * ||K||`` (or is NaN).
    """
    K = as_square(K, "K")
    try:
        w, R = np.linalg.eig(K)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(str(exc)) from exc
    order = canonical_order(w)
    w, R = w[order], R[:, order]
    R = R / np.linalg.norm(R, axis=0)

    resid, tol, norm = _residuals(K, w, R)
    # written so that a NaN residual fails too
    if tol > 0 and not all(r <= tol for r in resid):
        raise NonConvergence(
            f"eigenpair residual {1e-10 * np.max(resid) / tol:.3e}*||K|| exceeds 1e-10*||K||"
        )
    cond, Rinv = _cond_inverse(R)
    return EigDecomposition(w, R, cond, cond <= DEFECTIVE_COND, Rinv, norm)


def inverse(A) -> np.ndarray:
    """Matrix inverse, guarded by a condition-number bound of 1e12."""
    cond, Ai = _cond_inverse(as_square(A, "A"))
    if Ai is None:
        raise SingularMatrix(f"condition number {cond:.3e} above 1e12")
    return Ai


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


def _eig_2x2(A: np.ndarray, *, distinct: bool = True):
    """Closed-form eigendecomposition of 2x2 matrices.

    ``A`` is one 2x2 matrix or a stack of shape ``(..., 2, 2)``; every test
    below is made per block.  Eigenvalues come from the trace/determinant
    quadratic, which avoids the catastrophic cancellation the iterative
    solver introduces in nearly trace-degenerate pencil sums; its
    discriminant is formed as ``(a00 - a11)^2 + 4 a01 a10``, since
    ``tr^2 - 4 det`` cancels for nearly equal diagonals.  The pairs
    keep the contract of :func:`eig_general`: non-finite blocks raise
    ``ShapeMismatch`` and a residual above ``1e-10 * ||A||`` raises
    ``NonConvergence``.  Right vectors have unit norm.

    With ``distinct`` (the default) a block with (near-)degenerate
    eigenvalues raises ``SingularPencil``.  Without it the caller judges
    such blocks: a defective block gets two equal vectors (a singular
    vector matrix) and a multiple of the identity the unit vectors.
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
    if distinct:
        check(np.abs(a1 - a2) < 1e-14 * np.maximum(1.0, np.abs(a1) + np.abs(a2)),
              SingularPencil, lambda i: "2x2 block has (near-)degenerate eigenvalues")
    w = np.stack([a1, a2], axis=-1)
    # a nonzero column of (A - other*I) spans each eigenvector
    B = A[:, None] - w[:, ::-1, None, None] * np.eye(2)
    n = np.linalg.norm(B, axis=-2)
    big = np.maximum(n[..., :1], n[..., 1:])
    U = np.where(n[..., :1] >= n[..., 1:], B[..., :, 0], B[..., :, 1])
    U = np.swapaxes(U / np.where(big > 0, big, 1.0), -1, -2)
    if not distinct:  # B = 0 only for a multiple of the identity
        U = np.where(big[:, None, :, 0] > 0, U, np.eye(2))
    scale = _norm2_2x2(A)
    resid = np.linalg.norm(A @ U - U * w[:, None, :], axis=-2).max(axis=-1)
    # written so that a NaN residual (overflow in the quadratic) fails too
    check(~(resid <= 1e-10 * scale), NonConvergence,
          lambda i: f"eigenpair residual {resid[i]:.3e} exceeds 1e-10*||A||")
    return w.reshape(stack + (2,)), U.reshape(stack + (2, 2))


def _cond_inverse_2x2(R):
    """``(cond_2, inverse)`` of each block of a stack ``R (..., 2, 2)`` of
    unit-column eigenvector matrices: the closed forms of
    :func:`_cond_inverse` (entries of unit columns need no scaling).  A
    singular block has condition ``inf`` and a non-finite inverse."""
    a, b, c, d = R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1]
    det = a * d - b * c
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(det != 0, _s1_squared(a, b, c, d) / np.abs(det), np.inf)
        inv = np.stack([np.stack([d, -b], -1), np.stack([-c, a], -1)], -2) / det[..., None, None]
    return cond, inv


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


def solve_sylvester_pair(A, B, Y) -> np.ndarray:
    """Solve ``A G + G B = Y`` by diagonalizing both coefficient matrices.

    With ``A = Ua Da Ua^-1`` and ``B = Ub Db Ub^-1`` the solution is
    ``G = Ua [ (Ua^-1 Y Ub)_{ij} / (a_i + b_j) ] Ub^-1``.  2x2 blocks use a
    closed-form eigendecomposition so that the pencil sums ``a_i + b_j`` are
    formed without cancellation.

    Raises
    ------
    SingularPencil
        If some ``|a_i + b_j|`` is below ``PENCIL_RTOL * max(||A||, ||B||, 1)``.
    """
    A = as_square(A, "A")
    B = as_square(B, "B")
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (A.shape[0], B.shape[0]):
        raise ShapeMismatch(f"right-hand side shape {Y.shape} incompatible")
    if A.shape[0] == 2 and B.shape[0] == 2:
        a, Ua = _eig_2x2(A)
        b, Ub = _eig_2x2(B)
        Uai, Ubi = np.linalg.inv(Ua), np.linalg.inv(Ub)
        scale = max(norm2(A), norm2(B), 1.0)
    else:
        da = eig_general(A)
        db = eig_general(B)
        if not (da.is_diagonalizable_estimate and db.is_diagonalizable_estimate):
            raise NearDefective("coefficient matrix near defective")
        a, Ua, Uai = da.eigenvalues, da.right_vectors, da.right_inverse
        b, Ub, Ubi = db.eigenvalues, db.right_vectors, db.right_inverse
        scale = max(da.norm, db.norm, 1.0)
    return _pencil(a, Ua, Uai, b, Ub, Ubi, PENCIL_RTOL * scale)(Y)


def _sylvester_solver(X, dec: EigDecomposition):
    """Checked solver of ``X G + G X^T = Y`` on the decomposition ``dec`` of ``X``.

    ``X^T = U^-T diag(x) U^T``, so it is :func:`_pencil` on ``(x, U, U^-1)``
    and ``(x, U^-T, U^T)``.  Raises NearDefective if ``dec`` is too
    ill-conditioned, SingularPencil if some ``|x_i + x_j|`` is below
    ``PENCIL_RTOL * max(||X||, 1)`` or a solve's residual exceeds ``1e-9 * ||Y||``.
    """
    if not dec.is_diagonalizable_estimate:
        raise NearDefective(
            f"eigenvector condition {dec.condition:.3e} above {DEFECTIVE_COND:.0e}"
        )
    x, U, Ui = dec.eigenvalues, dec.right_vectors, dec.right_inverse
    pencil = _pencil(x, U, Ui, x, Ui.T, U.T, PENCIL_RTOL * max(dec.norm, 1.0))

    def solve(Y):
        Y = as_square(Y, "Y")
        if X.shape != Y.shape:
            raise ShapeMismatch("X and Y must have equal shapes")
        G = pencil(Y)
        ynorm = np.linalg.norm(Y)
        resid = np.linalg.norm(X @ G + G @ X.T - Y)
        if ynorm > 0 and resid > 1e-9 * ynorm:
            raise SingularPencil(
                f"solution residual {resid:.3e} exceeds 1e-9*||Y|| (ill-conditioned pencil)"
            )
        return G

    return solve


def solve_sylvester(X, Y) -> np.ndarray:
    """Solve ``X G + G X^T = Y`` by the spectral method of
    :func:`_sylvester_solver` on one eigendecomposition of ``X``."""
    X = as_square(X, "X")
    return _sylvester_solver(X, eig_general(X))(Y)


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
