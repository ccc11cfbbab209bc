"""Dense complex matrix primitives.

General (non-Hermitian) eigendecomposition with a canonical eigenvalue
order, matrix inverse with conditioning guard, continuous-Lyapunov /
Sylvester solves by the spectral method, and the JSON on-disk matrix format
used by the command line tools.
"""
from __future__ import annotations

import contextlib
import json
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CriticalKPoint,
    NearDefective,
    NonConvergence,
    ShapeMismatch,
    SingularMatrix,
    SingularPencil,
)

#: condition number of the eigenvector matrix above which a matrix is
#: treated as (numerically) defective
DEFECTIVE_COND = 1e12

#: resolution used when ordering eigenvalues, relative to the norm of the
#: matrix: values closer than this are regarded as tied and keep their
#: input-derived order
ORDER_TIE_RESOLUTION = 1e-12

#: smallest admissible Sylvester pencil value |a_i + b_j|, relative to
#: max(||A||, ||B||, 1); below it a solve raises SingularPencil
PENCIL_RTOL = 1e-12


def as_square(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a nonempty square complex ndarray with
    finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ShapeMismatch(f"{name} must be nonempty and square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ShapeMismatch(f"{name} has non-finite entries")
    return A


def canonical_order(eigenvalues: np.ndarray, scale) -> np.ndarray:
    """Indices sorting eigenvalues by (Re, Im), ascending, along the last
    axis (each block of a stack ``(..., N)`` on its own).

    ``scale`` is the norm of each matrix (shape ``(...)``), and the keys are
    quantized at ``ORDER_TIE_RESOLUTION`` relative to it, so that values
    that agree to that resolution are ties; the stable sort then keeps
    input order, which makes the ordering reproducible run to run.  Since
    the resolution is relative, ``c K`` is ordered as ``K`` is at any
    ``c > 0``.  A zero matrix (``scale`` 0) has only zero eigenvalues.
    """
    scale = np.asarray(scale, dtype=float)[..., None]
    scale = np.where(scale > 0, scale, 1.0)
    return np.lexsort(np.rint(np.array([eigenvalues.imag, eigenvalues.real])
                              / scale / ORDER_TIE_RESOLUTION))


@dataclass(frozen=True)
class EigDecomposition:
    """Eigendecomposition in canonical eigenvalue order, and the biorthogonal
    eigensystem built on it.

    ``right_vectors[:, n]`` is the unit-norm right eigenvector of
    ``eigenvalues[n]``.  ``is_diagonalizable_estimate`` is False when the
    2-norm condition number of the eigenvector matrix exceeds
    ``DEFECTIVE_COND`` (reported, not fatal), and ``right_inverse`` is the
    inverse of ``right_vectors``, or None in that case.  ``norm_bounds``
    brackets ``||K||_2`` (``matrix`` is ``K``); a threshold test on the norm
    decides from it (:func:`_scale_verdict`).

    On a diagonalizable decomposition (:func:`~nhgeo.biortho.build_biortho`)
    the left eigenvectors ``left_vectors = R^-H`` satisfy ``left^H right = I``
    (the left vectors absorb all scale beyond the unit right columns); they
    and the Gram matrices ``gram_right`` (``<m_R|n_R>``) and ``gram_left``
    (``<m_L|n_L>``, its inverse) are formed when first read.

    ``norm`` (``||K||_2``, equal to :func:`norm2` of ``K``) and
    ``condition`` (the 2-norm condition number of ``right_vectors``) are
    exact: each is one SVD, run when it is first read.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    is_diagonalizable_estimate: bool
    right_inverse: np.ndarray | None
    norm_bounds: tuple[float, float]
    matrix: np.ndarray = field(repr=False)

    @cached_property
    def norm(self) -> float:
        return norm2(self.matrix)

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.right_vectors, 2))

    @cached_property
    def left_vectors(self) -> np.ndarray:
        return self.right_inverse.conj().T

    @cached_property
    def gram_right(self) -> np.ndarray:
        return self.right_vectors.conj().T @ self.right_vectors

    @cached_property
    def gram_left(self) -> np.ndarray:
        return self.left_vectors.conj().T @ self.left_vectors


def _pow2(m: float) -> float:
    """Power of two ``s`` with ``m * s`` in [0.5, 1) (1 for ``m = 0``).

    ``m`` is the largest |Re| or |Im| entry of a matrix; scaling the matrix
    by ``s`` is exact and keeps its products clear of overflow and underflow.
    """
    return math.ldexp(1.0, -max(math.frexp(m)[1], -1021))


def _s1_squared(a, b, c, d):
    """``||A||_2^2`` for ``A = [[a, b], [c, d]]``.

    The entries are scalars, or arrays holding one block per element.  It
    is the larger eigenvalue of ``A^H A = [[p, q], [conj(q), r]]``,
    ``(p + r)/2 + sqrt(((p - r)/2)^2 + |q|^2)``: a sum of nonnegative terms,
    so exact to rounding even when ``s1 ~ s2``, where the form
    ``sqrt(f - 2|det A|)`` (``f`` the squared Frobenius norm) loses half the
    digits.  Fourth powers of the entries appear, so the entries should be
    of magnitude near 1 (:func:`_norm` scales the blocks that are not;
    :func:`_cond_inv` takes unit columns).
    """
    p = abs(a) ** 2 + abs(c) ** 2
    r = abs(b) ** 2 + abs(d) ** 2
    q = abs(a.conjugate() * b + c.conjugate() * d)
    return (p + r) / 2 + ((p - r) ** 2 / 4 + q * q) ** 0.5


def norm2(A):
    """Spectral norm ``||A||_2`` of a matrix, by the SVD, which LAPACK scales
    itself: no intermediate overflows or underflows.  A real matrix is read
    as the complex copy that :func:`eig_general` takes, so that the two
    agree bit for bit.  The blocks of a stack of 2x2 blocks take
    :func:`_norm`."""
    return float(np.linalg.norm(np.asarray(A, dtype=complex), 2))


def _max_part(A) -> float:
    """The largest |Re| or |Im| entry of ``A``, the argument of :func:`_pow2`."""
    return float(max(A.real.max(), -A.real.min(), A.imag.max(), -A.imag.min()))


def _scaled_frobenius(K):
    """The power of two ``s`` of :func:`_pow2` for ``K (N, N)`` and the
    Frobenius norm of ``s K`` (exact scaling: no square overflows or
    underflows)."""
    s = _pow2(_max_part(K))
    return s, float(np.linalg.norm(K * s))


def _residuals(K, w, R, s):
    """Eigenpair residuals ``||K r_j - w_j r_j||`` of ``K (N, N)`` times the
    power of two ``s`` of :func:`_scaled_frobenius`, so that no norm
    overflows or underflows.  The scale is that of ``K R - R diag(w)``,
    whose entries stay below ``N max|K|``."""
    E = K @ R
    E -= R * w
    E *= s
    return np.linalg.norm(E, axis=0)


def _bracketed(pred, lo, hi, exact) -> bool:
    """``pred(v)`` for a value ``v`` known to lie in ``[lo, hi]`` and a
    predicate monotone in ``v``.  When ``pred`` agrees at both ends of the
    bracket widened by a factor 2, that is the verdict, and no rounding in
    ``lo``, ``hi`` or ``v`` can have changed it; otherwise it is
    ``pred(exact())``, the test made on the exact value."""
    verdict = pred(lo / 2)
    return verdict if pred(2 * hi) == verdict else pred(exact())


def _scale_verdict(pred, *decs) -> bool:
    """``pred(max(1, ||K||_2))``, ``||K||_2`` the largest norm of the matrices
    of the decompositions ``decs``, for a predicate monotone in that scale:
    :func:`_bracketed` on their ``norm_bounds``, so that an exact norm is
    read only when the brackets straddle the predicate's threshold."""
    lo = max(1.0, *(d.norm_bounds[0] for d in decs))
    hi = max(1.0, *(d.norm_bounds[1] for d in decs))
    return _bracketed(pred, lo, hi, lambda: max(1.0, *(d.norm for d in decs)))


def _inverse(A):
    """``A^-1``, or None when ``cond_2(A)`` exceeds ``DEFECTIVE_COND`` or is
    not finite (so a singular ``A`` raises no LinAlgError).

    The LU inverse, and the verdict from ``cond_1/N <= cond_2 <= N
    cond_1``, ``cond_1 = ||A||_1 ||A^-1||_1`` (:func:`_bracketed`: the SVD
    runs only when the bracket straddles ``DEFECTIVE_COND``).  The 1-norms
    are those of ``A`` and ``A^-1`` scaled by the power of two of
    :func:`_pow2` and by its inverse, so that only a huge condition number
    overflows; an LU that finds ``A`` singular, or a 1-norm that is not
    finite, means defective.
    """
    try:
        Ai = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # singular to working precision
        return None
    s = _pow2(_max_part(A))
    with np.errstate(over="ignore"):
        cond1 = float((abs(A) * s).sum(axis=0).max()) * float((abs(Ai) / s).sum(axis=0).max())
    n = A.shape[0]
    if _bracketed(lambda c: c <= DEFECTIVE_COND, cond1 / n, n * cond1,
                  lambda: float(np.linalg.cond(A, 2))):
        return Ai
    return None


def eig_general(K) -> EigDecomposition:
    """Eigendecomposition of a general complex square matrix.

    The residual test is scale-free: no norm overflows or underflows at any
    magnitude of ``K``.  ``R^-1`` is computed here, once, for the callers
    that need it.  The pairs are ordered (keys relative to ``||K||_F``),
    normalized and checked in array arithmetic, and no SVD runs unless a
    verdict needs one: the residual test (:func:`_residuals`) reads the
    exact ``||K||_2`` only when the Frobenius bracket ``||K||_F / sqrt(N)
    <= ||K||_2 <= ||K||_F`` does not put every residual surely inside the
    bound, and the condition test (:func:`_inverse`) takes the SVD only
    when its 1-norm bracket straddles ``DEFECTIVE_COND``.  The
    decomposition keeps the Frobenius bracket for the later tests on the
    norm (:func:`_scale_verdict`); its exact ``norm`` and ``condition`` are
    computed when first read.

    A ``K`` whose imaginary part is exactly zero (the real-space
    steady-state generator ``X``, for one) goes to LAPACK's real routine,
    about 3x faster than the complex one at N = 64; its eigenpairs come back
    as complex arrays, each conjugate pair as exact conjugates in values and
    columns, and everything after the solve (order, unit columns, residuals,
    ``||K||_2``, condition, inverse) runs on the complex ``K`` as for any
    other input.  A 2x2 ``K`` keeps the complex routine, which returns
    ``+-c`` exactly for ``[[0, c], [c, 0]]`` at ``c = 1e+-200``, where the
    real routine is off by an ulp.

    Raises
    ------
    NonConvergence
        If the underlying QR iteration fails, returns a non-finite
        eigenpair, or the per-pair residual ``||K v - w v||`` exceeds
        ``1e-10 * ||K||``.
    """
    K = as_square(K, "K")
    real = K.shape != (2, 2) and not K.imag.any()
    try:
        w, R = np.linalg.eig(K.real if real else K)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(str(exc)) from exc
    if not (np.isfinite(w).all() and np.isfinite(R).all()):
        raise NonConvergence("LAPACK returned a non-finite eigenpair")
    # the real routine returns real arrays for an all-real spectrum
    w, R = w.astype(complex, copy=False), R.astype(complex, copy=False)
    s, frob = _scaled_frobenius(K)
    order = canonical_order(w * s, frob)  # keys relative to ||K||_F, on the scaled spectrum
    w, R = w[order], R[:, order]
    R = R / np.linalg.norm(R, axis=0)

    resid = _residuals(K, w, R, s)
    root = math.sqrt(len(w))
    if not (resid <= 1e-10 * frob / (2 * root)).all():  # not surely within the bound
        tol = 1e-10 * norm2(K) * s
        if tol > 0 and not (resid <= tol).all():  # written so that a NaN residual fails too
            raise NonConvergence(
                f"eigenpair residual {1e-10 * resid.max() / tol:.3e}*||K|| exceeds 1e-10*||K||")
    Rinv = _inverse(R)
    return EigDecomposition(w, R, Rinv is not None, Rinv, (frob / s / root, frob / s), K)


def inverse(A) -> np.ndarray:
    """Matrix inverse, guarded by a bound of 1e12 on the 2-norm condition
    number (:func:`_inverse`: the SVD runs only near the bound)."""
    A = as_square(A, "A")
    Ai = _inverse(A)
    if Ai is None:
        raise SingularMatrix(f"condition number {np.linalg.cond(A, 2):.3e} above 1e12")
    return Ai


#: the record of this thread's open pass (:func:`flagged_blocks`), if any
_PASS = threading.local()


class BlockFlags:
    """What the blockwise checks of a pass recorded, in run order: per check,
    a mask over the stack of blocks and ``error(i, b)``, the error of flat
    block ``i`` reported as block ``b``.  A point fails with the first check
    that fails at its lowest failing block, as a loop over its blocks finds."""

    def __init__(self):
        self.checks = []

    def errors(self, P: int) -> list:
        """The error (or None) of each of ``P`` equal runs of blocks, the points
        of the pass, as it raises alone: its blocks count from its start."""
        if not self.checks:
            return [None] * P
        first, check = np.full(P, np.iinfo(np.intp).max), np.full(P, -1)
        for c, (bad, _) in enumerate(self.checks):
            runs = bad.reshape(P, -1)
            b = np.where(runs.any(axis=1), runs.argmax(axis=1), first)
            lower = b < first  # on a tie the earlier check wins
            first[lower], check[lower] = b[lower], c
        return [None if c < 0 else self.checks[c][1](p * len(self.checks[c][0]) // P + b, b)
                for p, (b, c) in enumerate(zip(first.tolist(), check.tolist()))]


@contextlib.contextmanager
def flagged_blocks():
    """A pass whose blockwise checks, in this thread only, record the failing
    blocks of a stack into the yielded :class:`BlockFlags` instead of raising,
    under ``np.errstate(all="ignore")``: it runs to its end once, and its
    caller reads each point's error (:meth:`BlockFlags.errors`)."""
    outer, flags = getattr(_PASS, "flags", None), BlockFlags()
    _PASS.flags = flags
    try:
        with np.errstate(all="ignore"):
            yield flags
    finally:
        _PASS.flags = outer


@contextlib.contextmanager
def lowest_failing_block():
    """The record of a stacked route: inside an open pass of this thread it
    joins the pass's record; else it opens one and, on exit, raises the error
    of the whole stack, over any error that the body raised after it."""
    if getattr(_PASS, "flags", None) is not None:
        yield
        return
    with flagged_blocks() as flags:
        try:
            yield
        except Exception:
            if not flags.checks:
                raise
    if flags.checks:
        raise flags.errors(1)[0] from None


def _fail(bad, error) -> None:
    """The blocks of the stack mask ``bad`` fail with ``error(i, b)``
    (:class:`BlockFlags`): into this thread's open record
    (:func:`lowest_failing_block`), else raised at the first of them."""
    if not bad.any():
        return
    flags = getattr(_PASS, "flags", None)
    if flags is None:
        i = int(np.argmax(bad))
        raise error(i, i)
    flags.checks.append((bad.ravel(), error))


def _k_grid(L: int) -> np.ndarray:
    """The momenta ``2 pi j / L`` of a length-L chain."""
    return 2.0 * np.pi * np.arange(L) / L


def _grid_check(magnitude, ks, message: str) -> None:
    """The grid check: CriticalKPoint ``"<message> at k = ..."`` for each of P
    points whose gap ``magnitude (P, n)`` on the n momenta ``ks`` falls below
    1e-12, where every zone sum diverges even if rounding leaves the block a
    gap.  ``exc.block`` is ``p * n + j`` at the smallest magnitude, but the
    check fails the point's first block, so it precedes its other checks."""
    n = len(ks)
    k = np.argmin(magnitude, axis=-1).tolist()  # each point's smallest magnitude
    bad = np.zeros(magnitude.shape, dtype=bool)
    bad[:, 0] = magnitude.min(axis=-1) < 1e-12
    _fail(bad, lambda i, b: CriticalKPoint(  # i = p * n
        f"{message} at k = {ks[k[i // n]]:.6g}", block=b + k[i // n]))


def _zone_sums(L: int, read, summand) -> dict:
    """The Brillouin-zone sums of P points of chain length ``L`` from the half
    zone ``ks = 2 pi j / L``, ``j = 0..L // 2``: ``read(ks)`` reads every
    point's blocks, and ``summand(blocks)`` checks them in one record
    (:func:`lowest_failing_block`) and returns each kind's terms ``t_j (d, d,
    P, L // 2 + 1)``.  A kind's sums are the complex ``(P, d, d)`` ``Re sum_j
    w_j t_j``, ``w_j = 1`` at k = 0 and k = pi and 2 elsewhere: the full-zone
    sums of terms conjugate at -k, with imaginary parts 0.  Each point sums
    its own row with elementwise weights, so bit for bit as alone (a matrix
    product is not).  Block ``j`` of point ``p`` is the flat block ``p * (L //
    2 + 1) + j``; a block and its mirror fail together."""
    j = np.arange(L // 2 + 1)
    blocks = read(2.0 * np.pi * j / L)
    with lowest_failing_block():
        terms = summand(blocks)
    w = np.where((j == 0) | (2 * j == L), 1.0, 2.0)
    return {kind: (t * w).sum(axis=-1).real.transpose(2, 0, 1).astype(complex)
            for kind, t in terms.items()}


def _raise_first(bad, exc_type, message):
    """``exc_type`` for the failing blocks of the mask ``bad``, one entry per
    block of a stack, or shape ``()`` for a single matrix, which raises at
    once; ``message(i)`` describes the block of flat index ``i``.  On a
    stack (:func:`_fail`) the error names its block and carries its index
    as ``exc.block``."""
    bad = np.asarray(bad)
    if bad.ndim == 0 and bad:
        raise exc_type(message(0), block=0)
    _fail(bad, lambda i, b: exc_type(f"block {b}: {message(i)}", block=b))


# ---------------------------------------------------------------------------
# stacks of 2x2 blocks as entry tuples
# ---------------------------------------------------------------------------
#
# A stack of 2x2 blocks ``[[a, b], [c, d]]`` is held as the tuple of its
# entries ``(a, b, c, d)``, each holding one element per block (a scalar for a
# single block).  numpy's ``@``, ``inv`` and ``einsum`` are dispatch-bound on
# ``(L, 2, 2)`` arrays; on entries a block product is twelve elementwise
# calls, whatever L is.

def _entries(A):
    """The entry tuple of the 2x2 blocks ``A (..., 2, 2)``: four contiguous
    arrays of shape ``A.shape[:-2]``."""
    A = np.asarray(A, dtype=complex)
    return tuple(A.reshape(-1, 4).T.copy().reshape((4,) + A.shape[:-2]))


def _blocks(E) -> np.ndarray:
    """The ``(..., 2, 2)`` array of the entry tuple ``E``."""
    E = np.broadcast_arrays(*E)
    return np.stack(E, -1).reshape(E[0].shape + (2, 2))


def _mul(A, B):
    """Blockwise product ``A B``."""
    a, b, c, d = A
    e, f, g, h = B
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _adjoint(A):
    """Blockwise conjugate transpose."""
    a, b, c, d = A
    return a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()


def _inv(A):
    """Blockwise adjugate inverse ``adj(A) / det A``; a singular block has a
    non-finite inverse."""
    a, b, c, d = A
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1 / (a * d - b * c)
        return d * f, -b * f, -c * f, a * f


def _cond_inv(R):
    """``(cond_2, inverse)`` of each block of unit-column matrices ``R``
    (eigenvector matrices, whose entries need no scaling): ``cond = s1^2 /
    |det R|`` by :func:`_s1_squared`, as ``s1 s2 = |det R|``, and the
    adjugate inverse.  A singular block has condition ``inf`` and a
    non-finite inverse."""
    a, b, c, d = R
    with np.errstate(divide="ignore"):
        cond = _s1_squared(a, b, c, d) / abs(a * d - b * c)
    return cond, _inv(R)


def _norm(A):
    """Spectral norm of each block, by :func:`_s1_squared`.  Blocks whose
    squared norm leaves [1e-140, 1e140], where a fourth power of an entry may
    have overflowed or underflowed, are computed again on their entries
    scaled by their power of two (exact)."""
    with np.errstate(all="ignore"):  # the blocks that over- or underflow are redone
        sq = _s1_squared(*A)
        out = np.sqrt(sq)
        redo = ~((sq >= 1e-140) & (sq <= 1e140))
        if redo.any():
            m = np.max([np.maximum(abs(e.real), abs(e.imag)) for e in A], axis=0)
            s = np.ldexp(1.0, -np.maximum(np.frexp(m)[1], -1021))
            out = np.where(redo, np.sqrt(_s1_squared(*(e * s for e in A))) / s, out)
    return out


def _eig_2x2(A, *, distinct: bool = True):
    """Closed-form eigendecomposition of 2x2 blocks given as the entry tuple
    ``A`` (one block or a stack); every test below is made per block.

    Returns the eigenvalues ``(w0, w1)``, the entry tuple ``U`` of unit right
    vectors (column ``j`` belongs to ``w_j``) and the spectral norm of each
    block (:func:`_norm`).  Eigenvalues come from the trace/determinant
    quadratic, which avoids the catastrophic cancellation the iterative
    solver introduces in nearly trace-degenerate pencil sums; its
    discriminant is formed as ``(a - d)^2 + 4 b c``, since ``tr^2 - 4 det``
    cancels for nearly equal diagonals.  The pairs keep the contract of
    :func:`eig_general`: non-finite blocks raise ``ShapeMismatch`` and a
    residual above ``1e-10 * ||A||`` raises ``NonConvergence``.

    With ``distinct`` (the default) a block with (near-)degenerate
    eigenvalues raises ``SingularPencil``.  Without it the caller judges
    such blocks: a defective block gets two equal vectors (a singular
    vector matrix) and a multiple of the identity the unit vectors.
    """
    shape = np.shape(A[0])
    # one code path (numpy's scalar arithmetic rounds differently): a single
    # block is a stack of one
    a, b, c, d = (np.reshape(e, -1) for e in A)

    def check(bad, exc_type, message):
        _raise_first(bad.reshape(shape), exc_type, message)

    check(~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)),
          ShapeMismatch, lambda i: "2x2 block has non-finite entries")
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4 * b * c)
    w = np.stack([(tr - disc) / 2, (tr + disc) / 2])  # row j: w_j of every block
    if distinct:
        check(abs(w[0] - w[1]) < 1e-14 * np.maximum(1.0, abs(w[0]) + abs(w[1])),
              SingularPencil, lambda i: "2x2 block has (near-)degenerate eigenvalues")
    # row j: the larger column of A - w_other I, (a - o, c) or (b, d - o),
    # which spans the eigenvector of w_j and vanishes only for a multiple of
    # the identity
    p, q = a - w[::-1], d - w[::-1]
    n0, n1 = abs(p) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(q) ** 2
    first = n0 >= n1
    big = np.sqrt(np.maximum(n0, n1))
    if not distinct:
        nonzero = big > 0
        big = np.where(nonzero, big, 1.0)
    u0, u1 = np.where(first, p, b) / big, np.where(first, c, q) / big
    if not distinct:  # a multiple of the identity gets the unit vectors
        u0, u1 = np.where(nonzero, u0, [[1.0], [0.0]]), np.where(nonzero, u1, [[0.0], [1.0]])
    resid = abs((a - w) * u0 + b * u1) ** 2 + abs(c * u0 + (d - w) * u1) ** 2
    resid = np.sqrt(np.maximum(resid[0], resid[1]))
    scale = _norm((a, b, c, d))
    # written so that a NaN residual (overflow in the quadratic) fails too
    check(~(resid <= 1e-10 * scale), NonConvergence,
          lambda i: f"eigenpair residual {resid[i]:.3e} exceeds 1e-10*||A||")
    return (tuple(v.reshape(shape) for v in w),
            tuple(u.reshape(shape) for u in (u0[0], u0[1], u1[0], u1[1])), scale.reshape(shape))


def _pencil_2x2(a, Ua, Uai, b, Ub, Ubi, tol):
    """:func:`_pencil` on 2x2 blocks: the solver of ``A G + G B = Y`` from
    the eigenvalues ``a = (a0, a1)``, ``b`` and the entry tuples ``Ua``,
    ``Uai = Ua^-1``, ``Ub``, ``Ubi``.  The pencil ``a_i + b_j`` is checked
    once, per block against ``tol``; the returned function maps the entry
    tuple of any right-hand side to that of its solution."""
    D = (a[0] + b[0], a[0] + b[1], a[1] + b[0], a[1] + b[1])
    small = np.abs(D).min(axis=0)
    _raise_first(small < tol, SingularPencil,
                 lambda i: f"min |a_i + b_j| = {np.ravel(small)[i]:.3e} below tolerance")

    def solve(Y):
        T = _mul(_mul(Uai, Y), Ub)
        return _mul(_mul(Ua, tuple(t / s for t, s in zip(T, D))), Ubi)

    return solve


def _pair_solver_2x2(A, B):
    """The solver of ``A G + G B = Y`` (:func:`_pencil_2x2`, checked per block
    against ``PENCIL_RTOL * max(1, ||A||_2, ||B||_2)``) for entry tuples ``A``
    and ``B``, and the closed-form eigenpairs ``(a, Ua, Ua^-1)`` of ``A``."""
    a, Ua, na = _eig_2x2(A)
    b, Ub, nb = _eig_2x2(B)
    Uai = _inv(Ua)
    tol = PENCIL_RTOL * np.maximum(np.maximum(na, nb), 1.0)
    return _pencil_2x2(a, Ua, Uai, b, Ub, _inv(Ub), tol), (a, Ua, Uai)


def _lyapunov_2x2(a, U, norm):
    """The solver of ``A G + G A^H = Y`` (:func:`_pencil_2x2`, checked per block
    against ``PENCIL_RTOL * max(1, ||A||_2)``) from the closed-form eigenpairs
    ``a``, ``U`` and norms of ``A`` (:func:`_eig_2x2`), and ``(a, U, U^-1)``:
    ``A^H = U^-H diag(conj a) U^H``, so one eigendecomposition serves both
    sides, ``G = U [(U^-1 Y U^-H)_ij / (a_i + conj a_j)] U^H``."""
    Ui = _inv(U)
    solve = _pencil_2x2(a, U, Ui, tuple(w.conjugate() for w in a), _adjoint(Ui), _adjoint(U),
                        PENCIL_RTOL * np.maximum(norm, 1.0))
    return solve, (a, U, Ui)


def _pencil(a, Ua, Uai, b, Ub, Ubi, *decs):
    """Solver of ``A G + G B = Y`` from ``A = Ua diag(a) Uai``, ``B = Ub diag(b) Ubi``.

    The pencil ``a_i + b_j`` is checked once against ``PENCIL_RTOL * max(1,
    ||A||_2, ||B||_2)`` (:func:`_scale_verdict` on the decompositions
    ``decs`` of ``A`` and ``B``); the returned function then maps any
    right-hand side to its solution.
    """
    denom = a[:, None] + b[None, :]
    small = np.abs(denom).min()
    _raise_first(_scale_verdict(lambda m: small < PENCIL_RTOL * m, *decs), SingularPencil,
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
        return _blocks(_pair_solver_2x2(_entries(A), _entries(B))[0](_entries(Y)))
    da = eig_general(A)
    db = eig_general(B)
    if not (da.is_diagonalizable_estimate and db.is_diagonalizable_estimate):
        raise NearDefective("coefficient matrix near defective")
    a, Ua, Uai = da.eigenvalues, da.right_vectors, da.right_inverse
    b, Ub, Ubi = db.eigenvalues, db.right_vectors, db.right_inverse
    return _pencil(a, Ua, Uai, b, Ub, Ubi, da, db)(Y)


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
    pencil = _pencil(x, U, Ui, x, Ui.T, U.T, dec)

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


def load_json(path):
    """The JSON value stored in ``path``; ShapeMismatch if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ShapeMismatch(f"{path} is not a JSON file: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(load_json(path))
