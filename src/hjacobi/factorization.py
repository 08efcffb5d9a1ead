"""Hermitian indefinite factorization P H P^T = G J G^*.

Bunch-Parlett (complete-pivoting) elimination with 1x1/2x2 pivots that writes
G and J as it goes, diagonalizing each pivot block so its signs go to J, and
judges a pivot against what is left of H and its fill-in.  Also hosts the
inertia ordering of J and the scaled-condition diagnostic.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import TRIG, plane_rotation, rotate_columns
from .core import as_matrix, as_signs, column_norms_squared, gram, hermitize
from .errors import RankDeficiencyError, SingularMatrixError

ALPHA = (1.0 + math.sqrt(17.0)) / 8.0
HERM_RTOL = 1e-10


@dataclass
class FactoredForm:
    """Factor pair (G, J) with the pivoting permutation P and the inertia
    ordering P1 (both stored as index arrays; see ``factorize`` for the
    conventions)."""

    G: np.ndarray
    J: np.ndarray
    P: np.ndarray
    P1: np.ndarray


def _eigh_pivot(T):
    """(lam, Q) with T[:2, :2] = Q diag(lam) Q^*, from its lower triangle, by
    the trigonometric ``plane_rotation`` with eta = |b|; Q's columns are the
    identity's column pair rotated by ``rotate_columns``."""
    a, b, c = T[0, 0].real, np.conj(T[1, 0]), T[1, 1].real  # b: upper entry (0, 1)
    ab = abs(b)  # > 0: a 2x2 pivot holds the largest off-diagonal entry left
    t, cs, sn = plane_rotation(a, c, ab, TRIG)
    Q = np.empty((2, 2), dtype=T.dtype)
    rotate_columns(np.eye(2, dtype=T.dtype), b / ab, cs, sn, TRIG, Q)
    return np.array([a - t * ab, c + t * ab]), Q.T


def factorize_hermitian_indefinite(H):
    """Factor a nonsingular Hermitian H as P H P^T = G J G^*.

    Complete (Bunch-Parlett) pivoting with the classical alpha threshold.
    A pivot block D_p = Q diag(lam) Q^* of order s = 1 or 2, with the s
    columns E below it, puts Q |lam|^(1/2) on G's diagonal, L = E Q
    sign(lam) |lam|^(-1/2) below it and sign(lam) in J, and subtracts
    L J_p L^* from the Schur complement: G is lower block-triangular.
    H is singular when no entry left exceeds 64 n eps times the largest
    entry of H or fill-in sum_j |G_ij|^2 still to be eliminated, so graded
    D A D with a well-conditioned A factors however widely D is spread.

    The search reads only the largest modulus of the trailing block and of
    its diagonal (a real block is exactly symmetric, so its largest modulus
    is its largest or its negated smallest entry); a 2x2 pivot, chosen when
    the diagonal is too small, takes the first largest entry of the strict
    lower triangle in row-major order.  A 1x1 pivot is a scalar step.  Only
    the trailing block's rows and columns are swapped: G is written by
    original row, row P[i] of a work array holding row i, and gathered at
    the end.

    P is an index array: (P H P^T)[i, j] == H[P[i], P[j]].
    """
    H = as_matrix(H)
    n = H.shape[0]
    if H.shape[1] != n:
        raise ValueError("H must be square")
    if not np.all(np.isfinite(H)):
        raise ValueError("H is not finite (NaN or infinite entries)")
    if n and not np.allclose(H, H.conj().T, rtol=HERM_RTOL, atol=HERM_RTOL * np.abs(H).max()):
        raise ValueError("H is not Hermitian")
    A = np.asfortranarray(hermitize(H))
    tiny = 64.0 * n * np.finfo(np.float64).eps
    floor = tiny * np.abs(A).max() if n else 0.0
    perm = np.arange(n)
    fill = np.zeros(n)  # sum_j |G[i, :k]|^2: Schur rounding grows with it too
    W = np.zeros_like(A)  # row perm[i] holds G's row i
    J = np.empty(n, dtype=np.int8)
    real = not np.iscomplexobj(A)
    mod = None if real else np.empty(n * n)  # |T|, column-major
    k = 0
    while k < n:
        T, m = A[k:, k:], n - k
        diag = np.abs(T.diagonal().real)
        i1 = int(diag.argmax())
        mu1 = diag[i1]
        if real:
            mu = max(T.max(), -T.min())
        else:
            absT = np.abs(T, out=mod[: m * m].reshape((m, m), order="F"))
            mu = absT.max()
        # the global floor bounds tiny * max|H_rem|: look at H_rem only below it
        rem = np.abs(H[np.ix_(perm[k:], perm[k:])]).max() if mu <= floor else 0.0
        if mu <= tiny * max(rem, fill[k:].max()):
            raise SingularMatrixError(
                "zero pivot: H is numerically singular; supply a factor directly"
            )
        if mu1 >= ALPHA * mu:
            s, swaps = 1, ((0, i1),)
        else:
            r0, c0 = divmod(int(np.argmax(np.tril(np.abs(T) if real else absT, -1))), m)
            s, swaps = 2, ((0, c0), (1, r0))
        for dst, src in swaps:
            if dst != src:
                for M in (T, T.T):  # rows, then columns; row views beat fancy indexing
                    row = M[dst].copy()
                    M[dst], M[src] = M[src], row
                i, j = k + dst, k + src
                perm[i], perm[j], fill[i], fill[j] = perm[j], perm[i], fill[j], fill[i]
        if s == 1:
            a = T[0, 0].real
            sgn, root = math.copysign(1.0, a), math.sqrt(abs(a))
            L = T[1:, 0] * (sgn / root) + 0.0  # a zero is +0, as a BLAS product's is
            W[perm[k], k] = root
            T[1:, 1:] -= np.multiply.outer(L.conj(), L * sgn).T  # column-major, as A is
            fill[k + 1 :] += (L * L.conj()).real
        else:
            lam, Q = _eigh_pivot(T)
            sgn = np.copysign(1.0, lam)
            root = np.sqrt(np.abs(lam))
            L = T[2:, :2] @ (Q * (sgn / root))
            W[perm[k : k + 2], k : k + 2] = Q * root
            T[2:, 2:] -= (L.conj() @ (L * sgn).T).T  # formed column-major, as A is
            fill[k + 2 :] += np.einsum("ij,ij->i", L, L.conj()).real
        W[perm[k + s :], k : k + s] = L.reshape(m - s, s)
        J[k : k + s] = sgn
        k += s
    G = np.empty_like(W)
    return FactoredForm(G=np.take(W, perm, axis=0, out=G), J=J, P=perm, P1=np.arange(n))


def order_by_inertia(f: FactoredForm) -> FactoredForm:
    """Stably permute columns so all +1 signs in J precede all -1 signs.

    The composed P1 maps post-ordering column positions to pre-ordering ones.
    """
    idx = np.argsort(f.J == -1, kind="stable")
    return replace(f, G=np.asfortranarray(f.G[:, idx]), J=f.J[idx], P1=f.P1[idx])


def scaled_condition(A):
    """kappa of A symmetrically scaled to unit diagonal, via a reference
    spectral decomposition (diagnostic, not a hot path); 1 for an empty A."""
    A = as_matrix(A)
    if not A.size:
        return 1.0
    d = np.diag(A).real
    if np.any(d <= 0):
        raise ValueError("scaled_condition requires a strictly positive diagonal")
    s = 1.0 / np.sqrt(d)
    As = hermitize(A * np.outer(s, s))
    w = np.abs(np.linalg.eigvalsh(As))
    if w.min() == 0.0:
        return math.inf
    return float(w.max() / w.min())


def accept_external_factor(G, J) -> FactoredForm:
    """Wrap a user-supplied full-column-rank factor pair (G, J).

    Rank is validated via Cholesky of the Gram matrix; permutations are the
    identity (the factor is taken at face value).
    """
    G = as_matrix(G)
    n, m = G.shape
    if m > n:
        raise ValueError("factor must have at least as many rows as columns")
    if not np.all(np.isfinite(G)):
        raise ValueError("factor is not finite (NaN or infinite entries)")
    signs = as_signs(J, m)
    try:
        np.linalg.cholesky(gram(G))
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("supplied factor is rank deficient") from exc
    norms2 = column_norms_squared(G)
    if m and norms2.min() == 0.0:
        raise RankDeficiencyError("supplied factor has a zero column")
    return FactoredForm(G=G, J=signs, P=np.arange(n), P1=np.arange(m))
