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


def _eigh_pivot(A, k, s):
    """(lam, Q) with A[k:k+s, k:k+s] = Q diag(lam) Q^*, s = 1 or 2, from its
    lower triangle; a 2x2 block takes the trigonometric ``plane_rotation``
    with eta = |b|, and Q's columns are the identity's column pair rotated
    by ``rotate_columns``."""
    a = A[k, k].real
    if s == 1:
        return np.array([a]), np.array([[1.0]])
    b = np.conj(A[k + 1, k])  # upper entry (k, k+1)
    c = A[k + 1, k + 1].real
    ab = abs(b)  # > 0: a 2x2 pivot holds the largest off-diagonal entry left
    t, cs, sn = plane_rotation(a, c, ab, TRIG)
    Q = np.empty((2, 2), dtype=A.dtype)
    rotate_columns(np.eye(2, dtype=A.dtype), b / ab, cs, sn, TRIG, Q)
    return np.array([a - t * ab, c + t * ab]), Q.T


def _swap_sym(A, i, j):
    """Symmetric row+column swap of the full Hermitian working matrix."""
    if i == j:
        return
    for M in (A, A.T):  # rows, then columns; row views beat fancy indexing
        M[i], M[j] = M[j].copy(), M[i].copy()


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
    perm, low = np.arange(n), np.tri(n, k=-1, dtype=bool)
    fill = np.zeros(n)  # sum_j |G[i, :k]|^2: Schur rounding grows with it too
    G = np.zeros_like(A)
    J = np.empty(n, dtype=np.int8)
    k = 0
    while k < n:
        T = A[k:, k:]
        diag = np.abs(np.diag(T).real)
        i1 = int(np.argmax(diag))
        Off = np.where(low[k:, k:], np.abs(T), 0.0)
        r0, c0 = np.unravel_index(int(np.argmax(Off)), Off.shape)
        mu0, mu1 = Off[r0, c0], diag[i1]
        mu = max(mu0, mu1)
        # the global floor bounds tiny * max|H_rem|: look at H_rem only below it
        rem = np.abs(H[np.ix_(perm[k:], perm[k:])]).max() if mu <= floor else 0.0
        if mu <= tiny * max(rem, fill[k:].max()):
            raise SingularMatrixError(
                "zero pivot: H is numerically singular; supply a factor directly"
            )
        if mu1 >= ALPHA * mu0:
            s, swaps = 1, ((k, k + i1),)
        else:
            s, swaps = 2, ((k, k + c0), (k + 1, k + r0))
        for dst, src in swaps:
            _swap_sym(A, dst, src)
            G[[dst, src], :k] = G[[src, dst], :k]
            perm[[dst, src]], fill[[dst, src]] = perm[[src, dst]], fill[[src, dst]]
        lam, Q = _eigh_pivot(A, k, s)
        sgn = np.copysign(1.0, lam)
        root = np.sqrt(np.abs(lam))
        L = A[k + s :, k : k + s] @ (Q * (sgn / root))
        G[k : k + s, k : k + s] = Q * root
        G[k + s :, k : k + s] = L
        A[k + s :, k + s :] -= (L * sgn) @ L.conj().T
        fill[k + s :] += np.einsum("ij,ij->i", L, L.conj()).real
        J[k : k + s] = sgn
        k += s
    return FactoredForm(G=G, J=J, P=perm, P1=np.arange(n))


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
