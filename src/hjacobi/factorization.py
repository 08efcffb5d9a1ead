"""Hermitian indefinite factorization P H P^T = G J G^*.

Bunch-Parlett (complete-pivoting) M D M^* factorization with 1x1/2x2 pivots,
followed by spectral scaling of the diagonal blocks so the signature ends up
in J.  Also hosts the inertia ordering of J and the scaled-condition
diagnostic.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import plane_rotation
from .core import as_matrix, as_signs, column_norms_squared, gram, hermitize
from .errors import RankDeficiencyError, SingularMatrixError

ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


@dataclass
class FactoredForm:
    """Factor pair (G, J) with the pivoting permutation P and the inertia
    ordering P1 (both stored as index arrays; see ``factorize`` for the
    conventions)."""

    G: np.ndarray
    J: np.ndarray
    P: np.ndarray
    P1: np.ndarray


def _eigh2(a, b, c):
    """Spectral decomposition of the Hermitian 2x2 [[a, b], [conj(b), c]].

    Returns (lam1, lam2, Q) with unitary Q and Q^* A Q = diag(lam1, lam2):
    the trigonometric ``plane_rotation`` of the pivot, with eta = |b|.
    """
    if b == 0:
        return float(a), float(c), np.eye(2)
    ab = abs(b)
    phase = b / ab
    t, cs, sn, _ = plane_rotation(a, c, ab, True)
    Q = np.array([[cs * phase, sn * phase], [-sn, cs]])
    return float(a - t * ab), float(c + t * ab), Q


def _swap_sym(A, i, j):
    """Symmetric row+column swap of the full Hermitian working matrix."""
    if i == j:
        return
    A[[i, j], :] = A[[j, i], :]
    A[:, [i, j]] = A[:, [j, i]]


def factorize_hermitian_indefinite(H, herm_rtol=1e-10):
    """Factor a nonsingular Hermitian H as P H P^T = G J G^*.

    Complete (Bunch-Parlett) pivoting with the classical alpha threshold;
    each 2x2 block of the intermediate M D M^* form is diagonalized in closed
    form and the columns of M scaled by sqrt(|eigenvalue|).  G comes out
    lower block-triangular with diagonal blocks of order 1 or 2.

    P is an index array: (P H P^T)[i, j] == H[P[i], P[j]].
    """
    H = as_matrix(H)
    n = H.shape[0]
    if H.shape[1] != n:
        raise ValueError("H must be square")
    if not np.all(np.isfinite(H)):
        raise ValueError("H is not finite (NaN or infinite entries)")
    if n and not np.allclose(H, H.conj().T, rtol=herm_rtol, atol=herm_rtol * np.abs(H).max()):
        raise ValueError("H is not Hermitian")
    A = np.asfortranarray(hermitize(H))
    scale = np.abs(A).max() if n else 0.0
    tiny = 64.0 * n * np.finfo(np.float64).eps * scale
    perm = np.arange(n)
    M = np.eye(n, dtype=A.dtype, order="F")
    blocks = []  # (column index, 1x1 value) or (column index, 2x2 array)
    k = 0
    while k < n:
        T = A[k:, k:]
        m = n - k
        diag = np.abs(np.diag(T).real)
        i1 = int(np.argmax(diag))
        mu1 = diag[i1]
        if m > 1:
            Off = np.abs(np.tril(T, -1))
            r0, c0 = np.unravel_index(int(np.argmax(Off)), Off.shape)
            mu0 = Off[r0, c0]
        else:
            mu0 = 0.0
        if max(mu0, mu1) <= tiny:
            raise SingularMatrixError(
                "zero pivot: H is numerically singular; supply a factor directly"
            )
        if mu1 >= ALPHA * mu0:
            piv = k + i1
            _swap_sym(A, k, piv)
            M[[k, piv], :k] = M[[piv, k], :k]
            perm[[k, piv]] = perm[[piv, k]]
            d = A[k, k].real
            col = A[k + 1 :, k] / d
            M[k + 1 :, k] = col
            A[k + 1 :, k + 1 :] -= d * np.outer(col, col.conj())
            blocks.append((k, d))
            k += 1
        else:
            for dst, src in ((k, k + c0), (k + 1, k + r0)):
                _swap_sym(A, dst, src)
                M[[dst, src], :k] = M[[src, dst], :k]
                perm[[dst, src]] = perm[[src, dst]]
            a = A[k, k].real
            b = A[k + 1, k].conj()  # upper entry (k, k+1)
            c = A[k + 1, k + 1].real
            det = a * c - (b * b.conjugate()).real
            E = A[k + 2 :, k : k + 2]
            # X = E * inv(D2) with D2 = [[a, b], [conj(b), c]]
            X = np.empty_like(E)
            X[:, 0] = (E[:, 0] * c - E[:, 1] * b.conjugate()) / det
            X[:, 1] = (E[:, 1] * a - E[:, 0] * b) / det
            M[k + 2 :, k : k + 2] = X
            A[k + 2 :, k + 2 :] -= X @ E.conj().T
            D2 = np.array([[a, b], [np.conj(b), c]])
            blocks.append((k, D2))
            k += 2
    G = np.zeros_like(M)
    J = np.empty(n, dtype=np.int8)
    for col, blk in blocks:
        if np.isscalar(blk) or getattr(blk, "ndim", 0) == 0:
            d = float(blk)
            G[:, col] = M[:, col] * math.sqrt(abs(d))
            J[col] = 1 if d >= 0 else -1
        else:
            lam1, lam2, Q = _eigh2(blk[0, 0].real, blk[0, 1], blk[1, 1].real)
            S = Q @ np.diag([math.sqrt(abs(lam1)), math.sqrt(abs(lam2))])
            G[:, col : col + 2] = M[:, col : col + 2] @ S.astype(G.dtype)
            J[col] = 1 if lam1 >= 0 else -1
            J[col + 1] = 1 if lam2 >= 0 else -1
    return FactoredForm(G=np.asfortranarray(G), J=J, P=perm, P1=np.arange(n))


def order_by_inertia(f: FactoredForm) -> FactoredForm:
    """Stably permute columns so all +1 signs in J precede all -1 signs.

    The composed P1 maps post-ordering column positions to pre-ordering ones.
    """
    idx = np.argsort(f.J == -1, kind="stable")
    return replace(f, G=np.asfortranarray(f.G[:, idx]), J=f.J[idx], P1=f.P1[idx])


def scaled_condition(A):
    """kappa of A symmetrically scaled to unit diagonal, via a reference
    spectral decomposition (diagnostic, not a hot path)."""
    A = as_matrix(A)
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
