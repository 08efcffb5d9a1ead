"""Shared matrix utilities: Gram products, column norms, result container.

All matrices are dense numpy arrays in column-major (Fortran) order, either
float64 or complex128; a sign vector is an int8 array of +-1 entries paired
with the columns of its matrix.
"""

from dataclasses import dataclass

import numpy as np

REAL = np.float64
COMPLEX = np.complex128


def as_matrix(M, dtype=None):
    """Coerce to a 2-d float64/complex128 array in column-major order."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={M.ndim}")
    if dtype is None:
        dtype = COMPLEX if np.iscomplexobj(M) else REAL
    return np.asfortranarray(M, dtype=dtype)


def as_signs(J, n=None):
    """Coerce to an int8 sign vector, validating that entries are +-1."""
    J = np.asarray(J).reshape(-1)
    signs = J.astype(np.int8)
    if not np.all(np.abs(signs) == 1) or not np.allclose(J, signs):
        raise ValueError("sign vector entries must be -1 or +1")
    if n is not None and signs.size != n:
        raise ValueError(f"sign vector length {signs.size} != column count {n}")
    return signs


def hermitize(A):
    """Average A (or each matrix of a stack) with its conjugate transpose
    (exact for Hermitian input)."""
    return (A + A.conj().swapaxes(-1, -2)) / 2


def gram(Gi, Gj=None):
    """Gram product Gi^* Gj, of two matrices or of two stacks of them.

    With one argument (or Gj is Gi) the result is explicitly symmetrized so
    downstream Cholesky sees exactly Hermitian input.
    """
    same = Gj is None or Gj is Gi
    if Gj is None:
        Gj = Gi
    if Gi.shape[-2] != Gj.shape[-2]:
        raise ValueError(f"row counts differ: {Gi.shape[-2]} vs {Gj.shape[-2]}")
    A = np.matmul(Gi.conj().swapaxes(-1, -2), Gj)
    if same:
        A = hermitize(A)
    return A


def column_norms_squared(G):
    """Squared Euclidean norm of each column, as a real vector."""
    return np.einsum("ij,ij->j", G.conj(), G).real


@dataclass
class EigenResult:
    """Signed eigenvalues with orthonormal eigenvectors and run counters."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int = 0
    rotations: int = 0
    converged: bool = True

    def __post_init__(self):
        if self.eigenvalues.size != self.eigenvectors.shape[1]:
            raise ValueError("eigenvalue count != eigenvector column count")
