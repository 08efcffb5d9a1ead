"""Block partitions, the block-pivot step, and the blocked sequential solvers.

Every blocked variant is built from ``pivot_step``: factor the Gram matrix of
a block pivot, orthogonalize the factor by a local solve, and apply the
accumulated transformation back to the block columns.  The full block solver
diagonalizes each pivot's factor; the block-oriented solver gives each
diagonal block one cycle and each off-diagonal pivot one cross pass
(``cross_pass``).  ``off_diagonal_pass`` is the single-pass building block
reused by the three-level parallel variants.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import column_norms_squared, gram, hermitize
from .errors import DefinitenessError
from .rotations import DEFAULT_TOL, DiagInfo, Tolerances, jacobi_cycle, jacobi_diagonalize


@dataclass(frozen=True)
class BlockPartition:
    """Block-column sizes and their offsets (prefix sums)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if any(s < 1 for s in self.sizes):
            raise ValueError("all block sizes must be >= 1")

    @property
    def b(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    def columns(self, i):
        """Column slice of block i (0-based)."""
        off = self.offsets
        return slice(off[i], off[i + 1])


def num_blocks(n: int, n_t: int) -> int:
    """Number of blocks for target block size n_t: ceil(n / n_t)."""
    if n < 1 or n_t < 1:
        raise ValueError("n and n_t must be >= 1")
    return -(-n // n_t)


def greedy_partition(n: int, n_t: int) -> BlockPartition:
    """All blocks of size n_t except a possibly smaller last one."""
    b = num_blocks(n, n_t)
    last = (n - 1) % n_t + 1
    return BlockPartition(tuple([n_t] * (b - 1) + [last]))


def uniform_partition(n: int, b: int) -> BlockPartition:
    """b blocks whose sizes differ by at most one, larger blocks first."""
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    n_min, b_r = divmod(n, b)
    return BlockPartition(tuple([n_min + 1] * b_r + [n_min] * (b - b_r)))


def chol_upper(A):
    """Upper-triangular R with A = R^* R; DefinitenessError on failure."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("matrix is not positive definite") from exc
    return np.asfortranarray(L.conj().T)


def structured_cholesky(lam_ii, A_ij, lam_jj):
    """Cholesky factor of [[diag(lam_ii), A_ij], [A_ij^*, diag(lam_jj)]].

    R_ii = sqrt(lam_ii) on the diagonal, R_ij = R_ii^{-1} A_ij, and R_jj from
    a dense Cholesky of the Schur complement.  Raises DefinitenessError when
    the Schur complement is not positive definite; the caller then falls back
    to a dense factorization of the assembled pivot.
    """
    lam_ii = np.asarray(lam_ii, dtype=np.float64)
    lam_jj = np.asarray(lam_jj, dtype=np.float64)
    if np.any(lam_ii <= 0) or np.any(lam_jj <= 0):
        raise DefinitenessError("diagonal blocks must be strictly positive")
    n_i, n_j = lam_ii.size, lam_jj.size
    if A_ij.shape != (n_i, n_j):
        raise ValueError("off-diagonal block shape does not match")
    r_ii = np.sqrt(lam_ii)
    R_ij = A_ij / r_ii[:, None]
    S = hermitize(np.diag(lam_jj).astype(A_ij.dtype) - R_ij.conj().T @ R_ij)
    R_jj = chol_upper(S)
    R = np.zeros((n_i + n_j, n_i + n_j), dtype=A_ij.dtype, order="F")
    R[np.arange(n_i), np.arange(n_i)] = r_ii
    R[:n_i, n_i:] = R_ij
    R[n_i:, n_i:] = R_jj
    return R


def update_block_columns(Gp, W):
    """Gp <- Gp @ W in place.

    The product goes to a column-major buffer, which makes BLAS run a
    column-major GEMM; a row-major one can differ in the last bit.
    """
    k = Gp.shape[1]
    if W.shape != (k, k):
        raise ValueError("accumulator W must be square of the pivot width")
    Gp[:, :] = np.matmul(Gp, W, out=np.empty(Gp.shape, dtype=Gp.dtype, order="F"))


def _apply(W, Gi, Gj=None):
    """[Gi, Gj] <- [Gi, Gj] @ W in place (Gi <- Gi @ W when Gj is None)."""
    if Gj is None:
        update_block_columns(Gi, W)
        return
    n_i = Gi.shape[1]
    Gp = np.concatenate([Gi, Gj], axis=1)
    update_block_columns(Gp, W)
    Gi[:, :] = Gp[:, :n_i]
    Gj[:, :] = Gp[:, n_i:]


def pivot_step(Gi, Gj, J, local, lam=None):
    """One block-pivot step on the columns [Gi, Gj] (Gi alone when Gj is None).

    Factors the pivot's Gram matrix as R^* R -- by the structured Cholesky
    when ``lam`` holds both blocks' squared column norms (their diagonal Gram
    blocks being diagonal), densely otherwise or when that fails -- runs the
    local solve ``local(R, J, n_i)`` (n_i the width of Gi) and applies the
    accumulated W it returns to the blocks in place.  Returns that DiagInfo.
    """
    R = None
    if lam is not None:
        try:
            R = structured_cholesky(lam[0], gram(Gi, Gj), lam[1])
        except DefinitenessError:
            pass
    if R is None:
        R = chol_upper(gram(Gi if Gj is None else np.concatenate([Gi, Gj], axis=1)))
    info = local(R, J, Gi.shape[1])
    if info.rotations:
        _apply(info.W, Gi, Gj)
    return info


def cross_pass(R, J, n_i, tol: Tolerances = DEFAULT_TOL):
    """One annihilation pass over the cross pairs r < n_i <= s of R, with W
    accumulated."""
    n = R.shape[1]
    info = DiagInfo(sweeps=1, converged=True, W=np.eye(n, dtype=R.dtype, order="F"))
    info.absorb(jacobi_cycle(R, J, column_norms_squared(R), info.W, n_i, n - n_i, False, tol))
    return info


def _diagonalizer(tol):
    """Local solve that runs jacobi_diagonalize on the pivot factor."""
    return lambda R, J, n_i: jacobi_diagonalize(R, J, tol, accumulate=True)


def _local_pivot(G, signs, part, i, j):
    """Column views of blocks i and j of G (j None: block i alone), their
    column slices and their signs."""
    ci = part.columns(i)
    if j is None:
        return G[:, ci], None, signs[ci], ci, None
    cj = part.columns(j)
    return G[:, ci], G[:, cj], np.concatenate([signs[ci], signs[cj]]), ci, cj


def _pivot_pass(G, signs, part, pairs, local, V=None, lam=None):
    """pivot_step on each block pair (i, j) of ``pairs`` in turn (j None: the
    diagonal block i).  V, when given, receives every W as well; ``lam``,
    when given, holds each block's squared column norms and is kept current."""
    info = DiagInfo()
    for i, j in pairs:
        Gi, Gj, Jp, ci, cj = _local_pivot(G, signs, part, i, j)
        sub = pivot_step(Gi, Gj, Jp, local, None if lam is None else (lam[i], lam[j]))
        if sub.rotations:
            if lam is not None:
                lam[i], lam[j] = column_norms_squared(Gi), column_norms_squared(Gj)
            if V is not None:
                _apply(sub.W, V[:, ci], None if cj is None else V[:, cj])
        info.absorb(sub)
    return info


def _diag_block_pass(G, signs, part, local, V):
    """pivot_step on every diagonal block."""
    return _pivot_pass(G, signs, part, [(i, None) for i in range(part.b)], local, V)


def _block_sweeps(G, signs, part, tol, accumulate_V, full):
    """Sweeps of a blocked driver until one applies no rotations.

    Each sweep visits the diagonal blocks, then the off-diagonal block pairs
    in block column-cyclic order.  ``full`` diagonalizes every pivot, using
    the structured Cholesky on the off-diagonal ones; otherwise a diagonal
    block gets one cycle and an off-diagonal pivot one cross pass.
    """
    n = G.shape[1]
    if part.n != n:
        raise ValueError("partition does not cover all columns")
    V = np.eye(n, dtype=G.dtype, order="F") if accumulate_V else None
    if full:
        diag = off = _diagonalizer(tol)
    else:
        diag = _diagonalizer(tol.with_max_sweeps(1))
        off = functools.partial(cross_pass, tol=tol)
    pairs = [(i, j) for j in range(1, part.b) for i in range(j)]
    info = DiagInfo(W=V)
    while info.sweeps < tol.max_sweeps:
        info.sweeps += 1
        sweep = _diag_block_pass(G, signs, part, diag, V)
        lam = [column_norms_squared(G[:, part.columns(i)]) for i in range(part.b)] if full else None
        sweep.absorb(_pivot_pass(G, signs, part, pairs, off, V, lam))
        info.absorb(sweep)
        if sweep.rotations == 0:
            info.converged = True
            break
    return info


def full_block(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL,
               accumulate_V=False):
    """Sequential full block solver: per sweep, full diagonalization of every
    diagonal block, then of every block pivot in block column-cyclic order."""
    return _block_sweeps(G, signs, part, tol, accumulate_V, full=True)


def block_oriented(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL,
                   accumulate_V=False):
    """Sequential block-oriented solver: per sweep, one cycle through each
    diagonal block, then one annihilation pass over each off-diagonal block."""
    return _block_sweeps(G, signs, part, tol, accumulate_V, full=False)


def off_diagonal_pass(G, signs, n_r: int, inner_t: int,
                      tol: Tolerances = DEFAULT_TOL, accumulate_V=False):
    """Single blocked annihilation pass over the cross block of G = [G_r, G_s].

    G_r (first n_r columns) and G_s are partitioned separately with target
    inner block size ``inner_t``, so the inner partition respects the
    boundary between the two outer blocks; every (left, right) inner pair is
    visited exactly once (no convergence loop).
    """
    n = G.shape[1]
    if not (0 < n_r < n):
        raise ValueError("need 0 < n_r < total column count")
    pr = uniform_partition(n_r, num_blocks(n_r, inner_t))
    ps = uniform_partition(n - n_r, num_blocks(n - n_r, inner_t))
    part = BlockPartition(pr.sizes + ps.sizes)
    V = np.eye(n, dtype=G.dtype, order="F") if accumulate_V else None
    pairs = [(i, j) for j in range(pr.b, part.b) for i in range(pr.b)]
    info = _pivot_pass(G, signs, part, pairs, functools.partial(cross_pass, tol=tol), V)
    info.sweeps, info.converged, info.W = 1, True, V
    return info
