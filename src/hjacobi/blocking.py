"""Block partitions, the stacked block-pivot step, and the blocked sequential
solvers.

Every blocked variant is built from ``stacked_step``: for several disjoint
block pivots of equal widths at once, factor their Gram matrices as one
stack, orthogonalize the factors by one local solve on them side by side,
and apply each accumulated transformation back to its block columns by one
stacked GEMM.  Disjoint pivots do not interact, and every stacked operation
acts on each member as it would alone, so a member comes out with the bits
it gets by itself; only the kernel's body, chosen by the pairs per round of
the whole call (``_kernels.pass_kernel``), depends on the stacking.
``pivot_step`` is the one-pivot case.

The blocked solvers visit the block pivots by rounds of disjoint pivots,
taken from ``_kernels.pass_rounds`` at block level, with one stacked step
per round and pivot width.  The full block solver diagonalizes each pivot's
factor; the block-oriented solver gives each diagonal block one cycle and
each off-diagonal pivot one cross pass (``cross_pass``).
``off_diagonal_pass`` is the single-pass building block reused by the
three-level parallel variants.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import pass_rounds
from .core import column_norms_squared, gram, hermitize
from .errors import DefinitenessError
from .rotations import (DEFAULT_TOL, DiagInfo, Tolerances, cycle_members, diagonalize_members,
                        eye_blocks, sweep_until_quiet)

# Not called here: bound so that perfbench/tracing.py can wrap them in this module.
from .rotations import jacobi_cycle, jacobi_diagonalize  # noqa: F401,E402


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
    if n < 0 or n_t < 1:
        raise ValueError("need n >= 0 and n_t >= 1")
    return -(-n // n_t)


def greedy_partition(n: int, n_t: int) -> BlockPartition:
    """All blocks of size n_t except a possibly smaller last one (no blocks
    when n = 0)."""
    return BlockPartition(tuple(min(n_t, n - i * n_t) for i in range(num_blocks(n, n_t))))


def uniform_partition(n: int, b: int) -> BlockPartition:
    """b blocks whose sizes differ by at most one, larger blocks first."""
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    n_min, b_r = divmod(n, b)
    return BlockPartition(tuple([n_min + 1] * b_r + [n_min] * (b - b_r)))


def chol_upper(A):
    """Upper-triangular R with A = R^* R, of a matrix or of each matrix of a
    stack; DefinitenessError on failure.  Every R is column-major, and the
    factors of a stack lie side by side in memory."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("matrix is not positive definite") from exc
    return L.conj().swapaxes(-1, -2)


def structured_cholesky(lam_ii, A_ij, lam_jj):
    """Cholesky factor of [[diag(lam_ii), A_ij], [A_ij^*, diag(lam_jj)]], or
    of each of a stack of such matrices (leading axes of all three).

    R_ii = sqrt(lam_ii) on the diagonal, R_ij = R_ii^{-1} A_ij, and R_jj from
    a dense Cholesky of the Schur complement.  Raises DefinitenessError when
    a Schur complement is not positive definite; the caller then falls back
    to a dense factorization of the assembled pivot.
    """
    lam_ii = np.asarray(lam_ii, dtype=np.float64)
    lam_jj = np.asarray(lam_jj, dtype=np.float64)
    if np.any(lam_ii <= 0) or np.any(lam_jj <= 0):
        raise DefinitenessError("diagonal blocks must be strictly positive")
    n_i, n_j = lam_ii.shape[-1], lam_jj.shape[-1]
    if A_ij.shape[-2:] != (n_i, n_j):
        raise ValueError("off-diagonal block shape does not match")
    r_ii = np.sqrt(lam_ii)
    R_ij = A_ij / r_ii[..., :, None]
    D_jj = np.zeros(lam_jj.shape + (n_j,), dtype=A_ij.dtype)
    D_jj[..., range(n_j), range(n_j)] = lam_jj
    R_jj = chol_upper(hermitize(D_jj - np.matmul(R_ij.conj().swapaxes(-1, -2), R_ij)))
    k = n_i + n_j
    R = np.zeros(lam_ii.shape[:-1] + (k, k), dtype=A_ij.dtype).swapaxes(-1, -2)
    R[..., range(n_i), range(n_i)] = r_ii
    R[..., :n_i, n_i:] = R_ij
    R[..., n_i:, n_i:] = R_jj
    return R


def update_block_columns(Gp, W):
    """Gp <- Gp @ W in place.  A stack W of B square matrices multiplies the
    B consecutive column groups of Gp, one each (a block-diagonal W).

    The products go to a column-major buffer, which makes BLAS run
    column-major GEMMs; a row-major one can differ in the last bit.
    """
    m, n = Gp.shape
    W = W.reshape((-1,) + W.shape[-2:])
    B, k = W.shape[0], W.shape[-1]
    if W.shape[1] != k or B * k != n:
        raise ValueError("accumulator W must be square of the pivot width")
    G3 = np.asfortranarray(Gp).reshape((m, k, B), order="F").transpose(2, 0, 1)
    out = np.matmul(G3, W, out=np.empty((B, k, m), dtype=Gp.dtype).transpose(0, 2, 1))
    Gp[:, :] = out.transpose(1, 0, 2).reshape(m, n)


def _gather(blocks):
    """The column blocks (None: none) side by side in one column-major array."""
    return np.concatenate([X for X in blocks if X is not None], axis=1)


def _scatter(Xp, blocks):
    """Write the columns of Xp back to the blocks ``_gather`` took them from."""
    c = 0
    for X in blocks:
        if X is not None:
            X[:, :] = Xp[:, c:c + X.shape[1]]
            c += X.shape[1]


def _factor(Gp, B, n_i, lam):
    """Upper Cholesky factors of the Gram matrices of B pivots whose columns
    lie side by side in Gp, as a stack: the structured Cholesky when ``lam``
    holds each pivot's squared column norms, else dense.  If the structured
    one fails for the stack, each pivot is factored alone, so only a pivot
    that fails by itself falls back to the dense factor."""
    m, n = Gp.shape
    k = n // B
    G3 = Gp.reshape((m, k, B), order="F").transpose(2, 0, 1)
    if lam is not None:
        try:
            return structured_cholesky(np.stack([li for li, _ in lam]),
                                       gram(G3[..., :n_i], G3[..., n_i:]),
                                       np.stack([lj for _, lj in lam]))
        except DefinitenessError:
            if B > 1:
                return np.stack([_factor(Gp[:, b * k:(b + 1) * k], 1, n_i, lam[b:b + 1])[0]
                                 for b in range(B)])
    return chol_upper(gram(G3))


def stacked_step(pivots, signs, local, lam=None, V=None):
    """One block-pivot step on disjoint pivots of equal widths, as one.

    pivots[b] = (Gi, Gj) holds the column blocks of pivot b (Gj None: Gi
    alone), each pivot with the widths of the first; signs[b] is its sign
    vector.  lam[b], when given, holds both blocks' squared column norms
    (their diagonal Gram blocks being diagonal), which selects the
    structured Cholesky; V[b], when given, holds blocks of an accumulator
    that receive the pivot's transformation too.

    The pivots' Cholesky factors go side by side, as one column-major
    (k, B k) array, to the local solve ``local(R, J, n_i, B)``; it returns a
    DiagInfo per pivot with the accumulated W, which one stacked GEMM then
    applies to the blocks of every pivot that rotated.  Returns the
    DiagInfos.
    """
    B = len(pivots)
    n_i = pivots[0][0].shape[1]
    flat = [X for pv in pivots for X in pv]
    Gp = _gather(flat)
    R3 = _factor(Gp, B, n_i, lam)
    k = R3.shape[-1]
    R = np.asfortranarray(R3.transpose(1, 0, 2).reshape(k, B * k))
    infos = local(R, np.concatenate(signs), n_i, B)
    moved = [b for b, info in enumerate(infos) if info.rotations]
    if moved:
        W = np.stack([infos[b].W for b in moved])
        for blocks in (pivots, V):
            if blocks is not None:
                sub = [X for b in moved for X in blocks[b]]
                Xp = Gp if blocks is pivots and len(moved) == B else _gather(sub)
                update_block_columns(Xp, W)
                _scatter(Xp, sub)
    return infos


def pivot_step(Gi, Gj, J, local, lam=None):
    """One block-pivot step on the columns [Gi, Gj] (Gi alone when Gj is
    None): ``stacked_step`` on this one pivot, with the local solve
    ``local(R, J, n_i)`` returning one DiagInfo.  Returns that DiagInfo."""
    return stacked_step([(Gi, Gj)], [J], lambda R, Jp, n_i, _: [local(R, Jp, n_i)],
                        None if lam is None else [lam])[0]


def cross_members(R, J, n_i, members, tol: Tolerances = DEFAULT_TOL):
    """One annihilation pass over the cross pairs r < n_i <= s of each of
    ``members`` factors side by side in R, with W accumulated; returns a
    DiagInfo per factor."""
    k = R.shape[1] // members
    W = eye_blocks(k, members, R.dtype)
    infos = cycle_members(R, J, column_norms_squared(R), W, n_i, k - n_i, False, tol,
                          np.arange(0, R.shape[1], k))
    for b, info in enumerate(infos):
        info.sweeps, info.converged, info.W = 1, True, W[:, b * k:(b + 1) * k]
    return infos


def cross_pass(R, J, n_i, tol: Tolerances = DEFAULT_TOL):
    """One annihilation pass over the cross pairs r < n_i <= s of R, with W
    accumulated."""
    return cross_members(R, J, n_i, 1, tol)[0]


def _diagonalizer(tol):
    """Local solve that runs jacobi_diagonalize on each pivot's factor."""
    return lambda R, J, n_i, members: diagonalize_members(R, J, members, tol, accumulate=True)


def _local_pivot(G, signs, part, i, j):
    """Column views of blocks i and j of G (j None: block i alone), their
    column slices and their signs."""
    ci = part.columns(i)
    if j is None:
        return G[:, ci], None, signs[ci], ci, None
    cj = part.columns(j)
    return G[:, ci], G[:, cj], np.concatenate([signs[ci], signs[cj]]), ci, cj


def _block_rounds(n_i, n_j, diag_bl):
    """``pass_rounds`` at block level, as lists of block pairs (i, j)."""
    return [list(zip(R.tolist(), S.tolist())) for R, S in pass_rounds(n_i, n_j, diag_bl)]


def _pivot_pass(G, signs, part, rounds, local, V=None, lam=None):
    """The block pivots (i, j) of each round (j None: the diagonal block i),
    which must be disjoint within a round: one ``stacked_step`` per round and
    pivot width.  V, when given, receives every W as well; ``lam``, when
    given, holds each block's squared column norms and is kept current."""
    info = DiagInfo()
    for rnd in rounds:
        groups = {}
        for i, j in rnd:
            width = (part.sizes[i], None if j is None else part.sizes[j])
            groups.setdefault(width, []).append((i, j))
        for group in groups.values():
            views = [_local_pivot(G, signs, part, i, j) for i, j in group]
            subs = stacked_step(
                [(Gi, Gj) for Gi, Gj, *_ in views], [Jp for _, _, Jp, _, _ in views], local,
                None if lam is None else [(lam[i], lam[j]) for i, j in group],
                None if V is None else [(V[:, ci], None if cj is None else V[:, cj])
                                        for *_, ci, cj in views])
            for (i, j), (Gi, Gj, *_), sub in zip(group, views, subs):
                if sub.rotations and lam is not None:
                    lam[i], lam[j] = column_norms_squared(Gi), column_norms_squared(Gj)
                info.absorb(sub)
    return info


def _diag_block_pass(G, signs, part, local, V):
    """Every diagonal block, as one round."""
    return _pivot_pass(G, signs, part, [[(i, None) for i in range(part.b)]], local, V)


def _block_sweeps(G, signs, part, tol, accumulate_V, full):
    """Sweeps of a blocked driver until one applies no rotations.

    Each sweep visits the diagonal blocks, all in one round, then the
    off-diagonal block pairs by the rounds of the circle method
    (``_kernels.pass_rounds`` over the b blocks).  ``full`` diagonalizes
    every pivot, using the structured Cholesky on the off-diagonal ones;
    otherwise a diagonal block gets one cycle and an off-diagonal pivot one
    cross pass.
    """
    n = G.shape[1]
    if part.n != n:
        raise ValueError("partition does not cover all columns")
    V = np.eye(n, dtype=G.dtype, order="F") if accumulate_V else None
    if full:
        diag = off = _diagonalizer(tol)
    else:
        diag = _diagonalizer(tol.with_max_sweeps(1))
        off = functools.partial(cross_members, tol=tol)
    rounds = _block_rounds(part.b, 0, True)

    def sweep(k):
        info = _diag_block_pass(G, signs, part, diag, V)
        lam = [column_norms_squared(G[:, part.columns(i)]) for i in range(part.b)] if full else None
        info.absorb(_pivot_pass(G, signs, part, rounds, off, V, lam))
        return info

    return sweep_until_quiet(sweep, tol, V)


def full_block(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL,
               accumulate_V=False):
    """Sequential full block solver: per sweep, full diagonalization of every
    diagonal block, then of every block pivot, by rounds of disjoint pivots
    (see ``_block_sweeps``)."""
    return _block_sweeps(G, signs, part, tol, accumulate_V, full=True)


def block_oriented(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL,
                   accumulate_V=False):
    """Sequential block-oriented solver: per sweep, one cycle through each
    diagonal block, then one annihilation pass over each off-diagonal block,
    by rounds of disjoint pivots (see ``_block_sweeps``)."""
    return _block_sweeps(G, signs, part, tol, accumulate_V, full=False)


def off_diagonal_pass(G, signs, n_r: int, inner_t: int,
                      tol: Tolerances = DEFAULT_TOL, accumulate_V=False):
    """Single blocked annihilation pass over the cross block of G = [G_r, G_s].

    G_r (first n_r columns) and G_s are partitioned separately with target
    inner block size ``inner_t``, so the inner partition respects the
    boundary between the two outer blocks; every (left, right) inner pair is
    visited exactly once (no convergence loop), by the shifted diagonals of
    the pr.b x ps.b grid of inner pairs as rounds of disjoint pivots.
    """
    n = G.shape[1]
    if not (0 < n_r < n):
        raise ValueError("need 0 < n_r < total column count")
    pr = uniform_partition(n_r, num_blocks(n_r, inner_t))
    ps = uniform_partition(n - n_r, num_blocks(n - n_r, inner_t))
    part = BlockPartition(pr.sizes + ps.sizes)
    V = np.eye(n, dtype=G.dtype, order="F") if accumulate_V else None
    rounds = _block_rounds(pr.b, ps.b, False)
    info = _pivot_pass(G, signs, part, rounds, functools.partial(cross_members, tol=tol), V)
    info.sweeps, info.converged, info.W = 1, True, V
    return info
