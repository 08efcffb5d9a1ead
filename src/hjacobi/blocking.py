"""Block partitions, the stacked block-pivot step, and the blocked sequential
solvers.

Every blocked variant is built from ``stacked_step``, which takes a round
of disjoint block pivots of any widths.  It groups them by width, and for
each group it factors the pivots' Gram matrices as one stack,
orthogonalizes the factors by one local solve on them side by side, and
applies each accumulated transformation back to its block columns by one
stacked GEMM.  Disjoint pivots do not interact, and every stacked operation
acts on each member as it would alone, so a member comes out with the bits
it gets by itself.

The blocked solvers visit the block pivots by rounds of disjoint pivots,
taken from the kernel's table of rounds (``_kernels.member_rounds``) at
block level, with one stacked step per round.  The full block solver
diagonalizes each pivot's factor; the block-oriented solver gives each
diagonal block one cycle and each off-diagonal pivot one cross pass
(``cross_members``).  ``off_diagonal_pass`` is the single pass over a cross
block that the three-level parallel variants use.  Each of them is the
one-member case of a member-aware driver (``block_members``,
``off_diagonal_members``) that takes several factors of equal width side by
side, as the ring has one per worker: round k holds round k of every
member, each pivot's counters go to the member the table names as its
owner, and each member stops at its own first quiet sweep.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import member_rounds
from .core import column_norms_squared, gram, hermitize
from .errors import DefinitenessError
from .rotations import (DEFAULT_TOL, DiagInfo, Tolerances, cycle_members, diagonalize_members,
                        eye_blocks, members_until_quiet)

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

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        return (0, *itertools.accumulate(self.sizes))

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


def _width_step(pivots, signs, local, lam, V):
    """``stacked_step`` on pivots of equal widths, as one: their Cholesky
    factors go side by side, as one column-major (k, B k) array, to the
    local solve, and one stacked GEMM applies the W of every pivot that
    rotated to its blocks (and to its blocks of V)."""
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


def stacked_step(pivots, signs, local, lam=None, V=None):
    """One block-pivot step on a round of disjoint pivots of any widths.

    pivots[b] = (Gi, Gj) holds the column blocks of pivot b (Gj None: Gi
    alone); signs[b] is its sign vector.  lam[b], when given, holds both
    blocks' squared column norms (their diagonal Gram blocks being
    diagonal), which selects the structured Cholesky; V[b], when given,
    holds blocks of an accumulator that receive the pivot's transformation
    too.

    The pivots are grouped by their widths (n_i, n_j), in the order each
    width first appears, and each group runs as one (``_width_step``): the
    local solve ``local(R, J, n_i, B)`` gets the group's B Cholesky factors
    side by side in R and returns a DiagInfo per pivot with the accumulated
    W.  Returns the DiagInfos in the pivots' order.
    """
    groups = {}
    for b, (Gi, Gj) in enumerate(pivots):
        groups.setdefault((Gi.shape[1], None if Gj is None else Gj.shape[1]), []).append(b)
    infos = [None] * len(pivots)
    for group in groups.values():
        sub = _width_step([pivots[b] for b in group], [signs[b] for b in group], local,
                          None if lam is None else [lam[b] for b in group],
                          None if V is None else [V[b] for b in group])
        for b, info in zip(group, sub):
            infos[b] = info
    return infos


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


def _pivot_pass(G, signs, part, rounds, local, infos, V=None, lam=None):
    """The block pivots of each round, one ``stacked_step`` per round.  A
    round is (R, S, own) as ``_kernels.member_rounds`` gives them: pivot x
    takes blocks R[x] and S[x] of ``part`` (S None: block R[x] alone), the
    pivots of a round being disjoint, and its counters go to infos[own[x]].
    V, when given, receives every W as well; ``lam``, when given, maps each
    block to its squared column norms and is kept current."""
    for R, S, own in rounds:
        pivots = list(zip(R.tolist(), [None] * R.size if S is None else S.tolist()))
        views = [_local_pivot(G, signs, part, i, j) for i, j in pivots]
        subs = stacked_step(
            [(Gi, Gj) for Gi, Gj, *_ in views], [Jp for _, _, Jp, _, _ in views], local,
            None if lam is None else [(lam[i], lam[j]) for i, j in pivots],
            None if V is None else [(V[:, ci], None if cj is None else V[:, cj])
                                    for *_, ci, cj in views])
        for (i, j), (Gi, Gj, *_), o, sub in zip(pivots, views, own.tolist(), subs):
            if sub.rotations and lam is not None:
                lam[i], lam[j] = column_norms_squared(Gi), column_norms_squared(Gj)
            infos[o].absorb(sub)


def _diag_block_pass(G, signs, part, nb, offsets, local, infos, V):
    """The nb diagonal blocks of every member whose blocks start at
    ``offsets``, as one round; member x's counters go to infos[x]."""
    R = (np.asarray(offsets)[:, None] + np.arange(nb)).ravel()
    _pivot_pass(G, signs, part, [(R, None, np.repeat(np.arange(len(offsets)), nb))],
                local, infos, V)


def block_members(G, signs, part: BlockPartition, members, full, tol: Tolerances = DEFAULT_TOL,
                  accumulate_V=False):
    """The sweeps of a blocked driver on ``members`` factors of equal width
    side by side in G, each partitioned by ``part``; returns a DiagInfo per
    member.

    Each sweep visits the diagonal blocks, all in one round, then the
    off-diagonal block pairs by the rounds of the circle method
    (``_kernels.member_rounds`` over the b blocks of every member still
    active, at offsets of b blocks), so a round's pivots run as one stacked
    step whatever member they belong to.  ``full`` diagonalizes every pivot,
    using the structured Cholesky on the off-diagonal ones; otherwise a
    diagonal block gets one cycle and an off-diagonal pivot one cross pass.
    Every member stops at its own first sweep without rotations
    (``members_until_quiet``), and comes out with the bits it gets alone.
    With ``accumulate_V`` each member's W is its block of one accumulator.
    """
    n = part.n
    if G.shape[1] != members * n:
        raise ValueError("partition does not cover all columns")
    nb = part.b
    whole = BlockPartition(part.sizes * members)
    V = eye_blocks(n, members, G.dtype) if accumulate_V else None
    if full:
        diag = off = _diagonalizer(tol)
    else:
        diag = _diagonalizer(tol.with_max_sweeps(1))
        off = functools.partial(cross_members, tol=tol)

    def sweep(k, active):
        infos = [DiagInfo() for _ in active]
        offsets = tuple(b * nb for b in active)
        _diag_block_pass(G, signs, whole, nb, offsets, diag, infos, V)
        lam = {i: column_norms_squared(G[:, whole.columns(i)])
               for o in offsets for i in range(o, o + nb)} if full else None
        _pivot_pass(G, signs, whole, member_rounds(nb, 0, True, offsets), off, infos, V, lam)
        return infos

    return members_until_quiet(sweep, members, tol, V)


def full_block(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL):
    """Sequential full block solver: per sweep, full diagonalization of every
    diagonal block, then of every block pivot, by rounds of disjoint pivots
    (``block_members`` of one member)."""
    return block_members(G, signs, part, 1, True, tol)[0]


def block_oriented(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL):
    """Sequential block-oriented solver: per sweep, one cycle through each
    diagonal block, then one annihilation pass over each off-diagonal block,
    by rounds of disjoint pivots (``block_members`` of one member)."""
    return block_members(G, signs, part, 1, False, tol)[0]


def off_diagonal_members(G, signs, n_r: int, inner_t: int, members,
                         tol: Tolerances = DEFAULT_TOL, accumulate_V=False):
    """``off_diagonal_pass`` on ``members`` factors of equal width side by
    side in G, each split at n_r: round k of the inner grid holds round k of
    every member, so every member comes out with the bits it gets alone.
    Returns a DiagInfo per member."""
    n = G.shape[1] // members
    if not (0 < n_r < n):
        raise ValueError("need 0 < n_r < total column count")
    pr = uniform_partition(n_r, num_blocks(n_r, inner_t))
    ps = uniform_partition(n - n_r, num_blocks(n - n_r, inner_t))
    nb = pr.b + ps.b
    V = eye_blocks(n, members, G.dtype) if accumulate_V else None
    infos = [DiagInfo(sweeps=1, converged=True, W=None if V is None else V[:, b * n:(b + 1) * n])
             for b in range(members)]
    rounds = member_rounds(pr.b, ps.b, False, tuple(range(0, members * nb, nb)))
    _pivot_pass(G, signs, BlockPartition((pr.sizes + ps.sizes) * members), rounds,
                functools.partial(cross_members, tol=tol), infos, V)
    return infos


def off_diagonal_pass(G, signs, n_r: int, inner_t: int, tol: Tolerances = DEFAULT_TOL):
    """Single blocked annihilation pass over the cross block of G = [G_r, G_s].

    G_r (first n_r columns) and G_s are partitioned separately with target
    inner block size ``inner_t``, so the inner partition respects the
    boundary between the two outer blocks; every (left, right) inner pair is
    visited exactly once (no convergence loop), by the shifted diagonals of
    the pr.b x ps.b grid of inner pairs as rounds of disjoint pivots
    (``off_diagonal_members`` of one member).
    """
    return off_diagonal_members(G, signs, n_r, inner_t, 1, tol)[0]
