"""Block partitions, planned rounds of block pivots, and the blocked
sequential solvers.

Every blocked variant, and every step of the ring, runs its block pivots by
rounds of disjoint pivots, each round by a plan (``round_plan``).  A plan
depends only on the partition's sizes and the rounds, so it is built once
and cached: for every round it holds the width groups in the order each
width first appears, each group (``PlanGroup``) with the index array of its
pivots' columns in gather order, the pivots' block pairs, their widths and
their owners.  The executor (``_pivot_pass``) runs each group as one step
(``_group_step``): one gather of its columns of G, the Cholesky factors of
their Gram matrices as one stack (structured from one flat vector of
squared column norms, when it is kept), one local solve on the group's one
array of factors above their accumulators W, one stacked GEMM that applies
every pivot's W, and one scatter back of the columns, and their norms, of
the pivots that rotated.  Disjoint pivots do not interact, and every stacked
operation acts on each member as it would alone, so a member comes out with
the bits it gets by itself.

Every driver and local solve here takes its factors as ``(M, m)``: M's
first m rows; the rows below m, if any, are accumulator rows, which every
transformation of the factors' columns multiplies too.

The blocked solvers take their rounds at block level from the kernel's
schedule (``_kernels.member_rounds``), after one round of all diagonal
blocks.  That schedule is uncut: only the kernel's own rounds are cut
(``_kernels.round_panels``), so a block round holds every pivot of its
step whatever the kernel's batching.  The full block solver diagonalizes
each pivot's factor; the block-oriented solver gives each diagonal block
one cycle and each off-diagonal pivot one cross pass (``cross_members``).
``off_diagonal_pass`` is the single pass over a cross block that the
three-level parallel variants use.  Each of them is the one-member case of
a member-aware driver (``block_members``, ``off_diagonal_members``) that
takes several factors of equal width side by side, as the ring has one per
worker: round k holds round k of every member, each pivot's counters go to
the member the table names as its owner, and each member stops at its own
first quiet sweep.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import _frozen, member_rounds
from .core import column_norms_squared, gram, hermitize
from .errors import DefinitenessError
from .rotations import (DEFAULT_TOL, DiagInfo, Tolerances, cycle_members, diagonalize_members,
                        members_until_quiet)

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


@functools.lru_cache(maxsize=128)
def greedy_partition(n: int, n_t: int) -> BlockPartition:
    """All blocks of size n_t except a possibly smaller last one (no blocks
    when n = 0)."""
    return BlockPartition(tuple(min(n_t, n - i * n_t) for i in range(num_blocks(n, n_t))))


@functools.lru_cache(maxsize=128)
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
    """Gp @ W, returned as a new column-major array; Gp is left as it is.  A
    stack W of B square matrices multiplies the B consecutive column groups
    of Gp, one each (a block-diagonal W).

    The product goes to a column-major buffer, which makes BLAS run
    column-major GEMMs; a row-major one can differ in the last bit.  So
    does W's own layout per matrix: each of W's matrices is column-major (a
    view of the group step's M), and a row-major copy moves some last bits.
    """
    m, n = Gp.shape
    W = W.reshape((-1,) + W.shape[-2:])
    B, k = W.shape[0], W.shape[-1]
    if W.shape[1] != k or B * k != n:
        raise ValueError("accumulator W must be square of the pivot width")
    G3 = np.asfortranarray(Gp).reshape((m, k, B), order="F").transpose(2, 0, 1)
    out = np.matmul(G3, W, out=np.empty((B, k, m), dtype=Gp.dtype).transpose(0, 2, 1))
    return out.transpose(1, 0, 2).reshape(m, n)


def _factor(Gp, B, n_i, lam):
    """Upper Cholesky factors of the Gram matrices of B pivots whose columns
    lie side by side in Gp, as a stack: the structured Cholesky when ``lam``
    holds the columns' squared norms (one flat vector), else dense.  If the
    structured one fails for the stack, each pivot is factored alone, so only
    a pivot that fails by itself falls back to the dense factor."""
    m, n = Gp.shape
    k = n // B
    G3 = Gp.reshape((m, k, B), order="F").transpose(2, 0, 1)
    if lam is not None:
        L = lam.reshape(B, k)
        try:
            return structured_cholesky(L[:, :n_i], gram(G3[..., :n_i], G3[..., n_i:]), L[:, n_i:])
        except DefinitenessError:
            if B > 1:
                return np.stack([_factor(Gp[:, c:c + k], 1, n_i, lam[c:c + k])[0]
                                 for c in range(0, n, k)])
    return chol_upper(gram(G3))


@dataclass(frozen=True)
class PlanGroup:
    """The pivots of one width (n_i, k - n_i) in a planned round: their block
    pairs (j None: block i alone), the positions their counters go to, and
    the read-only index array of their columns in gather order, pivot after
    pivot, each pivot's block i before its block j."""

    pivots: tuple
    owners: tuple
    cols: np.ndarray
    n_i: int
    k: int


def _local_pivot(part, i, j):
    """The column indices of blocks i and j of ``part`` (j None: block i
    alone)."""
    off = part.offsets
    cols = np.arange(off[i], off[i + 1])
    return cols if j is None else np.concatenate([cols, np.arange(off[j], off[j + 1])])


@functools.lru_cache(maxsize=128)
def round_plan(sizes, rounds):
    """The plan of ``rounds`` of disjoint block pivots over the blocks of
    ``sizes``: per round, a tuple of PlanGroups, one per pivot width
    (n_i, n_j), in the order each width first appears in the round.

    A round is a tuple of pivots (i, j, own): blocks i and j (j None: block
    i alone), whose counters go to position own.  The plan depends on
    nothing else, so it is built once and cached.
    """
    part = BlockPartition(sizes)
    plan = []
    for rnd in rounds:
        groups = {}
        for i, j, own in rnd:
            width = (sizes[i], None if j is None else sizes[j])
            groups.setdefault(width, []).append(((i, j), own, _local_pivot(part, i, j)))
        plan.append(tuple(
            PlanGroup(tuple(pv for pv, _, _ in g), tuple(o for _, o, _ in g),
                      _frozen(np.concatenate([c for *_, c in g])), n_i, n_i + (n_j or 0))
            for (n_i, n_j), g in groups.items()))
    return tuple(plan)


@functools.lru_cache(maxsize=256)
def _block_rounds(n_i, n_j, diag_bl, offsets):
    """``_kernels.member_rounds`` at block level, uncut, as ``round_plan``
    takes them."""
    return tuple(tuple(zip(R.tolist(), S.tolist(), own.tolist()))
                 for R, S, own in member_rounds(n_i, n_j, diag_bl, offsets))


def _group_step(G, m, signs, group, local, lam=None):
    """The pivots of a PlanGroup as one step on ``(G, m)``, G's rows below m
    accumulator rows; returns the local solve's DiagInfo per pivot.

    One gather of the group's columns of G, the Cholesky factors of the Gram
    matrices of their first m rows as one stack (structured from ``lam`` for
    pivots of two blocks), and one column-major M of 2k rows, pivot b at
    columns b*k: its factor above an identity, its W.  ``local(M, k, J, n_i,
    B)`` rotates M; then one stacked GEMM applies every pivot's W, one view
    of M's bottom rows, to all rows of its columns, and one scatter writes
    back the columns of the pivots that rotated, their squared norms to
    ``lam`` when given.  A quiet pivot is not written back, as a GEMM by an
    exact identity turns -0.0 into +0.0: it keeps the bits it has alone.
    """
    cols, n_i, k = group.cols, group.n_i, group.k
    B = len(group.owners)
    Gp = G[:, cols]
    R3 = _factor(Gp[:m], B, n_i, None if lam is None or n_i == k else lam[cols])
    M = np.zeros((2 * k, B * k), dtype=G.dtype, order="F")
    M3 = M.reshape((2 * k, k, B), order="F")  # column j of pivot b is M3[:, j, b]
    M3[:k] = R3.transpose(1, 2, 0)
    M.reshape((2 * k * k, B), order="F")[k::2 * k + 1] = 1.0  # each pivot's identity
    infos = local(M, k, signs[cols], n_i, B)
    moved = [b for b, info in enumerate(infos) if info.rotations]
    if moved:
        P = update_block_columns(Gp, M3[k:].transpose(2, 0, 1))
        if len(moved) < B:  # only the rotated pivots' columns
            keep = np.arange(B * k).reshape(B, k)[moved].ravel()
            P, cols = P[:, keep], cols[keep]
        G[:, cols] = P
        if lam is not None:
            lam[cols] = column_norms_squared(P[:m])
    return infos


def _pivot_pass(G, m, signs, plan, local, infos, lam=None):
    """The rounds of ``plan`` (``round_plan``) on the factor G[:m] and its
    accumulator rows below, one ``_group_step`` per width group, in the
    plan's order; each pivot's counters go to infos[own].  ``lam``, when
    given, holds the squared column norms of G[:m], from which pivots of two
    blocks are factored by the structured Cholesky, and is kept current."""
    for groups in plan:
        for group in groups:
            for o, info in zip(group.owners, _group_step(G, m, signs, group, local, lam)):
                infos[o].absorb(info)


def cross_members(M, m, J, n_i, members, tol: Tolerances = DEFAULT_TOL):
    """One annihilation pass over the cross pairs r < n_i <= s of each of
    ``members`` factors side by side in M[:m], which rotates M's rows below
    m too; returns a DiagInfo per factor, of one sweep and converged."""
    k = M.shape[1] // members
    G = M[:m]
    infos = cycle_members(G, J, column_norms_squared(G), M[m:], n_i, k - n_i, False, tol,
                          tuple(range(0, M.shape[1], k)))
    for info in infos:
        info.sweeps, info.converged = 1, True
    return infos


def _diagonalizer(tol):
    """Local solve: jacobi_diagonalize of each pivot's factor in ``(M, m)``."""
    return lambda M, m, J, n_i, members: diagonalize_members(M, m, J, members, tol)


def _diag_block_pass(M, m, signs, sizes, nb, offsets, local, infos, lam):
    """The nb diagonal blocks of every member whose blocks (of ``sizes``)
    start at ``offsets``, as one round; member x's counters go to infos[x],
    and ``lam``, unless None, is kept current as by ``_pivot_pass``."""
    diag = tuple((o + i, None, x) for x, o in enumerate(offsets) for i in range(nb))
    _pivot_pass(M, m, signs, round_plan(sizes, (diag,)), local, infos, lam)


def block_members(M, m, signs, part: BlockPartition, members, full,
                  tol: Tolerances = DEFAULT_TOL):
    """The sweeps of a blocked driver on ``members`` factors of equal width
    side by side in M[:m], each partitioned by ``part``; returns a DiagInfo
    per member.  Every block pivot's W multiplies all of M's rows, so the
    rows below m accumulate the factors' transformations.

    Each sweep visits the diagonal blocks, all in one round, then the
    off-diagonal block pairs by the rounds of the circle method
    (``_kernels.member_rounds`` over the b blocks of every member still
    active, at offsets of b blocks), so a round's pivots run as one stacked
    step whatever member they belong to.  ``full`` diagonalizes every pivot,
    using the structured Cholesky on the off-diagonal ones; otherwise a
    diagonal block gets one cycle and an off-diagonal pivot one cross pass.
    Every member stops at its own first sweep without rotations
    (``members_until_quiet``), and comes out with the bits it gets alone.
    """
    n = part.n
    if M.shape[1] != members * n:
        raise ValueError("partition does not cover all columns")
    nb = part.b
    sizes = part.sizes * members
    lam = column_norms_squared(M[:m]) if full else None  # kept current by the group steps
    if full:
        diag = off = _diagonalizer(tol)
    else:
        diag = _diagonalizer(tol.with_max_sweeps(1))
        off = functools.partial(cross_members, tol=tol)

    def sweep(k, active):
        infos = [DiagInfo() for _ in active]
        offsets = tuple(b * nb for b in active)
        _diag_block_pass(M, m, signs, sizes, nb, offsets, diag, infos, lam)
        plan = round_plan(sizes, _block_rounds(nb, 0, True, offsets))
        _pivot_pass(M, m, signs, plan, off, infos, lam)
        return infos

    return members_until_quiet(sweep, members, tol)


def full_block(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL):
    """Sequential full block solver: per sweep, full diagonalization of every
    diagonal block, then of every block pivot, by rounds of disjoint pivots
    (``block_members`` of one member)."""
    return block_members(G, G.shape[0], signs, part, 1, True, tol)[0]


def block_oriented(G, signs, part: BlockPartition, tol: Tolerances = DEFAULT_TOL):
    """Sequential block-oriented solver: per sweep, one cycle through each
    diagonal block, then one annihilation pass over each off-diagonal block,
    by rounds of disjoint pivots (``block_members`` of one member)."""
    return block_members(G, G.shape[0], signs, part, 1, False, tol)[0]


def off_diagonal_members(M, m, signs, n_r: int, inner_t: int, members,
                         tol: Tolerances = DEFAULT_TOL):
    """``off_diagonal_pass`` on ``members`` factors of equal width side by
    side in M[:m], each split at n_r: round k of the inner grid holds round
    k of every member, so every member comes out with the bits it gets
    alone; every inner pivot's W multiplies all of M's rows, so the rows
    below m accumulate.  Returns a DiagInfo per member."""
    n = M.shape[1] // members
    if not (0 < n_r < n):
        raise ValueError("need 0 < n_r < total column count")
    pr = uniform_partition(n_r, num_blocks(n_r, inner_t))
    ps = uniform_partition(n - n_r, num_blocks(n - n_r, inner_t))
    nb = pr.b + ps.b
    infos = [DiagInfo(sweeps=1, converged=True) for _ in range(members)]
    rounds = _block_rounds(pr.b, ps.b, False, tuple(range(0, members * nb, nb)))
    _pivot_pass(M, m, signs, round_plan((pr.sizes + ps.sizes) * members, rounds),
                functools.partial(cross_members, tol=tol), infos)
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
    return off_diagonal_members(G, G.shape[0], signs, n_r, inner_t, 1, tol)[0]
