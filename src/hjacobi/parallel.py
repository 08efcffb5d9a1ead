"""Ring of p workers running the parallel block Jacobi variants in lock-step.

The workers take turns in the calling thread.  Each step has three phases:
every worker takes its block pair, then every worker sends one
block-column to a ring neighbor, then every worker receives one.  The
schedules are the paper's: in a step the p workers hold disjoint block
pairs (i, j), so a step is one round of pivots (i - 1, j - 1, rank) over
``uniform_partition(n, 2p)``, run by its cached plan (``blocking.round_plan``)
through the blocked drivers' executor (``blocking._pivot_pass``): one
gather, factor, local solve, GEMM and scatter per width group (block sizes
differ by at most one, so a step has one or two).  A block-column is a view
of G that the plan's scatter updates in place, so the exchange moves no
data: its BlockMessages only track which worker holds which block, and
each message's norms segment is a view of the ring's one vector of squared
column norms.  Each worker's pivot comes out with the bits it gets alone,
and the run is deterministic for a fixed input and configuration.  A sweep
ends with the all-reduce of the workers' counters, and the ring stops at
the first sweep in which no worker rotated.

An error stops the run at once.  When several workers' pivots would fail in
one step, the error raised is the first one the stacked computation meets,
which need not be the lowest rank's: the width groups run in the rank order
of their first worker, and the kernel by rounds takes round k of every
worker's pass at once, so a higher rank that fails in an earlier round wins
over a lower rank that fails later.  Within one round, and under numba,
whose cyclic kernel runs the workers' passes one after another, the lowest
failing rank wins.

The local solve is ``_Worker._local_transform``.  2F/3F sweep each local
pivot factor until a sweep is quiet (using the structured Cholesky, since
a sweep starts by re-diagonalizing all 2p diagonal Gram blocks, as one
planned round too); 2B/3B run one annihilation pass over its off-diagonal
block, except on a sweep's first step, which sweeps the whole pivot once.
3F/3B hand a factor at least twice the inner target block size to the
member-aware blocked solvers (``block_members``, ``off_diagonal_members``),
which take the inner block pivots of every factor by planned rounds; their
whole-pivot sweeps are block-oriented, so a 3F pivot is fully diagonalized
by repeating them.
"""

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .blocking import (
    _diagonalizer,
    _pivot_pass,
    block_members,
    cross_members,
    num_blocks,
    off_diagonal_members,
    round_plan,
    uniform_partition,
)
from .core import column_norms_squared
from .errors import HJacobiError
from .rotations import DiagInfo, sweep_until_quiet
from .strategies import init_strategy, step_fn, steps_per_sweep

# Not called here: bound so that perfbench/tracing.py can wrap them in this module.
from .blocking import (block_oriented, chol_upper, full_block,  # noqa: F401,E402
                       off_diagonal_pass, structured_cholesky)
from .core import gram  # noqa: F401,E402
from .rotations import jacobi_cycle, jacobi_diagonalize  # noqa: F401,E402


@dataclass
class BlockMessage:
    """A block-column a worker holds: its index, its view of G, and the
    matching J segment and squared column norms (a view of the ring's one
    norms vector, current for the F variants)."""

    index: int
    G_block: np.ndarray
    J_seg: np.ndarray
    D_seg: np.ndarray


class Ring:
    """Point-to-point FIFO channels between ring neighbors.

    Every message of a step is sent before any is received, so a receive
    from an empty channel is a misrouted exchange and raises at once.
    """

    def __init__(self, p: int):
        self._chan = {}
        for src in range(p):
            for dst in ((src + 1) % p, (src - 1) % p):
                self._chan.setdefault((src, dst), deque())

    def send(self, src: int, dst: int, obj):
        self._chan[(src, dst)].append(obj)

    def recv(self, src: int, dst: int):
        chan = self._chan[(src, dst)]
        if not chan:
            raise HJacobiError(f"rank {dst}: no message from rank {src}")
        return chan.popleft()


def exchange_convergence(infos) -> DiagInfo:
    """All-reduce of the workers' counters of one sweep: rotations and big
    rotations sum, max |t| is the maximum."""
    total = DiagInfo()
    for info in infos:
        total.absorb(info)
    return total


class _Worker:
    def __init__(self, rank, opts, ring):
        self.rank = rank
        self.opts = opts
        self.ring = ring
        self.blocks = {}  # {block index: BlockMessage}
        self.state = init_strategy(rank, 2 * opts.p)
        self.stepper = step_fn(opts.strategy)

    # -- local solves, on the factors of every worker's pivot at once -------

    def _diag_preprocess(self, R, J, n_i, members, W):
        """F variants: re-diagonalize the diagonal Gram blocks that start a
        sweep, every worker's two at once."""
        return _diagonalizer(self.opts.tol)(R, J, n_i, members, W)

    def _local_transform(self, R, J, n_i, members, W, first_step):
        """The local solve of one step on ``members`` pivot factors side by side
        in R, into W.  A whole pivot is swept until quiet (F) or once (B)."""
        opts = self.opts
        n_q = R.shape[1] // members
        blocked = opts.variant in ("3F", "3B") and n_q >= 2 * opts.inner_nt
        tol = opts.tol.with_max_sweeps(1) if first_step and not opts.full else opts.tol
        if opts.full or first_step:  # the whole pivot
            if blocked:
                part = uniform_partition(n_q, num_blocks(n_q, opts.inner_nt))
                return block_members(R, J, part, members, False, tol, W)
            return _diagonalizer(tol)(R, J, n_i, members, W)
        if blocked:
            return off_diagonal_members(R, J, n_i, opts.inner_nt, members, tol, W)
        return cross_members(R, J, n_i, members, W, tol)

    # -- one sweep ---------------------------------------------------------

    def _step(self):
        """This worker's pivot of the step: its two block-columns."""
        return self.blocks[self.state.i_blk], self.blocks[self.state.j_blk]

    def _send(self, plan):
        self.ring.send(self.rank, plan.snd_rnk, self.blocks.pop(plan.snd_blk))

    def _exchange(self, plan):
        """Receive the block ``plan`` names, once every worker has sent."""
        msg = self.ring.recv(plan.rcv_rnk, self.rank)
        if msg.index != plan.rcv_blk:
            raise HJacobiError(
                f"rank {self.rank}: expected block {plan.rcv_blk}, got {msg.index}"
            )
        self.blocks[msg.index] = msg


def parallel_jacobi(G, signs, opts):
    """Diagonalize (A = G^* G, J) with ``opts.p`` ring workers in lock-step,
    running the ring variant ``opts.variant`` of a SolveOptions; returns
    (G, info).

    Like the other drivers it overwrites G's columns in place, so G keeps
    its column order, and eigenpairs are read off it with
    ``extract_eigen``.  An exception raised
    by a worker propagates as it is.
    """
    if opts.variant.startswith("seq"):
        raise ValueError(f"parallel_jacobi runs the ring variants, not {opts.variant!r}")
    n = G.shape[1]
    p = opts.p
    if 2 * p > n:
        raise ValueError(f"need at least {2 * p} columns for p={p} workers")
    part = uniform_partition(n, 2 * p)
    lam = column_norms_squared(G)  # F: kept current, and read by the structured Cholesky
    ring = Ring(p)
    workers = [_Worker(q, opts, ring) for q in range(p)]
    for w in workers:  # each block starts where its worker's schedule starts
        for blk in (w.state.i_blk, w.state.j_blk):
            cols = part.columns(blk - 1)
            w.blocks[blk] = BlockMessage(index=blk, G_block=G[:, cols], J_seg=signs[cols],
                                         D_seg=lam[cols])

    lead = workers[0]  # the local solves read only the options every worker shares

    def sweep(k):
        for w in workers:
            w.state.nsweep = k
        infos = [DiagInfo() for _ in workers]

        def run(rnd, local):  # one round of pivots (i, j, rank), by its cached plan
            _pivot_pass(G, signs, round_plan(part.sizes, (rnd,)), local, infos,
                        lam=lam if opts.full else None)

        if opts.full:
            run(tuple((blk - 1, None, w.rank) for w in workers for blk in w.blocks),
                lead._diag_preprocess)
        for step in range(steps_per_sweep(opts.strategy, p)):
            run(tuple((bi.index - 1, bj.index - 1, w.rank)
                      for w in workers for bi, bj in (w._step(),)),
                functools.partial(lead._local_transform, first_step=step == 0))
            plans = [w.stepper(w.state, p) for w in workers]
            for w, plan in zip(workers, plans):
                w._send(plan)
            for w, plan in zip(workers, plans):
                w._exchange(plan)
        return exchange_convergence(infos)

    return G, sweep_until_quiet(sweep, opts.tol)
