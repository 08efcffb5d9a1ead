"""Ring of p workers running the parallel block Jacobi variants in lock-step.

The workers take turns in the calling thread.  Each step has three phases:
every worker rotates its block pair, then every worker sends one
block-column to a ring neighbor, then every worker receives one.  The
schedules are the paper's, and their arithmetic does not depend on whether
the workers run at the same time, so the run is deterministic for a fixed
input and configuration.  A sweep ends with the all-reduce of the workers'
counters, and the ring stops at the first sweep in which no worker rotated.
An error stops the run at once; when several workers would fail in one
step, the lowest rank's error is raised.

Every step is one ``pivot_step`` on the worker's two block-columns, with
``_Worker._local_transform`` as the local solve.  2F/3F fully diagonalize the
local pivot factor (using the structured Cholesky, since a sweep starts by
re-diagonalizing every diagonal Gram block); 2B/3B run a single annihilation
pass over its off-diagonal block, except on the first step of a sweep, which
sweeps the whole local pivot once.  The three-level variants hand the local
factor to the blocked sequential solvers when it is at least twice the inner
target block size.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .blocking import (
    _diagonalizer,
    block_oriented,
    cross_pass,
    full_block,
    num_blocks,
    off_diagonal_pass,
    pivot_step,
    uniform_partition,
)
from .core import column_norms_squared
from .errors import HJacobiError
from .rotations import DiagInfo, jacobi_diagonalize, sweep_until_quiet
from .strategies import init_strategy, step_fn, steps_per_sweep

# Not called here: bound so that perfbench/tracing.py can wrap them in this module.
from .blocking import chol_upper, structured_cholesky  # noqa: F401,E402
from .core import gram  # noqa: F401,E402
from .rotations import jacobi_cycle  # noqa: F401,E402


@dataclass
class BlockMessage:
    """One block-column in flight: its index, columns of G, and the matching
    J and Gram-diagonal segments."""

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

    # -- local solves ------------------------------------------------------

    def _diag_preprocess(self):
        """F variants: re-diagonalize the two owned diagonal Gram blocks."""
        local = _diagonalizer(self.opts.tol)
        for msg in self.blocks.values():
            sub = pivot_step(msg.G_block, None, msg.J_seg, local)
            msg.D_seg = column_norms_squared(msg.G_block)
            self.sweep_info.absorb(sub)

    def _local_transform(self, R, Jq, n_i, first_step):
        """The local solve of one step on the pivot's square factor R."""
        opts = self.opts
        tol = opts.tol
        n_q = R.shape[1]
        blocked = opts.variant in ("3F", "3B") and n_q >= 2 * opts.inner_nt
        part = uniform_partition(n_q, num_blocks(n_q, opts.inner_nt)) if blocked else None
        if opts.full or first_step:  # the whole pivot, to convergence (F) or for one sweep (B)
            if not opts.full:
                tol = tol.with_max_sweeps(1)
            if blocked:
                driver = full_block if opts.full else block_oriented
                return driver(R, Jq, part, tol, accumulate_V=True)
            return jacobi_diagonalize(R, Jq, tol, accumulate=True)
        if blocked:
            return off_diagonal_pass(R, Jq, n_i, opts.inner_nt, tol, accumulate_V=True)
        return cross_pass(R, Jq, n_i, tol)

    # -- one sweep ---------------------------------------------------------

    def _start_sweep(self, k):
        self.state.nsweep = k
        self.sweep_info = DiagInfo()
        if self.opts.full:
            self._diag_preprocess()

    def _step(self, first_step):
        mi = self.blocks[self.state.i_blk]
        mj = self.blocks[self.state.j_blk]
        lam = (mi.D_seg, mj.D_seg) if self.opts.full else None
        sub = pivot_step(mi.G_block, mj.G_block, np.concatenate([mi.J_seg, mj.J_seg]),
                         lambda R, J, n_i: self._local_transform(R, J, n_i, first_step),
                         lam)
        mi.D_seg = column_norms_squared(mi.G_block)
        mj.D_seg = column_norms_squared(mj.G_block)
        self.sweep_info.absorb(sub)

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

    Like the other drivers it overwrites G's columns in place: each worker
    updates views of G's block-columns, so G keeps its column order, and
    eigenpairs are read off it with ``extract_eigen``.  An exception raised
    by a worker propagates as it is.
    """
    if opts.variant.startswith("seq"):
        raise ValueError(f"parallel_jacobi runs the ring variants, not {opts.variant!r}")
    n = G.shape[1]
    p = opts.p
    if 2 * p > n:
        raise ValueError(f"need at least {2 * p} columns for p={p} workers")
    part = uniform_partition(n, 2 * p)
    ring = Ring(p)
    workers = [_Worker(q, opts, ring) for q in range(p)]
    for w in workers:  # each block starts where its worker's schedule starts
        for blk in (w.state.i_blk, w.state.j_blk):
            cols = part.columns(blk - 1)
            w.blocks[blk] = BlockMessage(index=blk, G_block=G[:, cols], J_seg=signs[cols].copy(),
                                         D_seg=column_norms_squared(G[:, cols]))

    def sweep(k):
        for w in workers:
            w._start_sweep(k)
        for step in range(steps_per_sweep(opts.strategy, p)):
            for w in workers:
                w._step(first_step=(step == 0))
            plans = [w.stepper(w.state, p) for w in workers]
            for w, plan in zip(workers, plans):
                w._send(plan)
            for w, plan in zip(workers, plans):
                w._exchange(plan)
        return exchange_convergence(w.sweep_info for w in workers)

    return G, sweep_until_quiet(sweep, opts.tol)
