"""Ring of in-process workers running the parallel block Jacobi variants.

Workers are threads connected by point-to-point FIFO queues arranged in a
ring; each step every worker sends one block-column and receives one, and a
ring all-reduce of rotation counters runs once per sweep.  The whole runtime
is deterministic for a fixed input and configuration: the schedule is
data-independent and every channel has a single producer.  A worker that
fails aborts the ring, so its peers stop at their next receive instead of
waiting out the channel timeout.

Every step is one ``pivot_step`` on the worker's two block-columns, with
``_Worker._local_transform`` as the local solve.  2F/3F fully diagonalize the
local pivot factor (using the structured Cholesky, since a sweep starts by
re-diagonalizing every diagonal Gram block); 2B/3B run a single annihilation
pass over its off-diagonal block, except on the first step of a sweep, which
sweeps the whole local pivot once.  The three-level variants hand the local
factor to the blocked sequential solvers when it is at least twice the inner
target block size.
"""

import queue
import threading
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
from .errors import ChannelTimeoutError, HJacobiError
from .rotations import DiagInfo, jacobi_diagonalize
from .strategies import init_strategy, step_fn, steps_per_sweep

# Not called here: bound so that perfbench/tracing.py can wrap them in this module.
from .blocking import chol_upper, structured_cholesky  # noqa: F401,E402
from .core import gram  # noqa: F401,E402
from .rotations import jacobi_cycle  # noqa: F401,E402

VARIANTS = ("2F", "2B", "3F", "3B")
# seconds a worker waits for a neighbor's message before giving up
CHANNEL_TIMEOUT = 120.0
# put on every channel by ``Ring.abort``
_ABORT = object()


@dataclass
class BlockMessage:
    """One block-column in flight: its index, columns of G, and the matching
    J and Gram-diagonal segments."""

    index: int
    G_block: np.ndarray
    J_seg: np.ndarray
    D_seg: np.ndarray


class Ring:
    """Point-to-point FIFO channels between ring neighbors."""

    def __init__(self, p: int, timeout: float = CHANNEL_TIMEOUT):
        self.p = p
        self.timeout = timeout
        self._chan = {}
        for src in range(p):
            for dst in ((src + 1) % p, (src - 1) % p):
                self._chan.setdefault((src, dst), queue.Queue())

    def send(self, src: int, dst: int, obj):
        self._chan[(src, dst)].put(obj)

    def recv(self, src: int, dst: int):
        try:
            obj = self._chan[(src, dst)].get(timeout=self.timeout)
        except queue.Empty as exc:
            raise ChannelTimeoutError(
                f"rank {dst}: no message from rank {src} within {self.timeout}s"
            ) from exc
        if obj is _ABORT:
            raise HJacobiError(f"rank {dst}: ring aborted by a failed worker")
        return obj

    def abort(self):
        """Make the next receive on every channel raise."""
        for chan in self._chan.values():
            chan.put(_ABORT)


def exchange_convergence(ring: Ring, rank: int, local: tuple) -> tuple:
    """Ring all-reduce (sum) of per-sweep counters; collective, every worker
    must call exactly once per sweep."""
    p = ring.p
    if p == 1:
        return tuple(local)
    nxt = (rank + 1) % p
    prv = (rank - 1) % p
    if rank == 0:
        ring.send(0, nxt, tuple(local))
        total = ring.recv(prv, 0)
        ring.send(0, nxt, total)
    else:
        partial = ring.recv(prv, rank)
        ring.send(rank, nxt, tuple(a + b for a, b in zip(partial, local)))
        total = ring.recv(prv, rank)
        if rank != p - 1:
            ring.send(rank, nxt, total)
    return total


class _Worker:
    def __init__(self, rank, opts, ring, blocks, errors):
        self.rank = rank
        self.opts = opts
        self.ring = ring
        self.blocks = blocks  # {block index: BlockMessage}
        self.errors = errors
        self.state = init_strategy(rank, 2 * opts.p)
        self.stepper = step_fn(opts.strategy)
        self.info = DiagInfo()
        self.sweep_info = DiagInfo()

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
        if opts.variant in ("2F", "3F"):
            if blocked:
                return full_block(R, Jq, part, tol, accumulate_V=True)
            return jacobi_diagonalize(R, Jq, tol, accumulate=True)
        if first_step:
            if blocked:
                return block_oriented(R, Jq, part, tol.with_max_sweeps(1), accumulate_V=True)
            return jacobi_diagonalize(R, Jq, tol.with_max_sweeps(1), accumulate=True)
        if blocked:
            return off_diagonal_pass(R, Jq, n_i, opts.inner_nt, tol, accumulate_V=True)
        return cross_pass(R, Jq, n_i, tol)

    # -- one step ----------------------------------------------------------

    def _step(self, first_step):
        mi = self.blocks[self.state.i_blk]
        mj = self.blocks[self.state.j_blk]
        lam = (mi.D_seg, mj.D_seg) if self.opts.variant in ("2F", "3F") else None
        sub = pivot_step(mi.G_block, mj.G_block, np.concatenate([mi.J_seg, mj.J_seg]),
                         lambda R, J, n_i: self._local_transform(R, J, n_i, first_step),
                         lam)
        mi.D_seg = column_norms_squared(mi.G_block)
        mj.D_seg = column_norms_squared(mj.G_block)
        self.sweep_info.absorb(sub)

    def _exchange(self, plan):
        out = self.blocks.pop(plan.snd_blk)
        out.index = plan.snd_blk
        self.ring.send(self.rank, plan.snd_rnk, out)
        msg = self.ring.recv(plan.rcv_rnk, self.rank)
        if msg.index != plan.rcv_blk:
            raise HJacobiError(
                f"rank {self.rank}: expected block {plan.rcv_blk}, got {msg.index}"
            )
        self.blocks[msg.index] = msg

    # -- main loop ---------------------------------------------------------

    def run(self):
        opts = self.opts
        steps = steps_per_sweep(opts.strategy, opts.p)
        for sweep in range(1, opts.tol.max_sweeps + 1):
            self.state.nsweep = sweep
            self.sweep_info = DiagInfo()
            if opts.variant in ("2F", "3F"):
                self._diag_preprocess()
            for step in range(steps):
                self._step(first_step=(step == 0))
                self._exchange(self.stepper(self.state, opts.p))
            self.info.sweeps = sweep
            self.info.absorb(self.sweep_info)
            total_rot, _total_big = exchange_convergence(
                self.ring, self.rank, (self.sweep_info.rotations, self.sweep_info.big_rotations)
            )
            if total_rot == 0:
                self.info.converged = True
                break

    def run_guarded(self):
        try:
            self.run()
        except Exception as exc:  # noqa: BLE001 - re-raised by parallel_jacobi
            self.errors.append(exc)
            self.ring.abort()


def parallel_jacobi(G, signs, opts):
    """Diagonalize (A = G^* G, J) with ``opts.p`` ring workers, running the
    ring variant ``opts.variant`` of a SolveOptions; returns (G, info).

    Like the other drivers it overwrites G's columns in place: each worker
    updates views of G's block-columns, so G keeps its column order, and
    eigenpairs are read off it with ``extract_eigen``.  An exception raised
    in a worker is re-raised as it is, once its peers have stopped.
    """
    if opts.variant not in VARIANTS:
        raise ValueError(f"parallel_jacobi runs the ring variants {VARIANTS}, "
                         f"not {opts.variant!r}")
    n = G.shape[1]
    p = opts.p
    nbl = 2 * p
    if nbl > n:
        raise ValueError(f"need at least {nbl} columns for p={p} workers")
    part = uniform_partition(n, nbl)
    blocks_by_rank = [dict() for _ in range(p)]
    for ell in range(nbl):
        cols = part.columns(ell)
        owner = ell if ell < p else nbl - 1 - ell
        blocks_by_rank[owner][ell + 1] = BlockMessage(
            index=ell + 1,
            G_block=G[:, cols],
            J_seg=signs[cols].copy(),
            D_seg=column_norms_squared(G[:, cols]),
        )
    ring = Ring(p)
    errors = []
    workers = [_Worker(q, opts, ring, blocks_by_rank[q], errors) for q in range(p)]
    if p == 1:
        workers[0].run()
    else:
        threads = [
            threading.Thread(target=w.run_guarded, name=f"hjac-worker-{w.rank}")
            for w in workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
    info = DiagInfo(sweeps=max(w.info.sweeps for w in workers),
                    converged=all(w.info.converged for w in workers))
    for w in workers:
        info.absorb(w.info)
    return G, info
