"""Per-layer tracing by wrapping hjacobi's functions from the outside.

``Tracer.installed()`` replaces each function in ``LAYERS`` with a wrapper
that records a span (layer, thread, start, end, parent) and the counts its
``count`` hook computes from the call's arguments and result; leaving the
block puts the originals back.  Nothing inside ``src/hjacobi`` is changed.
A function is wrapped in each namespace that calls it, so that the same
function can belong to different layers depending on its caller (``gram``
computes the kappa diagnostic in ``solve`` and the pivot Gram in
``blocking``/``parallel``).

A layer's self time is its spans' durations minus the time their child
spans on the same thread cover.  On the main thread the self times of all
layers add up to the traced solves' wall time; ring workers run on their own
threads, whose spans are aggregated separately (busy, wait, GIL).
"""

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

from hjacobi import _kernels, blocking, parallel, rotations, solve
from hjacobi.errors import DefinitenessError

ROOT_LAYER = "solve.checks"
# Worker-thread layers whose top-level spans count as a worker's busy time.
COMPUTE_LAYERS = ("ring.step",)


def _kernel_counts(args, result, exc):
    if exc is not None:
        return None
    G, _signs, _D, W, n_i, n_j, diag_bl = args[:7]
    nrot, nbig, _max_t, fail_r, fail_s = result
    if fail_r < 0:
        pairs = n_i * (n_i - 1) // 2 if diag_bl else n_i * n_j
    elif diag_bl:
        pairs = fail_s * (fail_s - 1) // 2 + fail_r + 1
    else:
        pairs = (fail_s - n_i) * n_i + fail_r + 1
    m, isz = G.shape[0], G.itemsize
    # each visited pair reads two columns (vdot); each rotation reads and
    # writes two columns of G and of the accumulator W
    nbytes = pairs * 2 * m * isz + nrot * 4 * (m + W.shape[0]) * isz
    return {"kernel.pairs": pairs, "kernel.rotations": nrot,
            "kernel.big_rotations": nbig, "kernel.bytes_computed": nbytes}


def _gemm_counts(args, _result, exc):
    if exc is not None:
        return None
    Gp = args[0]
    m, k = Gp.shape
    per_fma = 8 if Gp.dtype.kind == "c" else 2
    return {"blocking.gemm_flops_computed": per_fma * m * k * k}


def _send_counts(args, _result, exc):
    if exc is not None:
        return None
    obj = args[3]
    if isinstance(obj, parallel.BlockMessage):
        nbytes = obj.G_block.nbytes + obj.J_seg.nbytes + obj.D_seg.nbytes
    else:
        nbytes = 8 * len(obj)
    return {"ring.messages": 1, "ring.bytes_computed": nbytes}


def _fallback_counts(_args, _result, exc):
    # the caller then factors the assembled pivot densely
    return {"blocking.chol_fallbacks": 1} if isinstance(exc, DefinitenessError) else None


def _one(key):
    return lambda _args, _result, _exc: {key: 1}


# (owner, attribute, layer, count hook or None)
LAYERS = [
    (solve, "factorize_hermitian_indefinite", "solve.factor", None),
    (solve, "order_by_inertia", "solve.factor", None),
    (solve, "scaled_condition", "solve.kappa", None),
    (solve, "gram", "solve.kappa", None),
    (solve, "extract_eigen", "solve.extract", None),
    (solve, "run_solver", "solve.driver", None),
    (solve, "jacobi_diagonalize", "rotations", None),
    (solve, "full_block", "blocking.self", None),
    (solve, "block_oriented", "blocking.self", None),
    (solve, "parallel_jacobi", "ring.self", None),
    (rotations, "jacobi_cycle", "rotations", None),
    (_kernels, "sweep_pairs", "kernel", _kernel_counts),
    (blocking, "jacobi_diagonalize", "rotations", None),
    (blocking, "jacobi_cycle", "rotations", None),
    (blocking, "gram", "blocking.gram", None),
    (blocking, "chol_upper", "blocking.chol", None),
    (blocking, "structured_cholesky", "blocking.chol", _fallback_counts),
    (blocking, "update_block_columns", "blocking.gemm", _gemm_counts),
    (blocking, "_local_pivot", "blocking.self", _one("blocking.pivots")),
    (blocking, "_diag_block_pass", "blocking.self", None),
    (parallel, "jacobi_diagonalize", "rotations", None),
    (parallel, "jacobi_cycle", "rotations", None),
    (parallel, "gram", "blocking.gram", None),
    (parallel, "chol_upper", "blocking.chol", None),
    (parallel, "structured_cholesky", "blocking.chol", _fallback_counts),
    (parallel, "full_block", "blocking.self", None),
    (parallel, "block_oriented", "blocking.self", None),
    (parallel, "off_diagonal_pass", "blocking.self", None),
    (parallel, "exchange_convergence", "ring.allreduce", None),
    (parallel._Worker, "_step", "ring.step", _one("ring.steps")),
    (parallel._Worker, "_diag_preprocess", "ring.step", None),
    (parallel._Worker, "_local_transform", "ring.step", None),
    (parallel._Worker, "_exchange", "ring.exchange", None),
    (parallel.Ring, "send", "ring.exchange", _send_counts),
    (parallel.Ring, "recv", "ring.recv", None),
]


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.main = threading.get_ident()
        self.self_s = defaultdict(float)      # layer -> self seconds, all threads
        self.total_s = defaultdict(float)     # layer -> summed span durations
        self.calls = Counter()                # layer -> spans
        self.counts = Counter()               # count hooks
        self.main_self_s = 0.0                # self seconds on the main thread
        self.busy_s = defaultdict(float)      # worker thread -> compute seconds
        self.gil_wait_s = 0.0
        self.spans = []                       # (id, layer, thread, start, end, parent)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, next(self._ids)]  # child seconds, span id
            stack.append(frame)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                self._record(layer, frame, parent, stack, t0, t1, cpu1 - cpu0,
                             count(args, result, exc) if count else None)
        return traced

    def _record(self, layer, frame, parent, stack, t0, t1, cpu, counted):
        dur = t1 - t0
        own = dur - frame[0]
        thread = threading.get_ident()
        with self._lock:
            if parent is not None:
                parent[0] += dur
            self.self_s[layer] += own
            self.total_s[layer] += dur
            self.calls[layer] += 1
            if counted:
                self.counts.update(counted)
            if thread == self.main:
                self.main_self_s += own
            elif not stack and layer in COMPUTE_LAYERS:
                self.busy_s[thread] += dur
                self.gil_wait_s += dur - cpu
            self.spans.append((frame[1], layer, thread, t0, t1,
                               parent[1] if parent else None))

    def root(self, fn):
        """The bench's own span around one ``solve_hermitian`` call."""
        return self.wrap(ROOT_LAYER, fn)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, count in LAYERS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(layer, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
