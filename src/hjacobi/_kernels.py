"""Hot inner loop of the one-sided J-Jacobi sweep, and the rotation it applies.

A pass rotates one column-major array M: its top m rows are the factor G
whose columns are orthogonalized, and the rows below are the accumulator W
of the J-unitary transformation, which the blocked and ring variants apply
back to their block columns (there are no such rows for the non-blocked
solver).  Gram entries are read from M[:m], and a rotation updates whole
columns of M.  ``sweep_pairs`` is the entry point: it stacks [G; W] into M,
runs the pass's body and writes both parts back.  M may hold several
member factors of one width side by side (the disjoint block pivots of a
blocked round); each member, starting at its column offset, gets its own
pass and its own counters.

The body is a property of the platform, not of the pass (``pass_kernel``).
With numba, every pass runs ``_sweep_pairs`` compiled as
``sweep_pairs_jit``: it takes the pairs one at a time, column-cyclically,
member after member, and rotates a pair's two columns of M in place by a
2-D product with its real ``rotation_matrices``, after scaling the r column
by the pair's phase.  Without numba, every pass runs ``sweep_rounds``: it
takes them as rounds of disjoint pairs (``pass_rounds``: round-robin steps
for a diagonal pass, shifted diagonals for a cross pass; ``member_rounds``:
round k of every member at once), in round order (``round_panels``): the
pass's columns travel through the pass in buffers whose layouts put each
round's pairs in one contiguous block.  A round takes its block from the
buffer the last rotating round wrote (from M until one has) by one
``take`` and rotates it into the other buffer; D moves on by one ``take``
per uncut round, and both go back into M and D once, at the end of the
pass.  A round makes two BLAS calls on its block: one ``np.vecdot`` for
the Gram entries and one batched 2x2 matmul of its ``rotation_matrices``
for the rotation.  Complex rounds run in real arithmetic too: the phases
scale the r columns in place first, and the real matrices multiply the
block's float64 view.  What does not change during a pass is set up at
most once: the layouts and the takes' indices are cached per pass shape;
the buffers and the views into them (a ``_Workspace``) are kept across
passes in ``WORKSPACES``, one per round table, dtype, row count and m, up
to ``WORKSPACE_BYTES`` of buffers in all, the least recently used dropped
first; a pass pops its workspace at its start and puts it back at its end,
so no two passes share one, and one too large to keep is made and dropped
per pass; the pairs' kinds are found at a pass's first rotating round.
Either body treats each member as it would alone, so stacking never
changes a member's bits.

``plane_rotation`` is the only copy of the rotation's parameters, and
``rotation_matrices`` of its 2x2 matrix, for scalars and for arrays of
disjoint pairs alike; ``rotate_columns`` applies the phase and the
matrices to pairs of columns for the factorization's 2x2 eigensolve.
"""

import functools
import threading
from typing import NamedTuple

import numpy as np

from ._accel import NUMBA_ENABLED, jit_kernel, jitable


TRIG = -1.0  # plane_rotation's hyp of a trigonometric pair; +1.0 is hyperbolic
# A numpy bool times a Python float takes ~2 us, times a numpy float ~0.15 us;
# a numpy bool divided by a float takes ~1.5 us, and a bool array divided by
# a float array costs a cast
_ONE = np.float64(1.0)
_TWO = np.float64(2.0)


@jitable
def pair_kind(same_sign):
    """``plane_rotation``'s kind of a column pair: TRIG = -1.0 if its J signs
    are equal (same_sign), +1.0 if they are opposite; scalar or array."""
    return 1.0 - _TWO * same_sign


@jitable
def plane_rotation(d_rr, d_ss, eta, hyp):
    """Rotation annihilating the off-diagonal of a positive definite 2x2 pivot.

    The pivot has diagonal (d_rr, d_ss) and off-diagonal eta * phase, with
    eta real and phase unit-modulus; hyp is the pair's kind (``pair_kind``).
    Returns (t, cs, sn), all real, taking the minimal-|t| root:

    * trigonometric pair (equal J signs, hyp = -1):  new_r = cs*f - sn*g_s,
      new_s = sn*f + cs*g_s, with f = phase*g_r, cs^2 + sn^2 = 1;
    * hyperbolic pair (opposite J signs, hyp = +1):  new_r = cs*f + sn*g_s,
      new_s = sn*f + cs*g_s, with cs^2 - sn^2 = 1 (cs = cosh, sn = sinh).

    Both make the 2x2 transformation J-unitary for the pivot's sign pair; the
    diagonal becomes (d_rr + hyp*t*eta, d_ss + t*eta).  A hyperbolic pivot
    with no inner root returns cs == 0.0.

    The arithmetic is branch-free, so the arguments may be scalars or arrays
    of disjoint pairs alike; theta = (d_ss - d_rr)/(2 eta) for a
    trigonometric pair and -(d_rr + d_ss)/(2 eta) for a hyperbolic one come
    out of one expression, bit for bit.  t takes the sign of theta, and a
    theta of -0.0 (d_rr == d_ss) counts as +.
    """
    theta = (hyp * d_ss + d_rr) / (-2.0 * eta)
    disc = theta * theta - hyp
    root = _ONE * (disc > 0.0)  # 0.0 only for a hyperbolic pivot without inner root
    # theta + sign(theta) sqrt|disc| is sign(theta) (|theta| + sqrt|disc|)
    # exactly; theta + 0.0 turns -0.0 into +0.0
    t = root / (theta + np.copysign(np.sqrt(abs(disc)), theta + 0.0))
    cs = root / np.sqrt(1.0 - hyp * t * t)
    return t, cs, cs * t


@jitable
def rotation_matrices(cs, sn, hyp, Q):
    """Fill Q, of shape (..., 2, 2), with the real matrices of
    ``plane_rotation``'s transformation, [[cs, hyp*sn], [sn, cs]]: a pair
    whose columns F = phase*x_r and x_s are the rows of [F; x_s] becomes
    Q @ [F; x_s].

    cs, sn and hyp are scalars, or arrays of Q's leading shape.  The only
    copy of the matrix's entries.
    """
    Q[..., 0, 0] = cs
    Q[..., 1, 0] = sn
    Q[..., 0, 1] = hyp * sn
    Q[..., 1, 1] = cs


def rotate_columns(P, phase, cs, sn, hyp, out):
    """Apply ``plane_rotation``'s transformation to the column pairs in P,
    writing the rotated pairs into ``out`` (P's shape).

    P is one pair (2, rows), or a stack (k, 2, rows) of k pairs with rows of
    unit stride: P[j, 0] is pair j's r column and P[j, 1] its s column;
    phase, cs, sn and hyp are scalars, or length-k arrays.  P's r rows are
    scaled in place to F = phase * x_r (phase None: not at all), and the
    pair becomes [cs*F + hyp*sn*x_s, sn*F + cs*x_s]: one real matmul by
    ``rotation_matrices`` on P's float64 view, a BLAS product per pair.
    out must not overlap P.
    """
    if phase is not None:
        P[..., 0, :] *= np.asarray(phase)[..., None]
    Q = np.empty(np.shape(cs) + (2, 2))
    rotation_matrices(cs, sn, hyp, Q)
    if P.dtype.kind == "c":  # real and imaginary parts side by side
        P, out = P.view(np.float64), out.view(np.float64)
    np.matmul(Q, P, out)


def signed_modulus(a, aa):
    """``plane_rotation``'s eta of Gram entries a (an array) with moduli aa:
    aa where a.real >= 0.0, -0.0 included, else -aa, as ``_sweep_pairs``
    takes it."""
    return np.copysign(aa, a.real + 0.0)  # + 0.0 turns -0.0 into +0.0


def _sweep_pairs(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """Run one annihilation pass over column pairs of G = M[:m], for each
    member factor in turn.

    Member b's columns start at offsets[b]; relative to that:
    diag_bl=True: visit all pairs (r, s), r < s < n_i, column-cyclically.
    diag_bl=False: visit the cross pairs r < n_i <= s < n_i + n_j.

    Each rotation updates both columns of all of M in place, so the rows
    below m (the accumulator W, possibly none) are rotated with G; D caches
    G's Gram diagonal and is updated incrementally.

    Adds member b's (rotations, big_rotations, max_abs_t) to stats[b], where
    a big rotation has |t| > quad_tol.  Returns (fail_r, fail_s): -1 on
    success, or the columns of M at which a non-positive-definite pivot was
    detected (the pass stops there).
    """
    if diag_bl:
        s_lo = 1
        s_hi = n_i
    else:
        s_lo = n_i
        s_hi = n_i + n_j
    Q = np.empty((2, 2), dtype=M.dtype)
    for b in range(offsets.shape[0]):
        o = offsets[b]
        nrot = 0
        nbig = 0
        max_t = 0.0
        fail_r = -1
        fail_s = -1
        for s in range(o + s_lo, o + s_hi):
            if diag_bl:
                r_hi = s
            else:
                r_hi = o + n_i
            for r in range(o, r_hi):
                a = np.vdot(M[:m, r], M[:m, s])
                d_rr = D[r]
                d_ss = D[s]
                aa = abs(a)
                if aa <= orth_tol * np.sqrt(d_rr * d_ss):
                    continue
                if aa * aa >= d_rr * d_ss:
                    fail_r = r
                    fail_s = s
                    break
                eta = aa if a.real >= 0.0 else -aa
                hyp = pair_kind(signs[r] == signs[s])
                t, cs, sn = plane_rotation(d_rr, d_ss, eta, hyp)
                if cs == 0.0:
                    fail_r = r
                    fail_s = s
                    break
                D[r] = d_rr + hyp * t * eta
                D[s] = d_ss + t * eta
                rotation_matrices(cs, sn, hyp, Q)
                pair = M[:, r:s + 1:s - r].T  # columns r and s as rows, a view
                pair[0] *= a / eta
                pair[...] = Q @ pair  # rotate_columns by a 2-D product, which numba compiles
                nrot += 1
                at = abs(t)
                if at > max_t:
                    max_t = at
                if at > quad_tol:
                    nbig += 1
            if fail_r >= 0:
                break
        stats[b, 0] += nrot
        stats[b, 1] += nbig
        stats[b, 2] = max(stats[b, 2], max_t)
        if fail_r >= 0:
            return fail_r, fail_s
    return -1, -1


# Rounds are cut at 64 pairs.  Where a round is cut changes no bit.  One
# pass over a random 256 x 256 factor (128-pair rounds) ran uncut at 0.92x
# real and 0.99x complex; one over 512 x 512 (256-pair rounds) ran cut at
# 128 pairs at 1.10x real and complex, and uncut at 1.25-1.36x real and
# 1.18x complex (interpreted, one BLAS thread, 2-core Xeon with 2 MB of L2
# per core, medians of 9 passes alternating in one process).
ROUND_MAX_PAIRS = 64


def _frozen(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _cut(rounds):
    """Rounds of more than ROUND_MAX_PAIRS pairs cut into consecutive ones."""
    return tuple(tuple(_frozen(x[lo:lo + ROUND_MAX_PAIRS]) for x in rnd)
                 for rnd in rounds for lo in range(0, rnd[0].size, ROUND_MAX_PAIRS))


def _full_rounds(n_i, n_j, diag_bl):
    """``pass_rounds`` before the cut."""
    rounds = []
    if diag_bl:
        q = n_i - 1 + n_i % 2
        r = np.arange(q, dtype=np.intp)
        for k in range(q):
            s = (k - r) % q
            s[r == s] = q
            keep = (r < s) & (s < n_i)
            rounds.append((r[keep], s[keep]))
    else:
        x = np.arange(min(n_i, n_j), dtype=np.intp)
        for k in range(max(n_i, n_j)):
            rounds.append((x, n_i + (x + k) % n_j) if n_i <= n_j else ((x + k) % n_i, n_i + x))
    return rounds


@functools.lru_cache(maxsize=64)
def pass_rounds(n_i, n_j, diag_bl):
    """The pairs of one pass as rounds of disjoint pairs, each pair once.

    Returns a tuple of read-only (R, S) index arrays, R < S elementwise.
    diag_bl=True: all pairs r < s < n_i by the circle method, n_i - 1 rounds
    (n_i for odd n_i).  Columns 0 .. q-1 (q = n_i - 1, or n_i for odd n_i)
    sit on a circle: round k pairs r with (k - r) mod q, and the one column
    left over with column q, a padding column for odd n_i whose pair is
    dropped.  These are the steps of the ring's modified round-robin
    (``strategies.round_robin_step``) with one column per block; in this
    order a ``seq`` solve needs about as many rotations as column-cyclically.
    diag_bl=False: the cross pairs r < n_i <= s < n_i + n_j as
    max(n_i, n_j) shifted diagonals of the n_i x n_j cross block.  Rounds of
    more than ROUND_MAX_PAIRS pairs are cut into consecutive rounds of at
    most that many.
    """
    return _cut(_full_rounds(n_i, n_j, diag_bl))


def _member_groups(n_i, n_j, diag_bl, offsets):
    """``member_rounds`` grouped by the uncut round of ``pass_rounds`` they
    come from, empty groups dropped: the rounds of one group hold disjoint
    pairs, so they may be applied in any order."""
    own = np.arange(len(offsets), dtype=np.intp)
    off = np.asarray(offsets, dtype=np.intp)
    groups = []
    for full in _full_rounds(n_i, n_j, diag_bl):
        group = []
        for R, S in _cut([full]):
            shift = np.repeat(off, R.size)
            group += _cut([(np.tile(R, off.size) + shift, np.tile(S, off.size) + shift,
                            np.repeat(own, R.size))])
        if group:
            groups.append(group)
    return groups


@functools.lru_cache(maxsize=256)
def member_rounds(n_i, n_j, diag_bl, offsets):
    """``pass_rounds`` of member factors side by side, member b's columns
    starting at offsets[b] (a tuple): round k holds every member's round k,
    its indices offset.  Returns read-only (R, S, owner) arrays, owner
    giving each pair's member as a position in offsets; rounds of more than
    ROUND_MAX_PAIRS pairs are cut."""
    return tuple(rnd for group in _member_groups(n_i, n_j, diag_bl, offsets) for rnd in group)


class RoundTable(NamedTuple):
    """A pass's ``member_rounds`` in round order (``round_panels``)."""

    groups: tuple  # per group: (layout, step, span, rounds)
    blocks: tuple  # the distinct (lo, k) of the rounds' blocks
    R: np.ndarray  # every round's R and S, concatenated in pass order
    S: np.ndarray
    width: int  # the most pairs of a round


@functools.lru_cache(maxsize=256)
def round_panels(n_i, n_j, diag_bl, offsets):
    """``member_rounds`` in round order, as ``sweep_rounds`` takes them.

    The rounds cut from one round of ``pass_rounds`` before its cut (for
    all members) form a group; their pairs are disjoint.  Each group has a
    layout, an order of the pass's N columns (every column a round of the
    pass touches), in which its rounds hold consecutive blocks from row 0:
    round i rows lo_i .. lo_i + 2k_i, its k_i pairs' r columns, then their
    s columns.  These span rows are followed by the columns the group
    leaves alone, in ascending order.  So a cut round is one block of its
    group's layout, and every pass takes the same path.

    Returns a ``RoundTable``.  Per group it holds (layout, step, span,
    rounds): the layout is, row for row, step's rows of the previous
    group's layout (M's columns for the first group), and span is the
    number of its rows that its rounds hold.  rounds holds (block, own, lo)
    per round: block indexes ``blocks``, the distinct (lo_i, k_i); own
    gives the pairs' members; lo is the round's first pair in R and S.  All
    arrays are read-only.
    """
    groups = _member_groups(n_i, n_j, diag_bl, offsets)
    rounds = [rnd for group in groups for rnd in group]
    none = [np.zeros(0, dtype=np.intp)]
    R = _frozen(np.concatenate(none + [R for R, _, _ in rounds]))
    S = _frozen(np.concatenate(none + [S for _, S, _ in rounds]))
    used = np.zeros(max(R.max(initial=-1), S.max(initial=-1)) + 1, dtype=bool)
    used[R] = True
    used[S] = True
    where = np.empty(used.size, dtype=np.intp)  # a column's row in a layout
    blocks = {}
    table = []
    lo = 0
    step = None
    for group in groups:
        head = np.concatenate([x for R_g, S_g, _ in group for x in (R_g, S_g)])
        idle = used.copy()
        idle[head] = False
        layout = _frozen(np.concatenate([head, np.flatnonzero(idle)]))
        step = layout if step is None else _frozen(where[layout])
        where[layout] = np.arange(layout.size)
        entries = []
        span = 0
        for _, _, own in group:
            k = own.size
            entries.append((blocks.setdefault((span, k), len(blocks)), own, lo))
            lo += k
            span += 2 * k
        table.append((layout, step, span, tuple(entries)))
    return RoundTable(tuple(table), tuple(blocks), R, S, max((k for _, k in blocks), default=0))


def _pairs(PT):
    """The (k, 2, rows) view of pairs of a (2k, rows) panel PT whose rows j
    and k + j are pair j's columns; of its float64 view if complex."""
    k = PT.shape[0] // 2
    P = PT.reshape(2, k, PT.shape[1]).transpose(1, 0, 2)
    return P.view(np.float64) if P.dtype.kind == "c" else P


class _Workspace:
    """The buffers of a pass by ``sweep_rounds`` and the views of every
    block of them, for the passes of one RoundTable, dtype, row count and m:
    two buffers Y for the pass's columns, two panels, a Q buffer for the
    rotation matrices and two buffers for D.  ``key`` names what it serves;
    it holds its table, so no other table can take the table's ``id`` while
    it lives."""

    def __init__(self, key, table, dtype, rows, m):
        N, width = table.groups[0][0].size, table.width
        self.key, self.table = key, table
        # the columns in the layout of a group that rotated
        self.Y = Y = np.empty((2, N, rows), dtype=dtype)
        P = np.empty((2, 2 * width, rows), dtype=dtype)  # a round's block as taken, compacted
        self.dl = dl = np.empty((2, N))  # D in a group's layout, by the parity of its position
        self.Q = Q = np.empty((width, 2, 2))
        self.P1 = P[1]
        self.nbytes = Y.nbytes + P.nbytes + dl.nbytes + Q.nbytes
        self.panels = []
        for row, k in table.blocks:
            PT = P[0][:2 * k]
            self.panels.append((row, k, PT, PT[:k, :m], PT[k:, :m], _pairs(PT), Q[:k]))
        self.placed = ([], [])  # per buffer, per block: the block in Y
        self.held = ([], [])  # and in dl
        for b in (0, 1):
            for row, k in table.blocks:
                o, d_blk = Y[b][row:row + 2 * k], dl[b][row:row + 2 * k]
                self.placed[b].append((o, _pairs(o)))
                self.held[b].append((d_blk, d_blk[:k], d_blk[k:]))


class WorkspacePool:
    """Workspaces of finished passes, one per key, kept for the next pass
    with the same key while their buffers hold at most ``limit`` bytes in
    all; the least recently put back goes first.  A pass pops its key's
    workspace at its start and puts it back at its end, so two passes never
    hold the same one, and a lock guards the pool itself."""

    def __init__(self, limit):
        self.limit = limit
        self.nbytes = 0  # of the buffers kept
        self._kept = {}  # key -> workspace, least recently put back first
        self._lock = threading.Lock()

    def pop(self, key):
        """The workspace kept for ``key``, taken out of the pool; None if
        there is none."""
        with self._lock:
            ws = self._kept.pop(key, None)
            if ws is not None:
                self.nbytes -= ws.nbytes
            return ws

    def put(self, ws):
        """Keep ``ws`` for its key, unless its buffers alone exceed the
        limit or its key has one already; drop the least recently put back
        until the limit holds."""
        with self._lock:
            if ws.nbytes > self.limit or ws.key in self._kept:
                return
            self._kept[ws.key] = ws
            self.nbytes += ws.nbytes
            while self.nbytes > self.limit:
                self.nbytes -= self._kept.pop(next(iter(self._kept))).nbytes

    def clear(self):
        with self._lock:
            self._kept.clear()
            self.nbytes = 0


# The workspaces of a seqB, 2B or 3B solve at n = 256 take 1.2-3.2 MB, and
# of a seqB or 3B solve at n = 512 2.0-4.0 MB.  A pass too large to keep is
# long enough not to notice its allocation: a seq solve at n = 512, whose
# 5.3 MB workspace is not kept, takes about 12,400 minor page faults in 2 s.
WORKSPACE_BYTES = 4 << 20
WORKSPACES = WorkspacePool(WORKSPACE_BYTES)


def sweep_rounds(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """``_sweep_pairs`` with the pass's pairs taken as ``member_rounds``, in
    round order (``round_panels``); offsets is a tuple of ints or an intp
    array.

    The pass pops the workspace (``_Workspace``: two buffers Y for the
    pass's columns, two panels, a Q buffer for the rotation matrices, two
    buffers for D, and the views of every block of them) of its round table,
    dtype, row count and m from ``WORKSPACES`` at its start, builds one if
    there is none, and puts it back at its end; the pairs' kinds are set up
    at its first round that rotates.  Every buffer is written before it is
    read, so what a workspace held before changes no bit.  A group first
    moves D into its layout by one ``take``.  One round then makes only the
    calls its arithmetic needs, on all the members at once: one ``take`` of
    its block into a panel from where the previous layout's columns are (M
    until a group rotates, then the Y it wrote), the Gram entries from the
    panel's first m columns by one ``np.vecdot`` (which conjugates the r
    columns), the skip test, ``plane_rotation`` on arrays, the test for a
    pivot that is not positive definite, D's entries updated where they
    lie, the phases of complex pairs on the panel's r rows,
    ``rotation_matrices`` into Q, and one real batched 2x2 matmul into the
    round's block of the other Y.  A round with orthogonal pairs copies the
    panel there and rotates the rest compacted.  A group that rotates
    takes the rest of its layout there too; one that rotates nothing moves
    no column.  The pass ends with one scatter of the Y last written back
    into M and of D; a round holding a pivot that is not positive definite
    ends it too, unapplied, and its first such pair is returned.  Each
    operation, BLAS products included, is done per pair, so a member gets
    the bits it gets alone.  M is column-major.
    """
    if type(offsets) is not tuple:
        offsets = tuple(offsets.tolist())
    table = round_panels(n_i, n_j, diag_bl, offsets)
    if not table.groups:
        return -1, -1
    key = (id(table), M.dtype, M.shape[0], m)
    ws = WORKSPACES.pop(key) or _Workspace(key, table, M.dtype, M.shape[0], m)
    Y, dl, Q, panels, placed, held = ws.Y, ws.dl, ws.Q, ws.panels, ws.placed, ws.held
    real = M.dtype.kind != "c"
    N = dl.shape[1]

    kinds = None
    ts = []
    owners = []
    fail = (-1, -1)
    src, d_src = M.T, D  # row c of M.T is column c of M, contiguous
    via = None  # src's rows that hold the previous group's layout; None: row for row
    q = 0  # the Y that a group which rotates writes: not src
    for g, (layout, step, span, rounds) in enumerate(table.groups):
        p = g % 2
        d_src.take(step, out=dl[p], mode="clip")
        d_src = dl[p]
        here = step if via is None else via[step]  # src's rows that hold this layout
        upto = span  # the rows of the layout its rounds write, if they rotate
        quiet = []  # rounds that rotate nothing
        moved = False
        for block, own, lo in rounds:
            row, k, blk, g_r, g_s, pairs, Qk = panels[block]
            o, o_pairs = placed[q][block]
            d_blk, d_rr, d_ss = held[p][block]
            src.take(here[row:row + 2 * k], axis=0, out=blk, mode="clip")
            a = np.vecdot(g_r, g_s)  # conjugates the r columns
            aa = np.abs(a) if real else np.hypot(a.real, a.imag)  # as abs() of a complex scalar
            dd = d_rr * d_ss
            skip = aa <= orth_tol * np.sqrt(dd)  # what _sweep_pairs skips
            nskip = np.count_nonzero(skip)
            if nskip == k:
                quiet.append((row, k))
                continue
            if kinds is None:
                kinds = pair_kind(signs[table.R] == signs[table.S])
            hyp = kinds[lo:lo + k]
            if nskip:
                o[...] = blk  # the orthogonal pairs move on as they are
                act = np.flatnonzero(~skip)
                act2 = np.concatenate([act, act + k])
                own, a, aa, dd, hyp, d = own[act], a[act], aa[act], dd[act], hyp[act], d_blk[act2]
                k -= nskip
                d_rr, d_ss = d[:k], d[k:]
                rot = blk[:2 * k]  # free once copied on
                blk = blk.take(act2, axis=0, out=ws.P1[:2 * k], mode="clip")  # compacted
                pairs, o_pairs, Qk = _pairs(blk), _pairs(rot), Q[:k]
            eta = a if real else signed_modulus(a, aa)  # real: phase 1.0
            t, cs, sn = plane_rotation(d_rr, d_ss, eta, hyp)
            if np.count_nonzero(aa * aa >= dd) or np.count_nonzero(cs) < k:
                j = np.argmax((aa * aa >= dd) | (cs == 0.0))
                upto, k = table.blocks[block]
                if nskip:
                    j = act[j]
                fail = (int(layout[upto + j]), int(layout[upto + k + j]))
                break
            te = t * eta
            d_rr += hyp * te
            d_ss += te
            if not real:  # the phases, on the r columns' contiguous block
                blk[:k] *= (a / eta)[:, None]
            rotation_matrices(cs, sn, hyp, Qk)
            np.matmul(Qk, pairs, o_pairs)
            if nskip:
                d_blk[act2] = d
                o[act2] = rot
            moved = True
            ts.append(t)
            owners.append(own)
        if moved:  # the layout's other columns follow, unrotated
            for row, k in quiet:
                src.take(here[row:row + 2 * k], axis=0, out=Y[q][row:row + 2 * k], mode="clip")
            if upto < N:
                src.take(here[upto:], axis=0, out=Y[q][upto:], mode="clip")
            src, src_layout, via, q = Y[q], layout, None, 1 - q
        else:
            via = here
        if fail[0] >= 0:
            break
    if ts:  # else M and D are as they were
        M.T[src_layout] = src
        D[layout] = dl[p]
        # the members' counters, once per pass
        at = np.abs(np.concatenate(ts))
        own = np.concatenate(owners)
        counts = stats.T
        counts[0] += np.bincount(own, None, len(stats))
        counts[1] += np.bincount(own, at > quad_tol, len(stats))
        np.maximum.at(counts[2], own, at)
    WORKSPACES.put(ws)
    return fail


sweep_pairs_jit = jit_kernel(_sweep_pairs) if NUMBA_ENABLED else None


def pass_kernel():
    """The body of every pass: the compiled ``sweep_pairs_jit`` when numba
    is importable, else ``sweep_rounds``."""
    return sweep_rounds if sweep_pairs_jit is None else sweep_pairs_jit


KERNEL = "interpreted" if sweep_pairs_jit is None else "numba"  # which body runs, for records


ONE_MEMBER = _frozen(np.zeros(1, dtype=np.intp))  # offsets of a lone factor


def sweep_pairs(G, signs, D, W, n_i, n_j, diag_bl, orth_tol, quad_tol,
                offsets=ONE_MEMBER, stats=None):
    """One annihilation pass over column pairs of G by ``pass_kernel``'s body,
    with the J-unitary transformation accumulated into W.

    G may hold several member factors side by side, member b's columns
    starting at offsets[b] (a tuple of ints or an intp array; by default one
    member at 0), each with its own pass over its n_i (+ n_j) columns.
    ``stats``, when given, is a zeroed float array of one row per member
    that receives the member's (rotations, big_rotations, max_abs_t).

    G and W (with G's columns and dtype) are rotated in place as one stacked
    column-major array [G; W], so that each rotation is one column update.
    A W with zero rows accumulates nothing and the body runs on G itself.
    Otherwise both parts are written back however the pass ends, so a pass
    stopped at a non-positive-definite pivot leaves G, W and D as rotated so
    far.  Returns the totals over the members (rotations, big_rotations,
    max_abs_t) and the columns (fail_r, fail_s) of G at which the pass
    stopped, -1 if it did not.
    """
    if stats is None:
        stats = np.zeros((len(offsets), 3))
    body = pass_kernel()
    if body is not sweep_rounds:
        offsets = np.asarray(offsets, dtype=np.intp)
    m = G.shape[0]
    if W.shape[0] == 0:
        fail_r, fail_s = body(G, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats)
    else:
        M = np.empty((m + W.shape[0], G.shape[1]), dtype=G.dtype, order="F")
        M[:m] = G
        M[m:] = W
        try:
            fail_r, fail_s = body(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol,
                                  offsets, stats)
        finally:
            G[...] = M[:m]
            W[...] = M[m:]
    counts = stats.tolist()
    return (int(sum(c[0] for c in counts)), int(sum(c[1] for c in counts)),
            max(c[2] for c in counts), fail_r, fail_s)
