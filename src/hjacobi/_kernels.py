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
takes them as rounds of disjoint pairs (``member_rounds``, the schedule:
round-robin steps for a diagonal pass, shifted diagonals for a cross pass,
round k of every member at once), cut into rounds of at most
ROUND_MAX_PAIRS pairs and put in round order by ``round_panels``, the only
place a kernel round is cut: the pass's columns travel through the pass in
buffers whose layouts put each round's pairs in one contiguous block, which
a round rotates by two BLAS calls, one ``np.vecdot`` for the Gram entries
and one batched 2x2 matmul, under masks when it skips some of its pairs.
What does not change during a pass is set up at most once: the layouts and
the takes' indices are cached per pass shape, and the buffers and their
views (a ``_Workspace``) are kept across passes in ``WORKSPACES``.  Either
body treats each member as it would alone, so stacking never changes a
member's bits, and the pairs of a round are disjoint, so where a round is
cut changes none either.

``rotation_theta`` and ``rotation_tangent`` are the only copies of the
rotation's parameters, which ``plane_rotation`` puts together, and
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
# an array operation on 16 floats takes ~1.2 us with a Python float operand,
# ~1.0 with a numpy float and ~0.4 with a 0-d array, which sweep_rounds uses
_TWO = np.float64(2.0)
_A0, _A1, _AM2, _ATRIG, _ANONE = (np.asarray(x) for x in (0.0, 1.0, -2.0, TRIG, -1.0))


@jitable
def pair_kind(same_sign):
    """``plane_rotation``'s kind of a column pair: TRIG = -1.0 if its J signs
    are equal (same_sign), +1.0 if they are opposite; scalar or array."""
    return 1.0 - _TWO * same_sign


@jitable
def rotation_theta(d_rr, d_ss, eta, hyp, minus_two):
    """``plane_rotation``'s theta, (d_ss - d_rr)/(2 eta) for a trigonometric
    pair and -(d_rr + d_ss)/(2 eta) for a hyperbolic one by one expression,
    and disc = theta^2 - hyp: the pivot has an inner root iff disc > 0.
    ``minus_two`` = -2.0, a 0-d array for arrays (a Python float is slower)."""
    theta = (hyp * d_ss + d_rr) / (minus_two * eta)
    return theta, theta * theta - hyp


@jitable
def rotation_tangent(theta, disc, hyp, one, zero, unit):
    """``plane_rotation``'s minimal-|t| root t and cs = 1/sqrt(1 - hyp t^2)
    from ``rotation_theta``'s theta and a disc >= 0, both times ``one``.
    t takes the sign of theta, and a theta of -0.0 counts as +.  ``zero``
    and ``unit`` are 0.0 and 1.0, as ``rotation_theta``'s ``minus_two``."""
    # theta + sign(theta) sqrt(disc) is sign(theta) (|theta| + sqrt(disc)) exactly
    t = one / (theta + np.copysign(np.sqrt(disc), theta + zero))
    return t, one / np.sqrt(unit - hyp * t * t)


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
    diagonal becomes (d_rr + hyp*t*eta, d_ss + t*eta).  The pivot must have
    an inner root (``rotation_theta``'s disc > 0), which the kernel bodies
    test first.  Built from ``rotation_theta`` and ``rotation_tangent``
    without a branch, for scalars or arrays of disjoint pairs alike.
    """
    theta, disc = rotation_theta(d_rr, d_ss, eta, hyp, -2.0)
    t, cs = rotation_tangent(theta, disc, hyp, 1.0, 0.0, 1.0)
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
    return np.copysign(aa, a.real + _A0)  # + 0.0 turns -0.0 into +0.0


def _sweep_pairs(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """Run one annihilation pass over column pairs of G = M[:m], for each
    member factor in turn.

    Member b's columns start at offsets[b]; relative to that:
    diag_bl=True: visit all pairs (r, s), r < s < n_i, column-cyclically.
    diag_bl=False: visit the cross pairs r < n_i <= s < n_i + n_j.

    Each rotation updates both columns of all of M in place, so the rows
    below m (the accumulator W, possibly none) are rotated with G; D caches
    G's Gram diagonal and is updated incrementally.

    A pair that is not skipped fails when aa^2 >= d_rr d_ss or disc <= 0,
    tested before the root is taken, as by ``sweep_rounds``.  Adds member
    b's (rotations, big_rotations, max_abs_t) to stats[b], where a big
    rotation has |t| > quad_tol.  Returns (fail_r, fail_s): -1 on success,
    or the columns of M at which a non-positive-definite pivot was detected
    (the pass stops there).
    """
    if diag_bl:
        s_lo = 1
        s_hi = n_i
    else:
        s_lo = n_i
        s_hi = n_i + n_j
    Q = np.empty((2, 2), dtype=M.dtype)
    for b in range(len(offsets)):
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
                eta = aa if a.real >= 0.0 else -aa
                hyp = pair_kind(signs[r] == signs[s])
                theta, disc = rotation_theta(d_rr, d_ss, eta, hyp, -2.0)
                if aa * aa >= d_rr * d_ss or disc <= 0.0:  # not positive definite
                    fail_r = r
                    fail_s = s
                    break
                t, cs = rotation_tangent(theta, disc, hyp, 1.0, 0.0, 1.0)
                D[r] = d_rr + hyp * t * eta
                D[s] = d_ss + t * eta
                rotation_matrices(cs, cs * t, hyp, Q)
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


# round_panels cuts each member round into rounds of at most 64 pairs; it
# is the only reader of this constant.  Where a round is cut changes no bit.
# One pass over a random 256 x 256 factor (128-pair rounds) ran uncut at
# 0.92x real and 0.99x complex; one over 512 x 512 (256-pair rounds) ran
# cut at 128 pairs at 1.10x real and complex, and uncut at 1.25-1.36x real
# and 1.18x complex (interpreted, one BLAS thread, 2-core Xeon with 2 MB of
# L2 per core, medians of 9 passes alternating in one process).
ROUND_MAX_PAIRS = 64


def _frozen(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _full_rounds(n_i, n_j, diag_bl):
    """The pairs of one pass as rounds of disjoint pairs, each pair once.

    Returns a list of (R, S) index arrays, R < S elementwise.
    diag_bl=True: all pairs r < s < n_i by the circle method, n_i - 1 rounds
    (n_i for odd n_i).  Columns 0 .. q-1 (q = n_i - 1, or n_i for odd n_i)
    sit on a circle: round k pairs r with (k - r) mod q, and the one column
    left over with column q, a padding column for odd n_i whose pair is
    dropped.  These are the steps of the ring's modified round-robin
    (``strategies.round_robin_step``) with one column per block; in this
    order a ``seq`` solve needs about as many rotations as column-cyclically.
    diag_bl=False: the cross pairs r < n_i <= s < n_i + n_j as
    max(n_i, n_j) shifted diagonals of the n_i x n_j cross block.
    """
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


@functools.lru_cache(maxsize=256)
def member_rounds(n_i, n_j, diag_bl, offsets):
    """The schedule of a pass over member factors side by side, member b's
    columns starting at offsets[b] (a tuple): round k of ``_full_rounds``
    tiled across the members, its indices offset, empty rounds dropped.
    Returns a tuple of read-only (R, S, owner) arrays, owner giving each
    pair's member as a position in offsets, member after member.  Not cut:
    the kernel's cut lives only in ``round_panels``."""
    off = np.asarray(offsets, dtype=np.intp)
    own = np.arange(off.size, dtype=np.intp)
    rounds = []
    for R, S in _full_rounds(n_i, n_j, diag_bl):
        if R.size and off.size:
            shift = np.repeat(off, R.size)
            rounds.append((_frozen(np.tile(R, off.size) + shift),
                           _frozen(np.tile(S, off.size) + shift), _frozen(np.repeat(own, R.size))))
    return tuple(rounds)


class RoundTable(NamedTuple):
    """A pass's ``member_rounds``, cut, in round order (``round_panels``)."""

    groups: tuple  # per group: (layout, step, span, rounds)
    blocks: tuple  # the distinct (lo, k) of the rounds' blocks
    R: np.ndarray  # every round's R, S and owners, concatenated in pass order
    S: np.ndarray
    own: np.ndarray
    width: int  # the most pairs of a round


@functools.lru_cache(maxsize=256)
def round_panels(n_i, n_j, diag_bl, offsets):
    """``member_rounds`` cut and in round order, as ``sweep_rounds`` takes
    them; the one place a kernel round is cut.

    Each member round is one group, cut into consecutive rounds of at most
    ROUND_MAX_PAIRS pairs; a group's pairs are disjoint.  Each group has a
    layout, an order of the pass's N columns (every column a round of the
    pass touches), in which its rounds hold consecutive blocks from row 0:
    round i rows lo_i .. lo_i + 2k_i, its k_i pairs' r columns, then their
    s columns.  These span rows are followed by the columns the group
    leaves alone, in ascending order.  So a cut round is one block of its
    group's layout, and every pass takes the same path.

    Returns a ``RoundTable``.  Per group it holds (layout, step, span,
    rounds): the layout is, row for row, step's rows of the previous
    group's layout (M's columns for the first group), and span is the
    number of its rows that its rounds hold.  rounds holds (block, lo) per
    round: block indexes ``blocks``, the distinct (lo_i, k_i), and lo is
    the round's first pair in R, S and own.  All arrays are read-only.
    """
    groups = [[tuple(x[lo:lo + ROUND_MAX_PAIRS] for x in rnd)
               for lo in range(0, rnd[0].size, ROUND_MAX_PAIRS)]
              for rnd in member_rounds(n_i, n_j, diag_bl, offsets)]
    rounds = [rnd for group in groups for rnd in group]
    none = [np.zeros(0, dtype=np.intp)]
    R, S, own = (_frozen(np.concatenate(none + [rnd[i] for rnd in rounds])) for i in range(3))
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
        for R_g, _, _ in group:
            k = R_g.size
            entries.append((blocks.setdefault((span, k), len(blocks)), lo))
            lo += k
            span += 2 * k
        table.append((layout, step, span, tuple(entries)))
    return RoundTable(tuple(table), tuple(blocks), R, S, own,
                      max((k for _, k in blocks), default=0))


def _pairs(PT):
    """The (k, 2, rows) view of pairs of a (2k, rows) panel PT whose rows j
    and k + j are pair j's columns; of its float64 view if complex."""
    k = PT.shape[0] // 2
    P = PT.reshape(2, k, PT.shape[1]).transpose(1, 0, 2)
    return P.view(np.float64) if P.dtype.kind == "c" else P


class _Workspace:
    """The buffers of a pass by ``sweep_rounds`` and the views of every
    block of them, for the passes of one RoundTable, dtype, row count and m:
    two buffers Y for the pass's columns, a panel, a Q buffer for the
    rotation matrices, two buffers for D and one for the pairs' |t|.
    ``key`` names what it serves; it holds its table, so no other table can
    take the table's ``id`` while it lives."""

    def __init__(self, key, table, dtype, rows, m):
        N, width = table.groups[0][0].size, table.width
        self.key, self.table = key, table
        # the columns in the layout of a group that rotated
        self.Y = Y = np.empty((2, N, rows), dtype=dtype)
        P = np.empty((2 * width, rows), dtype=dtype)  # a round's block as taken
        self.dl = dl = np.empty((2, N))  # D in a group's layout, by the parity of its position
        Q = np.empty((width, 2, 2))
        self.at = np.empty(table.R.size)  # |t| of each pair in table order, -1.0: not rotated
        self.nbytes = Y.nbytes + P.nbytes + dl.nbytes + Q.nbytes + self.at.nbytes
        self.panels = [(row, k, P[:2 * k], P[:k, :m], P[k:2 * k, :m], _pairs(P[:2 * k]), Q[:k])
                       for row, k in table.blocks]
        # per buffer, per block: the block's pairs in Y and its D entries in dl
        self.placed = tuple([_pairs(y[r:r + 2 * k]) for r, k in table.blocks] for y in Y)
        self.held = tuple([(d[r:r + k], d[r + k:r + 2 * k]) for r, k in table.blocks] for d in dl)


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


# The workspaces of a seqB, 2B or 3B solve at n = 256 take 1.0-2.7 MB, and
# of a seqB or 3B solve at n = 512 1.8-3.6 MB.  A pass too large to keep is
# long enough not to notice its allocation: a seq pass at n = 512, whose
# 5.5 MB workspace is not kept, takes about 0.2 s.
WORKSPACE_BYTES = 4 << 20
WORKSPACES = WorkspacePool(WORKSPACE_BYTES)


def sweep_rounds(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """``_sweep_pairs`` with the pass's pairs taken as ``member_rounds``, cut
    and in round order (``round_panels``); offsets is a tuple of ints.  M is
    column-major.

    The pass pops the workspace (``_Workspace``) of its round table, dtype,
    row count and m from ``WORKSPACES`` at its start, builds one if there
    is none, and puts it back at its end; the pairs' kinds are set up at its
    first round that rotates.  Every buffer is written before it is read,
    so what a workspace held before changes no bit.  A group first moves D
    into its layout by one ``take``.  A round then makes only the calls its
    arithmetic needs, on all the members at once: one ``take`` of its block
    into the panel from where the previous layout's columns are (M until a
    group rotates, then the Y it wrote), the Gram entries from the panel's
    first m columns by one ``np.vecdot`` (which conjugates the r columns),
    the skip test, ``rotation_theta``, the test for a pivot that is not
    positive definite (aa^2 >= d_rr d_ss or disc <= 0) before
    ``rotation_tangent`` takes the root, D updated where it lies, the phases
    of complex pairs on the panel's r rows, ``rotation_matrices`` into Q,
    and one real batched 2x2 matmul into its block of the other Y.  A round
    that skips some pairs runs at full width under masks: a skipped pair
    computes as a trigonometric stand-in with eta = 1, finite for any D,
    then takes t = 0 and cs = 1, so its D stays; it gets no phase, and its
    columns as taken overwrite the matmul's result.  A group that rotates
    takes the rest of its layout there too; one that rotates nothing moves
    no column.  The pass ends with one scatter of the Y last written back
    into M and of D, and the counters from the pairs' |t|; a round holding
    a pivot that is not positive definite ends it too, unapplied, and its
    first such pair that it does not skip is returned.  Each operation,
    BLAS products included, is done per pair, so a member gets the bits it
    gets alone.
    """
    table = round_panels(n_i, n_j, diag_bl, offsets)
    if not table.groups:
        return -1, -1
    key = (id(table), M.dtype, M.shape[0], m)
    ws = WORKSPACES.pop(key) or _Workspace(key, table, M.dtype, M.shape[0], m)
    Y, dl, at, panels, placed, held = ws.Y, ws.dl, ws.at, ws.panels, ws.placed, ws.held
    real = M.dtype.kind != "c"
    N = dl.shape[1]
    orth_tol = np.asarray(orth_tol, dtype=np.float64)

    kinds = None
    fail = (-1, -1)
    src, d_src = M.T, D  # row c of M.T is column c of M, contiguous
    src_layout = None  # the layout of the Y last written; None: M holds the pass's columns
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
        for block, lo in rounds:
            row, k, blk, g_r, g_s, pairs, Qk = panels[block]
            o_pairs = placed[q][block]
            d_rr, d_ss = held[p][block]
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
                at.fill(-1.0)
            hyp = kinds[lo:lo + k]  # made for this pass, so it takes the stand-ins
            eta = a if real else signed_modulus(a, aa)  # real: phase 1.0
            if nskip:  # the skipped pairs compute as trigonometric, with eta = 1
                act = ~skip
                np.copyto(hyp, _ATRIG, where=skip)
                np.copyto(eta, _A1, where=skip)
            theta, disc = rotation_theta(d_rr, d_ss, eta, hyp, _AM2)
            bad = (aa * aa >= dd) | (disc <= _A0)
            if nskip:
                bad &= act
            if np.count_nonzero(bad):  # the block and the rows after it follow unrotated
                upto, j = row, int(np.argmax(bad))
                fail = (int(layout[row + j]), int(layout[row + k + j]))
                break
            t, cs = rotation_tangent(theta, disc, hyp, _A1, _A0, _A1)
            if nskip:
                np.copyto(t, _A0, where=skip)
                np.copyto(cs, _A1, where=skip)
            te = t * eta
            d_rr += hyp * te
            d_ss += te
            if not real:  # the phases, on the r columns' contiguous block
                np.multiply(blk[:k], (a / eta)[:, None], out=blk[:k],
                            where=act[:, None] if nskip else True)
            rotation_matrices(cs, cs * t, hyp, Qk)
            np.matmul(Qk, pairs, o_pairs)
            at_k = at[lo:lo + k]
            np.abs(t, out=at_k)
            if nskip:  # the skipped pairs move on as they were taken
                np.copyto(o_pairs, pairs, where=skip[:, None, None])
                np.copyto(at_k, _ANONE, where=skip)
            moved = True
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
    if src_layout is not None:  # else M and D are as they were
        M.T[src_layout] = src
        D[layout] = dl[p]
        # the members' counters, once per pass, from every pair's |t| (a NaN counts)
        done, big = ~(at < _A0), at > quad_tol
        counts = stats.T
        if len(stats) == 1:  # bincount and maximum.at into one bin take ~20x as long
            counts[:2, 0] += np.count_nonzero(done), np.count_nonzero(big)
            np.maximum(counts[2], at.max(), out=counts[2])
        else:
            counts[0] += np.bincount(table.own, done, len(stats))
            counts[1] += np.bincount(table.own, big, len(stats))
            np.maximum.at(counts[2], table.own, at)
    WORKSPACES.put(ws)
    return fail


sweep_pairs_jit = jit_kernel(_sweep_pairs) if NUMBA_ENABLED else None


def pass_kernel():
    """The body of every pass: the compiled ``sweep_pairs_jit`` when numba
    is importable, else ``sweep_rounds``."""
    return sweep_rounds if sweep_pairs_jit is None else sweep_pairs_jit


KERNEL = "interpreted" if sweep_pairs_jit is None else "numba"  # which body runs, for records


def sweep_pairs(G, signs, D, W, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """One annihilation pass over column pairs of G by ``pass_kernel``'s body,
    with the J-unitary transformation accumulated into W.

    G may hold several member factors side by side, member b's columns
    starting at offsets[b] (a tuple of ints), each with its own pass over
    its n_i (+ n_j) columns.  ``stats`` is a zeroed float array of one row
    per member that receives the member's (rotations, big_rotations,
    max_abs_t).

    G and W (with G's columns and dtype) are rotated in place as one stacked
    column-major array [G; W], so that each rotation is one column update.
    A W with zero rows accumulates nothing and the body runs on G itself.
    Otherwise both parts are written back however the pass ends, so a pass
    stopped at a non-positive-definite pivot leaves G, W and D as rotated so
    far.  Returns the totals over the members (rotations, big_rotations,
    max_abs_t) and the columns (fail_r, fail_s) of G at which the pass
    stopped, -1 if it did not.
    """
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
