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
2-D product with its ``rotation_matrices``.  Without numba, every pass runs
``sweep_rounds``: it takes them as rounds of disjoint pairs
(``pass_rounds``: round-robin steps for a diagonal pass, shifted diagonals
for a cross pass; ``member_rounds``: round k of every member at once).  A
round is one panel of its pairs' columns, gathered from M once and
scattered back once, and two BLAS calls on it: one batched dot for the
Gram entries and one batched 2x2 matmul (``rotate_columns``) for the
rotation; what does not change during a pass (the rounds' column indices,
the pairs' kinds, the panel buffers) is set up once per pass.  Either body
treats each member as it would alone, so stacking never changes a member's
bits.

``plane_rotation`` is the only copy of the rotation's parameters, and
``rotation_matrices`` of its 2x2 matrix, for scalars and for arrays of
disjoint pairs alike; ``rotate_columns`` applies the matrices to pairs of
columns, and the factorization's 2x2 eigensolve calls it too.
"""

import functools
import itertools

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
def rotation_matrices(phase, cs, sn, hyp, Q):
    """Fill Q, of shape (..., 2, 2), with the matrices of ``plane_rotation``'s
    transformation, [[cs*phase, hyp*sn], [sn*phase, cs]]: a pair whose
    columns x_r, x_s are the rows of [x_r; x_s] becomes Q @ [x_r; x_s].

    phase, cs, sn and hyp are scalars, or arrays of Q's leading shape; a
    phase of None is 1.0 (the real case).  The only copy of the matrix's
    entries.
    """
    if phase is None:
        Q[..., 0, 0] = cs
        Q[..., 1, 0] = sn
    else:
        Q[..., 0, 0] = cs * phase
        Q[..., 1, 0] = sn * phase
    Q[..., 0, 1] = hyp * sn
    Q[..., 1, 1] = cs


def rotate_columns(P, phase, cs, sn, hyp, out):
    """Apply ``plane_rotation``'s transformation to the column pairs in P,
    writing the rotated pairs into ``out`` (P's shape).

    P is one pair (2, rows), or a stack (k, 2, rows) of k pairs: P[j, 0] is
    pair j's r column and P[j, 1] its s column; phase, cs, sn and hyp are
    scalars, or length-k arrays.  With F = phase * x_r (phase None for
    1.0), the pair becomes [cs*F + hyp*sn*x_s, sn*F + cs*x_s]: one matmul by
    ``rotation_matrices``, a BLAS product per pair.  out must not overlap P.
    """
    Q = np.empty(np.shape(cs) + (2, 2), dtype=out.dtype)
    rotation_matrices(phase, cs, sn, hyp, Q)
    np.matmul(Q, P, out)


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
                rotation_matrices(a / eta, cs, sn, hyp, Q)
                pair = M[:, r:s + 1:s - r].T  # columns r and s as rows, a view
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


# Rounds are cut at 64 pairs.  Uncut rounds give the same bits, but on
# `seq` (benchmarks/ab.py, 10 pairs, interpreted, one BLAS thread, 2-core
# Xeon) they ran n = 256 at 0.95x of the cut ones (7 of 10 pairs won, within
# the spread) and n = 512, 256-pair rounds, at 1.43x (0 of 10 won).
ROUND_MAX_PAIRS = 64


def _frozen(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _cut(rounds):
    """Rounds of more than ROUND_MAX_PAIRS pairs cut into consecutive ones."""
    return tuple(tuple(_frozen(x[lo:lo + ROUND_MAX_PAIRS]) for x in rnd)
                 for rnd in rounds for lo in range(0, rnd[0].size, ROUND_MAX_PAIRS))


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
    return _cut(rounds)


@functools.lru_cache(maxsize=256)
def member_rounds(n_i, n_j, diag_bl, offsets):
    """``pass_rounds`` of member factors side by side, member b's columns
    starting at offsets[b] (a tuple): round k holds every member's round k,
    its indices offset.  Returns read-only (R, S, owner) arrays, owner
    giving each pair's member as a position in offsets; rounds of more than
    ROUND_MAX_PAIRS pairs are cut."""
    own = np.arange(len(offsets), dtype=np.intp)
    off = np.asarray(offsets, dtype=np.intp)
    rounds = []
    for R, S in pass_rounds(n_i, n_j, diag_bl):
        shift = np.repeat(off, R.size)
        rounds.append((np.tile(R, off.size) + shift, np.tile(S, off.size) + shift,
                       np.repeat(own, R.size)))
    return _cut(rounds)


@functools.lru_cache(maxsize=256)
def round_panels(n_i, n_j, diag_bl, offsets):
    """``member_rounds`` as ``sweep_rounds`` takes them: (panels, R, S,
    width).  Per round, panels holds (RS, own, lo), with RS = [R, S] of the
    round concatenated and its pairs at positions lo .. lo + k of the whole
    pass's R and S, all rounds' concatenated; width is the most pairs of a
    round.  All arrays are read-only."""
    rounds = member_rounds(n_i, n_j, diag_bl, offsets)
    sizes = [own.size for _, _, own in rounds]
    panels = tuple((_frozen(np.concatenate([R, S])), own, lo)
                   for (R, S, own), lo in zip(rounds, itertools.accumulate(sizes, initial=0)))
    none = [np.zeros(0, dtype=np.intp)]
    R = _frozen(np.concatenate(none + [R for R, _, _ in rounds]))
    S = _frozen(np.concatenate(none + [S for _, S, _ in rounds]))
    return panels, R, S, max(sizes, default=0)


def sweep_rounds(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """``_sweep_pairs`` with the pass's pairs taken as ``member_rounds``.

    Every round is a handful of whole-array operations on all the members at
    once, on one panel: its pairs' columns are gathered from M once, the
    Gram entries read from the panel's first m rows by one batched dot, the
    pairs that are not yet orthogonal rotated by ``plane_rotation`` on
    arrays and ``rotate_columns`` on the panel's (k, 2, rows) view of pairs
    (one batched 2x2 matmul), and the rotated panel and its D entries
    scattered back once.  The pairs' kinds are taken once per pass, and the
    panels live in two buffers allocated once per pass.  Each operation,
    BLAS products included, is done per pair, so a member gets the bits it
    gets alone.  A round holding a pivot that is not positive definite is
    not applied; its first such pair is returned.  M is column-major.
    """
    rounds, R_all, S_all, width = round_panels(n_i, n_j, diag_bl, tuple(offsets.tolist()))
    kinds = pair_kind(signs[R_all] == signs[S_all])
    real = M.dtype.kind != "c"
    rows = M.shape[0]
    MT = M.T  # row c of MT is column c of M, contiguous
    bufs = np.empty((2, 2 * width * rows), dtype=M.dtype)
    views = {}

    def panel(b, k):
        """Views of the first 2k columns of the panel bufs[b], held as rows:
        (PT, pairs, x, y), PT the (2k, rows) panel with pair j's columns
        in rows j and k + j, pairs its (k, 2, rows) view of pairs, and x, y
        the (k, 1, m) and (k, m, 1) views of the pairs' r and s columns in
        G's rows."""
        if (b, k) not in views:
            PT = bufs[b][:2 * k * rows].reshape(2 * k, rows)
            views[b, k] = (PT, PT.reshape(2, k, rows).transpose(1, 0, 2),
                           PT[:k, None, :m], PT[k:, :m, None])
        return views[b, k]

    ts = []
    owners = []
    fail = (-1, -1)
    for RS, own, lo in rounds:
        k = own.size
        src, dst = 0, 1  # the buffers of the gathered panel and of the rotated one
        PT, _, x, y = panel(src, k)
        MT.take(RS, axis=0, out=PT, mode="clip")
        if real:
            a = np.matmul(x, y).reshape(k)
            aa = np.abs(a)  # hypot(a, 0.0) exactly
        else:
            a = np.matmul(np.conjugate(x, out=panel(dst, k)[2]), y).reshape(k)
            aa = np.hypot(a.real, a.imag)  # abs() of a complex scalar; np.abs can differ
        d = D[RS]
        dd = d[:k] * d[k:]
        skip = aa <= orth_tol * np.sqrt(dd)  # what _sweep_pairs skips
        nskip = np.count_nonzero(skip)
        hyp = kinds[lo:lo + k]
        if nskip:
            if nskip == k:
                continue
            act = np.flatnonzero(~skip)
            act2 = np.concatenate([act, act + k])
            RS, own, a, aa, d, dd, hyp = RS[act2], own[act], a[act], aa[act], d[act2], dd[act], hyp[act]
            k -= nskip
            PT.take(act2, axis=0, out=panel(dst, k)[0], mode="clip")  # compacted
            src, dst = dst, src
        d_rr = d[:k]
        d_ss = d[k:]
        eta = a if real else np.where(a.real >= 0.0, aa, -aa)  # real: phase 1.0
        t, cs, sn = plane_rotation(d_rr, d_ss, eta, hyp)
        bad = (aa * aa >= dd) | (cs == 0.0)
        if np.count_nonzero(bad):
            j = np.argmax(bad)
            fail = (int(RS[j]), int(RS[k + j]))
            break
        te = t * eta
        d_rr += hyp * te
        d_ss += te
        D[RS] = d
        out, out_pairs = panel(dst, k)[:2]
        rotate_columns(panel(src, k)[1], None if real else a / eta, cs, sn, hyp, out_pairs)
        MT[RS] = out
        ts.append(t)
        owners.append(own)
    if ts:  # the members' counters, once per pass
        at = np.abs(np.concatenate(ts))
        own = np.concatenate(owners)
        stats[:, 0] += np.bincount(own, minlength=len(stats))
        stats[:, 1] += np.bincount(own[at > quad_tol], minlength=len(stats))
        np.maximum.at(stats[:, 2], own, at)
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
    starting at offsets[b] (an intp array; by default one member at 0), each
    with its own pass over its n_i (+ n_j) columns.  ``stats``, when given,
    is a zeroed float array of one row per member that receives the
    member's (rotations, big_rotations, max_abs_t).

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
        stats = np.zeros((offsets.size, 3))
    body = pass_kernel()
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
    nrot, nbig = stats[:, :2].sum(axis=0).tolist()
    return int(nrot), int(nbig), float(stats[:, 2].max()), fail_r, fail_s
