"""Hot inner loop of the one-sided J-Jacobi sweep, and the rotation it applies.

A pass rotates one column-major array M: its top m rows are the factor G
whose columns are orthogonalized, and the rows below are the accumulator W
of the J-unitary transformation, which the blocked and ring variants apply
back to their block columns (there are no such rows for the non-blocked
solver).  Gram entries are read from M[:m], and each rotation is one
``rotate_columns`` call on all of M.  ``sweep_pairs`` is the entry point:
it stacks [G; W] into M, runs the pass's body and writes both parts back.
M may hold several member factors of one width side by side (the disjoint
block pivots of a blocked round); each member, starting at its column
offset, gets its own pass and its own counters.

A body visits the pass's column pairs in one of two orders.
``_sweep_pairs`` takes them one at a time, column-cyclically, member after
member; numba compiles it as ``sweep_pairs_jit`` when numba is importable.
``sweep_rounds`` takes them as rounds of disjoint pairs (``pass_rounds``:
round-robin steps for a diagonal pass, shifted diagonals for a cross pass;
``member_rounds``: round k of every member at once) and rotates each round
with a few whole-array numpy operations.  ``pass_kernel`` picks the body:
the compiled one if there is one, else rounds for passes of at least
ROUND_MIN_PAIRS pairs per round, counted over all members, and the cyclic
body for narrower ones.

``plane_rotation`` and ``rotate_columns`` are the only copies of the rotation
formula, for scalars and for arrays of disjoint pairs alike; the
factorization's 2x2 eigensolve calls them too.
"""

import functools

import numpy as np

from ._accel import NUMBA_ENABLED, jit_kernel, jitable


# A numpy bool (same_sign, theta >= 0.0) times a Python float takes ~2 us,
# times a numpy float ~0.15 us
_TWO = np.float64(2.0)


@jitable
def plane_rotation(d_rr, d_ss, eta, same_sign):
    """Rotation annihilating the off-diagonal of a positive definite 2x2 pivot.

    The pivot has diagonal (d_rr, d_ss) and off-diagonal eta * phase, with
    eta real and phase unit-modulus.  Returns (t, cs, sn, hyp), all real,
    taking the minimal-|t| root:

    * trigonometric pair (same_sign, hyp = -1):  new_r = cs*f - sn*g_s,
      new_s = sn*f + cs*g_s, with f = phase*g_r, cs^2 + sn^2 = 1;
    * hyperbolic pair (opposite J signs, hyp = +1):  new_r = cs*f + sn*g_s,
      new_s = sn*f + cs*g_s, with cs^2 - sn^2 = 1 (cs = cosh, sn = sinh).

    Both make the 2x2 transformation J-unitary for the pivot's sign pair; the
    diagonal becomes (d_rr + hyp*t*eta, d_ss + t*eta).  A hyperbolic pivot
    with no inner root returns cs == 0.0.

    The arithmetic is branch-free, so the arguments may be scalars or arrays
    of disjoint pairs alike; theta = (d_ss - d_rr)/(2 eta) for a
    trigonometric pair and -(d_rr + d_ss)/(2 eta) for a hyperbolic one come
    out of one expression, bit for bit.
    """
    hyp = 1.0 - _TWO * same_sign
    theta = (-hyp * d_ss - d_rr) / (2.0 * eta)
    disc = theta * theta - hyp
    root = disc > 0.0  # false only for a hyperbolic pivot without inner root
    tm = 1.0 / (abs(theta) + np.sqrt(abs(disc)))
    # the sign of theta, counting -0.0 (d_rr == d_ss, eta < 0) as +
    t = (_TWO * (theta >= 0.0) - 1.0) * tm * root
    cs = 1.0 / np.sqrt(1.0 - hyp * t * t) * root
    return t, cs, cs * t, hyp


@jitable
def rotate_columns(M, r, s, phase, cs, sn, hyp):
    """Apply ``plane_rotation``'s transformation to columns r, s of M in place;
    r, s and the coefficients may also be arrays of disjoint pairs."""
    f = phase * M[:, r]
    g = M[:, s]  # a copy when s is an index array
    M[:, r] = cs * f + (hyp * sn) * g
    M[:, s] = sn * f + cs * g


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
                phase = a / eta
                t, cs, sn, hyp = plane_rotation(d_rr, d_ss, eta, signs[r] == signs[s])
                if cs == 0.0:
                    fail_r = r
                    fail_s = s
                    break
                D[r] = d_rr + hyp * t * eta
                D[s] = d_ss + t * eta
                rotate_columns(M, r, s, phase, cs, sn, hyp)
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


# Passes with fewer pairs per round stay cyclic; the pairs of a round are
# counted over all the members of a stacked call.  A round costs ~60-150 us
# of numpy calls whatever its width, a cyclic pair ~11-15 us.  Measured on
# square pivot factors with W accumulated (4 inputs x 30 alternating full
# diagonalizations per width, one BLAS thread), time per pass of rounds
# against cyclic, real / complex: 1.47 / 1.30 at 4 pairs per round, 1.12 /
# 1.13 at 5, 1.00 / 0.96 at 6, 0.94 / 0.81 at 7 and 0.77 / 0.71 at 8.  So
# seq (32 pairs per round at n = 64), 2B (8 at n = 32, p = 2) and the
# stacked inner passes of 3B (two 4 x 4 cross blocks: 8) run by rounds,
# while a lone 8-column pivot (4 pairs per round) stays cyclic.
ROUND_MIN_PAIRS = 6
# Wider rounds made malloc hand the temporaries' pages back to the system
# and fault them in again every round: at n = 256 a pass by 128-pair rounds
# took 74k minor page faults and 3.3x the time of one by 64-pair rounds.
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


def sweep_rounds(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol, offsets, stats):
    """``_sweep_pairs`` with the pass's pairs taken as ``member_rounds``.

    Every round is a handful of whole-array operations on all the members at
    once: the Gram entries of its pairs by one einsum, the rotations of the
    pairs that are not yet orthogonal by ``plane_rotation`` on arrays, and
    the column updates by ``rotate_columns`` on index arrays.  Each of these
    is elementwise per pair, so a member gets the bits it gets alone.  A
    round holding a pivot that is not positive definite is not applied; its
    first such pair is returned.
    """
    ts = []
    owners = []
    fail = (-1, -1)
    for R, S, own in member_rounds(n_i, n_j, diag_bl, tuple(offsets.tolist())):
        a = np.einsum("ij,ij->j", M[:m, R].conj(), M[:m, S])
        d_rr = D[R]
        d_ss = D[S]
        aa = np.hypot(a.real, a.imag)  # abs() of a complex scalar; np.abs can differ
        act = ~(aa <= orth_tol * np.sqrt(d_rr * d_ss))  # skip what _sweep_pairs skips
        if not act.all():
            if not act.any():
                continue
            R, S, own, a, aa = R[act], S[act], own[act], a[act], aa[act]
            d_rr, d_ss = d_rr[act], d_ss[act]
        eta = np.where(a.real >= 0.0, aa, -aa)
        t, cs, sn, hyp = plane_rotation(d_rr, d_ss, eta, signs[R] == signs[S])
        bad = (aa * aa >= d_rr * d_ss) | (cs == 0.0)
        if bad.any():
            k = np.argmax(bad)
            fail = (int(R[k]), int(S[k]))
            break
        phase = a / eta
        D[R] = d_rr + hyp * t * eta
        D[S] = d_ss + t * eta
        rotate_columns(M, R, S, phase, cs, sn, hyp)
        ts.append(np.abs(t))
        owners.append(own)
    if ts:  # the members' counters, once per pass
        at = np.concatenate(ts)
        own = np.concatenate(owners)
        stats[:, 0] += np.bincount(own, minlength=len(stats))
        stats[:, 1] += np.bincount(own[at > quad_tol], minlength=len(stats))
        np.maximum.at(stats[:, 2], own, at)
    return fail


sweep_pairs_jit = jit_kernel(_sweep_pairs) if NUMBA_ENABLED else None


def pass_kernel(n_i, n_j, diag_bl, members=1):
    """The body that runs a pass of ``members`` factors side by side: the
    compiled ``sweep_pairs_jit`` when numba is importable; otherwise
    ``sweep_rounds`` when a round of the whole call holds at least
    ROUND_MIN_PAIRS pairs, and ``_sweep_pairs`` when it holds fewer."""
    if sweep_pairs_jit is not None:
        return sweep_pairs_jit
    per_round = (n_i // 2 if diag_bl else min(n_i, n_j)) * members
    return sweep_rounds if per_round >= ROUND_MIN_PAIRS else _sweep_pairs


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
    body = pass_kernel(n_i, n_j, diag_bl, offsets.size)
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
