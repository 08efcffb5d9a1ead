"""Hot inner loop of the one-sided J-Jacobi sweep, and the rotation it applies.

A pass rotates one column-major array M: its top m rows are the factor G
whose columns are orthogonalized, and the rows below are the accumulator W
of the J-unitary transformation, which the blocked and ring variants apply
back to their block columns (there are no such rows for the non-blocked
solver).  Gram entries are read from M[:m], and each rotation is one
``rotate_columns`` call on all of M.  ``sweep_pairs`` is the entry point:
it stacks [G; W] into M, runs the pass's body and writes both parts back.

A body visits the pass's column pairs in one of two orders.
``_sweep_pairs`` takes them one at a time, column-cyclically; numba
compiles it as ``sweep_pairs_jit`` when numba is importable.
``sweep_rounds`` takes them as rounds of disjoint pairs (``pass_rounds``:
round-robin steps for a diagonal pass, shifted diagonals for a cross pass)
and rotates each round with a few whole-array numpy operations.
``pass_kernel`` picks the body: the compiled one if there is one, else
rounds for passes of at least ROUND_MIN_PAIRS pairs per round and the
cyclic body for narrower ones.

``plane_rotation`` and ``rotate_columns`` are the only copies of the rotation
formula, for scalars and for arrays of disjoint pairs alike; the public
rotation API and the factorization's 2x2 eigensolve call them too.
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


def _sweep_pairs(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol):
    """Run one annihilation pass over column pairs of G = M[:m].

    diag_bl=True: visit all pairs (r, s), r < s < n_i, column-cyclically.
    diag_bl=False: visit the cross pairs r < n_i <= s < n_i + n_j.

    Each rotation updates both columns of all of M in place, so the rows
    below m (the accumulator W, possibly none) are rotated with G; D caches
    G's Gram diagonal and is updated incrementally.

    Returns (rotations, big_rotations, max_abs_t, fail_r, fail_s), where a
    big rotation has |t| > quad_tol; the fail indices are -1 on success, or
    the pair at which a non-positive-definite pivot was detected (the pass
    stops there).
    """
    nrot = 0
    nbig = 0
    max_t = 0.0
    if diag_bl:
        s_lo = 1
        s_hi = n_i
    else:
        s_lo = n_i
        s_hi = n_i + n_j
    for s in range(s_lo, s_hi):
        if diag_bl:
            r_hi = s
        else:
            r_hi = n_i
        for r in range(r_hi):
            a = np.vdot(M[:m, r], M[:m, s])
            d_rr = D[r]
            d_ss = D[s]
            aa = abs(a)
            if aa <= orth_tol * np.sqrt(d_rr * d_ss):
                continue
            if aa * aa >= d_rr * d_ss:
                return nrot, nbig, max_t, r, s
            eta = aa if a.real >= 0.0 else -aa
            phase = a / eta
            t, cs, sn, hyp = plane_rotation(d_rr, d_ss, eta, signs[r] == signs[s])
            if cs == 0.0:
                return nrot, nbig, max_t, r, s
            D[r] = d_rr + hyp * t * eta
            D[s] = d_ss + t * eta
            rotate_columns(M, r, s, phase, cs, sn, hyp)
            nrot += 1
            at = abs(t)
            if at > max_t:
                max_t = at
            if at > quad_tol:
                nbig += 1
    return nrot, nbig, max_t, -1, -1


# Passes with fewer pairs per round stay cyclic.  A round costs ~60-150 us
# of numpy calls whatever its width, a cyclic pair ~11-15 us.  Measured on
# square pivot factors with W accumulated (4 inputs x 30 alternating full
# diagonalizations per width, one BLAS thread), time per pass of rounds
# against cyclic, real / complex: 1.47 / 1.30 at 4 pairs per round, 1.12 /
# 1.13 at 5, 1.00 / 0.96 at 6, 0.94 / 0.81 at 7 and 0.77 / 0.71 at 8.  So
# the ring's 3B (4-column inner blocks: 2 and 4 pairs per round) stays
# cyclic, while seq (32 pairs per round at n = 64) and 2B (8 at n = 32,
# p = 2) run by rounds.
ROUND_MIN_PAIRS = 6
# Wider rounds made malloc hand the temporaries' pages back to the system
# and fault them in again every round: at n = 256 a pass by 128-pair rounds
# took 74k minor page faults and 3.3x the time of one by 64-pair rounds.
ROUND_MAX_PAIRS = 64


def _frozen(a):
    a = a.copy()
    a.setflags(write=False)
    return a


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
    cut = []
    for r, s in rounds:
        for lo in range(0, r.size, ROUND_MAX_PAIRS):
            cut.append((_frozen(r[lo:lo + ROUND_MAX_PAIRS]), _frozen(s[lo:lo + ROUND_MAX_PAIRS])))
    return tuple(cut)


def sweep_rounds(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol):
    """``_sweep_pairs`` with the pass's pairs taken as ``pass_rounds``.

    Every round is a handful of whole-array operations: the Gram entries of
    its pairs by one einsum, the rotations of the pairs that are not yet
    orthogonal by ``plane_rotation`` on arrays, and the column updates by
    ``rotate_columns`` on index arrays.  A round holding a pivot that is not
    positive definite is not applied; its first such pair is returned.
    """
    nrot = 0
    nbig = 0
    max_t = 0.0
    for R, S in pass_rounds(n_i, n_j, diag_bl):
        a = np.einsum("ij,ij->j", M[:m, R].conj(), M[:m, S])
        d_rr = D[R]
        d_ss = D[S]
        aa = np.hypot(a.real, a.imag)  # abs() of a complex scalar; np.abs can differ
        act = ~(aa <= orth_tol * np.sqrt(d_rr * d_ss))  # skip what _sweep_pairs skips
        if not act.all():
            if not act.any():
                continue
            R, S, a, aa, d_rr, d_ss = R[act], S[act], a[act], aa[act], d_rr[act], d_ss[act]
        eta = np.where(a.real >= 0.0, aa, -aa)
        t, cs, sn, hyp = plane_rotation(d_rr, d_ss, eta, signs[R] == signs[S])
        bad = (aa * aa >= d_rr * d_ss) | (cs == 0.0)
        if bad.any():
            k = np.argmax(bad)
            return nrot, nbig, max_t, int(R[k]), int(S[k])
        phase = a / eta
        D[R] = d_rr + hyp * t * eta
        D[S] = d_ss + t * eta
        rotate_columns(M, R, S, phase, cs, sn, hyp)
        at = np.abs(t)
        nrot += R.size
        nbig += int(np.count_nonzero(at > quad_tol))
        max_t = max(max_t, float(at.max()))
    return nrot, nbig, max_t, -1, -1


sweep_pairs_jit = jit_kernel(_sweep_pairs) if NUMBA_ENABLED else None


def pass_kernel(n_i, n_j, diag_bl):
    """The body that runs a pass: the compiled ``sweep_pairs_jit`` when numba
    is importable; otherwise ``sweep_rounds`` for passes of at least
    ROUND_MIN_PAIRS pairs per round and ``_sweep_pairs`` for narrower ones."""
    if sweep_pairs_jit is not None:
        return sweep_pairs_jit
    per_round = n_i // 2 if diag_bl else min(n_i, n_j)
    return sweep_rounds if per_round >= ROUND_MIN_PAIRS else _sweep_pairs


def sweep_pairs(G, signs, D, W, n_i, n_j, diag_bl, orth_tol, quad_tol):
    """One annihilation pass over column pairs of G by ``pass_kernel``'s body,
    with the J-unitary transformation accumulated into W.

    G and W (with G's columns and dtype) are rotated in place as one stacked
    column-major array [G; W], so that each rotation is one column update.
    A W with zero rows accumulates nothing and the body runs on G itself.
    Otherwise both parts are written back however the pass ends, so a pass
    stopped at a non-positive-definite pivot leaves G, W and D as rotated so
    far.  Returns the body's (rotations, big_rotations, max_abs_t, fail_r,
    fail_s).
    """
    body = pass_kernel(n_i, n_j, diag_bl)
    m = G.shape[0]
    if W.shape[0] == 0:
        return body(G, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol)
    M = np.empty((m + W.shape[0], G.shape[1]), dtype=G.dtype, order="F")
    M[:m] = G
    M[m:] = W
    try:
        return body(M, signs, D, m, n_i, n_j, diag_bl, orth_tol, quad_tol)
    finally:
        G[...] = M[:m]
        W[...] = M[m:]
