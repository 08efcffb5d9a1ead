"""Hot inner loop of the one-sided J-Jacobi sweep, and the rotation it applies.

One implementation serves both execution paths: ``sweep_pairs_jit`` is the
numba-compiled version, ``sweep_pairs_py`` the interpreted pure-numpy one
(column updates are whole-array expressions, so the fallback still runs at
BLAS-1 speed).  ``sweep_pairs`` is the path selected at import time via
HJACOBI_NO_NUMBA.  ``plane_rotation`` and ``rotate_columns`` are the only
copies of the rotation formula; the public rotation API and the
factorization's 2x2 eigensolve call them too.
"""

import math

import numpy as np

from ._accel import HAVE_NUMBA, NUMBA_ENABLED, jit_kernel, jitable


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
    """
    if same_sign:
        hyp = -1.0
        theta = (d_ss - d_rr) / (2.0 * eta)
        disc = theta * theta + 1.0
    else:
        hyp = 1.0
        theta = -(d_rr + d_ss) / (2.0 * eta)
        disc = theta * theta - 1.0
        if disc <= 0.0:
            return 0.0, 0.0, 0.0, hyp
    t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + math.sqrt(disc))
    cs = 1.0 / math.sqrt(1.0 - hyp * t * t)
    return t, cs, cs * t, hyp


@jitable
def rotate_columns(M, r, s, phase, cs, sn, hyp):
    """Apply ``plane_rotation``'s transformation to columns r, s of M in place."""
    f = phase * M[:, r]
    new_r = cs * f + (hyp * sn) * M[:, s]
    new_s = sn * f + cs * M[:, s]
    M[:, r] = new_r
    M[:, s] = new_s


def _sweep_pairs(G, signs, D, W, n_i, n_j, diag_bl, orth_tol, quad_tol):
    """Run one annihilation pass over column pairs of G.

    diag_bl=True: visit all pairs (r, s), r < s < n_i, column-cyclically.
    diag_bl=False: visit the cross pairs r < n_i <= s < n_i + n_j.

    G and W are updated in place (W may have zero rows to skip accumulation);
    D caches the Gram diagonal and is updated incrementally.

    Returns (rotations, big_rotations, max_abs_t, fail_r, fail_s); the fail
    indices are -1 on success, or the pair at which a non-positive-definite
    pivot was detected (the pass stops there).
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
            a = np.vdot(G[:, r], G[:, s])
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
            rotate_columns(G, r, s, phase, cs, sn, hyp)
            if W.shape[0] > 0:
                rotate_columns(W, r, s, phase, cs, sn, hyp)
            nrot += 1
            at = abs(t)
            if at > max_t:
                max_t = at
            if at > quad_tol:
                nbig += 1
    return nrot, nbig, max_t, -1, -1


sweep_pairs_py = _sweep_pairs
sweep_pairs_jit = jit_kernel(_sweep_pairs) if HAVE_NUMBA else None
sweep_pairs = sweep_pairs_jit if NUMBA_ENABLED else sweep_pairs_py
