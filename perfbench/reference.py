"""Work the benchmark does apart from hjacobi.

``ref_computation`` is the time base of every ``*_ref`` metric: a fixed
interpreted loop of ``np.vdot`` and column updates on a real and a complex
array, the same mix of interpreter and BLAS-1 work as the rotation kernel.
Timed next to the solves, it scales with the host's speed as they do, so a
solve time divided by it cancels the host's drift but not a change to the
program.  This module never imports hjacobi.

``mp_eigenvalues`` gives the graded inputs' eigenvalues at 30 digits.
"""

import mpmath
import numpy as np

REF_ROWS, REF_COLS, REF_REPEATS = 128, 24, 3
MP_DIGITS = 30

_C, _S = np.cos(1e-3), np.sin(1e-3)


def ref_arrays():
    rng = np.random.default_rng(0)
    X = np.asfortranarray(rng.standard_normal((REF_ROWS, REF_COLS)))
    Z = np.asfortranarray(X + 1j * rng.standard_normal((REF_ROWS, REF_COLS)))
    return X, Z


def ref_computation(arrays):
    """One unit of reference work; returns a checksum so it cannot be skipped."""
    acc = 0.0
    for M in arrays:
        for _ in range(REF_REPEATS):
            for s in range(1, REF_COLS):
                for r in range(s):
                    a = np.vdot(M[:, r], M[:, s])
                    acc += abs(a)
                    new_r = _C * M[:, r] - _S * M[:, s]
                    new_s = _S * M[:, r] + _C * M[:, s]
                    M[:, r] = new_r
                    M[:, s] = new_s
    return acc


def mp_eigenvalues(H):
    """Eigenvalues of Hermitian H at MP_DIGITS digits, descending, as floats."""
    n = H.shape[0]
    with mpmath.workdps(MP_DIGITS):
        if np.iscomplexobj(H):
            M = mpmath.matrix([[mpmath.mpc(complex(H[i, j])) for j in range(n)]
                               for i in range(n)])
            ev = mpmath.eighe(M, eigvals_only=True)
        else:
            M = mpmath.matrix([[mpmath.mpf(float(H[i, j])) for j in range(n)]
                               for i in range(n)])
            ev = mpmath.eigsy(M, eigvals_only=True)
        return np.array(sorted((float(e) for e in ev), reverse=True))
