"""Relative accuracy on a graded matrix, against a 50-digit reference.

H = D A D with D = logspace(0, -8, n) and a well-conditioned A has
eigenvalues from about 1 down to about 1e-16.  A relatively accurate solver
gets every one of them to O(kappa(A_s) n eps) relative error, where A_s is H
scaled to unit diagonal; every variant must stay within a small factor of
the non-blocked ``seq``.  LAPACK's ``eigvalsh`` is only backward stable, so
its error on the small eigenvalues is printed, not asserted.
"""

import mpmath
import numpy as np
import pytest

from conftest import graded_hermitian
from hjacobi.solve import ALL_VARIANTS, SolveOptions, solve_hermitian

EPS = np.finfo(np.float64).eps
N = 24
DIGITS = 50


def mp_eigenvalues(H):
    """Eigenvalues of H at DIGITS digits, descending, rounded to float."""
    n = H.shape[0]
    with mpmath.workdps(DIGITS):
        if np.iscomplexobj(H):
            M = mpmath.matrix([[mpmath.mpc(complex(H[i, j])) for j in range(n)] for i in range(n)])
            ev = mpmath.eighe(M, eigvals_only=True)
        else:
            M = mpmath.matrix([[mpmath.mpf(float(H[i, j])) for j in range(n)] for i in range(n)])
            ev = mpmath.eigsy(M, eigvals_only=True)
        return np.array(sorted((float(e) for e in ev), reverse=True))


def scaled_kappa(H):
    s = 1.0 / np.sqrt(np.abs(np.diag(H).real))
    w = np.abs(np.linalg.eigvalsh(H * np.outer(s, s)))
    return w.max() / w.min()


def rel_error(lam, ref):
    return float(np.max(np.abs(np.sort(lam)[::-1] - ref) / np.abs(ref)))


@pytest.fixture(scope="module", params=[False, True], ids=["real", "complex"])
def graded(request):
    H, _, _ = graded_hermitian(np.random.default_rng(24), N, -8, request.param)
    return H, mp_eigenvalues(H)


def test_graded_relative_accuracy(graded):
    H, ref = graded
    bound = 16.0 * scaled_kappa(H) * N * EPS
    errors = {}
    for variant in ALL_VARIANTS:
        opts = SolveOptions(variant=variant, p=1 if variant.startswith("seq") else 2,
                            nt_outer=N // 4, inner_nt=N // 8)
        result, _ = solve_hermitian(H, opts)
        assert result.converged, variant
        errors[variant] = rel_error(result.eigenvalues, ref)
    print(f"graded n={N}: eigvalsh {rel_error(np.linalg.eigvalsh(H), ref):.1e}, "
          + ", ".join(f"{v} {e:.1e}" for v, e in errors.items())
          + f"; bound {bound:.1e}")
    for variant, err in errors.items():
        assert err <= 4.0 * max(errors["seq"], N * EPS), variant
        assert err <= bound, variant
