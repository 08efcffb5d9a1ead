"""Relative accuracy on a graded matrix, against a 50-digit reference.

H = D A D with D = logspace(0, -8, n) and a well-conditioned A has
eigenvalues from about 1 down to about 1e-16 (1e-24 for D down to 1e-12).
A relatively accurate solver gets every one of them to O(kappa(A_s) n eps)
relative error, where A_s is H scaled to unit diagonal; every variant, and
each ring variant with both strategies at p = 2 and 4, must stay within a
small factor of the non-blocked ``seq``.  LAPACK's ``eigvalsh`` is only
backward stable, so its error on the small eigenvalues is printed, not
asserted.
"""

import mpmath
import numpy as np
import pytest

from conftest import graded_hermitian
from hjacobi.solve import ALL_VARIANTS, SolveOptions, solve_hermitian

EPS = np.finfo(np.float64).eps
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


def configs():
    """(variant, strategy, p): the seq* variants at p = 1, each ring variant
    with both strategies at p = 2 and 4."""
    for variant in ALL_VARIANTS:
        if variant.startswith("seq"):
            yield variant, "modulus", 1
        else:
            for strategy in ("modulus", "round_robin"):
                for p in (2, 4):
                    yield variant, strategy, p


# (n, decades of D, complex scalars)
@pytest.fixture(scope="module",
                params=[(24, -8, False), (24, -8, True), (48, -12, False), (48, -12, True)],
                ids=["real", "complex", "real-n48", "complex-n48"])
def graded(request):
    n, decades, complex_scalars = request.param
    H, _, _ = graded_hermitian(np.random.default_rng(n), n, decades, complex_scalars)
    return H, mp_eigenvalues(H)


def test_graded_relative_accuracy(graded):
    H, ref = graded
    n = H.shape[0]
    bound = 16.0 * scaled_kappa(H) * n * EPS
    errors = {}
    for variant, strategy, p in configs():
        opts = SolveOptions(variant=variant, strategy=strategy, p=p,
                            nt_outer=n // 4, inner_nt=n // 8)
        result, _ = solve_hermitian(H, opts)
        assert result.converged, (variant, strategy, p)
        errors[(variant, strategy, p)] = rel_error(result.eigenvalues, ref)
    print(f"graded n={n}: eigvalsh {rel_error(np.linalg.eigvalsh(H), ref):.1e}, "
          + ", ".join(f"{v}/{s}/p={p} {e:.1e}" for (v, s, p), e in errors.items())
          + f"; bound {bound:.1e}")
    seq = errors[("seq", "modulus", 1)]
    for config, err in errors.items():
        assert err <= 4.0 * max(seq, n * EPS), config
        assert err <= bound, config
