"""Relative accuracy on a graded matrix, against a 50-digit reference.

H = D A D with D = logspace(0, -8, n) and a well-conditioned A has
eigenvalues from about 1 down to about 1e-16 (1e-24 for D down to 1e-12).
A relatively accurate solver gets every one of them to O(kappa(A_s) n eps)
relative error, where A_s is H scaled to unit diagonal; every variant, and
each ring variant with both strategies at p = 2 and 4, must stay within a
small factor of the non-blocked ``seq``.  Its eigenvectors must meet the
matching bound, O(kappa(A_s) n eps / relgap_i) in norm (Demmel and
Veselic).  LAPACK's ``eigvalsh`` and ``eigh`` are only backward stable, so
their errors on the small eigenpairs are printed, not asserted.
"""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import graded_hermitian, graded_input
from hjacobi.solve import ALL_VARIANTS, SolveOptions, solve_hermitian

EPS = np.finfo(np.float64).eps
DIGITS = 50


def mp_eigh(H):
    """Eigenvalues of H, descending, and their unit eigenvectors, from one
    DIGITS-digit eigensolve rounded to float."""
    n = H.shape[0]
    with mpmath.workdps(DIGITS):
        if np.iscomplexobj(H):
            M = mpmath.matrix([[mpmath.mpc(complex(H[i, j])) for j in range(n)] for i in range(n)])
            ev, Q = mpmath.eighe(M)
            scalar = complex
        else:
            M = mpmath.matrix([[mpmath.mpf(float(H[i, j])) for j in range(n)] for i in range(n)])
            ev, Q = mpmath.eigsy(M)
            scalar = float
        lam = np.array([float(e) for e in ev])
        V = np.array([[scalar(Q[i, j]) for j in range(n)] for i in range(n)])
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def scaled_kappa(H):
    s = 1.0 / np.sqrt(np.abs(np.diag(H).real))
    w = np.abs(np.linalg.eigvalsh(H * np.outer(s, s)))
    return w.max() / w.min()


def rel_error(lam, ref):
    return float(np.max(np.abs(np.sort(lam)[::-1] - ref) / np.abs(ref)))


def rel_gaps(lam):
    """relgap_i = min over j != i of |lam_j - lam_i| / |lam_i|."""
    gaps = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=1) / np.abs(lam)


def vector_errors(U, V):
    """Per column: ||u_i - v_i|| and max_j |u_i(j) - v_i(j)| / |v_i(j)|, with
    each u_i first turned to the phase of v_i."""
    c = np.sum(V.conj() * U, axis=0)
    D = U * (np.abs(c) / c) - V
    return np.linalg.norm(D, axis=0), (np.abs(D) / np.abs(V)).max(axis=0)


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
    """(H, reference eigenvalues, reference eigenvectors)."""
    n, decades, complex_scalars = request.param
    H, _, _ = graded_hermitian(np.random.default_rng(n), n, decades, complex_scalars)
    return (H, *mp_eigh(H))


@pytest.fixture(scope="module")
def solved(graded):
    """{config: EigenResult} of every configuration on the graded input."""
    H = graded[0]
    n = H.shape[0]
    return {(variant, strategy, p): solve_hermitian(
                H, SolveOptions(variant=variant, strategy=strategy, p=p,
                                nt_outer=n // 4, inner_nt=n // 8))[0]
            for variant, strategy, p in configs()}


def assert_relative_accuracy(H, ref, solved):
    """Every configuration of ``solved`` converged, and its eigenvalues'
    largest relative error is within 16 kappa(A_s) n eps and 4x ``seq``'s."""
    n = H.shape[0]
    bound = 16.0 * scaled_kappa(H) * n * EPS
    errors = {}
    for config, result in solved.items():
        assert result.converged, config
        errors[config] = rel_error(result.eigenvalues, ref)
    print(f"graded n={n}: eigvalsh {rel_error(np.linalg.eigvalsh(H), ref):.1e}, "
          + ", ".join(f"{v}/{s}/p={p} {e:.1e}" for (v, s, p), e in errors.items())
          + f"; bound {bound:.1e}")
    seq = errors[("seq", "modulus", 1)]
    for config, err in errors.items():
        assert err <= 4.0 * max(seq, n * EPS), config
        assert err <= bound, config


def test_graded_relative_accuracy(graded, solved):
    assert_relative_accuracy(graded[0], graded[1], solved)


def test_graded_eigenvector_accuracy(graded, solved):
    """||u_i - v_i|| <= 16 kappa(A_s) n eps / relgap_i for every eigenvector,
    with the constant of the eigenvalue bound.  Printed, in units of
    n eps / relgap_i: each configuration's worst normwise error, and ``eigh``'s
    for comparison; and the largest componentwise error |u_i(j) - v_i(j)| /
    |v_i(j)|, which is not asserted: the componentwise bound scales by the
    diagonal of H, not by |v_i(j)|, and the tiny entries miss the latter."""
    H, ref, V = graded
    n = H.shape[0]
    gap = rel_gaps(ref)
    bound = 16.0 * scaled_kappa(H) * n * EPS / gap
    report = {}
    for config, result in solved.items():
        err, comp = vector_errors(result.eigenvectors, V)
        report[config] = (float(np.max(err * gap)) / (n * EPS), float(comp.max()))
        assert np.all(err <= bound), config
    eigh_err, eigh_comp = vector_errors(np.linalg.eigh(H)[1][:, ::-1], V)
    print(f"graded n={n} vectors (normwise in n eps/relgap, componentwise): eigh "
          f"{np.max(eigh_err * gap) / (n * EPS):.2g} {eigh_comp.max():.1e}, "
          + ", ".join(f"{v}/{s}/p={p} {e:.2f} {c:.1e}" for (v, s, p), (e, c) in report.items())
          + f"; bound {16.0 * scaled_kappa(H):.1f}")


# -- default block sizes ----------------------------------------------------

REFS = json.loads(Path(__file__).with_name("graded_refs.json").read_text())


@pytest.mark.parametrize("spec", REFS, ids=[spec["name"] for spec in REFS])
def test_graded_relative_accuracy_at_default_block_sizes(spec):
    """The graded inputs of ``benchmarks/graded_refs.py`` at n = 128 (D down
    to 1e-12; one with kappa(A_s) about 6e4), solved by every configuration
    with the default block sizes, so through pivots 64 and 128 columns wide,
    meet the bounds above against the saved 50-digit eigenvalues."""
    H, digest = graded_input(spec)
    assert digest == spec["sha256"], "the input moved: rerun benchmarks/graded_refs.py"
    solved = {(variant, strategy, p): solve_hermitian(
                  H, SolveOptions(variant=variant, strategy=strategy, p=p))[0]
              for variant, strategy, p in configs()}
    assert_relative_accuracy(H, np.array(spec["eigenvalues"]), solved)
