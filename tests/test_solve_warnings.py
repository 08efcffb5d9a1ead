"""No solve raises a RuntimeWarning.

Every variant solves a dense input, a graded D A D input and a
block-diagonal H with every warning raised as an error.  The factor of a
block-diagonal H has pairs of exactly orthogonal columns, one from each
block, in every sweep, so most kernel rounds skip some of their pairs and
rotate the others; the graded input puts columns of norms 12 decades apart
into one round.
"""

import warnings

import numpy as np
import pytest

from conftest import graded_hermitian
from hjacobi import EigSpec, generate_test_matrix
from hjacobi.solve import ALL_VARIANTS, SolveOptions, solve_hermitian

N = 24


def make_input(rng, kind, complex_scalars):
    def dense(n, seed):
        spec = EigSpec(mode="log_uniform", lo=1e-3, hi=1.0, neg_fraction=0.4, seed=seed)
        return generate_test_matrix(n, spec, complex_scalars)

    if kind == "dense":
        return dense(N, 3)
    if kind == "graded":
        return graded_hermitian(rng, N, -6, complex_scalars)[0]
    H = np.zeros((N, N), dtype=complex if complex_scalars else float, order="F")
    H[:N // 2, :N // 2] = dense(N // 2, 4)
    H[N // 2:, N // 2:] = dense(N - N // 2, 5)
    return H


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("kind", ["dense", "graded", "block_diagonal"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_solves_raise_no_runtime_warning(rng, variant, kind, complex_scalars):
    H = make_input(rng, kind, complex_scalars)
    opts = SolveOptions(variant=variant, p=1 if variant.startswith("seq") else 2,
                        nt_outer=N // 4, inner_nt=N // 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, _ = solve_hermitian(H, opts)
    assert res.converged
    expected = np.linalg.eigvalsh(H)[::-1]
    assert np.abs(res.eigenvalues - expected).max() <= 1e-10 * np.abs(expected).max()
