import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n, complex_scalars=False, scale=1.0):
    A = rng.standard_normal((n, n))
    if complex_scalars:
        A = A + 1j * rng.standard_normal((n, n))
    return scale * (A + A.conj().T) / 2.0


def random_full_rank(rng, m, n, complex_scalars=False):
    while True:
        G = rng.standard_normal((m, n))
        if complex_scalars:
            G = G + 1j * rng.standard_normal((m, n))
        if np.linalg.matrix_rank(G) == n:
            return np.asfortranarray(G)


def graded_hermitian(rng, n, decades, complex_scalars=False, neg_fraction=0.4):
    """H = D A D with D = logspace(0, decades, n) and A = S + E, where S is
    diagonal with |S_ii| in [1, 1.25] and ||E||_2 = 0.2.  A is then
    well-conditioned and has S's inertia, which D A D shares; returns
    (H, A, number of negative eigenvalues)."""
    n_neg = int(round(neg_fraction * n))
    signs = np.ones(n)
    signs[rng.permutation(n)[:n_neg]] = -1.0
    E = random_hermitian(rng, n, complex_scalars)
    A = np.diag(signs * rng.uniform(1.0, 1.25, n)) + E * (0.2 / np.linalg.norm(E, 2))
    d = np.logspace(0, decades, n)
    return d[:, None] * A * d[None, :], A, n_neg
