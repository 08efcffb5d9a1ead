import math

import numpy as np
import pytest

from conftest import graded_hermitian, random_full_rank, random_hermitian
from hjacobi.core import gram, hermitize
from hjacobi.errors import RankDeficiencyError, SingularMatrixError
from hjacobi.factorization import (
    ALPHA,
    _eigh_pivot,
    accept_external_factor,
    factorize_hermitian_indefinite,
    order_by_inertia,
    scaled_condition,
)
from hjacobi.testmat import EigSpec, generate_test_matrix

EPS = np.finfo(np.float64).eps


def reconstruct(f):
    return f.G @ np.diag(f.J.astype(float)) @ f.G.conj().T


def check_factorization(H, factor=50.0):
    n = H.shape[0]
    f = factorize_hermitian_indefinite(H)
    PHP = H[np.ix_(f.P, f.P)]
    err = np.abs(PHP - reconstruct(f)).max()
    assert err <= factor * max(n, 1) * EPS * np.abs(H).max()
    w = np.linalg.eigvalsh(H)
    assert (int(np.sum(f.J > 0)), int(np.sum(f.J < 0))) == \
           (int(np.sum(w > 0)), int(np.sum(w < 0)))
    return f


def test_spd_diagonal():
    # complete pivoting brings the 9 pivot first: PHP^T = diag(9,4) = G G^*
    f = check_factorization(np.diag([4.0, 9.0]))
    assert np.array_equal(np.sort(f.J), [1, 1])
    assert sorted(np.abs(np.diag(f.G))) == [2.0, 3.0]


def test_antidiagonal_two_by_two():
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = check_factorization(H)
    assert sorted(f.J) == [-1, 1]


def test_negative_scalar():
    f = factorize_hermitian_indefinite(np.array([[-1.0]]))
    assert f.G == np.array([[1.0]]) and f.J[0] == -1


def test_singular_rejected():
    with pytest.raises(SingularMatrixError):
        factorize_hermitian_indefinite(np.zeros((3, 3)))


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        factorize_hermitian_indefinite(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_non_finite_rejected():
    H = np.eye(3)
    H[1, 1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        factorize_hermitian_indefinite(H)


@pytest.mark.parametrize("n", [5, 20, 100])
@pytest.mark.parametrize("complex_scalars", [False, True])
def test_factorization_oracle(rng, n, complex_scalars):
    for k in range(4):
        spec = EigSpec(mode="log_uniform", lo=1e-4, hi=1.0,
                       neg_fraction=0.4, seed=1000 * n + k)
        H = generate_test_matrix(n, spec, complex_scalars)
        check_factorization(H)


def test_two_by_two_pivot_path(rng):
    # zero diagonal forces 2x2 pivots
    H = random_hermitian(rng, 8)
    np.fill_diagonal(H, 0.0)
    if abs(np.linalg.det(H)) > 1e-8:
        check_factorization(H)


def reference_factorization(H):
    """(G, J, P) by the plain Bunch-Parlett search: the largest modulus of the
    diagonal against the first largest of the strict lower triangle in
    row-major order, with symmetric swaps of all of A and of G's rows."""
    A = np.asfortranarray(hermitize(H))
    n = A.shape[0]
    perm, low = np.arange(n), np.tri(n, k=-1, dtype=bool)
    G, J = np.zeros_like(A), np.empty(n, dtype=np.int8)
    k = 0
    while k < n:
        T = A[k:, k:]
        diag = np.abs(np.diag(T).real)
        i1 = int(np.argmax(diag))
        Off = np.where(low[k:, k:], np.abs(T), 0.0)
        r0, c0 = np.unravel_index(int(np.argmax(Off)), Off.shape)
        if diag[i1] >= ALPHA * Off[r0, c0]:
            s, swaps = 1, ((k, k + i1),)
        else:
            s, swaps = 2, ((k, k + c0), (k + 1, k + r0))
        for dst, src in swaps:
            for M in (A, A.T, G, perm):
                M[[dst, src]] = M[[src, dst]]
        if s == 1:
            lam, Q = np.array([A[k, k].real]), np.eye(1)
        else:
            lam, Q = _eigh_pivot(A[k:, k:])
        sgn, root = np.copysign(1.0, lam), np.sqrt(np.abs(lam))
        L = A[k + s :, k : k + s] @ (Q * (sgn / root))
        G[k : k + s, k : k + s] = Q * root
        G[k + s :, k : k + s] = L
        A[k + s :, k + s :] -= (L.conj() @ (L * sgn).T).T
        J[k : k + s] = sgn
        k += s
    return G, J, perm


def pivot_oracle_inputs():
    """Real inputs: random, integer-valued with many tied moduli, zero-diagonal
    saddle-point blocks (2x2 pivots) and graded D A D down to 1e-10."""
    rng = np.random.default_rng(19)
    for n in (5, 16, 48):
        yield f"random-{n}", random_hermitian(rng, n)
    for n in (6, 12, 24, 40):
        for _ in range(3):
            E = rng.integers(-2, 3, size=(n, n)).astype(float)
            H = np.tril(E) + np.tril(E, -1).T
            if abs(np.linalg.det(H)) >= 0.5:  # an integer determinant: nonsingular
                yield f"integer-{n}", H
    for m in (3, 8, 20):
        B = random_full_rank(rng, m, m)
        yield f"saddle-{m}", np.block([[np.zeros((m, m)), B.T], [B, np.zeros((m, m))]])
        A = random_hermitian(rng, m)
        np.fill_diagonal(A, 0.0)
        yield f"saddle-A-{m}", np.block([[A, B.T], [B, np.zeros((m, m))]])
    for n, decades in ((32, -6), (64, -10), (96, -10)):
        yield f"graded-{n}", graded_hermitian(np.random.default_rng(n), n, decades)[0]


def test_pivot_choice_matches_the_plain_search():
    """The search by maxima, the scalar 1x1 step and the swaps on the
    trailing block only give the plain search's P, J and bytes of G on
    every real input, ties and 2x2 pivots included."""
    two_by_two = 0
    for name, H in pivot_oracle_inputs():
        G, J, P = reference_factorization(H)
        f = factorize_hermitian_indefinite(H)
        assert np.array_equal(f.P, P) and np.array_equal(f.J, J), name
        assert f.G.tobytes() == G.tobytes() and f.G.flags.f_contiguous, name
        two_by_two += int(np.count_nonzero(np.triu(G, 1)))
    assert two_by_two >= 20  # the inputs exercise the 2x2 path


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_graded_matrix_factors(complex_scalars):
    # pivots fall to ~1e-16 * max|H|, far below an absolute threshold, but
    # each is large against what is left of H
    n = 32
    for decades in (-8, -12):
        H, _, n_neg = graded_hermitian(np.random.default_rng(8), n, decades, complex_scalars)
        f = factorize_hermitian_indefinite(H)
        assert int(np.sum(f.J < 0)) == n_neg, decades
        err = np.abs(H[np.ix_(f.P, f.P)] - reconstruct(f)).max()
        assert err <= 50.0 * n * EPS * np.abs(H).max(), decades


@pytest.mark.parametrize("n", [5, 20, 64])
@pytest.mark.parametrize("complex_scalars", [False, True])
def test_rank_deficient_rejected(rng, n, complex_scalars):
    d = np.logspace(0, -8, n)
    for r in sorted({1, n // 2, n - 1}):
        V, _ = np.linalg.qr(random_full_rank(rng, n, n, complex_scalars))
        S = rng.uniform(0.5, 2.0, r) * np.where(np.arange(r) % 2, -1.0, 1.0)
        H = (V[:, :r] * S) @ V[:, :r].conj().T
        for Hs in (H, d[:, None] * H * d[None, :]):  # plain and graded
            with pytest.raises(SingularMatrixError):
                factorize_hermitian_indefinite((Hs + Hs.conj().T) / 2.0)
    # [[A, B^*], [B, 0]] with dependent rows in B: the block left after A is
    # eliminated is zero in H, only its fill-in is not
    m = max(2, n // 4)
    X = random_full_rank(rng, n - m, n - m, complex_scalars)
    B = rng.standard_normal((m, m - 1)) @ random_full_rank(rng, n - m, m - 1, complex_scalars).T
    A = X @ X.conj().T + (n - m) * np.eye(n - m)
    H = np.block([[A, B.conj().T], [B, np.zeros((m, m))]])
    with pytest.raises(SingularMatrixError):
        factorize_hermitian_indefinite(H)


def test_order_by_inertia_stable_partition():
    G = np.asfortranarray(np.eye(4))
    J = np.array([-1, 1, 1, -1], np.int8)
    f = accept_external_factor(G, J)
    g = order_by_inertia(f)
    assert np.array_equal(g.J, [1, 1, -1, -1])
    assert np.array_equal(g.P1, [1, 2, 0, 3])


def test_order_by_inertia_identity_when_sorted():
    f = accept_external_factor(np.asfortranarray(np.eye(2)),
                               np.array([1, 1], np.int8))
    g = order_by_inertia(f)
    assert np.array_equal(g.P1, [0, 1])


def test_order_by_inertia_preserves_spectrum(rng):
    G = random_full_rank(rng, 6, 6)
    J = np.array([1, -1, 1, -1, -1, 1], np.int8)
    before = np.sort(np.linalg.eigvalsh(
        (G @ np.diag(J.astype(float)) @ G.conj().T)))
    g = order_by_inertia(accept_external_factor(G, J))
    after = np.sort(np.linalg.eigvalsh(
        (g.G @ np.diag(g.J.astype(float)) @ g.G.conj().T)))
    assert np.allclose(before, after, rtol=1e-12, atol=1e-13)


def test_scaled_condition_identity():
    assert scaled_condition(np.eye(3)) == pytest.approx(1.0)


def test_scaled_condition_removes_grading():
    assert scaled_condition(np.diag([1e6, 1.0])) == pytest.approx(1.0)


def test_scaled_condition_half_offdiagonal():
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert scaled_condition(A) == pytest.approx(3.0, rel=1e-14)


def test_scaled_condition_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        scaled_condition(np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_accept_external_identity():
    f = accept_external_factor(np.asfortranarray(np.eye(3)),
                               np.ones(3, np.int8))
    assert np.array_equal(f.P, [0, 1, 2])


def test_accept_external_rectangular(rng):
    G = random_full_rank(rng, 4, 2)
    J = np.array([1, -1], np.int8)
    f = accept_external_factor(G, J)
    H = reconstruct(f)
    w = np.linalg.eigvalsh(H)
    nonzero = w[np.abs(w) > 1e-10]
    assert nonzero.size == 2


def test_accept_external_rank_deficient():
    G = np.asfortranarray(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(RankDeficiencyError):
        accept_external_factor(G, np.ones(2, np.int8))


def test_lower_block_triangular_structure(rng):
    H = random_hermitian(rng, 12)
    f = factorize_hermitian_indefinite(H)
    # G is lower block-triangular with 1x1/2x2 diagonal blocks: entries more
    # than one position above the diagonal must vanish
    upper = np.triu(f.G, 2)
    assert np.abs(upper).max() == 0.0


def test_gram_of_factor_is_positive_definite(rng):
    H = random_hermitian(rng, 20)
    f = factorize_hermitian_indefinite(H)
    np.linalg.cholesky(gram(f.G))
