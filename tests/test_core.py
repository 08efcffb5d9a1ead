import numpy as np
import pytest

from hjacobi.core import (
    EigenResult,
    as_matrix,
    as_signs,
    column_norms_squared,
    gram,
    hermitize,
)

EPS = np.finfo(np.float64).eps


def test_gram_identity():
    assert np.array_equal(gram(np.eye(2)), np.eye(2))


def test_gram_hand_dot_products():
    G = np.array([[2.0, 1.0], [0.0, 1.0]])
    assert np.allclose(gram(G), [[4.0, 2.0], [2.0, 2.0]], rtol=0, atol=0)


def test_gram_orthogonal_unit_columns():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert gram(e1, e2) == np.array([[0.0]])


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        gram(np.ones((3, 2)), np.ones((2, 2)))


def test_gram_same_input_is_exactly_hermitian(rng):
    G = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    A = gram(G)
    assert np.array_equal(A, A.conj().T)


def test_gram_full_rank_is_positive_definite(rng):
    G = rng.standard_normal((10, 6))
    np.linalg.cholesky(gram(G))  # must not raise


def test_column_norms_identity():
    assert np.array_equal(column_norms_squared(np.eye(3)), np.ones(3))


def test_column_norms_three_four_five():
    assert column_norms_squared(np.array([[3.0], [4.0]])) == np.array([25.0])


def test_column_norms_empty():
    v = column_norms_squared(np.zeros((4, 0)))
    assert v.shape == (0,)


def test_column_norms_match_gram_diagonal(rng):
    G = rng.standard_normal((30, 12)) + 1j * rng.standard_normal((30, 12))
    d = column_norms_squared(G)
    ref = np.diag(gram(G)).real
    assert np.all(np.abs(d - ref) <= 4 * 30 * EPS * np.abs(ref))


def test_as_signs_validates():
    assert np.array_equal(as_signs([1, -1, 1]), np.array([1, -1, 1], dtype=np.int8))
    with pytest.raises(ValueError):
        as_signs([1, 0, -1])


def test_as_matrix_fortran_order():
    A = as_matrix([[1, 2], [3, 4]])
    assert A.flags.f_contiguous and A.dtype == np.float64


def test_hermitize(rng):
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = hermitize(A)
    assert np.array_equal(H, H.conj().T)


def test_eigen_result_count_mismatch():
    with pytest.raises(ValueError):
        EigenResult(eigenvalues=np.ones(3), eigenvectors=np.eye(2),
                    sweeps=1, rotations=0, converged=True)


def test_eigen_result_sign_consistency():
    r = EigenResult(eigenvalues=np.array([4.0, -9.0]),
                    eigenvectors=np.eye(2), sweeps=1, rotations=0,
                    converged=True)
    assert r.eigenvalues[0] > 0 > r.eigenvalues[1]


def test_root_exports_resolve():
    """Every name in ``hjacobi.__all__`` is defined, so a deletion cannot
    leave a stale export behind."""
    import hjacobi

    namespace = {}
    exec("from hjacobi import *", namespace)
    for name in hjacobi.__all__:
        assert getattr(hjacobi, name) is namespace[name]
    assert len(set(hjacobi.__all__)) == len(hjacobi.__all__)
