import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjacobi.core import column_norms_squared, gram
from hjacobi.errors import PivotDefinitenessError
from hjacobi.rotations import (
    HYPERBOLIC,
    IDENTITY,
    TRIGONOMETRIC,
    Tolerances,
    apply_rotation,
    compute_plane_rotation,
    extract_eigen,
    jacobi_cycle,
    jacobi_diagonalize,
)

EPS = np.finfo(np.float64).eps


def pivot_matrix(a_rr, a_ss, a_rs):
    return np.array([[a_rr, a_rs], [np.conj(a_rs), a_ss]])


def check_contract(a_rr, a_ss, a_rs, j_rr, j_ss):
    """J-unitarity + annihilation for one pivot; returns the rotation."""
    rot = compute_plane_rotation(a_rr, a_ss, a_rs, j_rr, j_ss)
    W = rot.matrix
    Jp = np.diag([float(j_rr), float(j_ss)])
    A = pivot_matrix(a_rr, a_ss, a_rs)
    assert np.abs(W.conj().T @ Jp @ W - Jp).max() <= 16 * EPS
    B = W.conj().T @ A @ W
    assert abs(B[0, 1]) <= 16 * EPS * np.abs(A).max()
    return rot


def test_trig_example_closed_form():
    # pivot (4, 2, 1) with equal signs: eigenvalues 3 +- sqrt(2)
    rot = check_contract(4.0, 2.0, 1.0, 1, 1)
    assert rot.kind == TRIGONOMETRIC
    W = rot.matrix
    B = W.conj().T @ pivot_matrix(4.0, 2.0, 1.0) @ W
    d = sorted(np.diag(B).real)
    assert d == pytest.approx([3 - math.sqrt(2), 3 + math.sqrt(2)], rel=1e-15)


def test_hyperbolic_example_closed_form():
    # pivot (2, 2, 1) with signs (+, -): t = -2 + sqrt(3), diagonal {sqrt(3)}
    rot = check_contract(2.0, 2.0, 1.0, 1, -1)
    assert rot.kind == HYPERBOLIC
    assert rot.t == pytest.approx(-2 + math.sqrt(3), rel=1e-15)
    W = rot.matrix
    B = W.conj().T @ pivot_matrix(2.0, 2.0, 1.0) @ W
    assert np.diag(B).real == pytest.approx([math.sqrt(3)] * 2, rel=1e-14)


def test_zero_offdiagonal_is_identity():
    rot = compute_plane_rotation(5.0, 7.0, 0.0, 1, 1)
    assert rot.kind == IDENTITY and rot.cs == 1.0 and rot.sn == 0.0


def test_indefinite_pivot_rejected():
    with pytest.raises(PivotDefinitenessError):
        compute_plane_rotation(1.0, 1.0, 2.0, 1, -1)


def test_trig_bounds_and_hyperbolic_cs():
    trig = compute_plane_rotation(4.0, 2.0, 1.0, 1, 1)
    assert abs(trig.t) <= 1.0 and 0 < trig.cs <= 1.0
    hyp = compute_plane_rotation(2.0, 2.0, 1.0, 1, -1)
    assert hyp.cs >= 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(-1, 1),
       st.floats(0, 2 * math.pi), st.booleans(), st.booleans())
def test_rotation_contract_property(a_rr, a_ss, frac, phase, complex_piv, hyp):
    bound = math.sqrt(a_rr * a_ss)
    if abs(frac) < 1e-150:
        # subnormal off-diagonals lose phase precision; the solver's skip
        # threshold filters them out long before a rotation is computed
        frac = 0.0
    a_rs = 0.98 * frac * bound
    if complex_piv:
        a_rs = a_rs * complex(math.cos(phase), math.sin(phase))
    j_ss = -1 if hyp else 1
    check_contract(a_rr, a_ss, a_rs, 1, j_ss)


def test_apply_identity_rotation_noop():
    G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
    W = np.eye(2, order="F")
    D = column_norms_squared(G)
    rot = compute_plane_rotation(5.0, 7.0, 0.0, 1, 1)
    G0, D0 = G.copy(), D.copy()
    apply_rotation(G, W, D, 0, 1, rot, hyp=-1)
    assert np.array_equal(G, G0) and np.array_equal(D, D0)


def test_apply_rotation_two_column_example():
    # gram pivot (4, 2, 2): eigenvalues 3 +- sqrt(5)
    G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
    W = np.eye(2, order="F")
    D = column_norms_squared(G)
    rot = compute_plane_rotation(4.0, 2.0, 2.0, 1, 1)
    apply_rotation(G, W, D, 0, 1, rot, hyp=-1)
    assert abs(np.vdot(G[:, 0], G[:, 1])) <= 16 * EPS * 4
    norms = sorted(column_norms_squared(G))
    assert norms == pytest.approx([3 - math.sqrt(5), 3 + math.sqrt(5)], rel=1e-14)
    assert sorted(D) == pytest.approx(sorted(norms), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.2, 5), st.floats(0.2, 5), st.floats(-0.95, 0.95),
       st.booleans())
def test_diagonal_conservation_laws(a_rr, a_ss, frac, hyperbolic):
    """Trig preserves D_r + D_s; hyperbolic preserves D_r - D_s."""
    a_rs = frac * math.sqrt(a_rr * a_ss)
    j_ss = -1 if hyperbolic else 1
    try:
        rot = compute_plane_rotation(a_rr, a_ss, a_rs, 1, j_ss)
    except PivotDefinitenessError:
        return
    D = np.array([a_rr, a_ss])
    L = np.linalg.cholesky(pivot_matrix(a_rr, a_ss, a_rs))
    G = np.asfortranarray(L.conj().T)
    W = np.eye(2, order="F")
    apply_rotation(G, W, D, 0, 1, rot, hyp=1 if hyperbolic else -1)
    before = a_rr - a_ss if hyperbolic else a_rr + a_ss
    after = D[0] - D[1] if hyperbolic else D[0] + D[1]
    assert abs(after - before) <= 32 * EPS * (abs(D[0]) + abs(D[1]) + 1)


def test_cycle_orthogonal_columns_no_rotations():
    G = np.asfortranarray(np.eye(4))
    D = column_norms_squared(G)
    W = np.eye(4, order="F")
    stats = jacobi_cycle(G, np.ones(4, np.int8), D, W, 4, 0, True)
    assert stats.rotations == 0


def test_cycle_two_column_case():
    G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
    D = column_norms_squared(G)
    W = np.eye(2, order="F")
    stats = jacobi_cycle(G, np.ones(2, np.int8), D, W, 2, 0, True)
    assert stats.rotations == 1
    A = gram(G)
    assert abs(A[0, 1]) <= 32 * EPS


def test_cycle_cross_pair_count():
    G = np.asfortranarray(np.array([[2.0, 1.0], [1.0, 2.0]]))
    D = column_norms_squared(G)
    W = np.eye(2, order="F")
    stats = jacobi_cycle(G, np.ones(2, np.int8), D, W, 1, 1, False)
    assert stats.rotations <= 1  # exactly one pair visited


def test_diagonalize_orthogonal_input_one_sweep():
    G = np.asfortranarray(2.0 * np.eye(5))
    info = jacobi_diagonalize(G, np.ones(5, np.int8))
    assert info.converged and info.sweeps == 1 and info.rotations == 0


def test_diagonalize_hyperbolic_pair():
    # gram [[2,1],[1,2]] with J = (+,-): |eigenvalues| of the pencil = sqrt(3)
    L = np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
    G = np.asfortranarray(L.conj().T)
    J = np.array([1, -1], np.int8)
    info = jacobi_diagonalize(G, J)
    assert info.converged
    assert column_norms_squared(G) == pytest.approx([math.sqrt(3)] * 2, rel=1e-14)


def test_diagonalize_matches_reference(rng):
    G = np.asfortranarray(rng.standard_normal((6, 6)))
    ref = np.sort(np.linalg.eigvalsh(gram(G)))
    info = jacobi_diagonalize(G, np.ones(6, np.int8))
    assert info.converged
    got = np.sort(column_norms_squared(G))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_diagonalize_orthogonality_threshold(rng):
    G = np.asfortranarray(rng.standard_normal((12, 12)))
    tol = Tolerances()
    info = jacobi_diagonalize(G, np.ones(12, np.int8), tol)
    assert info.converged
    A = gram(G)
    norms = np.sqrt(np.diag(A).real)
    off = np.abs(A) / np.outer(norms, norms)
    np.fill_diagonal(off, 0.0)
    assert off.max() <= tol.orth(12)


def test_accumulated_w_is_j_unitary(rng):
    n = 10
    G = np.asfortranarray(rng.standard_normal((n, n)))
    J = np.array([1] * 5 + [-1] * 5, np.int8)
    info = jacobi_diagonalize(G, J, accumulate=True)
    W = info.W
    Jf = np.diag(J.astype(float))
    err = np.abs(W.conj().T @ Jf @ W - Jf).max()
    assert err <= 64 * n * EPS * np.linalg.norm(W, 2) ** 2


def test_nonconvergence_flag():
    rng = np.random.default_rng(5)
    G = np.asfortranarray(rng.standard_normal((16, 16)))
    info = jacobi_diagonalize(G, np.ones(16, np.int8),
                              Tolerances(max_sweeps=1))
    assert not info.converged and info.sweeps == 1


def test_extract_eigen_diagonal():
    G = np.asfortranarray(np.diag([2.0, 3.0]))
    r = extract_eigen(G, np.array([1, -1], np.int8))
    assert np.array_equal(r.eigenvalues, [4.0, -9.0])
    assert np.array_equal(r.eigenvectors, np.eye(2))


def test_extract_eigen_hadamard_factor():
    G = np.asfortranarray((1 / math.sqrt(2)) * np.array([[1.0, 1.0],
                                                         [1.0, -1.0]]))
    J = np.array([1, -1], np.int8)
    r = extract_eigen(G, J)
    assert r.eigenvalues == pytest.approx([1.0, -1.0])
    H = (r.eigenvectors * r.eigenvalues) @ r.eigenvectors.conj().T
    assert np.allclose(H, G @ np.diag(J.astype(float)) @ G.conj().T)


def test_extract_eigen_permutation():
    G = np.asfortranarray(np.diag([2.0, 3.0]))
    J = np.array([1, 1], np.int8)
    a = extract_eigen(G, J)
    b = extract_eigen(G, J, col_perm=np.array([1, 0]))
    assert sorted(a.eigenvalues) == sorted(b.eigenvalues)
    assert np.array_equal(b.eigenvalues, a.eigenvalues[::-1])
