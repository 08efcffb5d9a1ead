import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjacobi import _kernels
from hjacobi.core import column_norms_squared, gram
from hjacobi.errors import PivotDefinitenessError
from hjacobi.rotations import (
    HYPERBOLIC,
    IDENTITY,
    TRIGONOMETRIC,
    Tolerances,
    apply_rotation,
    compute_plane_rotation,
    cycle_members,
    extract_eigen,
    jacobi_cycle,
    jacobi_diagonalize,
)
from hjacobi.strategies import ROUND_ROBIN, generate_sweep_schedule

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
    apply_rotation(G, W, D, 0, 1, rot)
    assert np.array_equal(G, G0) and np.array_equal(D, D0)


def test_apply_rotation_two_column_example():
    # gram pivot (4, 2, 2): eigenvalues 3 +- sqrt(5)
    G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
    W = np.eye(2, order="F")
    D = column_norms_squared(G)
    rot = compute_plane_rotation(4.0, 2.0, 2.0, 1, 1)
    apply_rotation(G, W, D, 0, 1, rot)
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
    apply_rotation(G, W, D, 0, 1, rot)
    before = a_rr - a_ss if hyperbolic else a_rr + a_ss
    after = D[0] - D[1] if hyperbolic else D[0] + D[1]
    assert abs(after - before) <= 32 * EPS * (abs(D[0]) + abs(D[1]) + 1)


def _rotate(G, W, D, J, r, s, a_rs):
    """apply_rotation(compute_plane_rotation(...)) on pair (r, s) whose Gram
    entry is a_rs; returns the rotation's kind."""
    rot = compute_plane_rotation(D[r], D[s], a_rs, J[r], J[s])
    apply_rotation(G, W, D, r, s, rot)
    return rot.kind


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("j_ss", [1, -1])
def test_kernel_matches_public_rotation(rng, complex_scalars, j_ss):
    """The sweep kernel and apply_rotation(compute_plane_rotation(...)) are
    the same arithmetic: G, W and D agree bit for bit.  Both kernel bodies
    are pinned too, on a whole pass over the stacked array [G; W] replayed
    pair by pair from the Gram entries each body reads (by pair in the
    cyclic ``_sweep_pairs``, by round in ``sweep_rounds``)."""
    J = np.array([1, j_ss], np.int8)
    for _ in range(20):
        G = rng.standard_normal((6, 2))
        if complex_scalars:
            G = G + 1j * rng.standard_normal((6, 2))
        G[:, 1] += 0.3 * G[:, 0]  # a clearly non-orthogonal pair
        G = np.asfortranarray(G)
        D = column_norms_squared(G)
        W = np.eye(2, dtype=G.dtype, order="F")
        G_api, W_api, D_api = G.copy(order="F"), W.copy(order="F"), D.copy()
        rot = compute_plane_rotation(D[0], D[1], np.vdot(G[:, 0], G[:, 1]), J[0], J[1])
        assert rot.kind == (TRIGONOMETRIC if j_ss == 1 else HYPERBOLIC)
        apply_rotation(G_api, W_api, D_api, 0, 1, rot)
        assert jacobi_cycle(G, J, D, W, 2, 0, True).rotations == 1
        assert np.array_equal(G, G_api)
        assert np.array_equal(W, W_api)
        assert np.array_equal(D, D_api)

    n = 2 * _kernels.ROUND_MIN_PAIRS
    m = n + 3
    J = np.array([1, j_ss] * (n // 2), np.int8)  # j_ss = -1: both kinds of pair
    G = rng.standard_normal((m, n))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    for body in (_kernels._sweep_pairs, _kernels.sweep_rounds):
        M = np.asfortranarray(np.vstack([G, np.eye(n, dtype=G.dtype)]))
        D = column_norms_squared(M[:m])
        G_api, W_api, D_api = M[:m].copy(order="F"), M[m:].copy(order="F"), D.copy()
        kinds = set()
        if body is _kernels.sweep_rounds:
            for R, S in _kernels.pass_rounds(n, 0, True):
                a = np.einsum("ij,ij->j", G_api[:, R].conj(), G_api[:, S])
                for r, s, a_rs in zip(R, S, a):
                    kinds.add(_rotate(G_api, W_api, D_api, J, r, s, a_rs))
        else:
            for s in range(1, n):
                for r in range(s):
                    a_rs = np.vdot(G_api[:, r], G_api[:, s])
                    kinds.add(_rotate(G_api, W_api, D_api, J, r, s, a_rs))
        stats = np.zeros((1, 3))
        fail_r, _ = body(M, J, D, m, n, 0, True, 1e-15, 1e-15, _kernels.ONE_MEMBER, stats)
        assert stats[0, 0] == n * (n - 1) // 2 and fail_r == -1
        assert kinds == ({TRIGONOMETRIC} if j_ss == 1 else {TRIGONOMETRIC, HYPERBOLIC})
        assert np.array_equal(M[:m], G_api)
        assert np.array_equal(M[m:], W_api)
        assert np.array_equal(D, D_api)


def _pairs_of(rounds):
    pairs = []
    for R, S in rounds:
        assert not R.flags.writeable and not S.flags.writeable
        assert np.all(R < S)
        cols = np.concatenate([R, S])
        assert np.unique(cols).size == cols.size  # disjoint pairs
        pairs += zip(R.tolist(), S.tolist())
    return pairs


@pytest.mark.parametrize("n", range(2, 10))
def test_diagonal_pass_rounds_cover_each_pair_once(n):
    """A diagonal pass's rounds are the steps of the ring's round-robin with
    one column per block (for odd n, less the pairs of a padding column n)."""
    rounds = _kernels.pass_rounds(n, 0, True)
    assert len(rounds) == (n if n % 2 else n - 1)
    pairs = _pairs_of(rounds)
    assert sorted(pairs) == [(r, s) for r in range(n) for s in range(r + 1, n)]
    steps = [sorted((min(i, j) - 1, max(i, j) - 1) for i, j in layout if max(i, j) <= n)
             for layout in generate_sweep_schedule(ROUND_ROBIN, (n + 1) // 2)]
    assert [list(zip(R.tolist(), S.tolist())) for R, S in rounds] == steps


@pytest.mark.parametrize("n_i,n_j", [(1, 3), (2, 5), (3, 3), (4, 4), (5, 2), (3, 1)])
def test_cross_pass_rounds_cover_each_pair_once(n_i, n_j):
    rounds = _kernels.pass_rounds(n_i, n_j, False)
    assert len(rounds) == max(n_i, n_j)
    pairs = _pairs_of(rounds)
    assert sorted(pairs) == [(r, s) for r in range(n_i) for s in range(n_i, n_i + n_j)]


@pytest.mark.parametrize("n_i,n_j,diag_bl", [(131, 0, True), (70, 140, False)])
def test_wide_rounds_are_cut(n_i, n_j, diag_bl):
    rounds = _kernels.pass_rounds(n_i, n_j, diag_bl)
    assert max(R.size for R, _ in rounds) == _kernels.ROUND_MAX_PAIRS
    pairs = _pairs_of(rounds)
    if diag_bl:
        assert sorted(pairs) == [(r, s) for r in range(n_i) for s in range(r + 1, n_i)]
    else:
        assert sorted(pairs) == [(r, s) for r in range(n_i) for s in range(n_i, n_i + n_j)]


@pytest.mark.parametrize("n_i,n_j,diag_bl", [(8, 0, True), (7, 0, True), (4, 4, False),
                                             (3, 5, False), (40, 40, False)])
@pytest.mark.parametrize("members", [(0,), (0, 1, 2), (1, 3)])
def test_member_rounds_stay_within_members(n_i, n_j, diag_bl, members):
    """Stacked rounds are each member's rounds side by side: a pair never
    joins columns of different members, a round's pairs are disjoint, and
    member b visits exactly the pairs of ``pass_rounds`` shifted by its
    offset, in the same round order.  (1, 3): the members left once others
    are quiet."""
    k = n_i if diag_bl else n_i + n_j
    offsets = tuple(b * k for b in members)
    rounds = _kernels.member_rounds(n_i, n_j, diag_bl, offsets)
    per_member = [[] for _ in offsets]
    for R, S, own in rounds:
        assert R.size <= _kernels.ROUND_MAX_PAIRS
        assert not own.flags.writeable
        cols = np.concatenate([R, S])
        assert np.unique(cols).size == cols.size  # disjoint pairs
        lo = np.asarray(offsets)[own]
        assert np.all((lo <= R) & (R < S) & (S < lo + k))  # within the pair's member
        for r, s, b in zip(R.tolist(), S.tolist(), own.tolist()):
            per_member[b].append((r - offsets[b], s - offsets[b]))
    alone = [p for R, S in _kernels.pass_rounds(n_i, n_j, diag_bl)
             for p in zip(R.tolist(), S.tolist())]
    assert all(pairs == alone for pairs in per_member)


@pytest.mark.parametrize("n", [4, 2 * _kernels.ROUND_MIN_PAIRS])
def test_failing_member_names_its_own_pair(rng, n):
    """A stacked pass that meets a singular pivot in one member raises with
    that member's own pair, the pair the member raises alone."""
    (R, S), *_ = _kernels.pass_rounds(n, 0, True)
    r, s = int(R[-1]), int(S[-1])
    bad = np.eye(n, order="F")
    bad[:, s] = 0.0
    bad[r, s] = 2.0  # column s = 2 * column r
    J = np.ones(n, np.int8)
    with pytest.raises(PivotDefinitenessError) as alone:
        jacobi_cycle(bad.copy(order="F"), J, column_norms_squared(bad), None, n, 0, True)
    G = np.asfortranarray(np.hstack([np.eye(n), rng.standard_normal((n, n)), bad]))
    with pytest.raises(PivotDefinitenessError) as stacked:
        cycle_members(G, np.tile(J, 3), column_norms_squared(G), None, n, 0, True,
                      Tolerances(), [0, n, 2 * n])
    assert (stacked.value.r, stacked.value.s) == (alone.value.r, alone.value.s) == (r, s)


@pytest.mark.parametrize("n", [4, 2 * _kernels.ROUND_MIN_PAIRS])
def test_cycle_reports_parallel_columns(rng, n):
    """A pivot of two parallel columns stops the pass (the cyclic kernel at
    n = 4, the round kernel at the wide n) and names the pair; the round
    holding it is not applied, although another of its pairs would rotate."""
    (R, S), *_ = _kernels.pass_rounds(n, 0, True)
    r, s = int(R[-1]), int(S[-1])  # the failing pair
    G = np.eye(n, order="F")
    G[:, s] = 0.0
    G[r, s] = 2.0  # column s = 2 * column r: a singular pivot
    if R.size > 1:  # a pair before it in the same round that would rotate
        G[S[0], R[0]] = 0.5
    G0 = G.copy()
    J = np.ones(n, np.int8)
    with pytest.raises(PivotDefinitenessError) as exc:
        jacobi_cycle(G, J, column_norms_squared(G), None, n, 0, True)
    assert (exc.value.r, exc.value.s) == (r, s)
    if n >= 2 * _kernels.ROUND_MIN_PAIRS:
        assert np.array_equal(G, G0)


def test_stopped_pass_keeps_rotations_so_far(rng):
    """A pass that meets a non-positive-definite pivot after some rotations
    returns that pair and leaves G, W and D as rotated up to it."""
    n = 5  # a cyclic pass: (0, 1), (0, 2), (1, 2) rotate, pairs with 3 or 4 are orthogonal
    G = np.zeros((6, n), order="F")
    G[:3, :3] = rng.standard_normal((3, 3))
    G[3:, 3] = [1.0, 2.0, 2.0]
    G[3:, 4] = 2.0 * G[3:, 3]  # (3, 4) is singular, exactly
    J = np.array([1, -1, 1, 1, -1], np.int8)
    D = column_norms_squared(G)
    W = np.eye(n, order="F")
    G_api, W_api, D_api = G.copy(order="F"), W.copy(order="F"), D.copy()
    for r, s in [(0, 1), (0, 2), (1, 2)]:
        _rotate(G_api, W_api, D_api, J, r, s, np.vdot(G_api[:, r], G_api[:, s]))
    nrot, _, _, fail_r, fail_s = _kernels.sweep_pairs(G, J, D, W, n, 0, True, 1e-15, 1e-15)
    assert (nrot, fail_r, fail_s) == (3, 3, 4)
    assert np.array_equal(G, G_api)
    assert np.array_equal(W, W_api)
    assert np.array_equal(D, D_api)


@pytest.mark.parametrize("n", [5, 2 * _kernels.ROUND_MIN_PAIRS])
def test_zero_row_accumulator_rotates_g_in_place(rng, n):
    """A W with no rows accumulates nothing: G and D come out rotated in
    place exactly as with an accumulator."""
    G = np.asfortranarray(rng.standard_normal((n + 2, n)))
    J = np.array([1, -1] * n, np.int8)[:n]
    G0, D = G.copy(order="F"), column_norms_squared(G)
    G_w, D_w = G.copy(order="F"), D.copy()
    nrot = _kernels.sweep_pairs(G, J, D, np.zeros((0, n)), n, 0, True, 1e-15, 1e-15)[0]
    W = np.eye(n, order="F")
    assert nrot == _kernels.sweep_pairs(G_w, J, D_w, W, n, 0, True, 1e-15, 1e-15)[0] > 0
    assert not np.array_equal(G, G0)
    assert np.array_equal(G, G_w)
    assert np.array_equal(D, D_w)


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
