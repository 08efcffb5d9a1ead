import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank
from hjacobi import _kernels, blocking
from hjacobi.blocking import (
    BlockPartition,
    _block_rounds,
    _diagonalizer,
    _group_step,
    block_members,
    block_oriented,
    chol_upper,
    cross_members,
    full_block,
    greedy_partition,
    num_blocks,
    off_diagonal_members,
    off_diagonal_pass,
    round_plan,
    structured_cholesky,
    uniform_partition,
    update_block_columns,
)
from hjacobi.core import column_norms_squared, gram
from hjacobi.errors import DefinitenessError
from hjacobi.rotations import DEFAULT_TOL, Tolerances, diagonalize_members, jacobi_diagonalize

EPS = np.finfo(np.float64).eps


# -- partitions -------------------------------------------------------------

def test_num_blocks():
    assert num_blocks(10, 4) == 3
    assert num_blocks(8, 4) == 2
    assert num_blocks(3, 8) == 1


def test_greedy_partition():
    assert greedy_partition(10, 4).sizes == (4, 4, 2)
    assert greedy_partition(8, 4).sizes == (4, 4)
    assert greedy_partition(3, 8).sizes == (3,)


def test_uniform_partition():
    assert uniform_partition(10, 3).sizes == (4, 3, 3)
    assert uniform_partition(9, 3).sizes == (3, 3, 3)
    assert uniform_partition(5, 5).sizes == (1, 1, 1, 1, 1)


def test_uniform_partition_rejects_too_many_blocks():
    with pytest.raises(ValueError):
        uniform_partition(3, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 500), st.integers(1, 64))
def test_partition_invariants(n, n_t):
    g = greedy_partition(n, n_t)
    assert sum(g.sizes) == n and all(s >= 1 for s in g.sizes)
    assert all(s == n_t for s in g.sizes[:-1])
    b = num_blocks(n, n_t)
    assert g.b == b
    if b <= n:
        u = uniform_partition(n, b)
        assert sum(u.sizes) == n
        assert max(u.sizes) - min(u.sizes) <= 1
        assert list(u.sizes) == sorted(u.sizes, reverse=True)


def test_partition_columns_slices():
    p = BlockPartition((2, 3, 1))
    assert p.columns(0) == slice(0, 2)
    assert p.columns(1) == slice(2, 5)
    assert p.columns(2) == slice(5, 6)


# -- structured Cholesky ----------------------------------------------------

def test_structured_cholesky_two_by_two():
    R = structured_cholesky(np.array([4.0]), np.array([[2.0]]),
                            np.array([5.0]))
    assert np.allclose(R, [[2.0, 1.0], [0.0, 2.0]], rtol=0, atol=0)


def test_structured_cholesky_identity():
    R = structured_cholesky(np.ones(2), np.zeros((2, 2)), np.ones(2))
    assert np.array_equal(R, np.eye(4))


def test_structured_cholesky_failure():
    with pytest.raises(DefinitenessError):
        structured_cholesky(np.array([1.0]), np.array([[2.0]]),
                            np.array([1.0]))


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("n_i,n_j", [(3, 3), (8, 8), (5, 2), (1, 7)])
def test_structured_vs_dense_cholesky(rng, n_i, n_j, complex_scalars):
    for _ in range(20):
        G = random_full_rank(rng, n_i + n_j + 4, n_i + n_j, complex_scalars)
        # orthogonalize within each block so the diagonal Gram blocks are
        # diagonal (the Eq.-(3.7) structure the factorization assumes)
        Gi = np.asfortranarray(G[:, :n_i])
        Gj = np.asfortranarray(G[:, n_i:])
        jacobi_diagonalize(Gi, np.ones(n_i, np.int8))
        jacobi_diagonalize(Gj, np.ones(n_j, np.int8))
        lam_i = column_norms_squared(Gi)
        lam_j = column_norms_squared(Gj)
        A_ij = gram(Gi, Gj)
        A = np.block([[np.diag(lam_i), A_ij],
                      [A_ij.conj().T, np.diag(lam_j)]])
        R = structured_cholesky(lam_i, A_ij, lam_j)
        R_dense = chol_upper(np.asfortranarray(A))
        kappa = np.linalg.cond(A)
        assert np.abs(R - R_dense).max() <= 1e-12 * kappa * np.abs(R_dense).max()


# -- block-column update ----------------------------------------------------

def test_update_identity_noop(rng):
    Gp = np.asfortranarray(rng.standard_normal((6, 4)))
    G0 = Gp.copy()
    out = update_block_columns(Gp, np.eye(4, order="F"))
    assert np.allclose(out, G0)
    assert np.array_equal(Gp, G0) and out.flags.f_contiguous


def test_update_swap_permutation():
    Gp = np.asfortranarray(np.eye(2))
    W = np.asfortranarray(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = update_block_columns(Gp, W)
    assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_update_gram_congruence(rng):
    Gp = np.asfortranarray(rng.standard_normal((8, 5)))
    W = np.asfortranarray(rng.standard_normal((5, 5)))
    A_before = gram(Gp)
    out = update_block_columns(Gp, W)
    assert np.abs(gram(out) - W.conj().T @ A_before @ W).max() <= 1e-13 * \
        np.abs(A_before).max() * np.abs(W).max() ** 2 * 5


# -- block-pivot step -----------------------------------------------------

def spy(local):
    """``local`` as a local solve that records the accumulator rows W (the
    rows below m of the M each group step hands it, a view), in the list it
    returns alongside."""
    handed = []

    def solve(M, m, J, n_i, members):
        handed.append(M[m:])
        return local(M, m, J, n_i, members)

    return solve, handed


def with_identities(G, members):
    """[G; I I ... I]: G's rows above ``members`` identities side by side,
    one per member factor, column-major, as accumulator rows."""
    k = G.shape[1] // members
    return np.asfortranarray(np.vstack([G, np.tile(np.eye(k, dtype=G.dtype), members)]))


def member_blocks(W, members):
    """The column blocks of accumulator W, one per member."""
    k = W.shape[1] // members
    return [W[:, b * k:(b + 1) * k] for b in range(members)]


def round_infos(G, J, sizes, pivots, local, lam=None, m=None):
    """One planned round of the disjoint ``pivots`` (i, j) over blocks of
    ``sizes`` on the factor G[:m] (m None: all of G) and its accumulator
    rows below, each width group by the executor's ``_group_step``; returns
    the pivots' DiagInfos and their W, each the pivot's block of the
    accumulator its group step handed the local solve, in their order."""
    (groups,) = round_plan(sizes, (tuple((i, j, x) for x, (i, j) in enumerate(pivots)),))
    infos, Ws = [None] * len(pivots), [None] * len(pivots)
    for group in groups:
        solve, handed = spy(local)
        got = _group_step(G, G.shape[0] if m is None else m, J, group, solve, lam)
        for x, info, W in zip(group.owners, got, member_blocks(handed[0], len(got))):
            infos[x], Ws[x] = info, W
    return infos, Ws


def lone_step(G, n_i, J, local, lam=None):
    """The one pivot of G, its first n_i columns and the rest (none: the
    first alone), as a planned group step; returns its DiagInfo and W."""
    n_j = G.shape[1] - n_i
    sizes, pivot = ((n_i, n_j), (0, 1)) if n_j else ((n_i,), (0, None))
    (info,), (W,) = round_infos(G, J, sizes, [pivot], local, lam)
    return info, W


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("n_i,n_j", [(5, 0), (4, 3)])
def test_pivot_step_full_local_solve(rng, n_i, n_j, complex_scalars):
    G = random_full_rank(rng, 12, n_i + n_j, complex_scalars)
    J = np.array([1, -1] * n_i, np.int8)[:n_i + n_j]
    G0 = G.copy()
    info, W = lone_step(G, n_i, J, _diagonalizer(DEFAULT_TOL))
    assert info.converged and info.rotations > 0
    assert np.abs(G - G0 @ W).max() <= 1e-13 * np.abs(G0).max() * np.abs(W).max()
    A = gram(G)
    d = np.sqrt(np.diag(A).real)
    off = np.abs(A - np.diag(np.diag(A))) / np.outer(d, d)
    assert off.max() <= 64 * (n_i + n_j) * EPS


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_pivot_step_failed_structured_cholesky_is_dense(rng, complex_scalars):
    n_i, n_j = 4, 3
    G = random_full_rank(rng, 10, n_i + n_j, complex_scalars)
    J = np.array([1, 1, -1, 1, -1, -1, 1], np.int8)
    lam = 1e-3 * column_norms_squared(G)
    with pytest.raises(DefinitenessError):
        structured_cholesky(lam[:n_i], gram(G[:, :n_i], G[:, n_i:]), lam[n_i:])
    dense, scaled = G.copy(order="F"), G.copy(order="F")
    _, Wa = lone_step(dense, n_i, J, _diagonalizer(DEFAULT_TOL))
    _, Wb = lone_step(scaled, n_i, J, _diagonalizer(DEFAULT_TOL), lam)
    assert np.array_equal(dense, scaled) and np.array_equal(Wa, Wb)


def _pivot_members(rng, m, n_i, n_j, complex_scalars):
    """Four pivots [Gi, Gj] with diagonal Gram blocks, and their squared
    column norms: two general ones, one already orthogonal, and one whose
    norms are scaled so that its structured Cholesky fails."""
    members, lam = [], []
    for b in range(4):
        if b == 2:
            G = np.eye(m, n_i + n_j, dtype=complex if complex_scalars else float)
            G = np.asfortranarray(G * np.arange(1.0, n_i + n_j + 1))
        else:
            G = random_full_rank(rng, m, n_i + n_j, complex_scalars)
            for c in (slice(0, n_i), slice(n_i, n_i + n_j)):
                Gc = np.asfortranarray(G[:, c])
                jacobi_diagonalize(Gc, np.ones(Gc.shape[1], np.int8))
                G[:, c] = Gc
        members.append(G)
        lam.append(column_norms_squared(G) * (1e-3 if b == 3 else 1.0))
    return members, lam


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("body", ["sweep_rounds", "_sweep_pairs"])
@pytest.mark.parametrize("solve", ["full", "cross"])
def test_stacking_keeps_each_members_bits(rng, monkeypatch, solve, body, complex_scalars):
    """Four disjoint pivots run as one planned group step come out, each,
    with the bits in G and W and the counters of the pivot's step alone,
    which runs the same kernel body: stacked matmul, Cholesky, einsum and
    GEMM act on every member as the unstacked calls do.  The orthogonal
    member stays untouched and is quiet at its first sweep; the member whose
    structured Cholesky fails is factored densely while the others keep the
    structured one."""
    monkeypatch.setattr(_kernels, "pass_kernel", lambda *args: getattr(_kernels, body))
    n_i, n_j, m = 4, 4, 11
    members, lam = _pivot_members(rng, m, n_i, n_j, complex_scalars)
    J = np.array([1, -1, 1, 1, -1, 1, -1, -1], np.int8)
    with pytest.raises(DefinitenessError):
        structured_cholesky(lam[3][:n_i], gram(members[3][:, :n_i], members[3][:, n_i:]),
                            lam[3][n_i:])
    for G, lb in zip(members[:3], lam):
        structured_cholesky(lb[:n_i], gram(G[:, :n_i], G[:, n_i:]), lb[n_i:])
    if solve == "full":
        local = _diagonalizer(DEFAULT_TOL)
    else:
        local = functools.partial(cross_members, tol=DEFAULT_TOL)
    k = n_i + n_j
    stacked = np.asfortranarray(np.hstack(members))
    (group,) = round_plan((n_i, n_j) * 4, (tuple((2 * b, 2 * b + 1, b) for b in range(4)),))[0]
    solve, handed = spy(local)
    infos = _group_step(stacked, m, np.tile(J, 4), group, solve, np.concatenate(lam))
    (W,) = handed
    for b, G in enumerate(members):
        alone = G.copy(order="F")
        info, Wb = lone_step(alone, n_i, J, local, lam[b].copy())
        assert np.array_equal(stacked[:, b * k:(b + 1) * k], alone)
        assert np.array_equal(member_blocks(W, 4)[b], Wb)
        for field in ("sweeps", "rotations", "big_rotations", "max_abs_t", "converged"):
            assert getattr(infos[b], field) == getattr(info, field)
    assert np.array_equal(stacked[:, 2 * k:3 * k], members[2])
    assert infos[2].rotations == 0 and infos[2].sweeps == 1 and infos[2].converged
    assert all(infos[b].rotations > 0 for b in (0, 1, 3))


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_group_step_writes_back_only_the_rotated_pivots(rng, complex_scalars):
    """A group step of a pivot that rotates and one that rotates nothing,
    whose columns hold a -0.0: the GEMM multiplies the quiet pivot by an
    exact identity, which would turn the -0.0 into +0.0, but its columns and
    squared norms come back bit for bit, the zero's sign included.  The
    rotating pivot gets the bits, norms and counters of its step alone."""
    n_i, n_j, m = 4, 4, 11
    members, lam = _pivot_members(rng, m, n_i, n_j, complex_scalars)
    busy, quiet = members[0], members[2]
    quiet[9, 3] = complex(-0.0, -0.0) if complex_scalars else -0.0
    G = np.asfortranarray(np.hstack([busy, quiet]))
    lam_g = np.concatenate([lam[0], lam[2]])
    G0, lam0 = G.copy(order="F"), lam_g.copy()
    J = np.array([1, -1, 1, 1, -1, 1, -1, -1], np.int8)
    local = _diagonalizer(DEFAULT_TOL)
    (group,) = round_plan((n_i, n_j) * 2, (((0, 1, 0), (2, 3, 1)),))[0]
    infos = _group_step(G, m, np.tile(J, 2), group, local, lam_g)
    assert infos[0].rotations > 0 and infos[1].rotations == 0
    assert G[:, 8:].tobytes() == G0[:, 8:].tobytes()
    assert lam_g[8:].tobytes() == lam0[8:].tobytes()
    assert np.signbit(G[9, 11].real) and np.signbit(G[9, 11].imag) == complex_scalars
    alone, lam_alone = busy.copy(order="F"), lam[0].copy()
    info, _ = lone_step(alone, n_i, J, local, lam_alone)
    assert G[:, :8].tobytes() == alone.tobytes()
    assert lam_g[:8].tobytes() == lam_alone.tobytes()
    for field in ("sweeps", "rotations", "big_rotations", "max_abs_t", "converged"):
        assert getattr(infos[0], field) == getattr(info, field)


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("solve", ["full", "cross"])
def test_stacking_keeps_each_members_bits_on_the_default_body(rng, solve, complex_scalars):
    """With the kernel body left to ``pass_kernel``, four 8-column pivot
    factors side by side (4 pairs per round each, 16 for the whole call)
    come out, each, with the bits in G and W and the counters of the factor
    run alone: a full diagonalization (``diagonalize_members``) or one cross
    pass of its 4 x 4 cross block (``cross_members``)."""
    k, B = 8, 4
    members = [random_full_rank(rng, k, k, complex_scalars) for _ in range(B)]
    J = np.array([1, -1, 1, 1, -1, 1, -1, -1], np.int8)
    if solve == "full":
        def run(M, count):
            return diagonalize_members(M, k, np.tile(J, count), count)
    else:
        def run(M, count):
            return cross_members(M, k, np.tile(J, count), k // 2, count)
    M = with_identities(np.hstack(members), B)
    infos = run(M, B)
    for b, G in enumerate(members):
        alone = with_identities(G, 1)
        (info,) = run(alone, 1)
        assert np.array_equal(M[:k, b * k:(b + 1) * k], alone[:k])
        assert np.array_equal(member_blocks(M[k:], B)[b], alone[k:])
        for field in ("sweeps", "rotations", "big_rotations", "max_abs_t", "converged"):
            assert getattr(infos[b], field) == getattr(info, field)
        assert info.rotations > 0


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("solve", ["full", "cross"])
def test_stacked_step_takes_a_round_of_mixed_widths(rng, solve, complex_scalars):
    """One planned round of three disjoint pivots of two widths (blocks 5,
    5, 4, 4, 5, 5; pivots (0, 1), (2, 3), (4, 5)), with the squared column
    norms and accumulator rows V below G's 31, runs as one group step per
    width, and each pivot comes out with the bits in G, V and W and the
    counters of its step alone."""
    part = BlockPartition((5, 5, 4, 4, 5, 5))
    G = random_full_rank(rng, 31, part.n, complex_scalars)
    for i in range(part.b):  # diagonal Gram blocks, as the structured Cholesky takes them
        Gc = np.asfortranarray(G[:, part.columns(i)])
        jacobi_diagonalize(Gc, np.ones(Gc.shape[1], np.int8))
        G[:, part.columns(i)] = Gc
    V = np.asfortranarray(rng.standard_normal((9, part.n)), dtype=G.dtype)
    J = np.array([1, -1, 1, 1, -1, -1, 1] * 4, np.int8)
    if solve == "full":
        local = _diagonalizer(DEFAULT_TOL)
    else:
        local = functools.partial(cross_members, tol=DEFAULT_TOL)
    pivots = [(0, 1), (2, 3), (4, 5)]

    GV = np.asfortranarray(np.vstack([G, V]))

    def step(X, round_):
        return round_infos(X, J, part.sizes, round_, local, column_norms_squared(X[:31]), 31)

    Xs = GV.copy(order="F")
    infos, Ws = step(Xs, pivots)
    assert [W.shape[0] for W in Ws] == [10, 8, 10]
    for (i, j), info, W in zip(pivots, infos, Ws):
        Xa = GV.copy(order="F")
        (alone,), (W_alone,) = step(Xa, [(i, j)])
        cols = np.r_[part.columns(i), part.columns(j)]
        assert np.array_equal(Xs[:31, cols], Xa[:31, cols])
        assert np.array_equal(Xs[31:, cols], Xa[31:, cols])
        assert np.array_equal(W, W_alone)
        for field in ("sweeps", "rotations", "big_rotations", "max_abs_t", "converged"):
            assert getattr(info, field) == getattr(alone, field)
        assert info.rotations > 0


def _driver_members(rng, m, k, complex_scalars):
    """Three m x k factors: a general one, one with orthogonal columns, and
    one whose columns are nearly orthogonal, which converges in fewer
    sweeps than the general one."""
    dtype = complex if complex_scalars else float
    general = random_full_rank(rng, m, k, complex_scalars)
    orthogonal = np.asfortranarray(np.eye(m, k, dtype=dtype) * np.arange(1.0, k + 1))
    Q, _ = np.linalg.qr(random_full_rank(rng, m, k, complex_scalars))
    near = np.asfortranarray(Q * np.arange(1.0, k + 1)
                             + 1e-6 * random_full_rank(rng, m, k, complex_scalars))
    return [general, orthogonal, near]


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("body", ["sweep_rounds", "_sweep_pairs"])
@pytest.mark.parametrize("driver", ["full", "oriented", "off_diagonal"])
def test_member_drivers_keep_each_members_bits(rng, monkeypatch, driver, body, complex_scalars):
    """The blocked drivers on member factors side by side give each member
    the bits in G and W and the counters of a lone call that runs the same
    kernel body: every member stops at its own first quiet sweep, and the
    orthogonal member is quiet at sweep 1 and left untouched."""
    monkeypatch.setattr(_kernels, "pass_kernel", lambda *args: getattr(_kernels, body))
    m, k = 15, 13
    members = _driver_members(rng, m, k, complex_scalars)
    J = np.array([1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1], np.int8)
    B = len(members)
    part = uniform_partition(k, 3)  # 5, 4, 4: two pivot widths
    if driver == "off_diagonal":
        def run(M, count):
            return off_diagonal_members(M, m, np.tile(J, count), 5, 4, count)
    else:
        full = driver == "full"

        def run(M, count):
            return block_members(M, m, np.tile(J, count), part, count, full)
    M = with_identities(np.hstack(members), B)
    infos = run(M, B)
    for b, Gb in enumerate(members):
        alone = with_identities(Gb, 1)
        (info,) = run(alone, 1)
        assert np.array_equal(M[:m, b * k:(b + 1) * k], alone[:m])
        assert np.array_equal(member_blocks(M[m:], B)[b], alone[m:])
        for field in ("sweeps", "rotations", "big_rotations", "max_abs_t", "converged"):
            assert getattr(infos[b], field) == getattr(info, field)
    assert np.array_equal(M[:m, k:2 * k], members[1])
    assert infos[1].rotations == 0 and infos[1].sweeps == 1 and infos[1].converged
    assert infos[0].rotations > 0 and infos[2].rotations > 0
    if driver != "off_diagonal":
        assert infos[0].sweeps > infos[2].sweeps > 1


# -- round plans ------------------------------------------------------------

def _plan_rounds(b):
    """Rounds over b blocks as the drivers take them: every block alone,
    the circle method's rounds of block pairs, and a ring step whose
    second pivot is the wider one."""
    return ((tuple((i, None, i) for i in range(b)),)
            + _block_rounds(b, 0, True, (0,))
            + (((1, 2, 0), (0, b - 1, 1)),))


@pytest.mark.parametrize("sizes", [uniform_partition(33, 4).sizes, greedy_partition(30, 8).sizes],
                         ids=["uniform-33-4", "greedy-30-8"])
def test_round_plan_groups_each_round_by_first_seen_width(sizes):
    """On uneven partitions (n = 33 over 2p = 4 blocks, and a greedy
    partition with a remainder block) each round's groups come in the order
    in which their widths first appear among its pivots; a group holds every
    pivot of its width with its owner, and the round's pivots' columns, each
    exactly once, pivot after pivot and block i before block j."""
    part = BlockPartition(sizes)
    rounds = _plan_rounds(part.b)
    plan = round_plan(sizes, rounds)
    assert len(plan) == len(rounds)
    split = 0
    for rnd, groups in zip(rounds, plan):
        widths = [(sizes[i], None if j is None else sizes[j]) for i, j, _ in rnd]
        assert [(g.n_i, None if g.pivots[0][1] is None else g.k - g.n_i) for g in groups] \
            == list(dict.fromkeys(widths))
        split += len(groups) > 1
        got = []
        for g in groups:
            assert not g.cols.flags.writeable
            assert len(g.pivots) == len(g.owners) and g.cols.size == len(g.pivots) * g.k
            for (i, j), own, cols in zip(g.pivots, g.owners, g.cols.reshape(-1, g.k)):
                assert (i, j, own) in rnd
                blocks = [part.columns(i)] + ([] if j is None else [part.columns(j)])
                assert cols.tolist() == [c for s in blocks for c in range(s.start, s.stop)]
                got.append((i, j, own))
        assert sorted(got, key=str) == sorted(rnd, key=str)
        cols = np.concatenate([g.cols for g in groups])
        assert len(set(cols.tolist())) == cols.size
    assert split > 0  # some round holds two widths


def test_round_plan_cache_stays_bounded(rng):
    """Solving many orders builds more plans than the cache holds; the cache
    keeps at most its maximum and the solves still converge."""
    round_plan.cache_clear()
    for n in range(12, 92):
        G, J = make_factor(rng, n, n_neg=n // 3)
        block_oriented(G, J, uniform_partition(n, 3 + n % 3), Tolerances(max_sweeps=2))
    info = round_plan.cache_info()
    assert info.misses > info.maxsize and info.currsize <= info.maxsize


def _record_pivots(monkeypatch):
    """Record the block pairs, with their column widths, of each width group
    that a blocked driver runs as one step (``_group_step``)."""
    steps = []
    group_step = blocking._group_step

    def record(G, m, signs, group, *args):
        steps.append([(pv, (group.n_i, None if pv[1] is None else group.k - group.n_i))
                      for pv in group.pivots])
        return group_step(G, m, signs, group, *args)

    monkeypatch.setattr(blocking, "_group_step", record)
    return steps


def _check_disjoint_rounds(steps):
    for step in steps:
        blocks = [x for (i, j), _ in step for x in (i, j) if x is not None]
        assert len(set(blocks)) == len(blocks)  # a step's pivots are disjoint
        assert len({w for _, w in step}) == 1  # and of one width


@pytest.mark.parametrize("b", range(1, 8))
def test_block_sweep_visits_each_pivot_once_by_rounds(rng, monkeypatch, b):
    """One block-oriented sweep over b blocks takes every diagonal block and
    every block pair once, by stacked steps of disjoint pivots of one width."""
    n = 3 * b
    G, J = make_factor(rng, n, n_neg=b)
    steps = _record_pivots(monkeypatch)
    block_oriented(G, J, uniform_partition(n, b), Tolerances(max_sweeps=1))
    _check_disjoint_rounds(steps)
    pivots = [p for step in steps for p, _ in step]
    assert steps[0] == [((i, None), (3, None)) for i in range(b)]
    assert sorted(pivots[b:]) == [(i, j) for i in range(b) for j in range(i + 1, b)]
    assert len(steps) == 1 + (b - 1 + b % 2 if b > 1 else 0)


@pytest.mark.parametrize("n_r,n_s,inner_t", [(8, 8, 4), (12, 8, 4), (9, 20, 3), (5, 5, 1)])
def test_off_diagonal_pass_covers_the_grid_by_rounds(rng, monkeypatch, n_r, n_s, inner_t):
    """off_diagonal_pass takes every (left, right) inner block pair once, by
    stacked steps of disjoint pivots of one width (shifted diagonals of the
    grid, split by width)."""
    G, J = make_factor(rng, n_r + n_s, n_neg=3)
    steps = _record_pivots(monkeypatch)
    off_diagonal_pass(G, J, n_r, inner_t)
    _check_disjoint_rounds(steps)
    b_r, b_s = num_blocks(n_r, inner_t), num_blocks(n_s, inner_t)
    pivots = sorted(p for step in steps for p, _ in step)
    assert pivots == [(i, j) for i in range(b_r) for j in range(b_r, b_r + b_s)]


@pytest.mark.parametrize("driver", [full_block, block_oriented])
def test_greedy_partition_groups_pivots_by_width(rng, monkeypatch, driver):
    """A greedy partition's smaller last block splits the rounds that hold
    it into one stacked step per width, and the solve still converges to
    the pencil's eigenvalues."""
    G, J = make_factor(rng, 30, n_neg=12)
    ref = pencil_eigs(G, J)
    part = greedy_partition(30, 8)
    assert part.sizes == (8, 8, 8, 6)
    steps = _record_pivots(monkeypatch)
    info = driver(G, J, part)
    assert info.converged
    _check_disjoint_rounds(steps)
    widths = {w for step in steps for _, w in step}
    assert widths == {(8, None), (6, None), (8, 8), (8, 6)}
    assert any(len(step) == 3 for step in steps)  # the three 8-column diagonal blocks
    got = np.sort(J * column_norms_squared(G))
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


# -- blocked solvers --------------------------------------------------------

def make_factor(rng, n, n_neg=0, complex_scalars=False):
    G = random_full_rank(rng, n, n, complex_scalars)
    J = np.array([1] * (n - n_neg) + [-1] * n_neg, np.int8)
    return G, J


def pencil_eigs(G, J):
    H = G @ np.diag(J.astype(float)) @ G.conj().T
    return np.sort(np.linalg.eigvalsh(H))


@pytest.mark.parametrize("driver", [full_block, block_oriented])
def test_blocked_single_block_degenerates(rng, driver):
    G, J = make_factor(rng, 8)
    ref = pencil_eigs(G, J)
    info = driver(G, J, BlockPartition((8,)))
    assert info.converged
    got = np.sort(J * column_norms_squared(G))
    assert np.allclose(got, ref, rtol=1e-11)


@pytest.mark.parametrize("driver", [full_block, block_oriented])
def test_blocked_orthogonal_input(rng, driver):
    G = np.asfortranarray(np.diag([2.0, 3.0, 4.0, 5.0]))
    J = np.ones(4, np.int8)
    info = driver(G, J, uniform_partition(4, 2))
    assert info.converged and info.rotations == 0


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("driver", [full_block, block_oriented])
def test_blocked_matches_nonblocked(rng, driver, complex_scalars):
    G, J = make_factor(rng, 24, n_neg=9, complex_scalars=complex_scalars)
    ref = pencil_eigs(G, J)
    info = driver(G, J, uniform_partition(24, 3))
    assert info.converged
    got = np.sort(J * column_norms_squared(G))
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


def test_full_block_spectrum_preserved_per_sweep(rng):
    # one max_sweeps=1 run at a time: spectrum of the implicit pair unchanged
    G, J = make_factor(rng, 12, n_neg=5)
    ref = pencil_eigs(G, J)
    part = uniform_partition(12, 3)
    for _ in range(3):
        full_block(G, J, part, Tolerances(max_sweeps=1))
        now = pencil_eigs(G, J)
        assert np.all(np.abs(now - ref) <= 1e-10 * np.maximum(np.abs(ref), 1))


def test_full_block_accumulated_v(rng):
    G, J = make_factor(rng, 12, n_neg=4)
    G0 = G.copy()
    M = with_identities(G, 1)
    (info,) = block_members(M, 12, J, uniform_partition(12, 3), 1, True)
    G, V = M[:12], M[12:]
    assert info.converged
    assert np.abs(G0 @ V - G).max() <= 1e-10 * np.abs(G).max()


_LOCAL_SOLVES = {
    "cross": lambda M, m, J: cross_members(M, m, J, 5, 2),
    "diagonalize": lambda M, m, J: _diagonalizer(DEFAULT_TOL)(M, m, J, 10, 2),
    "block_full": lambda M, m, J: block_members(M, m, J, uniform_partition(10, 3), 2, True),
    "block_oriented": lambda M, m, J: block_members(M, m, J, uniform_partition(10, 3), 2, False),
    "off_diagonal": lambda M, m, J: off_diagonal_members(M, m, J, 5, 3, 2),
}


@pytest.mark.parametrize("complex_scalars", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("solve", sorted(_LOCAL_SOLVES))
def test_rows_below_m_accumulate_and_change_nothing_above(rng, solve, complex_scalars):
    """Each local solve on two 11 x 10 factors side by side, run on [R; I]
    and on [R; X] with m = 11 and a random X of 7 rows: the rows above m
    and the counters come out bit for bit the same, and X's rows come out
    as X @ W, W the rows below m of the [R; I] run (per member)."""
    m, k = 11, 10
    R = np.hstack([random_full_rank(rng, m, k, complex_scalars) for _ in range(2)])
    X = random_full_rank(rng, 2 * k, 7, complex_scalars).T  # any 7 rows
    J = np.tile(np.array([1, -1, 1, 1, -1, 1, -1, -1, 1, -1], np.int8), 2)
    MI = with_identities(R, 2)
    MX = np.asfortranarray(np.vstack([R, X]))
    run = _LOCAL_SOLVES[solve]
    infos_i, infos_x = run(MI, m, J), run(MX, m, J)
    assert np.array_equal(MI[:m], MX[:m])
    assert infos_i == infos_x and all(info.rotations > 0 for info in infos_i)
    for b in range(2):
        c = slice(b * k, (b + 1) * k)
        want = X[:, c] @ MI[m:, c]
        assert np.linalg.norm(MX[m:, c] - want) <= 1e-12 * np.linalg.norm(want)


def test_off_diagonal_pass_single_blocks(rng):
    G, J = make_factor(rng, 6)
    info = off_diagonal_pass(G, J, 3, inner_t=3, tol=Tolerances())
    assert info.rotations <= 9  # exactly the 3x3 cross pairs visited


def test_off_diagonal_pass_orthogonal_cross(rng):
    G = np.asfortranarray(np.diag([1.0, 2.0, 3.0, 4.0]))
    info = off_diagonal_pass(G, np.ones(4, np.int8), 2, inner_t=1)
    assert info.rotations == 0
