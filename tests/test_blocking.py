import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank
from hjacobi import _kernels, blocking
from hjacobi.blocking import (
    BlockPartition,
    _diagonalizer,
    block_oriented,
    chol_upper,
    cross_members,
    cross_pass,
    full_block,
    greedy_partition,
    num_blocks,
    off_diagonal_pass,
    pivot_step,
    stacked_step,
    structured_cholesky,
    uniform_partition,
    update_block_columns,
)
from hjacobi.core import column_norms_squared, gram
from hjacobi.errors import DefinitenessError
from hjacobi.rotations import DEFAULT_TOL, Tolerances, jacobi_diagonalize

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
    update_block_columns(Gp, np.eye(4, order="F"))
    assert np.allclose(Gp, G0)


def test_update_swap_permutation():
    Gp = np.asfortranarray(np.eye(2))
    W = np.asfortranarray(np.array([[0.0, 1.0], [1.0, 0.0]]))
    update_block_columns(Gp, W)
    assert np.array_equal(Gp, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_update_gram_congruence(rng):
    Gp = np.asfortranarray(rng.standard_normal((8, 5)))
    W = np.asfortranarray(rng.standard_normal((5, 5)))
    A_before = gram(Gp)
    update_block_columns(Gp, W)
    assert np.abs(gram(Gp) - W.conj().T @ A_before @ W).max() <= 1e-13 * \
        np.abs(A_before).max() * np.abs(W).max() ** 2 * 5


# -- block-pivot step -----------------------------------------------------

def diagonalize_local(R, J, n_i):
    return jacobi_diagonalize(R, J, accumulate=True)


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("n_i,n_j", [(5, 0), (4, 3)])
def test_pivot_step_full_local_solve(rng, n_i, n_j, complex_scalars):
    G = random_full_rank(rng, 12, n_i + n_j, complex_scalars)
    J = np.array([1, -1] * n_i, np.int8)[:n_i + n_j]
    G0 = G.copy()
    Gi = G[:, :n_i]
    Gj = G[:, n_i:] if n_j else None
    info = pivot_step(Gi, Gj, J, diagonalize_local)
    assert info.converged and info.rotations > 0
    assert np.abs(G - G0 @ info.W).max() <= 1e-13 * np.abs(G0).max() * np.abs(info.W).max()
    A = gram(G)
    d = np.sqrt(np.diag(A).real)
    off = np.abs(A - np.diag(np.diag(A))) / np.outer(d, d)
    assert off.max() <= 64 * (n_i + n_j) * EPS


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_pivot_step_failed_structured_cholesky_is_dense(rng, complex_scalars):
    n_i, n_j = 4, 3
    G = random_full_rank(rng, 10, n_i + n_j, complex_scalars)
    J = np.array([1, 1, -1, 1, -1, -1, 1], np.int8)
    lam = (1e-3 * column_norms_squared(G[:, :n_i]),
           1e-3 * column_norms_squared(G[:, n_i:]))
    with pytest.raises(DefinitenessError):
        structured_cholesky(lam[0], gram(G[:, :n_i], G[:, n_i:]), lam[1])
    dense, scaled = G.copy(order="F"), G.copy(order="F")
    a = pivot_step(dense[:, :n_i], dense[:, n_i:], J, diagonalize_local)
    b = pivot_step(scaled[:, :n_i], scaled[:, n_i:], J, diagonalize_local, lam)
    assert np.array_equal(dense, scaled) and np.array_equal(a.W, b.W)


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
        li, lj = column_norms_squared(G[:, :n_i]), column_norms_squared(G[:, n_i:])
        if b == 3:
            li, lj = 1e-3 * li, 1e-3 * lj
        members.append(G)
        lam.append((li, lj))
    return members, lam


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("body", ["sweep_rounds", "_sweep_pairs"])
@pytest.mark.parametrize("solve", ["full", "cross"])
def test_stacking_keeps_each_members_bits(rng, monkeypatch, solve, body, complex_scalars):
    """Four disjoint pivots run as one stacked step come out, each, with the
    bits in G and W and the counters of a lone pivot_step that runs the same
    kernel body: stacked matmul, Cholesky, einsum and GEMM act on every
    member as the unstacked calls do.  The orthogonal member stays untouched
    and is quiet at its first sweep; the member whose structured Cholesky
    fails is factored densely while the others keep the structured one."""
    monkeypatch.setattr(_kernels, "pass_kernel", lambda *args: getattr(_kernels, body))
    n_i, n_j, m = 4, 4, 11
    members, lam = _pivot_members(rng, m, n_i, n_j, complex_scalars)
    J = np.array([1, -1, 1, 1, -1, 1, -1, -1], np.int8)
    with pytest.raises(DefinitenessError):
        structured_cholesky(lam[3][0], gram(members[3][:, :n_i], members[3][:, n_i:]), lam[3][1])
    for G, (li, lj) in zip(members[:3], lam):
        structured_cholesky(li, gram(G[:, :n_i], G[:, n_i:]), lj)
    if solve == "full":
        stacked_local = _diagonalizer(DEFAULT_TOL)
        lone_local = lambda R, Jp, n_i: jacobi_diagonalize(R, Jp, accumulate=True)  # noqa: E731
    else:
        stacked_local = functools.partial(cross_members, tol=DEFAULT_TOL)
        lone_local = cross_pass
    stacked = [G.copy(order="F") for G in members]
    infos = stacked_step([(G[:, :n_i], G[:, n_i:]) for G in stacked], [J] * 4, stacked_local, lam)
    for b, G in enumerate(members):
        alone = G.copy(order="F")
        info = pivot_step(alone[:, :n_i], alone[:, n_i:], J, lone_local, lam[b])
        assert np.array_equal(stacked[b], alone)
        assert np.array_equal(infos[b].W, info.W)
        for field in ("sweeps", "rotations", "big_rotations", "max_abs_t", "converged"):
            assert getattr(infos[b], field) == getattr(info, field)
    assert np.array_equal(stacked[2], members[2])
    assert infos[2].rotations == 0 and infos[2].sweeps == 1 and infos[2].converged
    assert all(infos[b].rotations > 0 for b in (0, 1, 3))


def _record_pivots(monkeypatch):
    """Record the block pairs of each stacked step that a blocked driver
    takes, with their column widths."""
    steps = []
    pending = []
    local_pivot, step = blocking._local_pivot, blocking.stacked_step

    def record_pivot(G, signs, part, i, j):
        pending.append(((i, j), (part.sizes[i], None if j is None else part.sizes[j])))
        return local_pivot(G, signs, part, i, j)

    def record_step(*args, **kwargs):
        steps.append(list(pending))
        pending.clear()
        return step(*args, **kwargs)

    monkeypatch.setattr(blocking, "_local_pivot", record_pivot)
    monkeypatch.setattr(blocking, "stacked_step", record_step)
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
    info = full_block(G, J, uniform_partition(12, 3), accumulate_V=True)
    assert info.converged
    assert np.abs(G0 @ info.W - G).max() <= 1e-10 * np.abs(G).max()


def test_off_diagonal_pass_single_blocks(rng):
    G, J = make_factor(rng, 6)
    info = off_diagonal_pass(G, J, 3, inner_t=3, tol=Tolerances())
    assert info.rotations <= 9  # exactly the 3x3 cross pairs visited


def test_off_diagonal_pass_orthogonal_cross(rng):
    G = np.asfortranarray(np.diag([1.0, 2.0, 3.0, 4.0]))
    info = off_diagonal_pass(G, np.ones(4, np.int8), 2, inner_t=1)
    assert info.rotations == 0
