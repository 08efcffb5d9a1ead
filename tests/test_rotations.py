import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gram_entries, kernel_rotation, rotation_matrices
from hjacobi import (EigSpec, SolveOptions, _kernels, factorize_hermitian_indefinite,
                     generate_test_matrix, order_by_inertia)
from hjacobi.core import column_norms_squared, gram
from hjacobi.errors import PivotDefinitenessError
from hjacobi.rotations import (
    Tolerances,
    cycle_members,
    diagonalize_members,
    extract_eigen,
    jacobi_cycle,
    jacobi_diagonalize,
)
from hjacobi.solve import run_solver
from hjacobi.strategies import ROUND_ROBIN, generate_sweep_schedule

EPS = np.finfo(np.float64).eps
TRIG, HYP = -1.0, 1.0  # plane_rotation's hyp of a trigonometric / hyperbolic pair


def rotate_pair(M, r, s, phase, cs, sn, hyp):
    """Columns r, s of M rotated in place by ``rotate_columns`` on their
    pair M.T[[r, s]]."""
    out = np.empty((2, M.shape[0]), dtype=M.dtype)
    _kernels.rotate_columns(M.T[[r, s]], phase, cs, sn, hyp, out)
    M.T[[r, s]] = out


def pivot_matrix(a_rr, a_ss, a_rs):
    return np.array([[a_rr, a_rs], [np.conj(a_rs), a_ss]])


def check_contract(a_rr, a_ss, a_rs, j_rr, j_ss):
    """J-unitarity + annihilation for one pivot; returns its W_P."""
    (W,) = rotation_matrices(a_rr, a_ss, a_rs, j_rr == j_ss)
    Jp = np.diag([float(j_rr), float(j_ss)])
    A = pivot_matrix(a_rr, a_ss, a_rs)
    assert np.abs(W.conj().T @ Jp @ W - Jp).max() <= 16 * EPS
    B = W.conj().T @ A @ W
    assert abs(B[0, 1]) <= 16 * EPS * np.abs(A).max()
    return W


def test_trig_example_closed_form():
    # pivot (4, 2, 1) with equal signs: eigenvalues 3 +- sqrt(2)
    W = check_contract(4.0, 2.0, 1.0, 1, 1)
    assert kernel_rotation(4.0, 2.0, 1.0, True)[-1] == TRIG
    B = W.conj().T @ pivot_matrix(4.0, 2.0, 1.0) @ W
    d = sorted(np.diag(B).real)
    assert d == pytest.approx([3 - math.sqrt(2), 3 + math.sqrt(2)], rel=1e-15)


def test_hyperbolic_example_closed_form():
    # pivot (2, 2, 1) with signs (+, -): t = -2 + sqrt(3), diagonal {sqrt(3)}
    W = check_contract(2.0, 2.0, 1.0, 1, -1)
    _, _, t, _, _, hyp = kernel_rotation(2.0, 2.0, 1.0, False)
    assert hyp == HYP
    assert t == pytest.approx(-2 + math.sqrt(3), rel=1e-15)
    B = W.conj().T @ pivot_matrix(2.0, 2.0, 1.0) @ W
    assert np.diag(B).real == pytest.approx([math.sqrt(3)] * 2, rel=1e-14)


def test_zero_offdiagonal_is_identity():
    """A pair whose Gram entry is exactly 0 is skipped, for either sign pair:
    the pass rotates nothing and leaves G, W and D as they were, bit for bit."""
    for j_ss in (1, -1):
        G = np.asfortranarray(np.array([[2.0, -1.0], [1.0, 2.0]]))
        W = np.eye(2, order="F")
        D = column_norms_squared(G)
        G0, D0 = G.copy(), D.copy()
        assert jacobi_cycle(G, np.array([1, j_ss], np.int8), D, W, 2, 0, True).rotations == 0
        assert np.array_equal(G, G0) and np.array_equal(D, D0)
        assert np.array_equal(W, np.eye(2))


def test_indefinite_pivot_rejected():
    """The kernel's definiteness check on a hyperbolic pair: with the Gram
    diagonal D = (1, 1) it is given and Gram entry 2, the pivot (1, 1, 2) is
    indefinite, and the pass stops at that pair."""
    G = np.asfortranarray(np.array([[1.0, 2.0]]))
    with pytest.raises(PivotDefinitenessError) as exc:
        jacobi_cycle(G, np.array([1, -1], np.int8), np.ones(2), None, 2, 0, True)
    assert (exc.value.r, exc.value.s) == (0, 1)


def test_trig_bounds_and_hyperbolic_cs():
    _, _, t, cs, _, _ = kernel_rotation(4.0, 2.0, 1.0, True)
    assert abs(t) <= 1.0 and 0 < cs <= 1.0
    _, _, _, cs, _, _ = kernel_rotation(2.0, 2.0, 1.0, False)
    assert cs >= 1.0


@pytest.mark.parametrize("eta", [-0.5, 0.5])
def test_equal_diagonals_take_plus_one(eta):
    """A trigonometric pivot with equal diagonals has theta = (d_ss - d_rr) /
    (2 eta) = -0.0 for eta < 0 and +0.0 for eta > 0.  ``plane_rotation``
    counts both as +: t = +1 and cs = sn = 1/sqrt(2), for a scalar pivot and
    for an array of pivots alike, and the rotation annihilates the pivot."""
    d = np.float64(2.0)
    scalar = _kernels.plane_rotation(d, d, np.float64(eta), _kernels.TRIG)
    array = _kernels.plane_rotation(np.full(3, d), np.full(3, d), np.full(3, eta),
                                    np.full(3, _kernels.TRIG))
    for t, cs, sn in (scalar, array):
        assert np.all(t == 1.0) and not np.any(np.signbit(t))
        assert np.all(cs == sn)
        assert np.all(np.abs(cs - math.sqrt(0.5)) <= EPS)
    assert all(np.array_equal(np.full(3, x), y) for x, y in zip(scalar, array))
    check_contract(2.0, 2.0, eta, 1, 1)


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
    """``rotate_columns`` with the identity's coefficients (phase 1, cs 1,
    sn 0) leaves the column pair as it was, bit for bit, for either kind."""
    for hyp in (TRIG, HYP):
        G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
        G0 = G.copy()
        rotate_pair(G, 0, 1, 1.0, 1.0, 0.0, hyp)
        assert np.array_equal(G, G0)


def test_apply_rotation_two_column_example():
    # gram pivot (4, 2, 2): eigenvalues 3 +- sqrt(5)
    G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
    D = column_norms_squared(G)
    eta, phase, t, cs, sn, hyp = kernel_rotation(4.0, 2.0, 2.0, True)
    rotate_pair(G, 0, 1, phase, cs, sn, hyp)
    D = D + np.array([hyp * t * eta, t * eta])  # the kernel's update of D
    assert abs(np.vdot(G[:, 0], G[:, 1])) <= 16 * EPS * 4
    norms = sorted(column_norms_squared(G))
    assert norms == pytest.approx([3 - math.sqrt(5), 3 + math.sqrt(5)], rel=1e-14)
    assert sorted(D) == pytest.approx(norms, rel=1e-12)


def random_complex_pairs(rng, k, rows=33):
    """k complex column pairs (k, 2, rows) with unit phases and the (cs, sn)
    of a |t| < 1 rotation of either kind, and the complex matrices
    Q_c = [[cs*phase, hyp*sn], [sn*phase, cs]] of the transformation."""
    P = rng.standard_normal((k, 2, rows)) + 1j * rng.standard_normal((k, 2, rows))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
    hyp = np.where(rng.random(k) < 0.5, TRIG, HYP)
    t = rng.uniform(-0.9, 0.9, k)
    cs = 1.0 / np.sqrt(1.0 - hyp * t * t)
    sn = cs * t
    Qc = np.stack([np.stack([cs * phase, hyp * sn + 0j], -1),
                   np.stack([sn * phase, cs + 0j], -1)], -2)
    return P, phase, cs, sn, hyp, Qc


@pytest.mark.parametrize("k", [1, 5, 64])
def test_complex_rotation_matches_complex_matrices(rng, k):
    """``rotate_columns`` on complex pairs, the phase applied to the r rows
    first and then a real 2x2 product on their float64 view, agrees with
    Q_c @ P to a few ulps of each entry's sum of moduli, for a stack and for
    one pair with scalar coefficients."""
    P, phase, cs, sn, hyp, Qc = random_complex_pairs(rng, k)
    expected = Qc @ P
    bound = 4 * EPS * (np.abs(Qc) @ np.abs(P))
    out = np.empty_like(P)
    _kernels.rotate_columns(P.copy(), phase, cs, sn, hyp, out)
    assert np.all(np.abs(out - expected) <= bound)
    one = np.empty_like(P[0])
    _kernels.rotate_columns(P[0].copy(), phase[0], cs[0], sn[0], hyp[0], one)
    assert np.all(np.abs(one - expected[0]) <= bound[0])


def test_rotate_columns_scales_r_rows_in_place(rng):
    """``rotate_columns`` leaves P's r rows multiplied by the phase and its
    s rows as they were, as documented; with a phase of None it leaves P
    as it was."""
    P0, phase, cs, sn, hyp, _ = random_complex_pairs(rng, 6)
    out = np.empty_like(P0)
    P = P0.copy()
    _kernels.rotate_columns(P, phase, cs, sn, hyp, out)
    assert np.array_equal(P[:, 0], P0[:, 0] * phase[:, None])
    assert np.array_equal(P[:, 1], P0[:, 1])
    P = P0.copy()
    _kernels.rotate_columns(P, None, cs, sn, hyp, out)
    assert np.array_equal(P, P0)


def test_eta_takes_plus_modulus_at_signed_zero():
    """The rounds body's eta (``signed_modulus``) follows ``_sweep_pairs``'
    rule, +|a| where a.real >= 0.0, bit for bit: +|a| at a.real = +0.0 and
    at -0.0 alike, -|a| where a.real < 0."""
    a = np.array([complex(0.0, 2.0), complex(-0.0, 2.0), complex(-0.0, -3.0),
                  complex(-0.0, 0.0), complex(1.5, -1.0), complex(-1.5, 1.0),
                  complex(-1e-300, 1.0)])
    aa = np.hypot(a.real, a.imag)
    eta = _kernels.signed_modulus(a, aa)
    expected = np.array([x if z.real >= 0.0 else -x for z, x in zip(a.tolist(), aa.tolist())])
    assert eta.tobytes() == expected.tobytes()
    assert eta[:4].tolist() == [2.0, 2.0, 3.0, 0.0] and not np.signbit(eta[:4]).any()


@settings(max_examples=200, deadline=None)
@given(st.floats(0.2, 5), st.floats(0.2, 5), st.floats(-0.95, 0.95),
       st.booleans())
def test_diagonal_conservation_laws(a_rr, a_ss, frac, hyperbolic):
    """Trig preserves D_r + D_s; hyperbolic preserves D_r - D_s: the Gram
    diagonal a pass on a 2-column factor of the pivot updates."""
    a_rs = frac * math.sqrt(a_rr * a_ss)
    j_ss = -1 if hyperbolic else 1
    D = np.array([a_rr, a_ss])
    L = np.linalg.cholesky(pivot_matrix(a_rr, a_ss, a_rs))
    G = np.asfortranarray(L.conj().T)
    W = np.eye(2, order="F")
    jacobi_cycle(G, np.array([1, j_ss], np.int8), D, W, 2, 0, True)
    before = a_rr - a_ss if hyperbolic else a_rr + a_ss
    after = D[0] - D[1] if hyperbolic else D[0] + D[1]
    assert abs(after - before) <= 32 * EPS * (abs(D[0]) + abs(D[1]) + 1)


def _rotate(M, D, J, r, s, a_rs):
    """Rotate columns r, s of M, whose Gram entry is a_rs, by ``rotate_columns``
    with ``kernel_rotation``'s coefficients, and update the Gram diagonal D
    as the kernel does; returns the rotation's hyp."""
    eta, phase, t, cs, sn, hyp = kernel_rotation(D[r], D[s], a_rs, J[r] == J[s])
    D[r] += hyp * t * eta
    D[s] += t * eta
    rotate_pair(M, r, s, phase, cs, sn, hyp)
    return float(hyp)


BODIES = (_kernels._sweep_pairs, _kernels.sweep_rounds)


def pin_body(monkeypatch, body):
    """Run every pass by ``body``, in place of ``pass_kernel``'s choice."""
    monkeypatch.setattr(_kernels, "pass_kernel", lambda: body)


def replay_pass(M, D, J, m, n_i, n_j, diag_bl, body):
    """The pass of ``body`` over the stacked array M = [G; W], replayed pair
    by pair by ``_rotate`` from the Gram entries the body reads: one pair at
    a time, column-cyclically, by ``np.vdot`` for ``_sweep_pairs``; all the
    pairs of a round at once, by one batched dot (``gram_entries``), for
    ``sweep_rounds``.  Pairs
    orthogonal to 1e-15, the tests' orth_tol, are skipped.  At a pivot that is not positive
    definite the replay stops, and the rounds body leaves that pivot's round
    unapplied.  Returns the kinds of the rotations applied, in order, and
    the failing pair, (-1, -1) if there is none."""
    if body is _kernels.sweep_rounds:
        order = _kernels.pass_rounds(n_i, n_j, diag_bl)
    else:
        cols = range(1, n_i) if diag_bl else range(n_i, n_i + n_j)
        order = [([r], [s]) for s in cols for r in range(s if diag_bl else n_i)]
    kinds = []
    for R, S in order:
        if body is _kernels.sweep_rounds:
            a = gram_entries(M, m, R, S)
        else:
            a = [np.vdot(M[:m, R[0]], M[:m, S[0]])]
        active = [(r, s, a_rs) for r, s, a_rs in zip(R, S, a)
                  if abs(a_rs) > 1e-15 * np.sqrt(D[r] * D[s])]
        for r, s, a_rs in active:
            if abs(a_rs) ** 2 >= D[r] * D[s] \
                    or kernel_rotation(D[r], D[s], a_rs, J[r] == J[s])[3] == 0.0:
                return kinds, (int(r), int(s))
        kinds += [_rotate(M, D, J, r, s, a_rs) for r, s, a_rs in active]
    return kinds, (-1, -1)


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("j_ss", [1, -1])
def test_kernel_matches_public_rotation(rng, monkeypatch, complex_scalars, j_ss):
    """The sweep kernel is ``plane_rotation`` and ``rotate_columns`` applied
    pair by pair (``_rotate``): G, W and D agree bit for bit.  Both kernel
    bodies are pinned, on the public path at n = 2 and on a whole pass over
    the stacked array [G; W] at n = 12, each replayed pair by pair from the
    Gram entries the body reads (``replay_pass``)."""
    J = np.array([1, j_ss], np.int8)
    for body in BODIES:
        pin_body(monkeypatch, body)
        for _ in range(20):
            G = rng.standard_normal((6, 2))
            if complex_scalars:
                G = G + 1j * rng.standard_normal((6, 2))
            G[:, 1] += 0.3 * G[:, 0]  # a clearly non-orthogonal pair
            G = np.asfortranarray(G)
            D = column_norms_squared(G)
            W = np.eye(2, dtype=G.dtype, order="F")
            M_api, D_api = np.asfortranarray(np.vstack([G, W])), D.copy()
            hyps, _ = replay_pass(M_api, D_api, J, 6, 2, 0, True, body)
            assert hyps == [TRIG if j_ss == 1 else HYP]
            assert jacobi_cycle(G, J, D, W, 2, 0, True).rotations == 1
            assert np.array_equal(G, M_api[:6])
            assert np.array_equal(W, M_api[6:])
            assert np.array_equal(D, D_api)

    n = 12
    m = n + 3
    J = np.array([1, j_ss] * (n // 2), np.int8)  # j_ss = -1: both kinds of pair
    G = rng.standard_normal((m, n))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    for body in BODIES:
        M = np.asfortranarray(np.vstack([G, np.eye(n, dtype=G.dtype)]))
        D = column_norms_squared(M[:m])
        M_api, D_api = M.copy(order="F"), D.copy()
        kinds, _ = replay_pass(M_api, D_api, J, m, n, 0, True, body)
        stats = np.zeros((1, 3))
        fail_r, _ = body(M, J, D, m, n, 0, True, 1e-15, 1e-15, _kernels.ONE_MEMBER, stats)
        assert stats[0, 0] == n * (n - 1) // 2 and fail_r == -1
        assert set(kinds) == ({TRIG} if j_ss == 1 else {TRIG, HYP})
        assert np.array_equal(M, M_api)
        assert np.array_equal(D, D_api)


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("n_i,n_j,diag_bl", [(2, 0, True), (3, 0, True), (4, 0, True),
                                             (5, 0, True), (1, 4, False), (4, 1, False),
                                             (1, 1, False), (3, 2, False)])
def test_narrow_rounds_match_replay(rng, n_i, n_j, diag_bl, complex_scalars):
    """Narrow passes by rounds: one-pair rounds, the padding column of an
    odd diagonal pass, and cross passes of 1 x k and k x 1.  G, W and D agree
    bit for bit with the replay by rounds (``replay_pass``), and every pair
    rotates once."""
    n = n_i if diag_bl else n_i + n_j
    m = n + 3
    J = np.array([1, -1, -1, 1, 1], np.int8)[:n]
    G = rng.standard_normal((m, n))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    M = np.asfortranarray(np.vstack([G, np.eye(n, dtype=G.dtype)]))
    D = column_norms_squared(M[:m])
    M_api, D_api = M.copy(order="F"), D.copy()
    kinds, _ = replay_pass(M_api, D_api, J, m, n_i, n_j, diag_bl, _kernels.sweep_rounds)
    stats = np.zeros((1, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, n_i, n_j, diag_bl, 1e-15, 1e-15,
                                 _kernels.ONE_MEMBER, stats)
    pairs = n_i * (n_i - 1) // 2 if diag_bl else n_i * n_j
    assert fail == (-1, -1) and stats[0, 0] == len(kinds) == pairs
    assert M.tobytes() == M_api.tobytes()
    assert D.tobytes() == D_api.tobytes()


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_round_body_skips_orthogonal_pairs_per_member(rng, complex_scalars):
    """A pass by rounds on two members side by side in which some pairs are
    exactly orthogonal, so that rounds are partly active and the round body
    takes its masked path.  Each member's columns split in two groups with
    disjoint row supports: a pair across the groups has a Gram entry of
    exactly 0, is skipped, and stays so, since a rotation mixes only the
    columns of one group.  G, W and D agree bit for bit with a replay pair
    by pair (``_rotate`` on the Gram entries each round reads), and so do
    each member's counters: rotations, big rotations and max |t|."""
    n = 12
    m, h = n + 3, (n + 3) // 2
    offsets = (0, n)
    J = np.tile(np.array([1, -1] * (n // 2), np.int8), 2)
    G = rng.standard_normal((m, 2 * n))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    low = np.r_[np.arange(n) % 3 == 0, np.arange(n) < 4]  # member 0: every third column
    G[:h, low] = 0.0
    G[h:, ~low] = 0.0
    M = np.asfortranarray(np.vstack([G, np.eye(2 * n, dtype=G.dtype)]))
    D = column_norms_squared(M[:m])
    M_api, D_api = M.copy(order="F"), D.copy()
    orth_tol = 1e-15
    ts = [[], []]
    partial = 0
    for R, S, own in _kernels.member_rounds(n, 0, True, offsets):
        a = gram_entries(M_api, m, R, S)
        rotated = 0
        for r, s, b, a_rs in zip(R, S, own, a):
            if abs(a_rs) <= orth_tol * np.sqrt(D_api[r] * D_api[s]):
                continue
            ts[b].append(abs(kernel_rotation(D_api[r], D_api[s], a_rs, J[r] == J[s])[2]))
            _rotate(M_api, D_api, J, r, s, a_rs)
            rotated += 1
        partial += 0 < rotated < R.size
    assert partial > 0
    quad_tol = float(np.median(np.concatenate(ts)))  # some rotations big, some not
    stats = np.zeros((2, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, n, 0, True, orth_tol, quad_tol,
                                 np.array(offsets, np.intp), stats)
    assert fail == (-1, -1)
    assert M.tobytes() == M_api.tobytes()
    assert D.tobytes() == D_api.tobytes()
    for b in (0, 1):
        at = np.array(ts[b])
        assert stats[b].tolist() == [at.size, np.count_nonzero(at > quad_tol), at.max()]
    assert 0 < stats[:, 1].sum() < stats[:, 0].sum()


def mixed_round_input(rng, complex_scalars, planted):
    """[G; W] of a 12-column pass whose first round (0, 11), (1, 10), (2, 9),
    (3, 8), (4, 7), (5, 6) mixes pairs it skips and pairs it rotates.  G's
    columns are small (D about 0.01) and lie in three groups of rows:
    columns 0, 3, 6, 9 in the first, 1, 2, 4, 5, 7, 8, 10 in the second,
    and column 11 is zero.  So (0, 11) has a Gram entry and D of exactly 0,
    (2, 9) and (3, 8) are hyperbolic pairs with a Gram entry of exactly 0
    and d_rr + d_ss < 2, for which a hyperbolic stand-in with eta = 1 would
    find no root, (5, 6), across the first two groups, is skipped too, and
    (1, 10) and (4, 7) rotate.  planted: columns 5 and 6 are parallel and
    live only in the third group of rows, so (5, 6) is a singular pivot,
    after the skipped pairs of its round.  Column 11, never rotated, holds
    a -0.0 in W beside a positive entry of column 0, which a product by the
    identity would turn into +0.0.  Returns M, D, J and G's row count."""
    n, m = 12, 15
    J = np.array([1, -1] * (n // 2), np.int8)
    G = 0.05 * rng.standard_normal((m, n))
    if complex_scalars:
        G = G + 0.05j * rng.standard_normal(G.shape)
    first = np.arange(n) % 3 == 0
    G[:6, ~first] = 0.0
    G[6:, first] = 0.0
    G[m - 3:] = 0.0
    G[:, 11] = 0.0
    if planted:
        G[:, [5, 6]] = 0.0
        G[m - 3:, 5] = [1.0, 2.0, 2.0]
        G[m - 3:, 6] = [2.0, 4.0, 4.0]
    W = rng.standard_normal((4, n)).astype(G.dtype)
    W[0, 0] = 1.0
    W[0, 11] = complex(-0.0, -0.0) if complex_scalars else -0.0
    M = np.asfortranarray(np.vstack([G, W]))
    return M, column_norms_squared(M[:m]), J, m


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("planted", [False, True])
def test_mixed_rounds_match_replay(rng, complex_scalars, planted):
    """A pass by rounds whose rounds skip some pairs and rotate the others
    (``mixed_round_input``) raises no warning, and G, W, D and the counters
    agree bit for bit with the replay by rounds (``replay_pass``): the
    skipped pairs' stand-ins, Gram entries of exactly 0 and a zero column
    included.  planted: the singular pair after the skipped pairs of the
    first round is reported, and that round stays unapplied, so nothing
    moves."""
    M, D, J, m = mixed_round_input(rng, complex_scalars, planted)
    R, S = _kernels.pass_rounds(12, 0, True)[0]
    assert list(zip(R.tolist(), S.tolist())) == [(0, 11), (1, 10), (2, 9), (3, 8), (4, 7),
                                                 (5, 6)]
    a = gram_entries(M, m, R, S)
    assert a[[1, 4]].all() and a[[0, 2, 3]].tolist() == [0.0] * 3 and bool(a[5]) == planted
    assert D[11] == 0.0 and J[2] != J[9] and J[3] != J[8]
    assert D[2] + D[9] < 2.0 and D[3] + D[8] < 2.0
    M_api, D_api = M.copy(order="F"), D.copy()
    ts, fail_api = replay_counting(M_api, D_api, J, m, 12, 0, True)
    quad_tol = float(np.median(ts)) if ts.size else 1e-15
    stats = np.zeros((1, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, 12, 0, True, 1e-15, quad_tol,
                                 _kernels.ONE_MEMBER, stats)
    assert fail == fail_api == ((5, 6) if planted else (-1, -1))
    assert M.tobytes() == M_api.tobytes()
    assert D.tobytes() == D_api.tobytes()
    assert stats[0].tolist() == counters(ts, quad_tol)
    assert (ts.size == 0) == planted


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("rows", [3, 16, 65, 130])
@pytest.mark.parametrize("k", [2, 7, 32, 64])
def test_round_products_keep_each_pairs_bits(rng, k, rows, complex_scalars):
    """A round's batched Gram dot and batched 2x2 matmul act per pair, so a
    pair gets the same bits alone as in a panel of any width and height:
    k two-column members side by side make one round of k pairs, and each
    pair's Gram entry (through its |t|), D entries and rotated columns, G's
    and W's rows alike, agree bit for bit with a pass over the pair alone.
    Guards against numpy or BLAS switching code paths by shape."""
    m = (rows + 1) // 2  # G's rows; the rest are W's
    M0 = rng.standard_normal((rows, 2 * k))
    if complex_scalars:
        M0 = M0 + 1j * rng.standard_normal(M0.shape)
    M0[:, 1::2] += 0.5 * M0[:, ::2]  # every pair clearly non-orthogonal
    M0 = np.asfortranarray(M0)
    J = np.array([1, 1, 1, -1], np.int8)[np.arange(2 * k) % 4]  # both kinds of pair
    offsets = np.arange(0, 2 * k, 2)
    assert len(_kernels.member_rounds(2, 0, True, tuple(offsets.tolist()))) == 1
    M, D = M0.copy(order="F"), column_norms_squared(M0[:m])
    stats = np.zeros((k, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, 2, 0, True, 1e-15, 1e-15, offsets, stats)
    assert fail == (-1, -1) and stats[:, 0].tolist() == [1.0] * k
    for j in range(k):
        pair = slice(2 * j, 2 * j + 2)
        M_j = M0[:, pair].copy(order="F")
        D_j = column_norms_squared(M_j[:m])
        stats_j = np.zeros((1, 3))
        assert _kernels.sweep_rounds(M_j, J[pair], D_j, m, 2, 0, True, 1e-15, 1e-15,
                                     _kernels.ONE_MEMBER, stats_j) == (-1, -1)
        assert M_j.tobytes() == M[:, pair].tobytes()
        assert D_j.tobytes() == D[pair].tobytes()
        assert stats_j[0].tobytes() == stats[j].tobytes()


@pytest.fixture
def cut_at_three():
    """Rounds cut at 3 pairs: ``_kernels.ROUND_MAX_PAIRS`` patched, with the
    round caches cleared before and after."""
    caches = (_kernels.pass_rounds, _kernels.member_rounds, _kernels.round_panels)
    for cache in caches:
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "ROUND_MAX_PAIRS", 3)
        yield
    for cache in caches:
        cache.cache_clear()


def replay_counting(M, D, J, m, n_i, n_j, diag_bl):
    """``replay_pass`` by rounds, which also returns the |t| of each rotation
    it applies, in order, recorded by a wrapper around ``_rotate``."""
    ts = []
    apply = _rotate

    def rotate(M, D, J, r, s, a_rs):
        ts.append(abs(kernel_rotation(D[r], D[s], a_rs, J[r] == J[s])[2]))
        return apply(M, D, J, r, s, a_rs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "_rotate", rotate)
        kinds, fail = replay_pass(M, D, J, m, n_i, n_j, diag_bl, _kernels.sweep_rounds)
    assert len(ts) == len(kinds)
    return np.array(ts), fail


def counters(ts, quad_tol):
    """A member's (rotations, big_rotations, max_abs_t) from its |t|s."""
    return [ts.size, np.count_nonzero(ts > quad_tol), ts.max(initial=0.0)]


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("n_i,n_j,diag_bl,pieces", [(10, 0, True, [3, 2]), (11, 0, True, [3, 2]),
                                                    (4, 7, False, [3, 1])])
def test_cut_rounds_match_replay(rng, cut_at_three, n_i, n_j, diag_bl, pieces, planted,
                                 complex_scalars):
    """Passes whose rounds are cut (at 3 pairs here), with W rows: a diagonal
    pass of even and of odd width and a non-square cross pass.  G, W, D, the
    counters and the failing pair agree bit for bit with the replay by the
    same cut rounds (``replay_pass``).  planted: the last pair of the
    middle round's second piece is singular (its columns are parallel, and
    orthogonal to every other column, so they stay so until they meet), so
    the pass stops there with the round's first piece applied."""
    rounds = _kernels.pass_rounds(n_i, n_j, diag_bl)
    assert [R.size for R, _ in rounds] == pieces * (len(rounds) // 2)  # each round cut in two
    n = n_i if diag_bl else n_i + n_j
    m = n + 6
    J = np.array([1, -1, -1, 1, 1], np.int8)[np.arange(n) % 5]
    G = rng.standard_normal((m, n))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    G[n + 3:] = 0.0
    fail_at = (-1, -1)
    if planted:
        R, S = rounds[len(rounds) // 2 | 1]  # an odd position: a round's second piece
        fail_at = r, s = int(R[-1]), int(S[-1])
        G[:, [r, s]] = 0.0
        G[n + 3:, r] = [1.0, 2.0, 2.0]
        G[n + 3:, s] = [2.0, 4.0, 4.0]
    W = rng.standard_normal((4, n)).astype(G.dtype)
    M = np.asfortranarray(np.vstack([G, W]))
    D = column_norms_squared(M[:m])
    M_api, D_api = M.copy(order="F"), D.copy()
    ts, fail_api = replay_counting(M_api, D_api, J, m, n_i, n_j, diag_bl)
    quad_tol = float(np.median(ts))  # some rotations big, some not
    stats = np.zeros((1, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, n_i, n_j, diag_bl, 1e-15, quad_tol,
                                 _kernels.ONE_MEMBER, stats)
    assert fail == fail_api == fail_at
    assert 0 < ts.size <= sum(R.size for R, _ in rounds)  # every pair once, unless planted
    assert planted or ts.size == sum(R.size for R, _ in rounds)
    assert M.tobytes() == M_api.tobytes()
    assert D.tobytes() == D_api.tobytes()
    assert stats[0].tolist() == counters(ts, quad_tol)


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_cut_stacked_rounds_match_replay(rng, cut_at_three, complex_scalars):
    """Two 10-column members side by side, with W rows, by rounds cut at 3
    pairs, so that some cut rounds hold pairs of both members: each
    member's G, W, D and counters agree bit for bit with the replay of the
    member alone."""
    n, w = 10, 20
    rounds = _kernels.member_rounds(n, 0, True, (0, n))
    assert any(np.unique(own).size == 2 for _, _, own in rounds)
    m = n + 3
    J = np.array([1, -1, -1, 1, 1], np.int8)[np.arange(w) % 5]
    G = rng.standard_normal((m, w))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    M = np.asfortranarray(np.vstack([G, rng.standard_normal((4, w)).astype(G.dtype)]))
    D = column_norms_squared(M[:m])
    M_api, D_api = M.copy(order="F"), D.copy()
    ts = [replay_counting(M_api[:, b:b + n], D_api[b:b + n], J[b:b + n], m, n, 0, True)[0]
          for b in (0, n)]
    quad_tol = float(np.median(np.concatenate(ts)))
    stats = np.zeros((2, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, n, 0, True, 1e-15, quad_tol,
                                 np.array([0, n]), stats)
    assert fail == (-1, -1)
    assert M.tobytes() == M_api.tobytes()
    assert D.tobytes() == D_api.tobytes()
    assert [row.tolist() for row in stats] == [counters(t, quad_tol) for t in ts]


@pytest.mark.parametrize("complex_scalars", [False, True])
@pytest.mark.parametrize("eta", [-0.5, 0.5])
def test_equal_diagonals_take_plus_one_in_a_round(rng, eta, complex_scalars):
    """``test_equal_diagonals_take_plus_one``'s pivot inside a round of two
    pairs: two 2-column members side by side, member 0 the trigonometric
    pivot d_rr = d_ss = 1 with Gram entry eta (theta = -0.0 for eta > 0,
    +0.0 for eta < 0), member 1 a generic pair.  The round takes t = +1 for
    it, so its D becomes (1 - eta, 1 + eta), and G, W and D agree bit for
    bit with the replay of each member alone."""
    m = 4
    G = np.zeros((m, 4), dtype=complex if complex_scalars else float)
    G[0, 0] = 1.0
    G[:, 1] = [eta, 0.5, 0.5, 0.5]
    G[:, 2:] = rng.standard_normal((m, 2))
    if complex_scalars:
        G[:, 2:] += 1j * rng.standard_normal((m, 2))
    G[:, 3] += 0.3 * G[:, 2]
    J = np.array([1, 1, 1, -1], np.int8)
    M = np.asfortranarray(np.vstack([G, rng.standard_normal((3, 4))]))
    D = column_norms_squared(M[:m])
    assert D[:2].tolist() == [1.0, 1.0]
    assert len(_kernels.member_rounds(2, 0, True, (0, 2))) == 1
    M_api, D_api = M.copy(order="F"), D.copy()
    for b in (0, 2):
        kinds, _ = replay_pass(M_api[:, b:b + 2], D_api[b:b + 2], J[b:b + 2], m, 2, 0, True,
                               _kernels.sweep_rounds)
        assert len(kinds) == 1
    stats = np.zeros((2, 3))
    fail = _kernels.sweep_rounds(M, J, D, m, 2, 0, True, 1e-15, 1e-15, np.array([0, 2]), stats)
    assert fail == (-1, -1)
    assert D[:2].tolist() == [1.0 - eta, 1.0 + eta]  # d_rr + hyp*t*eta, d_ss + t*eta
    assert stats[0].tolist() == [1.0, 1.0, 1.0]
    assert M.tobytes() == M_api.tobytes()
    assert D.tobytes() == D_api.tobytes()


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


@pytest.mark.parametrize("n", [4, 12])
def test_failing_member_names_its_own_pair(rng, monkeypatch, n):
    """A stacked pass that meets a singular pivot in one member raises with
    that member's own pair, the pair the member raises alone, by either
    kernel body."""
    (R, S), *_ = _kernels.pass_rounds(n, 0, True)
    r, s = int(R[-1]), int(S[-1])
    bad = np.eye(n, order="F")
    bad[:, s] = 0.0
    bad[r, s] = 2.0  # column s = 2 * column r
    J = np.ones(n, np.int8)
    G = np.asfortranarray(np.hstack([np.eye(n), rng.standard_normal((n, n)), bad]))
    for body in BODIES:
        pin_body(monkeypatch, body)
        with pytest.raises(PivotDefinitenessError) as alone:
            jacobi_cycle(bad.copy(order="F"), J, column_norms_squared(bad), None, n, 0, True)
        with pytest.raises(PivotDefinitenessError) as stacked:
            cycle_members(G.copy(order="F"), np.tile(J, 3), column_norms_squared(G), None,
                          n, 0, True, Tolerances(), [0, n, 2 * n])
        assert (stacked.value.r, stacked.value.s) == (alone.value.r, alone.value.s) == (r, s)


@pytest.mark.parametrize("n", [4, 12])
def test_cycle_reports_parallel_columns(monkeypatch, n):
    """A pivot of two parallel columns stops the pass, by either kernel
    body, and names the pair; by rounds, the round holding it is not
    applied, although another of its pairs would rotate."""
    (R, S), *_ = _kernels.pass_rounds(n, 0, True)
    r, s = int(R[-1]), int(S[-1])  # the failing pair
    G0 = np.eye(n, order="F")
    G0[:, s] = 0.0
    G0[r, s] = 2.0  # column s = 2 * column r: a singular pivot
    if R.size > 1:  # a pair before it in the same round that would rotate
        G0[S[0], R[0]] = 0.5
    J = np.ones(n, np.int8)
    for body in BODIES:
        pin_body(monkeypatch, body)
        G = G0.copy(order="F")
        with pytest.raises(PivotDefinitenessError) as exc:
            jacobi_cycle(G, J, column_norms_squared(G), None, n, 0, True)
        assert (exc.value.r, exc.value.s) == (r, s)
        if body is _kernels.sweep_rounds:
            assert np.array_equal(G, G0)


def test_stopped_pass_keeps_rotations_so_far(rng, monkeypatch):
    """A pass that meets a non-positive-definite pivot after some rotations
    returns that pair and leaves G, W and D as rotated up to it, by either
    kernel body: column-cyclically (0, 1), (0, 2) and (1, 2) rotate before
    (3, 4); by rounds only (0, 1), since (3, 4) shares its round with
    (0, 2).  Pairs with 3 or 4 are orthogonal to the others."""
    n = 5
    G0 = np.zeros((6, n), order="F")
    G0[:3, :3] = rng.standard_normal((3, 3))
    G0[3:, 3] = [1.0, 2.0, 2.0]
    G0[3:, 4] = 2.0 * G0[3:, 3]  # (3, 4) is singular, exactly
    J = np.array([1, -1, 1, 1, -1], np.int8)
    for body, rotated in zip(BODIES, (3, 1)):
        pin_body(monkeypatch, body)
        G, D, W = G0.copy(order="F"), column_norms_squared(G0), np.eye(n, order="F")
        M_api, D_api = np.asfortranarray(np.vstack([G, W])), D.copy()
        kinds, fail = replay_pass(M_api, D_api, J, 6, n, 0, True, body)
        assert len(kinds) == rotated and fail == (3, 4)
        nrot, _, _, fail_r, fail_s = _kernels.sweep_pairs(G, J, D, W, n, 0, True, 1e-15, 1e-15)
        assert (nrot, fail_r, fail_s) == (rotated, 3, 4)
        assert np.array_equal(G, M_api[:6])
        assert np.array_equal(W, M_api[6:])
        assert np.array_equal(D, D_api)


@pytest.mark.parametrize("n", [5, 12])
def test_zero_row_accumulator_rotates_g_in_place(rng, monkeypatch, n):
    """A W with no rows accumulates nothing: G and D come out rotated in
    place exactly as with an accumulator, by either kernel body."""
    G0 = np.asfortranarray(rng.standard_normal((n + 2, n)))
    J = np.array([1, -1] * n, np.int8)[:n]
    for body in BODIES:
        pin_body(monkeypatch, body)
        G, D = G0.copy(order="F"), column_norms_squared(G0)
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
    # gram pivot (4, 2, 2): eigenvalues 3 +- sqrt(5)
    G = np.asfortranarray(np.array([[2.0, 1.0], [0.0, 1.0]]))
    D = column_norms_squared(G)
    W = np.eye(2, order="F")
    stats = jacobi_cycle(G, np.ones(2, np.int8), D, W, 2, 0, True)
    assert stats.rotations == 1
    A = gram(G)
    assert abs(A[0, 1]) <= 32 * EPS
    norms = sorted(column_norms_squared(G))
    assert norms == pytest.approx([3 - math.sqrt(5), 3 + math.sqrt(5)], rel=1e-14)
    assert sorted(D) == pytest.approx(norms, rel=1e-12)


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
    W = np.eye(n, order="F")
    diagonalize_members(G, J, 1, W=W)
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


@pytest.fixture
def empty_pool():
    """``_kernels.WORKSPACES`` emptied before and after."""
    _kernels.WORKSPACES.clear()
    yield _kernels.WORKSPACES
    _kernels.WORKSPACES.clear()


def stacked_pass(M0, D0, J, m, n_i, n_j, diag_bl, offsets):
    """One ``sweep_rounds`` pass on copies of M0 and D0; returns the bytes of
    M, D and the counters, and the failing pair."""
    M, D = M0.copy(order="F"), D0.copy()
    stats = np.zeros((len(offsets), 3))
    fail = _kernels.sweep_rounds(M, J, D, m, n_i, n_j, diag_bl, 1e-15, 1e-15,
                                 np.array(offsets, np.intp), stats)
    return M.tobytes(), D.tobytes(), stats.tobytes(), fail


def stacked_input(rng, m, w, complex_scalars):
    """[G; W] of m rows of G and 4 of W over w columns, its D and J."""
    G = rng.standard_normal((m, w))
    if complex_scalars:
        G = G + 1j * rng.standard_normal(G.shape)
    M = np.asfortranarray(np.vstack([G, rng.standard_normal((4, w)).astype(G.dtype)]))
    J = np.array([1, -1, -1, 1, 1], np.int8)[np.arange(w) % 5]
    return M, column_norms_squared(M[:m]), J


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_pass_after_a_stopped_pass_keeps_its_bits(rng, empty_pool, complex_scalars):
    """A pass stopped in its middle round by a non-positive-definite pivot
    puts its workspace back with what its rotating rounds wrote there; the
    next pass of the same shape takes that workspace and gets the bits it
    gets from an empty pool."""
    n, m = 12, 15
    M, D, J = stacked_input(rng, m, n, complex_scalars)
    clean = stacked_pass(M, D, J, m, n, 0, True, (0,))
    assert clean[3] == (-1, -1)
    rounds = _kernels.pass_rounds(n, 0, True)
    R, S = rounds[len(rounds) // 2]
    r, s = int(R[-1]), int(S[-1])
    bad = M.copy(order="F")
    bad[m - 3:m] = 0.0
    bad[:m, [r, s]] = 0.0
    bad[m - 3:m, r] = [1.0, 2.0, 2.0]
    bad[m - 3:m, s] = [2.0, 4.0, 4.0]  # a singular pivot, orthogonal to every other column
    empty_pool.clear()
    assert stacked_pass(bad, column_norms_squared(bad[:m]), J, m, n, 0, True, (0,))[3] == (r, s)
    assert empty_pool.nbytes > 0
    assert stacked_pass(M, D, J, m, n, 0, True, (0,)) == clean


def test_interleaved_shapes_and_dtypes_keep_their_bits(rng, empty_pool):
    """Passes of one round table with real and complex scalars, and of two
    members and of one, interleaved so that each finds the pool holding
    the others' workspaces: every pass gets the bits it gets from an empty
    pool."""
    n, m = 10, 13
    cases = []
    for complex_scalars in (False, True):
        for offsets in ((0, n), (0,)):
            M, D, J = stacked_input(rng, m, n * len(offsets), complex_scalars)
            cases.append((M, D, J, offsets))
    alone = []
    for M, D, J, offsets in cases:
        empty_pool.clear()
        alone.append(stacked_pass(M, D, J, m, n, 0, True, offsets))
    empty_pool.clear()
    for _ in range(2):
        for (M, D, J, offsets), bits in zip(cases, alone):
            assert stacked_pass(M, D, J, m, n, 0, True, offsets) == bits
    assert len(empty_pool._kept) == len(cases)


def test_two_threads_get_the_bits_of_serial_solves(rng, empty_pool):
    """Two threads solving inputs of one shape at once, each many times,
    share one pool; every solve gets the bits of the same solve run alone."""
    opts = SolveOptions(variant="seqB", nt_outer=4)
    Gs = [np.asfortranarray(rng.standard_normal((16, 16))) for _ in range(2)]
    J = np.array([1, -1] * 8, np.int8)

    def solve(G):
        G = G.copy(order="F")
        info = run_solver(G, J, opts)[1]
        return G.tobytes(), info.sweeps, info.rotations

    serial = [solve(G) for G in Gs]
    start = threading.Barrier(2)
    results = [[], []]

    def work(t):
        start.wait()
        results[t] += [solve(Gs[t]) for _ in range(20)]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert results == [[serial[0]] * 20, [serial[1]] * 20]


def solve_test_matrix(n, complex_scalars, variants, p=1):
    """``run_solver`` of each of ``variants`` on the factor of one
    log-uniform test matrix of order n."""
    spec = EigSpec(mode="log_uniform", lo=1e-3, hi=1.0, neg_fraction=0.4, seed=n)
    f = order_by_inertia(factorize_hermitian_indefinite(
        generate_test_matrix(n, spec, complex_scalars)))
    for variant in variants:
        run_solver(f.G.copy(order="F"), f.J, SolveOptions(variant=variant, p=p))


def kept_within(pool, limit):
    kept = list(pool._kept.values())
    assert pool.nbytes == sum(ws.nbytes for ws in kept) <= limit
    return kept


def test_pool_keeps_at_most_its_limit(empty_pool):
    """After solves from n = 32 to 256 (complex up to 128), non-blocked,
    blocked and by the ring, the buffers the pool keeps take at most
    ``WORKSPACE_BYTES`` in all."""
    for n in (32, 64, 128, 256):
        for complex_scalars in (False, True)[:1 + (n < 256)]:
            solve_test_matrix(n, complex_scalars, ("seq", "seqB"))
            solve_test_matrix(n, complex_scalars, ("3B",), p=2)
            assert kept_within(empty_pool, _kernels.WORKSPACE_BYTES)


def test_pool_drops_what_exceeds_its_limit(empty_pool, monkeypatch):
    """Under a limit of 1 MiB, a ``seq`` pass at n = 256 (1.6 MB of
    buffers) is not kept, and a ``seqB`` solve keeps its smaller workspace
    only, within the limit."""
    monkeypatch.setattr(empty_pool, "limit", 1 << 20)
    solve_test_matrix(256, False, ("seq",))
    assert not kept_within(empty_pool, 1 << 20)
    solve_test_matrix(256, False, ("seqB",))
    assert kept_within(empty_pool, 1 << 20)
