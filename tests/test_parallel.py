import dataclasses
import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_full_rank
from hjacobi import _kernels, blocking, parallel
from hjacobi.core import column_norms_squared, gram
from hjacobi.errors import HJacobiError, PivotDefinitenessError
from hjacobi.parallel import (
    _Worker,
    exchange_convergence,
    parallel_jacobi,
)
from hjacobi.rotations import DiagInfo, Tolerances, jacobi_diagonalize, sweep_until_quiet
from hjacobi.solve import SolveOptions


def make_factor(rng, n, n_neg, complex_scalars=False):
    G = random_full_rank(rng, n, n, complex_scalars)
    J = np.array([1] * (n - n_neg) + [-1] * n_neg, np.int8)
    return G, J


def pencil_eigs(G, J):
    H = G @ np.diag(J.astype(float)) @ G.conj().T
    return np.sort(np.linalg.eigvalsh(H))


def solve_eigs(G, J, cfg):
    Gout, info = parallel_jacobi(G.copy(order="F"), J.copy(), cfg)
    assert info.converged
    return np.sort(J * column_norms_squared(Gout)), info


def test_config_validation():
    with pytest.raises(ValueError):
        SolveOptions(variant="4X")
    with pytest.raises(ValueError):
        SolveOptions(variant="2F", p=0)
    with pytest.raises(ValueError):
        SolveOptions(variant="3B", inner_nt=0)
    cfg = SolveOptions(variant="2F", strategy="rr")
    assert cfg.strategy == "round_robin"


def test_rejects_sequential_variant(rng):
    G, J = make_factor(rng, 8, 3)
    with pytest.raises(ValueError):
        parallel_jacobi(G, J, SolveOptions(variant="seq"))


def _fail_in_first_step(monkeypatch, pairs):
    """Make the first step's local solve meet a pivot that is not positive
    definite: the factor of stacked member b, for each b -> (r, s) in
    ``pairs``, becomes an identity whose columns r and s are equal, so the
    kernel skips that member's other pairs and fails at (r, s).  When all
    pivots share one width, member b is worker b's pivot."""
    local = _Worker._local_transform

    def corrupt(self, R, J, n_i, members, W, first_step):
        if first_step:
            k = R.shape[1] // members
            for b, (r, s) in pairs.items():
                Rb = np.eye(k)
                Rb[:, s] = Rb[:, r]
                R[:, b * k:(b + 1) * k] = Rb
        return local(self, R, J, n_i, members, W, first_step)

    monkeypatch.setattr(_Worker, "_local_transform", corrupt)


def test_worker_exception_reraised(rng, monkeypatch):
    # every rank fails in its first step
    _fail_in_first_step(monkeypatch, {0: (1, 2), 1: (1, 2)})
    G, J = make_factor(rng, 8, 3)
    with pytest.raises(PivotDefinitenessError) as err:
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=2))
    assert (err.value.r, err.value.s) == (1, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_peers_stop_when_one_worker_fails(rng, monkeypatch, p):
    # only rank 0 fails: the run must stop at once
    _fail_in_first_step(monkeypatch, {0: (1, 2)})
    G, J = make_factor(rng, 12, 5)
    t0 = time.perf_counter()
    with pytest.raises(PivotDefinitenessError) as err:
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=p))
    assert time.perf_counter() - t0 < 10.0
    assert (err.value.r, err.value.s) == (1, 2)


@pytest.mark.parametrize("body,raised", [("sweep_rounds", (2, 3)), ("_sweep_pairs", (1, 2))])
def test_step_raises_the_first_failure_it_meets(rng, monkeypatch, body, raised):
    """Both ranks fail in the first step: rank 0 at (1, 2), in round 3 of
    its 6-column pivot, rank 1 at (2, 3), in round 0.  The kernel by rounds
    takes round k of both pivots at once and meets rank 1's failure first;
    the cyclic kernel runs rank 0's pass before rank 1's."""
    monkeypatch.setattr(_kernels, "pass_kernel", lambda *args: getattr(_kernels, body))
    assert [(1, 2) in zip(*rnd) for rnd in _kernels.pass_rounds(6, 0, True)].index(True) == 3
    assert (2, 3) in zip(*_kernels.pass_rounds(6, 0, True)[0])
    _fail_in_first_step(monkeypatch, {0: (1, 2), 1: (2, 3)})
    G, J = make_factor(rng, 12, 5)
    with pytest.raises(PivotDefinitenessError) as err:
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=2))
    assert (err.value.r, err.value.s) == raised


@pytest.mark.parametrize("body", ["sweep_rounds", "_sweep_pairs"])
def test_step_of_two_widths_raises_the_first_groups_failure(rng, monkeypatch, body):
    """n = 33 over 2p = 4 blocks (9, 8, 8, 8): in the first step rank 0
    holds blocks 1 and 4 (17 columns) and rank 1 blocks 2 and 3 (16), so the
    step runs two width groups, rank 0's first.  Both pivots fail, rank 1's
    in the kernel's first round and rank 0's in a later one; rank 0's error
    is raised whatever the kernel body, because its group runs first."""
    monkeypatch.setattr(_kernels, "pass_kernel", lambda *args: getattr(_kernels, body))
    rounds = {k: [list(zip(*rnd)) for rnd in _kernels.pass_rounds(k, 0, True)] for k in (16, 17)}
    fail = {17: rounds[17][3][0], 16: rounds[16][0][0]}
    local = _Worker._local_transform
    widths = []

    def corrupt(self, R, J, n_i, members, W, first_step):
        k = R.shape[1] // members
        widths.append(k)
        if first_step:
            r, s = fail[k]
            Rb = np.eye(k)
            Rb[:, s] = Rb[:, r]
            R[:, :k] = Rb
        return local(self, R, J, n_i, members, W, first_step)

    monkeypatch.setattr(_Worker, "_local_transform", corrupt)
    G, J = make_factor(rng, 33, 11)
    with pytest.raises(PivotDefinitenessError) as err:
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=2))
    assert (err.value.r, err.value.s) == tuple(fail[17])
    assert widths == [17]  # rank 1's group never ran


@pytest.mark.parametrize("complex_scalars", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("variant", ["2F", "3F"])
def test_f_worker_pivot_ends_each_step_diagonalized(rng, monkeypatch, variant, p,
                                                    complex_scalars):
    """What F means at the ring level: every step's local solve leaves each
    worker's pivot factor R_b converged, with the largest scaled off-diagonal
    entry of gram(R_b) at most 2 orth_tol(k), k being R_b's width.  The
    factor 2 only covers recomputing the Gram product here.  With
    inner_nt = 8 the 3F pivots of 24 and 48 columns (p = 2, 1) take the
    blocked inner path; the 12-column ones of p = 4 are below twice it."""
    local = _Worker._local_transform
    ratios = []

    def check(self, R, J, n_i, members, W, first_step):
        infos = local(self, R, J, n_i, members, W, first_step)
        k = R.shape[1] // members
        for b, info in enumerate(infos):
            assert info.converged
            A = gram(R[:, b * k:(b + 1) * k])
            d = np.sqrt(np.diag(A).real)
            off = np.abs(A - np.diag(np.diag(A))) / np.outer(d, d)
            ratios.append(off.max() / self.opts.tol.orth(k))
        return infos

    monkeypatch.setattr(_Worker, "_local_transform", check)
    G, J = make_factor(rng, 48, 20, complex_scalars)
    _, info = parallel_jacobi(G.copy(order="F"), J,
                              SolveOptions(variant=variant, p=p, inner_nt=8))
    assert info.converged and ratios
    assert max(ratios) <= 2.0


def test_needs_enough_columns(rng):
    G, J = make_factor(rng, 4, 0)
    with pytest.raises(ValueError):
        parallel_jacobi(G, J, SolveOptions(variant="2F", p=3))


@pytest.mark.parametrize("variant", ["2F", "2B", "3F", "3B"])
def test_p1_matches_sequential(rng, variant):
    G, J = make_factor(rng, 20, 7)
    ref_G = G.copy(order="F")
    jacobi_diagonalize(ref_G, J)
    ref = np.sort(J * column_norms_squared(ref_G))
    got, _ = solve_eigs(G, J, SolveOptions(variant=variant, p=1, inner_nt=4))
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_cross_variant_cross_p_agreement(rng, complex_scalars):
    n = 48
    G, J = make_factor(rng, n, 19, complex_scalars)
    ref = pencil_eigs(G, J)
    for variant in ("2F", "2B", "3F", "3B"):
        for strategy in ("modulus", "round_robin"):
            for p in (2, 3, 4):
                got, _ = solve_eigs(
                    G, J, SolveOptions(variant=variant, strategy=strategy,
                                       p=p, inner_nt=8))
                assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), \
                    (variant, strategy, p)


@pytest.mark.parametrize("n,p", [(33, 2), (50, 3), (50, 4)])
def test_unequal_block_widths(rng, monkeypatch, n, p):
    """n not divisible by 2p gives blocks of two widths, so a step's planned
    round runs one group step per width; every ring variant converges to
    the pencil's eigenvalues under both strategies."""
    G, J = make_factor(rng, n, n // 3)
    ref = pencil_eigs(G, J)
    pivot_pass = parallel._pivot_pass
    members = []  # pivots per width group of each step

    def record(G, signs, plan, *args, **kwargs):
        members.extend(len(group.owners) for groups in plan for group in groups)
        return pivot_pass(G, signs, plan, *args, **kwargs)

    monkeypatch.setattr(parallel, "_pivot_pass", record)
    for variant in ("2F", "2B", "3F", "3B"):
        for strategy in ("modulus", "round_robin"):
            members.clear()
            got, _ = solve_eigs(G, J, SolveOptions(variant=variant, strategy=strategy,
                                                   p=p, inner_nt=8))
            assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), (variant, strategy)
            assert min(members) < p  # a step split by width


def test_orthogonal_columns_converge_immediately(rng):
    G = np.asfortranarray(np.diag(np.arange(1.0, 9.0)))
    J = np.ones(8, np.int8)
    for variant in ("2F", "2B", "3F", "3B"):
        Gout, info = parallel_jacobi(G.copy(order="F"), J.copy(),
                                     SolveOptions(variant=variant, p=2))
        assert info.converged and info.rotations == 0 and info.sweeps == 1


def test_column_order_restored(rng):
    # with an already-orthogonal factor no rotations happen, so the output
    # must be exactly the input: block shipping must leave every block-column
    # at its original columns
    G = np.asfortranarray(np.diag(np.arange(1.0, 13.0)))
    J = np.ones(12, np.int8)
    Gout, _ = parallel_jacobi(G.copy(order="F"), J,
                              SolveOptions(variant="2B", p=3))
    assert np.array_equal(Gout, G)


def test_determinism_bitwise(rng):
    G, J = make_factor(rng, 30, 11)
    cfg = SolveOptions(variant="3B", strategy="modulus", p=3, inner_nt=4)
    a, _ = parallel_jacobi(G.copy(order="F"), J.copy(), cfg)
    b, _ = parallel_jacobi(G.copy(order="F"), J.copy(), cfg)
    assert np.array_equal(a, b)


def test_nonconvergence_flagged(rng):
    G, J = make_factor(rng, 24, 9)
    cfg = SolveOptions(variant="2B", p=2, tol=Tolerances(max_sweeps=1))
    _, info = parallel_jacobi(G, J, cfg)
    assert not info.converged and info.sweeps == 1


def test_exchange_convergence_sums():
    for p in (1, 2, 3, 5):
        infos = [DiagInfo(rotations=3 * q + 1, big_rotations=q, max_abs_t=0.1 * ((q + 2) % p))
                 for q in range(p)]
        total = exchange_convergence(infos)
        assert total.rotations == sum(3 * q + 1 for q in range(p)), p
        assert total.big_rotations == sum(range(p)), p
        assert total.max_abs_t == max(info.max_abs_t for info in infos), p


def test_exchange_convergence_zero_means_converged():
    for p in (1, 2, 3, 5):
        info = sweep_until_quiet(lambda k: exchange_convergence([DiagInfo()] * p), Tolerances())
        assert info.converged and info.sweeps == 1 and info.rotations == 0, p


def test_misrouted_exchange_fails_at_once(rng, monkeypatch):
    # rank 0 sends to the neighbor it should receive from, and receives from
    # the one it should send to
    correct_step_fn = parallel.step_fn

    def misrouting_step_fn(strategy):
        stepper = correct_step_fn(strategy)

        def step(state, p):
            plan = stepper(state, p)
            if state.rank == 0:
                plan = dataclasses.replace(plan, snd_rnk=plan.rcv_rnk, rcv_rnk=plan.snd_rnk)
            return plan
        return step

    monkeypatch.setattr(parallel, "step_fn", misrouting_step_fn)
    G, J = make_factor(rng, 12, 5)
    t0 = time.perf_counter()
    with pytest.raises(HJacobiError):
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=3))
    assert time.perf_counter() - t0 < 10.0


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_finds_every_layer_it_wraps(rng):
    """perfbench imports its tracer before any workload runs, and the tracer
    reads every (owner, attribute) of its LAYERS and the BlockMessage
    fields its send counter reads.  A traced 2F solve counts ring steps,
    messages and pivots, and every block sent carries its columns' current
    squared norms as a view of the ring's one norms vector."""
    tracing = _tracing()
    for owner, attr, _, _ in tracing.LAYERS:
        assert attr in owner.__dict__, (owner, attr)
    fields = {f.name for f in dataclasses.fields(parallel.BlockMessage)}
    assert {"G_block", "J_seg", "D_seg"} <= fields
    G, J = make_factor(rng, 24, 9)
    blocking.round_plan.cache_clear()  # blocking.pivots counts the pivots of plans built
    sent = []
    with tracing.Tracer().installed() as tracer:
        send = parallel.Ring.send

        def keep(self, src, dst, msg):
            sent.append(np.array_equal(msg.D_seg, column_norms_squared(msg.G_block))
                        and msg.D_seg.base is not None)
            return send(self, src, dst, msg)

        parallel.Ring.send = keep
        try:
            _, info = parallel_jacobi(G, J, SolveOptions(variant="2F", p=2))
        finally:
            parallel.Ring.send = send
    assert info.converged and sent and all(sent)
    steps = info.sweeps * 4  # 2p modulus steps per sweep, one _step per worker
    assert tracer.counts["ring.steps"] == 2 * steps
    assert tracer.counts["ring.messages"] == 2 * steps
    assert tracer.counts["blocking.pivots"] > 0
