import dataclasses
import time

import numpy as np
import pytest

from conftest import random_full_rank
from hjacobi import parallel
from hjacobi.core import column_norms_squared
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


def test_worker_exception_reraised(rng, monkeypatch):
    # every rank fails in its first step, so no peer waits on the channel
    def fail(self, first_step):
        raise PivotDefinitenessError(1, 2)

    monkeypatch.setattr(_Worker, "_step", fail)
    G, J = make_factor(rng, 8, 3)
    with pytest.raises(PivotDefinitenessError) as err:
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=2))
    assert (err.value.r, err.value.s) == (1, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_peers_stop_when_one_worker_fails(rng, monkeypatch, p):
    # only rank 0 fails: the run must stop at once
    step = _Worker._step

    def fail_on_rank_0(self, first_step):
        if self.rank == 0:
            raise PivotDefinitenessError(1, 2)
        step(self, first_step)

    monkeypatch.setattr(_Worker, "_step", fail_on_rank_0)
    G, J = make_factor(rng, 12, 5)
    t0 = time.perf_counter()
    with pytest.raises(PivotDefinitenessError) as err:
        parallel_jacobi(G, J, SolveOptions(variant="2B", p=p))
    assert time.perf_counter() - t0 < 10.0
    assert (err.value.r, err.value.s) == (1, 2)


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
