"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 8 (soft scaling) is informational and non-gating; it only runs
when HJACOBI_ACCEPT_BENCH=1 is set, and its result never fails the suite.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import os
import time

import numpy as np
import pytest

from hjacobi._accel import NUMBA_ENABLED

from conftest import random_full_rank, rotation_matrices
from hjacobi.blocking import chol_upper, structured_cholesky
from hjacobi.cli import main as cli_main
from hjacobi.factorization import factorize_hermitian_indefinite
from hjacobi.matio import read_matrix
from hjacobi.solve import ALL_VARIANTS, SolveOptions, solve_hermitian
from hjacobi.strategies import MODULUS, ROUND_ROBIN, generate_sweep_schedule
from hjacobi.testmat import EigSpec, generate_test_matrix

EPS = np.finfo(np.float64).eps


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_rotation_contract():
    """10^4 random positive-definite pivots per kind: J-unitarity and
    annihilation to 16*eps, conservation laws to 32*eps.  W_P is the
    kernel's own arithmetic, ``rotate_columns`` with ``plane_rotation``'s
    coefficients on 2x2 identities (``rotation_matrices``)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_each = 10_000
    worst_ju = worst_ann = worst_cons = 0.0
    for hyperbolic in (False, True):
        a_rr = rng.uniform(0.1, 10.0, n_each)
        a_ss = rng.uniform(0.1, 10.0, n_each)
        frac = rng.uniform(-0.98, 0.98, n_each)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, n_each))
        complex_mask = rng.random(n_each) < 0.5
        j_ss = -1 if hyperbolic else 1
        Jp = np.diag([1.0, float(j_ss)])
        a_rs = frac * np.sqrt(a_rr * a_ss)
        for sel in (~complex_mask, complex_mask):  # real pivots, then complex ones
            d_rr, d_ss = a_rr[sel], a_ss[sel]
            off = a_rs[sel] * phases[sel] if sel is complex_mask else a_rs[sel]
            W = rotation_matrices(d_rr, d_ss, off, not hyperbolic)
            A = np.zeros((off.size, 2, 2), dtype=off.dtype)
            A[:, 0, 0], A[:, 1, 1], A[:, 0, 1], A[:, 1, 0] = d_rr, d_ss, off, off.conj()
            Wh = W.conj().transpose(0, 2, 1)
            worst_ju = max(worst_ju, np.abs(Wh @ Jp @ W - Jp).max() / EPS)
            B = Wh @ A @ W
            worst_ann = max(worst_ann, np.max(np.abs(B[:, 0, 1]) /
                                              (EPS * np.abs(A).max(axis=(1, 2)))))
            # conservation: trig preserves the trace of the transformed
            # pivot, hyperbolic the difference of its diagonal
            d0, d1 = B[:, 0, 0].real, B[:, 1, 1].real
            before = d_rr - d_ss if hyperbolic else d_rr + d_ss
            after = d0 - d1 if hyperbolic else d0 + d1
            worst_cons = max(worst_cons, np.max(np.abs(after - before) /
                                                (EPS * (np.abs(d0) + np.abs(d1)))))
    dt = time.perf_counter() - t0
    ok = worst_ju <= 16 and worst_ann <= 16 and worst_cons <= 32 and dt < 5
    assert report(1, "rotation contract",
                  ok, f"J-unit {worst_ju:.1f}eps, annih {worst_ann:.1f}eps, "
                      f"conserv {worst_cons:.1f}eps, {dt:.1f}s")


def test_criterion_2_factorization_oracle():
    """200 random Hermitian matrices: reconstruction to 50*n*eps and exact
    inertia."""
    t0 = time.perf_counter()
    count = 0
    ok = True
    for n in (5, 20, 100):
        for complex_scalars in (False, True):
            reps = 34 if n < 100 else 33
            for k in range(reps):
                spec = EigSpec(mode="log_uniform", lo=1e-4, hi=1.0,
                               neg_fraction=0.35, seed=7000 + 100 * n + k)
                H = generate_test_matrix(n, spec, complex_scalars)
                f = factorize_hermitian_indefinite(H)
                PHP = H[np.ix_(f.P, f.P)]
                R = f.G @ np.diag(f.J.astype(float)) @ f.G.conj().T
                err = np.abs(PHP - R).max()
                w = np.linalg.eigvalsh(H)
                inertia_ok = (int(np.sum(f.J > 0)) == int(np.sum(w > 0)))
                ok &= err <= 50 * n * EPS * np.abs(H).max() and inertia_ok
                count += 1
    dt = time.perf_counter() - t0
    ok &= count >= 200 and (dt < 30 or not NUMBA_ENABLED)
    assert report(2, "factorization oracle", ok,
                  f"{count} instances, {dt:.1f}s")


def test_criterion_3_eigensolver_accuracy():
    """Known spectra, kappa(A_s) <= 1e3: every variant hits 1e-10 relative
    eigenvalues, 64*n*eps orthogonality, 1e-12 residual."""
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n, complex_scalars, seed in ((64, False, 40_066), (48, True, 41_003)):
        spec = EigSpec(mode="log_uniform", lo=0.4, hi=1.0,
                       neg_fraction=0.25 if complex_scalars else 0.4,
                       seed=seed)
        H = generate_test_matrix(n, spec, complex_scalars)
        lam_ref = np.sort(spec.draw(n, np.random.default_rng(seed)))
        for variant in ALL_VARIANTS:
            opts = SolveOptions(variant=variant, p=2, nt_outer=24,
                                inner_nt=8)
            result, metrics = solve_hermitian(H, opts)
            assert metrics["scaled_condition"] <= 1e3, "precondition"
            lam = np.sort(result.eigenvalues)
            rel = np.max(np.abs(lam - lam_ref) / np.abs(lam_ref))
            orth = metrics["orthogonality"]
            resid = metrics["residual"]
            good = (result.converged and rel <= 1e-10
                    and orth <= 64 * n * EPS and resid <= 1e-12)
            if not good:
                detail.append(f"{variant}@n={n}: rel={rel:.1e} "
                              f"orth={orth:.1e} res={resid:.1e}")
            ok &= good
    dt = time.perf_counter() - t0
    ok &= dt < 120 or not NUMBA_ENABLED
    assert report(3, "eigensolver accuracy", ok,
                  "; ".join(detail) if detail else f"{dt:.1f}s")


def test_criterion_4_cross_variant_equivalence():
    """20 instances, n in {24, 48, 96}: all variant/strategy/p combinations
    produce the same eigenvalue multiset to 1e-10 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    sizes = [24] * 8 + [48] * 8 + [96] * 4
    ok = True
    worst = 0.0
    for inst, n in enumerate(sizes):
        G = random_full_rank(rng, n, n, complex_scalars=(inst % 3 == 0))
        n_neg = int(0.4 * n)
        J = np.array([1] * (n - n_neg) + [-1] * n_neg, np.int8)
        H = G @ np.diag(J.astype(float)) @ G.conj().T
        H = (H + H.conj().T) / 2
        results = {}
        for variant in ("seq", "seqF", "seqB"):
            opts = SolveOptions(variant=variant, nt_outer=max(8, n // 3))
            r, _ = solve_hermitian(H, opts)
            results[(variant, "-", 0)] = np.sort(r.eigenvalues)
        for variant in ("2F", "2B", "3F", "3B"):
            for strategy in (MODULUS, ROUND_ROBIN):
                for p in (1, 2, 3, 4):
                    opts = SolveOptions(variant=variant, strategy=strategy,
                                        p=p, inner_nt=8)
                    r, _ = solve_hermitian(H, opts)
                    results[(variant, strategy, p)] = np.sort(r.eigenvalues)
        base = results[("seq", "-", 0)]
        for key, lam in results.items():
            rel = np.max(np.abs(lam - base) / np.abs(base))
            worst = max(worst, rel)
            ok &= rel <= 1e-10
    dt = time.perf_counter() - t0
    ok &= dt < 180 or not NUMBA_ENABLED
    assert report(4, "cross-variant equivalence", ok,
                  f"20 instances, worst rel {worst:.1e}, {dt:.1f}s")


def test_criterion_5_schedule_properties():
    """Schedules for p = 1..8: step counts, coverage, double visits,
    one-send-one-receive, block conservation."""
    from itertools import combinations
    t0 = time.perf_counter()
    ok = True
    for p in range(1, 9):
        nbl = 2 * p
        for strategy, steps in ((MODULUS, 2 * p), (ROUND_ROBIN, 2 * p - 1)):
            # generate_sweep_schedule raises internally on collisions or
            # inconsistent exchanges (one send + one receive per worker)
            layouts = generate_sweep_schedule(strategy, p, sweeps=1)
            ok &= len(layouts) == steps
            counts = {c: 0 for c in combinations(range(1, nbl + 1), 2)}
            for layout in layouts:
                held = sorted(b for pair in layout for b in pair)
                ok &= held == list(range(1, nbl + 1))
                for i, j in layout:
                    counts[tuple(sorted((i, j)))] += 1
            if strategy == MODULUS:
                ok &= all(c >= 1 for c in counts.values())
                doubled = {c for c, v in counts.items() if v == 2}
                ok &= doubled == {(i, i + p) for i in range(1, p + 1)}
            elif p > 1:
                ok &= all(c == 1 for c in counts.values())
    dt = time.perf_counter() - t0
    ok &= dt < 1
    assert report(5, "schedule properties", ok, f"p=1..8, {dt:.2f}s")


def test_criterion_6_structured_cholesky():
    """500 random structured instances: structured factor matches the dense
    Cholesky factor to 1e-12 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    ok = True
    worst = 0.0
    for k in range(500):
        n_i = int(rng.integers(1, 33))
        n_j = int(rng.integers(1, 33))
        complex_scalars = bool(rng.integers(0, 2))
        lam_i = rng.uniform(0.5, 4.0, n_i)
        lam_j = rng.uniform(0.5, 4.0, n_j)
        B = rng.standard_normal((n_i, n_j))
        if complex_scalars:
            B = B + 1j * rng.standard_normal((n_i, n_j))
        # keep the Schur complement comfortably positive definite
        s = np.linalg.norm(B, 2)
        B *= 0.6 * math.sqrt(lam_i.min() * lam_j.min()) / max(s, 1e-300)
        A = np.block([[np.diag(lam_i).astype(B.dtype), B],
                      [B.conj().T, np.diag(lam_j).astype(B.dtype)]])
        R = structured_cholesky(lam_i, B, lam_j)
        R_dense = chol_upper(np.asfortranarray(A))
        rel = np.abs(R - R_dense).max() / np.abs(R_dense).max()
        worst = max(worst, rel)
        ok &= rel <= 1e-12
    dt = time.perf_counter() - t0
    ok &= dt < 10
    assert report(6, "structured Cholesky vs dense", ok,
                  f"500 instances, worst {worst:.1e}, {dt:.1f}s")


def test_criterion_7_determinism(tmp_path):
    """Repeated `solve --variant 3B --p 4` runs produce bit-identical
    eigenvalue files."""
    h = tmp_path / "h.bin"
    assert cli_main(["gen", "--n", "40", "--eigs", "log:0.01:1",
                     "--seed", "42", "--out", str(h)]) == 0
    outs = []
    for k in range(2):
        ev = tmp_path / f"ev{k}.txt"
        code = cli_main(["solve", "--in", str(h), "--variant", "3B",
                         "--p", "4", "--eval-out", str(ev),
                         "--summary", str(tmp_path / f"s{k}.jsonl")])
        assert code == 0
        outs.append(ev.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    assert report(7, "determinism", ok, "bit-identical eigenvalue files")


def test_criterion_8_soft_scaling(tmp_path):
    """Informational, non-gating: c = T*p/n^3 varies by < 2x across the
    grid's interior; runs only with HJACOBI_ACCEPT_BENCH=1."""
    if os.environ.get("HJACOBI_ACCEPT_BENCH") != "1":
        report(8, "soft scaling (informational)", True,
               "skipped; set HJACOBI_ACCEPT_BENCH=1 to run")
        pytest.skip("bench criterion is informational; env-gated")
    import json
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "sizes": [512, 1024, 2048], "workers": [1, 2, 4],
        "variants": ["3F"], "reps": 1, "inner_nt": [32],
    }))
    out = tmp_path / "bench.csv"
    assert cli_main(["bench", "--grid", str(grid), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            out.read_text().strip().splitlines()[1:]]
    cs = [float(r[10]) for r in rows
          if r[11] == "ok" and r[3] == "1024"]  # interior size
    spread = max(cs) / min(cs) if cs else float("inf")
    report(8, "soft scaling (informational)", spread < 2,
           f"interior c spread {spread:.2f}x -- non-gating")
