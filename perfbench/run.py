#!/usr/bin/env python3
"""hjacobi benchmark: three workloads through the public ``solve_hermitian``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cyclic|blocked|ring --seed N \
        --seconds S --trace 0|1

Each run makes its inputs from ``--seed``, sets up, then solves whole passes
(every input of the workload with every variant of the workload) until
``--seconds`` have passed, checks every solve, and prints one JSON object as
the last line of standard output.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md).  A JSON record of
the run, with the spans of its last traced pass, goes to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy is imported: the ring's p=2 workers then
# never outnumber the two cores, and the pool's threads cannot spin between
# the many small per-pivot BLAS calls.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-start", type=float, default=None,
                    help=argparse.SUPPRESS)  # internal: one setup_s sample
    return ap.parse_args(argv)


def setup(workload, seed):
    """Import hjacobi, build the inputs and warm up every variant once."""
    import inputs
    from hjacobi import solve_hermitian

    problems = inputs.make_problems(workload, seed)
    warm = inputs.warmup_problem(seed)
    for v in workload.variant_names:
        solve_hermitian(warm.H, workload.options(v, warm.H.shape[0]))
    return problems


def probe(args):
    """Child process: set up as a run does and print seconds since spawn."""
    import inputs

    setup(inputs.WORKLOADS[args.workload], args.seed)
    print(repr(time.monotonic() - args.probe_start))
    return 0


def setup_probe(args):
    """Seconds a fresh process takes from its start to being ready to solve."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-start", repr(time.monotonic())]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S, cwd=BENCH_DIR.parent)
    return float(out.stdout.strip().splitlines()[-1])


class Run:
    """The timed part of one benchmark run."""

    def __init__(self, workload, problems):
        import checks
        import reference
        from hjacobi import solve_hermitian

        self.solve = solve_hermitian
        self.checks = checks
        self.ref = reference
        self.ref_arrays = reference.ref_arrays()
        self.ref_samples = []
        self.errors = []
        self.ops = []  # (problem, variant, options, expected), in pass order
        for prob in problems:
            if prob.kind == "graded":
                exp = checks.expected_graded(prob.H, prob.n_negative,
                                             reference.mp_eigenvalues(prob.H))
            else:
                exp = checks.expected_dense(prob.H, prob.n_negative)
            for v in workload.variant_names:
                self.ops.append((prob, v, workload.options(v, prob.H.shape[0]), exp))

    def time_ref(self):
        t0 = time.perf_counter()
        self.ref.ref_computation(self.ref_arrays)
        dt = time.perf_counter() - t0
        self.ref_samples.append(dt)
        return dt

    def check(self, what, prob, result, exp):
        bad = self.checks.check_solution(prob.H, result.eigenvalues,
                                         result.eigenvectors, result.converged, exp)
        if bad:
            self.errors.append(f"{what}: " + "; ".join(bad))

    def run_pass(self, tracer=None):
        """Every op once; one record per op, in op order.

        Reference samples alternate with the solves, and a solve's ``ratio``
        is its time over the mean of the samples on either side: the host's
        speed changes within seconds, so only a reference taken right next
        to a solve sees the same host.  Results are checked after the pass.
        """
        solve = tracer.root(self.solve) if tracer else self.solve
        recs, results = [], []
        gc.collect()
        ref = self.time_ref()
        for prob, variant, opts, exp in self.ops:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                results.append(solve(prob.H, opts))
            except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
                results.append(exc)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            ref_after = self.time_ref()
            recs.append({"wall": wall, "cpu": cpu, "ratio": 2 * wall / (ref + ref_after),
                         "failed": isinstance(results[-1], Exception),
                         "sweeps": 0, "rotations": 0})
            ref = ref_after
        for (prob, variant, _, exp), rec, out in zip(self.ops, recs, results):
            what = f"{prob.name}/{variant}"
            if isinstance(out, Exception):
                if not prob.expect_failure:
                    self.errors.append(f"{what} raised: " + "".join(
                        traceback.format_exception_only(out)).strip())
                continue
            result, metrics = out
            rec["sweeps"] = metrics["sweeps"]
            rec["rotations"] = metrics["rotations"]
            self.check(what, prob, result, exp)
        return recs

    def alloc_peak_mb(self):
        """Peak traced allocation of one real solve per variant (tracemalloc)."""
        import tracemalloc

        peak = 0
        for prob, variant, opts, exp in self.ops:
            if prob.name != "real0":
                continue
            tracemalloc.start()
            try:
                result, _ = self.solve(prob.H, opts)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            self.check(f"alloc {prob.name}/{variant}", prob, result, exp)
        return peak / 1e6

    def op_median(self, passes, key, kind=None, variant=None):
        """Sum over the matching ops of each op's median over passes."""
        return sum(median([p[i][key] for p in passes])
                   for i, (prob, v, _, _) in enumerate(self.ops)
                   if kind in (None, prob.kind) and variant in (None, v))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; the children are the setup probes
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def end_to_end(run, plain, setup_s):
    return {
        "real_solve_ref": (run.op_median(plain, "ratio", "real"), "ref"),
        "complex_solve_ref": (run.op_median(plain, "ratio", "complex"), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def pass_total(recs, key):
    return sum(r[key] for r in recs)


def per_layer(run, plain, traced, tracers, alloc_mb):
    import inputs

    m = {"bench.ref_s": (median(run.ref_samples), "s")}
    for v in inputs.ALL_VARIANTS:
        m[f"solve.real_s.{v}"] = (run.op_median(plain, "wall", "real", v), "s")
        m[f"solve.complex_s.{v}"] = (run.op_median(plain, "wall", "complex", v), "s")
    m["solve.graded_s"] = (run.op_median(plain, "wall", "graded"), "s")
    m["solve.cores_busy"] = (sum(pass_total(p, "cpu") for p in plain)
                             / sum(pass_total(p, "wall") for p in plain), "ratio")
    m["bench.trace_overhead"] = (median([pass_total(p, "ratio") for p in traced])
                                 / median([pass_total(p, "ratio") for p in plain]), "ratio")
    m["solve.sweeps"] = (median([pass_total(p, "sweeps") for p in traced]), "count")
    m["solve.rotations"] = (median([pass_total(p, "rotations") for p in traced]), "count")
    m["solve.alloc_peak_mb"] = (alloc_mb, "MB")

    def per_pass(fn):
        return median([fn(t, p) for t, p in zip(tracers, traced)])

    m["trace.self_share"] = (per_pass(lambda t, p: t.main_self_s / pass_total(p, "wall")),
                             "ratio")
    for name, layer in (("solve.factor_s", "solve.factor"),
                        ("solve.kappa_s", "solve.kappa"),
                        ("solve.extract_s", "solve.extract"),
                        ("solve.checks_s", "solve.checks"),
                        ("solve.driver_s", "solve.driver"),
                        ("rotations.self_s", "rotations"),
                        ("kernel.s", "kernel"),
                        ("blocking.gram_s", "blocking.gram"),
                        ("blocking.chol_s", "blocking.chol"),
                        ("blocking.gemm_s", "blocking.gemm"),
                        ("blocking.self_s", "blocking.self"),
                        ("ring.self_s", "ring.self"),
                        ("ring.step_s", "ring.step"),
                        ("ring.exchange_s", "ring.exchange")):
        m[name] = (per_pass(lambda t, p, layer=layer: t.self_s[layer]), "s")
    m["kernel.calls"] = (per_pass(lambda t, p: t.calls["kernel"]), "count")
    for key in ("kernel.pairs", "kernel.rotations", "kernel.big_rotations",
                "kernel.bytes_computed", "blocking.pivots",
                "blocking.chol_fallbacks", "blocking.gemm_flops_computed",
                "ring.steps", "ring.messages", "ring.bytes_computed"):
        unit = "B" if key.endswith("bytes_computed") else (
            "flop" if key.endswith("flops_computed") else "count")
        m[key] = (per_pass(lambda t, p, key=key: t.counts[key]), unit)
    pairs = m["kernel.pairs"][0]
    rots = m["kernel.rotations"][0]
    ks = m["kernel.s"][0]
    m["kernel.rotation_yield"] = (rots / pairs if pairs else 0.0, "ratio")
    m["kernel.us_per_pair"] = (1e6 * ks / pairs if pairs else 0.0, "us")
    m["kernel.us_per_rotation"] = (1e6 * ks / rots if rots else 0.0, "us")
    m["ring.recv_wait_s"] = (per_pass(lambda t, p: t.total_s["ring.recv"]), "s")
    m["ring.allreduce_s"] = (per_pass(lambda t, p: t.total_s["ring.allreduce"]), "s")
    busy = [list(t.busy_s.values()) or [0.0] for t in tracers]
    m["ring.busy_s.max"] = (median([max(b) for b in busy]), "s")
    m["ring.busy_s.mean"] = (median([statistics.fmean(b) for b in busy]), "s")
    m["ring.load_imbalance"] = (median([max(b) / statistics.fmean(b) if max(b) else 0.0
                                        for b in busy]), "ratio")
    m["ring.gil_wait_s"] = (per_pass(lambda t, p: t.gil_wait_s), "s")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hjacobi" / "__init__.py").is_file():
        print(f"no hjacobi sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_start is not None:
        return probe(args)
    workload = inputs.WORKLOADS[args.workload]

    import checks
    from tracing import Tracer

    checks.self_test()
    problems = setup(workload, args.seed)
    run = Run(workload, problems)  # references: eigvalsh, mpmath

    # Whole passes until --seconds have gone.  Untraced runs take one setup
    # probe after each pass, so the probes see the host as the passes do.
    plain, traced, tracers, setup_samples = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run.run_pass())
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(run.run_pass(tracer))
            tracers.append(tracer)
        elif len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(args))
        if time.perf_counter() - start >= args.seconds:
            break
    timed_s = time.perf_counter() - start
    passes = plain + traced
    attempted = sum(len(p) for p in passes)
    failed = sum(r["failed"] for p in passes for r in p)

    if args.trace:
        metrics = per_layer(run, plain, traced, tracers, run.alloc_peak_mb())
    else:
        while len(setup_samples) < SETUP_PROBES:
            setup_samples.append(setup_probe(args))
        metrics = end_to_end(run, plain, median(setup_samples))
    correct = not run.errors
    for err in run.errors:
        print("CHECK FAILED:", err, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "timed_s": timed_s,
        "setup_samples_s": setup_samples, "ref_samples_s": run.ref_samples,
        "ops": [f"{prob.name}/{v}" for prob, v, _, _ in run.ops],
        "plain_passes": plain, "traced_passes": traced,
        "errors": run.errors,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": [list(s) for s in tracers[-1].spans] if tracers else [],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(f"{args.workload}: {len(plain)} passes (+{len(traced)} traced) in "
          f"{timed_s:.1f} s, {attempted} solves, {failed} failed; record {out}",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
