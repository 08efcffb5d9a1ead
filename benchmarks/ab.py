"""A/B timing of two source trees on the same inputs, in alternation.

Each tree is imported in its own long-lived child process, so both stay
warm, and both run on one BLAS thread.  The harness makes the inputs once,
hands the same ones to both children, and then times whole passes (every
input with every configuration of the case) in pairs, base and head
alternating and taking turns at going first, so that a host whose speed
drifts slows both sides alike.  A pass times the solver driver
(``hjacobi.solve.run_solver``) on each input's factored form, which each
child makes once; factorization and diagnostics are left out.

    python benchmarks/ab.py --base OLD --head NEW --workload ring
    python benchmarks/ab.py --base OLD --head NEW --n 256 --variant 3B --p 2 --pairs 3

OLD and NEW are the roots of two source checkouts (for example a revision
checked out with plain git into a scratch directory).  ``--workload``
solves the inputs and configurations of a perfbench workload for
``--seed``, with perfbench's solve options; ``--n`` solves one real input of
order n (log-uniform spectrum in [1e-3, 1], 40% negative) drawn from
``--seed``, with one configuration and the library's default block sizes.

Each child times perfbench's fixed reference computation
(``perfbench/reference.py``, taken from the harness's own checkout, so both
sides time the same work) before the first op of a pass and after every
op, and reads each op's time in units of the mean of the two samples on
either side of it, as perfbench reads a solve's: the host's speed changes
within seconds, and only a reference taken next to an op sees the same
host.  A pass's time in reference units is the sum over its ops.

Prints, per configuration of the case and for the whole case, each side's
median time in seconds and in reference units, the quartile distance of
base's times in both, each side's median reference sample in seconds, the
median of the per-pair ratios head/base of the times in reference units
with their quartiles, the number of pairs head won, whether every output
fingerprint (the solved factor's bytes, sweeps and rotations) is equal on
both sides, and a ``verdict``: ``faster`` when head won at least 9 of 10
pairs and its median in reference units is below base's by more than
base's quartile distance in those units, ``slower`` by the mirror rule,
and ``unresolved`` otherwise.  ``--out FILE`` appends the records to a
JSON list in FILE.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the SolveOptions fields a perfbench workload sets
OPTION_FIELDS = ("variant", "strategy", "p", "nt_outer", "inner_nt")


# -- child: one source tree ---------------------------------------------------

def child(src, inputs):
    """Serve passes over stdin/stdout: one JSON request per line, one reply
    with the pass's op times, their fingerprints and the reference samples
    taken before the first op and after every op."""
    sys.path[:0] = [src, str(PERFBENCH)]
    import numpy as np
    import reference

    from hjacobi import SolveOptions, _accel, factorize_hermitian_indefinite, order_by_inertia
    from hjacobi.solve import run_solver

    data = np.load(inputs)
    ops = json.loads(str(data["ops"]))
    factored = [order_by_inertia(factorize_hermitian_indefinite(data[f"H{i}"]))
                for i in range(int(data["count"]))]
    ref_arrays = reference.ref_arrays()

    def time_ref():
        t0 = time.perf_counter()
        reference.ref_computation(ref_arrays)
        return time.perf_counter() - t0

    print(json.dumps({"numba": bool(_accel.NUMBA_ENABLED)}), flush=True)
    for _line in sys.stdin:
        times, prints, refs = [], [], [time_ref()]
        for op in ops:
            f = factored[op["input"]]
            opts = SolveOptions(**op["options"])
            G = f.G.copy(order="F")
            t0 = time.perf_counter()
            try:
                G, info = run_solver(G, f.J, opts)
                out = [hashlib.sha256(G.tobytes()).hexdigest(), info.sweeps, info.rotations]
            except Exception as exc:  # noqa: BLE001 - a failing solve is part of the fingerprint
                out = [type(exc).__name__, 0, 0]
            times.append(time.perf_counter() - t0)
            prints.append(out)
            refs.append(time_ref())
        print(json.dumps({"times": times, "prints": prints, "refs": refs}), flush=True)


# -- harness --------------------------------------------------------------------

def git_sha(root):
    """HEAD of the checkout at ``root``, with '-dirty' for uncommitted edits
    to tracked files; ``source_hash`` outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return source_hash(root)


def source_hash(root):
    """'src-' and the first 16 hex digits of the sha256 over the names and
    bytes of the tree's src/hjacobi/*.py, in name order; None if it has none."""
    files = sorted((Path(root) / "src" / "hjacobi").glob("*.py"))
    if not files:
        return None
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return "src-" + h.hexdigest()[:16]


def make_case(args):
    """(name, inputs, ops) of the case: H matrices and, per op, the input's
    position, the solve options and the op's configuration label."""
    head = Path(args.head).resolve()
    sys.path[:0] = [str(head / "src"), str(head / "perfbench")]
    if args.workload:
        import inputs as perf_inputs

        wl = perf_inputs.WORKLOADS[args.workload]
        problems = perf_inputs.make_problems(wl, args.seed)
        Hs = [prob.H for prob in problems]
        ops = []
        for i, prob in enumerate(problems):
            n = prob.H.shape[0]
            for v in wl.variant_names:
                opts = wl.options(v, n)
                ops.append({"input": i, "config": [v, opts.strategy, opts.p, n],
                            "options": {f: getattr(opts, f) for f in OPTION_FIELDS}})
        return args.workload, Hs, ops
    import numpy as np

    from hjacobi import EigSpec, generate_test_matrix

    seed = int(np.random.default_rng(args.seed).integers(2**31))
    H = generate_test_matrix(args.n, EigSpec(mode="log_uniform", lo=1e-3, hi=1.0,
                                             neg_fraction=0.4, seed=seed))
    ops = [{"input": 0, "config": [args.variant, args.strategy, args.p, args.n],
            "options": {"variant": args.variant, "strategy": args.strategy, "p": args.p}}]
    return f"{args.variant}-{args.strategy}-p{args.p}-n{args.n}", [H], ops


class Side:
    """One tree's child process."""

    def __init__(self, root, inputs):
        env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
        self.root = Path(root).resolve()
        self.sha = git_sha(self.root)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--child", str(self.root / "src"), inputs],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.numba = self._reply()["numba"]

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child for {self.root} exited with {self.proc.wait()}")
        return json.loads(line)

    def run_pass(self):
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(wins, losses, pairs, base_median, head_median, base_iqr):
    """The claim rule: ``faster`` when head won at least 9 of 10 pairs and
    its median beats base's by more than base's quartile distance,
    ``slower`` by the mirror rule, ``unresolved`` otherwise."""
    if 10 * wins >= 9 * pairs and base_median - head_median > base_iqr:
        return "faster"
    if 10 * losses >= 9 * pairs and head_median - base_median > base_iqr:
        return "slower"
    return "unresolved"


def summarize(pairs, picks):
    """Medians, quartiles, wins and the verdict over the ops at positions
    ``picks``, the verdict on times in reference units."""
    def seconds(reply):
        return sum(reply["times"][i] for i in picks)

    def in_refs(reply):
        r = reply["refs"]
        return sum(2 * reply["times"][i] / (r[i] + r[i + 1]) for i in picks)

    base = [in_refs(b) for b, _ in pairs]
    head = [in_refs(h) for _, h in pairs]
    ratios = [h / b for b, h in zip(base, head)]
    q1, q3 = quartiles(ratios)
    b1, b3 = quartiles(base)
    s1, s3 = quartiles([seconds(b) for b, _ in pairs])
    wins, losses = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
    base_median, head_median = statistics.median(base), statistics.median(head)
    return {
        "base_median_s": statistics.median(seconds(b) for b, _ in pairs),
        "head_median_s": statistics.median(seconds(h) for _, h in pairs),
        "base_iqr_s": s3 - s1,
        "base_median_ref": base_median, "head_median_ref": head_median,
        "base_iqr_ref": b3 - b1,
        "base_ref_s": statistics.median(t for b, _ in pairs for t in b["refs"]),
        "head_ref_s": statistics.median(t for _, h in pairs for t in h["refs"]),
        "ratio_median": statistics.median(ratios), "ratio_q1": q1, "ratio_q3": q3,
        "head_wins": wins, "pairs": len(ratios),
        "verdict": verdict(wins, losses, len(ratios), base_median, head_median, b3 - b1),
    }


def joined(values):
    """The one value of ``values``, or their distinct values joined by '+'."""
    distinct = list(dict.fromkeys(values))
    return distinct[0] if len(distinct) == 1 else "+".join(map(str, distinct))


def kernel(side):
    return "numba" if side.numba else "interpreted"


def record(name, config, ops, picks, base, head, pairs):
    """The record of the ops at positions ``picks``, all of ``config``."""
    variant, strategy, p, n = config
    b0, h0 = pairs[0]
    return {
        "case": name, "n": n, "variant": variant, "strategy": strategy, "p": p,
        "kernel": joined([kernel(base), kernel(head)]),
        "base_sha": base.sha, "head_sha": head.sha, "cores": os.cpu_count(),
        "inputs": len({ops[i]["input"] for i in picks}),
        "base_sweeps": sum(b0["prints"][i][1] for i in picks),
        "head_sweeps": sum(h0["prints"][i][1] for i in picks),
        "base_rotations": sum(b0["prints"][i][2] for i in picks),
        "head_rotations": sum(h0["prints"][i][2] for i in picks),
        "fingerprints_equal": all(b0["prints"][i] == h0["prints"][i] for i in picks),
        **summarize(pairs, picks),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--child", nargs=2, help=argparse.SUPPRESS)  # internal: SRC INPUTS
    ap.add_argument("--base")
    ap.add_argument("--head")
    ap.add_argument("--workload", help="a perfbench workload: cyclic, blocked or ring")
    ap.add_argument("--n", type=int)
    ap.add_argument("--variant")
    ap.add_argument("--strategy", default="modulus")
    ap.add_argument("--p", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="append the records to the JSON list in this file")
    args = ap.parse_args(argv)
    if args.child:
        return child(*args.child)
    if not (args.base and args.head) or (args.workload is None) == (args.n is None) \
            or (args.n is not None and args.variant is None):
        ap.error("need --base and --head, and either --workload or --n with --variant")

    import numpy as np

    name, Hs, ops = make_case(args)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "inputs.npz")
        np.savez(inputs, count=len(Hs), ops=json.dumps(ops),
                 **{f"H{i}": H for i, H in enumerate(Hs)})
        sides = [Side(args.base, inputs), Side(args.head, inputs)]
        try:
            for s in sides:  # warm-up pass
                s.run_pass()
            pairs = []
            for k in range(args.pairs):
                order = sides if k % 2 == 0 else sides[::-1]
                got = {id(s): s.run_pass() for s in order}
                pairs.append(tuple(got[id(s)] for s in sides))
        finally:
            for s in sides:
                s.close()
    base, head = sides
    configs = {}
    for i, op in enumerate(ops):
        configs.setdefault(tuple(op["config"]), []).append(i)
    if len(configs) > 1:  # the whole case as well
        configs[tuple(joined(c[f] for c in configs) for f in range(4))] = list(range(len(ops)))
    records = [record(name, config, ops, picks, base, head, pairs)
               for config, picks in configs.items()]
    for rec in records:
        print(json.dumps(rec))
    if args.out:
        path = Path(args.out)
        saved = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(saved + records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
