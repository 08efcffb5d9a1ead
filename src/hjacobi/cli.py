"""Command-line driver: gen / solve / bench / schedule subcommands.

Exit codes: 0 success, 2 usage (argparse), 3 input (a missing, malformed or
out-of-range input), 4 numerical-structural, 5 non-convergence.  The
subcommand handlers raise; ``main`` alone maps exceptions to exit codes.
"""

import argparse
import json
import sys

from . import bench as bench_mod
from ._kernels import KERNEL
from .errors import HJacobiError, NonConvergenceError
from .factorization import accept_external_factor, order_by_inertia
from .matio import MatrixFormatError, read_matrix, read_signs, write_matrix
from .rotations import Tolerances
from .solve import ALL_VARIANTS, SolveOptions, solve_hermitian
from .strategies import STRATEGY_NAMES, generate_sweep_schedule
from .testmat import generate_test_matrix, parse_eig_spec

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
EXIT_NONCONV = 5


def _error_record(code, exc):
    rec = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(rec), file=sys.stderr)
    return code


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hjacobi",
        description="Hermitian indefinite eigensolver (one-sided hyperbolic "
                    "J-Jacobi) and benchmark harness.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a Hermitian test matrix")
    g.set_defaults(handler=_cmd_gen)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--eigs", required=True,
                   help="comma-separated list, log:lo:hi, or uni:lo:hi")
    g.add_argument("--neg", type=float, default=0.5,
                   help="fraction of negative eigenvalues (range modes)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--complex", action="store_true", dest="complex_scalars")
    g.add_argument("--text", action="store_true", help="write the text format")
    g.add_argument("--out", required=True)

    defaults = SolveOptions()
    s = sub.add_parser("solve", help="solve a Hermitian eigenproblem")
    s.set_defaults(handler=_cmd_solve)
    src = s.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", help="Hermitian matrix file")
    src.add_argument("--factor-in", nargs=2, metavar=("G", "J"),
                     help="pre-factored input: matrix G and sign vector J")
    s.add_argument("--variant", default=defaults.variant, choices=ALL_VARIANTS)
    s.add_argument("--strategy", default=defaults.strategy, choices=STRATEGY_NAMES)
    s.add_argument("--p", type=int, default=defaults.p)
    s.add_argument("--nt-outer", type=int, default=defaults.nt_outer)
    s.add_argument("--inner-nt", type=int, default=defaults.inner_nt)
    s.add_argument("--tol", type=float, default=defaults.tol.orth_tol,
                   help="relative orthogonality threshold in (0, 1) "
                        "(default sqrt(m)*eps)")
    s.add_argument("--max-sweeps", type=int, default=defaults.tol.max_sweeps)
    s.add_argument("--order", choices=["desc", "index"], default="desc",
                   help="eigenvalue report order")
    s.add_argument("--eval-out", help="eigenvalue output file (default stdout)")
    s.add_argument("--evec-out", help="optional eigenvector matrix file")
    s.add_argument("--summary", help="JSON-lines run summary file")

    b = sub.add_parser("bench", help="run a benchmark grid")
    b.set_defaults(handler=_cmd_bench)
    b.add_argument("--grid", required=True, help="JSON grid config")
    b.add_argument("--out", required=True, help="CSV output path")

    c = sub.add_parser("schedule", help="print one sweep of a block schedule")
    c.set_defaults(handler=_cmd_schedule)
    c.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    c.add_argument("--p", type=int, required=True)
    return ap


def _cmd_gen(args):
    spec = parse_eig_spec(args.eigs, neg_fraction=args.neg, seed=args.seed)
    H = generate_test_matrix(args.n, spec, args.complex_scalars)
    write_matrix(args.out, H, text=args.text)
    return EXIT_OK


def _write_summary(path, record):
    line = json.dumps(record)
    if path:
        with open(path, "a") as fh:
            fh.write(line + "\n")
    else:
        print(line)


def _cmd_solve(args):
    if args.infile:
        H, factored = read_matrix(args.infile), None
    else:
        G = read_matrix(args.factor_in[0])
        J = read_signs(args.factor_in[1])
        H, factored = None, order_by_inertia(accept_external_factor(G, J))
    opts = SolveOptions(variant=args.variant, strategy=args.strategy, p=args.p,
                        nt_outer=args.nt_outer, inner_nt=args.inner_nt,
                        tol=Tolerances(orth_tol=args.tol, max_sweeps=args.max_sweeps))
    result, metrics = solve_hermitian(H, opts, factored=factored, order=args.order)

    lam = result.eigenvalues
    lines = "".join(f"{v:.17e}\n" for v in lam)
    if args.eval_out:
        with open(args.eval_out, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    if args.evec_out:
        write_matrix(args.evec_out, result.eigenvectors)

    summary = {
        "variant": opts.variant,
        "strategy": opts.strategy,
        "p": opts.p,
        "n": int(lam.size),
        "kernel": KERNEL,
        **{k: metrics[k] for k in sorted(metrics)},
    }
    _write_summary(args.summary, summary)
    if not result.converged:
        return _error_record(
            EXIT_NONCONV,
            NonConvergenceError(f"no convergence in {opts.tol.max_sweeps} sweeps"),
        )
    return EXIT_OK


def _cmd_bench(args):
    grid = bench_mod.BenchGrid.from_json(args.grid)
    with open(args.out, "w", newline="") as out:  # fail before the grid runs
        records = bench_mod.run_bench(
            grid, progress=lambda r: print(",".join(str(x) for x in r.row()),
                                           file=sys.stderr),
        )
        bench_mod.write_csv(out, records)
    return EXIT_OK


def _cmd_schedule(args):
    # the options normalize the strategy name and reject p < 1
    opts = SolveOptions(strategy=args.strategy, p=args.p)
    layouts = generate_sweep_schedule(opts.strategy, opts.p, sweeps=1)
    print(f"strategy={opts.strategy} p={opts.p} blocks={2 * opts.p} "
          f"steps_per_sweep={len(layouts)}")
    for k, layout in enumerate(layouts):
        pairs = " ".join(f"({i},{j})" for i, j in layout)
        print(f"step {k}: {pairs}")
    return EXIT_OK


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    # MatrixFormatError is an HJacobiError: it must be caught first
    except (OSError, ValueError, MatrixFormatError) as exc:
        return _error_record(EXIT_INPUT, exc)
    except HJacobiError as exc:
        return _error_record(EXIT_NUMERICAL, exc)


if __name__ == "__main__":
    sys.exit(main())
