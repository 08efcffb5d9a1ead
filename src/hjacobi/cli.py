"""Command-line driver: gen / solve / bench / schedule subcommands.

Exit codes: 0 success, 2 usage, 3 input, 4 numerical-structural,
5 non-convergence.
"""

import argparse
import json
import sys

from . import bench as bench_mod
from .errors import HJacobiError, NonConvergenceError
from .factorization import accept_external_factor, order_by_inertia
from .matio import (
    MatrixFormatError,
    read_matrix,
    read_signs,
    write_matrix,
    write_signs,
)
from .rotations import Tolerances
from .solve import ALL_VARIANTS, SolveOptions, solve_hermitian
from .strategies import generate_sweep_schedule, normalize_strategy, steps_per_sweep
from .testmat import EigSpec, generate_test_matrix, parse_eig_spec

EXIT_OK = 0
EXIT_USAGE = 2
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
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--eigs", required=True,
                   help="comma-separated list, log:lo:hi, or uni:lo:hi")
    g.add_argument("--neg", type=float, default=0.5,
                   help="fraction of negative eigenvalues (range modes)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--complex", action="store_true", dest="complex_scalars")
    g.add_argument("--text", action="store_true", help="write the text format")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="solve a Hermitian eigenproblem")
    s.add_argument("--in", dest="infile", help="Hermitian matrix file")
    s.add_argument("--factor-in", nargs=2, metavar=("G", "J"),
                   help="pre-factored input: matrix G and sign vector J")
    s.add_argument("--variant", default="seq", choices=ALL_VARIANTS)
    s.add_argument("--strategy", default="modulus", choices=["modulus", "rr",
                                                             "round_robin"])
    s.add_argument("--p", type=int, default=1)
    s.add_argument("--nt-outer", type=int, default=64)
    s.add_argument("--inner-nt", type=int, default=32)
    s.add_argument("--tol", type=float, default=None,
                   help="relative orthogonality threshold (default sqrt(m)*eps)")
    s.add_argument("--max-sweeps", type=int, default=30)
    s.add_argument("--seed", type=int, default=0,
                   help="accepted for interface symmetry; the solve itself "
                        "is deterministic")
    s.add_argument("--order", choices=["desc", "index"], default="desc",
                   help="eigenvalue report order")
    s.add_argument("--eval-out", help="eigenvalue output file (default stdout)")
    s.add_argument("--evec-out", help="optional eigenvector matrix file")
    s.add_argument("--summary", help="JSON-lines run summary file")

    b = sub.add_parser("bench", help="run a benchmark grid")
    b.add_argument("--grid", required=True, help="JSON grid config")
    b.add_argument("--out", required=True, help="CSV output path")

    c = sub.add_parser("schedule", help="print one sweep of a block schedule")
    c.add_argument("--strategy", required=True, choices=["modulus", "rr",
                                                         "round_robin"])
    c.add_argument("--p", type=int, required=True)
    return ap


def _cmd_gen(args):
    try:
        spec = parse_eig_spec(args.eigs, neg_fraction=args.neg, seed=args.seed)
        H = generate_test_matrix(args.n, spec, args.complex_scalars)
    except ValueError as exc:
        return _error_record(EXIT_INPUT, exc)
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
    if bool(args.infile) == bool(args.factor_in):
        print("solve: exactly one of --in / --factor-in is required",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.infile:
            H = read_matrix(args.infile)
            factored = None
        else:
            G = read_matrix(args.factor_in[0])
            J = read_signs(args.factor_in[1])
            factored = order_by_inertia(accept_external_factor(G, J))
            H = None
    except (OSError, MatrixFormatError) as exc:
        return _error_record(EXIT_INPUT, exc)
    except (ValueError, HJacobiError) as exc:
        return _error_record(EXIT_NUMERICAL, exc)

    try:
        tol = Tolerances(orth_tol=args.tol, max_sweeps=args.max_sweeps)
        opts = SolveOptions(variant=args.variant, strategy=args.strategy,
                            p=args.p, nt_outer=args.nt_outer,
                            inner_nt=args.inner_nt, tol=tol)
        result, metrics = solve_hermitian(H, opts, factored=factored,
                                          order=args.order)
    except ValueError as exc:
        return _error_record(EXIT_INPUT, exc)
    except HJacobiError as exc:
        return _error_record(EXIT_NUMERICAL, exc)

    lam = result.eigenvalues
    U = result.eigenvectors
    lines = "".join(f"{v:.17e}\n" for v in lam)
    if args.eval_out:
        with open(args.eval_out, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    if args.evec_out:
        write_matrix(args.evec_out, U)

    summary = {
        "variant": args.variant,
        "strategy": normalize_strategy(args.strategy),
        "p": args.p,
        "n": int(lam.size),
        **{k: metrics[k] for k in sorted(metrics)},
    }
    _write_summary(args.summary, summary)
    if not result.converged:
        return _error_record(
            EXIT_NONCONV,
            NonConvergenceError(f"no convergence in {args.max_sweeps} sweeps"),
        )
    return EXIT_OK


def _cmd_bench(args):
    try:
        grid = bench_mod.BenchGrid.from_json(args.grid)
    except (OSError, ValueError, TypeError) as exc:
        return _error_record(EXIT_INPUT, exc)
    records = bench_mod.run_bench(
        grid, progress=lambda r: print(",".join(str(x) for x in r.row()),
                                       file=sys.stderr),
    )
    bench_mod.write_csv(args.out, records)
    return EXIT_OK


def _cmd_schedule(args):
    if args.p < 1:
        print("schedule: p must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    strategy = normalize_strategy(args.strategy)
    layouts = generate_sweep_schedule(strategy, args.p, sweeps=1)
    steps = steps_per_sweep(strategy, args.p)
    print(f"strategy={strategy} p={args.p} blocks={2 * args.p} "
          f"steps_per_sweep={steps}")
    for k, layout in enumerate(layouts):
        pairs = " ".join(f"({i},{j})" for i, j in layout)
        print(f"step {k}: {pairs}")
    return EXIT_OK


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "schedule": _cmd_schedule,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
