"""Bit-identity check: fingerprint every solve of a fixed grid as JSON.

Each record holds a solve's sweeps, rotations and ``converged`` flag,
SHA-256 hashes of the bytes of its eigenvalues and eigenvectors, and the
eigenvalues themselves (``values``; JSON floats round-trip exactly).  A
change that leaves the arithmetic and the schedule alone must print the
same JSON as its parent.  Save the parent's fingerprint, then compare this
tree with it:

    python benchmarks/equivalence.py --src /path/to/parent/src > before.json
    python benchmarks/equivalence.py --against before.json

``--against FILE`` prints, instead of the JSON, each solve and field that
differs from FILE (or a solve found on one side only), with the largest
relative change of a differing solve's eigenvalues, then the count of
differing solves and the largest relative eigenvalue change over the grid,
and exits 1; it exits 0 when every solve is identical.  A saved file
without ``values`` is compared by the hashes alone, and a saved record
without ``input`` counts as a ``dense`` one.

The grid, each input solved by eight variant configurations with
nt_outer = n/4 and inner_nt = n/8 (896 solves):

* ``dense``: seeds 0-11 of a log-uniform spectrum in [1e-3, 1] with 40%
  negative eigenvalues, at n = 32 real, 32 complex, 33 real, 40 real,
  64 real and 64 complex (576 solves), and seeds 0-1 at n = 136 real and
  complex (32 solves).  n = 33 gives uneven blocks: a remainder block for
  seqF/seqB and ring steps whose pivots have two widths; n = 64 complex
  gives ``seq`` full 32-pair complex rounds.  n = 136 is the only size
  whose kernel rounds exceed ``_kernels.ROUND_MAX_PAIRS`` = 64 pairs, so
  the only one that runs a cut round: ``seq`` rounds of 68 pairs, and
  ``seqF`` rounds of two stacked 34-pair members.
* ``block_diagonal``: seeds 0-5 of two such dense matrices of orders
  n/2 and n - n/2 on the diagonal, at n = 32 real, 32 complex and 33 real
  (144 solves).  A pair of factor columns from the two blocks has a Gram
  entry of exactly 0 in every sweep, so most rounds skip some of their
  pairs and rotate the others.
* ``graded``: seeds 0-5 of D A D with D = logspace(0, -6, n) and A dense
  with a log-uniform spectrum in [0.5, 1], 40% negative, at the same
  sizes (144 solves): pairs whose columns' norms lie up to 12 decades
  apart.

BLAS runs on one thread, because a threaded GEMM may round differently
from run to run.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (input, seeds, sizes as (n, complex scalars))
GRID = (
    ("dense", range(12), ((32, False), (32, True), (33, False), (40, False), (64, False),
                          (64, True))),
    ("dense", range(2), ((136, False), (136, True))),
    ("block_diagonal", range(6), ((32, False), (32, True), (33, False))),
    ("graded", range(6), ((32, False), (32, True), (33, False))),
)
# (variant, strategy, p)
CONFIGS = (
    ("seq", "modulus", 1),
    ("seqF", "modulus", 1),
    ("seqB", "modulus", 1),
    ("2F", "modulus", 2),
    ("2B", "round_robin", 2),
    ("3F", "modulus", 2),
    ("3B", "modulus", 2),
    ("3B", "modulus", 4),
)


def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


KEY = ("n", "complex", "seed", "variant", "strategy", "p")  # with "input", "dense" if absent


def make_input(kind, n, seed, complex_scalars):
    """The grid's Hermitian matrix of ``kind`` (see the module docstring),
    drawn by the checked package."""
    import numpy as np

    from hjacobi import EigSpec, generate_test_matrix

    def dense(n, seed, lo=1e-3):
        spec = EigSpec(mode="log_uniform", lo=lo, hi=1.0, neg_fraction=0.4, seed=seed)
        return generate_test_matrix(n, spec, complex_scalars)

    if kind == "dense":
        return dense(n, seed)
    if kind == "graded":
        d = np.logspace(0, -6, n)
        return np.asfortranarray(d[:, None] * dense(n, seed, lo=0.5) * d[None, :])
    h = n // 2
    H = np.zeros((n, n), dtype=complex if complex_scalars else float, order="F")
    H[:h, :h] = dense(h, seed)
    H[h:, h:] = dense(n - h, seed + 100)
    return H


def relative_change(old, new):
    """The largest |new - old| / |old| over the eigenvalues, or None when
    either side has none saved."""
    if old is None or new is None:
        return None
    return max(abs(b - a) / abs(a) for a, b in zip(old, new))


def compare(records, saved):
    """Lines naming each solve and field of ``records`` that differs from
    ``saved``, the number of solves that differ, and the largest relative
    eigenvalue change among them (None if none was measured)."""
    def by_key(recs):
        return {(r.get("input", "dense"),) + tuple(r[k] for k in KEY): r for r in recs}

    ours, theirs = by_key(records), by_key(saved)
    lines, differing, worst = [], 0, None
    for key in sorted(ours.keys() | theirs.keys(), key=str):
        name = " ".join(f"{k}={v}" for k, v in zip(KEY, key[1:]))
        if key[0] != "dense":
            name = f"input={key[0]} {name}"
        if key not in theirs or key not in ours:
            lines.append(f"{name}: only in {'this tree' if key in ours else 'the saved file'}")
            differing += 1
            continue
        new, old = ours[key], theirs[key]
        fields = [f for f in new if f not in ("values", "input") and new[f] != old.get(f)]
        if not fields:
            continue
        differing += 1
        lines += [f"{name}: {f} {old.get(f)} -> {new[f]}" for f in fields]
        change = relative_change(old.get("values"), new["values"])
        if change is not None:
            lines.append(f"{name}: eigenvalues moved by at most {change:.2e} relative")
            worst = change if worst is None else max(worst, change)
    return lines, differing, worst


def fingerprint(H, variant, strategy, p):
    """The solve of H by one configuration, as a record's result fields."""
    from hjacobi import SolveOptions, solve_hermitian

    n = H.shape[0]
    opts = SolveOptions(variant=variant, strategy=strategy, p=p,
                        nt_outer=n // 4, inner_nt=n // 8)
    res, _ = solve_hermitian(H, opts)
    return {"sweeps": res.sweeps, "rotations": res.rotations,
            "converged": bool(res.converged),
            "eigenvalues": digest(res.eigenvalues),
            "eigenvectors": digest(res.eigenvectors),
            "values": res.eigenvalues.tolist()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory that holds the hjacobi package to check")
    ap.add_argument("--against", metavar="FILE",
                    help="compare with this saved fingerprint; exit 1 if any solve differs")
    args = ap.parse_args()
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # read when numpy loads
    sys.path.insert(0, args.src)
    records = []
    for kind, seeds, sizes in GRID:
        for n, complex_scalars in sizes:
            for seed in seeds:
                H = make_input(kind, n, seed, complex_scalars)
                for variant, strategy, p in CONFIGS:
                    records.append({"input": kind, "n": n, "complex": complex_scalars,
                                    "seed": seed, "variant": variant, "strategy": strategy,
                                    "p": p, **fingerprint(H, variant, strategy, p)})
    if args.against is None:
        json.dump(records, sys.stdout, indent=1)
        print()
        return 0
    with open(args.against) as fh:
        lines, differing, worst = compare(records, json.load(fh))
    for line in lines:
        print(line)
    moved = "" if worst is None else f"; eigenvalues moved by at most {worst:.2e} relative"
    print(f"{len(records)} solves, {differing} differ from {args.against}{moved}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
