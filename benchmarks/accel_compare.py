"""Compare the numba-compiled sweep kernel against the pure-numpy fallback.

Runs the non-blocked diagonalization on the same factor with both kernels
and prints per-size timings.  Usage:

    python benchmarks/accel_compare.py [--sizes 64,128,256] [--reps 3]
"""

import argparse
import time

import numpy as np

from hjacobi import EigSpec, generate_test_matrix
from hjacobi._accel import NUMBA_ENABLED
from hjacobi._kernels import sweep_pairs_jit, sweep_pairs_py
from hjacobi.factorization import factorize_hermitian_indefinite, order_by_inertia
from hjacobi.rotations import Tolerances
from hjacobi import rotations as _rot
from hjacobi import _kernels


def time_solve(kernel, G, J, reps):
    _kernels.sweep_pairs = kernel
    best = np.inf
    for _ in range(reps):
        Gw = G.copy(order="F")
        t0 = time.perf_counter()
        info = _rot.jacobi_diagonalize(Gw, J, Tolerances())
        best = min(best, time.perf_counter() - t0)
        assert info.converged
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="64,128,256")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    if not NUMBA_ENABLED:
        print("numba not importable; nothing to compare")
        return
    print(f"{'n':>6} {'numpy_s':>10} {'numba_s':>10} {'speedup':>8}")
    for n in sizes:
        H = generate_test_matrix(n, EigSpec(seed=n))
        f = order_by_inertia(factorize_hermitian_indefinite(H))
        t_jit = time_solve(sweep_pairs_jit, f.G, f.J, args.reps)  # warm compile
        t_jit = time_solve(sweep_pairs_jit, f.G, f.J, args.reps)
        t_py = time_solve(sweep_pairs_py, f.G, f.J, args.reps)
        print(f"{n:>6} {t_py:>10.4f} {t_jit:>10.4f} {t_py / t_jit:>8.2f}")


if __name__ == "__main__":
    main()
