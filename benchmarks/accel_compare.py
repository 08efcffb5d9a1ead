"""Time the sweep kernels against each other on the non-blocked solver.

Runs ``jacobi_diagonalize`` on the same factor with each kernel in place of
``_kernels.sweep_pairs``: the interpreted column-cyclic ``_sweep_pairs``, the
interpreted round kernel ``sweep_rounds``, and the numba-compiled cyclic
kernel when numba is importable.  Prints, per size and kernel, the best time
over the repetitions, sweeps, rotations and microseconds per visited pair.
Usage:

    python benchmarks/accel_compare.py [--sizes 64,128,256] [--reps 3]
"""

import argparse
import time

import numpy as np

from hjacobi import EigSpec, _kernels, generate_test_matrix
from hjacobi.factorization import factorize_hermitian_indefinite, order_by_inertia
from hjacobi.rotations import Tolerances, jacobi_diagonalize

KERNELS = [("cyclic", _kernels._sweep_pairs), ("rounds", _kernels.sweep_rounds)]
if _kernels.sweep_pairs_jit is not None:
    KERNELS.append(("numba", _kernels.sweep_pairs_jit))


def time_solve(kernel, G, J, reps):
    """Best wall time of ``reps`` solves with ``kernel``, and the last DiagInfo."""
    saved = _kernels.sweep_pairs
    _kernels.sweep_pairs = kernel
    try:
        best = np.inf
        for _ in range(reps):
            Gw = G.copy(order="F")
            t0 = time.perf_counter()
            info = jacobi_diagonalize(Gw, J, Tolerances())
            best = min(best, time.perf_counter() - t0)
            assert info.converged
    finally:
        _kernels.sweep_pairs = saved
    return best, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="64,128,256")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"{'n':>5} {'kernel':>7} {'time_s':>8} {'sweeps':>6} {'rotations':>9} {'us/pair':>8}")
    for n in sizes:
        H = generate_test_matrix(n, EigSpec(seed=n))
        f = order_by_inertia(factorize_hermitian_indefinite(H))
        for name, kernel in KERNELS:
            if name == "numba":
                time_solve(kernel, f.G, f.J, 1)  # compile
            t, info = time_solve(kernel, f.G, f.J, args.reps)
            us_pair = 1e6 * t / (info.sweeps * n * (n - 1) // 2)
            print(f"{n:>5} {name:>7} {t:>8.3f} {info.sweeps:>6} {info.rotations:>9} {us_pair:>8.2f}")


if __name__ == "__main__":
    main()
