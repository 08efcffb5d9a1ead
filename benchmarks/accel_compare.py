"""Time the sweep kernels' bodies against each other.

Runs ``jacobi_diagonalize`` on the same factor with each body in place of
``_kernels.pass_kernel``'s choice: the interpreted column-cyclic
``_sweep_pairs``, the interpreted round kernel ``sweep_rounds``, and the
numba-compiled cyclic body when numba is importable.  Two cases:

* ``seq``: the non-blocked solver on a tall n-column factor, nothing
  accumulated;
* ``pivot``: a square k-column factor with W accumulated
  (``accumulate=True``), the shape of the blocked and ring local solves.

Prints, per case, size and body, the best time over the repetitions,
sweeps, rotations and microseconds per visited pair.  Usage:

    python benchmarks/accel_compare.py [--sizes 64,128,256] [--pivot-sizes 16,32] [--reps 3]
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


def time_solve(kernel, G, J, reps, accumulate):
    """Best wall time of ``reps`` solves with ``kernel``, and the last DiagInfo."""
    saved = _kernels.pass_kernel
    _kernels.pass_kernel = lambda *args: kernel
    try:
        best = np.inf
        for _ in range(reps):
            Gw = G.copy(order="F")
            t0 = time.perf_counter()
            info = jacobi_diagonalize(Gw, J, Tolerances(), accumulate=accumulate)
            best = min(best, time.perf_counter() - t0)
            assert info.converged
    finally:
        _kernels.pass_kernel = saved
    return best, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="64,128,256", help="columns of the seq case")
    ap.add_argument("--pivot-sizes", default="16,32", help="columns of the pivot case")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    cases = [("seq", int(n), False) for n in args.sizes.split(",")]
    cases += [("pivot", int(n), True) for n in args.pivot_sizes.split(",")]
    print(f"{'case':>5} {'n':>5} {'kernel':>7} {'time_s':>8} {'sweeps':>6} {'rotations':>9} {'us/pair':>8}")
    for case, n, accumulate in cases:
        H = generate_test_matrix(n, EigSpec(seed=n))
        f = order_by_inertia(factorize_hermitian_indefinite(H))
        for name, kernel in KERNELS:
            if name == "numba":
                time_solve(kernel, f.G, f.J, 1, accumulate)  # compile
            t, info = time_solve(kernel, f.G, f.J, args.reps, accumulate)
            us_pair = 1e6 * t / (info.sweeps * n * (n - 1) // 2)
            print(f"{case:>5} {n:>5} {name:>7} {t:>8.4f} {info.sweeps:>6} {info.rotations:>9} "
                  f"{us_pair:>8.2f}")


if __name__ == "__main__":
    main()
