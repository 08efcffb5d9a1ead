"""Reference eigenvalues of graded inputs at n = 128, to 50 digits.

Writes ``tests/graded_refs.json``, which the default-block-size test of
``tests/test_graded_accuracy.py`` reads.  Each input is
``conftest.graded_hermitian`` (``conftest.graded_input``) of one seed:

* ``real``, ``complex``: D = logspace(0, -12, 128), A well-conditioned
  (kappa(A_s) about 1.3), eigenvalues down to about 1e-24;
* ``real-cond1e4``: the same D, and A of condition 1e4 (kappa(A_s) about
  6e4), eigenvalues down to about 1e-28.

Each record holds the input's parameters, the SHA-256 of H's bytes, by
which the test checks that it regenerates the same H, and H's eigenvalues,
descending, from one 50-digit ``mpmath`` eigensolve rounded to float.
Run it once after a change to the inputs (about 40 s):

    python benchmarks/graded_refs.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
DIGITS = 50
INPUTS = (
    {"name": "real", "seed": 0, "n": 128, "decades": -12, "complex": False, "cond": None},
    {"name": "complex", "seed": 1, "n": 128, "decades": -12, "complex": True, "cond": None},
    {"name": "real-cond1e4", "seed": 2, "n": 128, "decades": -12, "complex": False, "cond": 1e4},
)


def mp_eigenvalues(H):
    """H's eigenvalues, descending, from one DIGITS-digit eigensolve."""
    import mpmath

    n = H.shape[0]
    with mpmath.workdps(DIGITS):
        if H.dtype.kind == "c":
            M = mpmath.matrix([[mpmath.mpc(complex(H[i, j])) for j in range(n)] for i in range(n)])
            ev = mpmath.eighe(M, eigvals_only=True)
        else:
            M = mpmath.matrix([[mpmath.mpf(float(H[i, j])) for j in range(n)] for i in range(n)])
            ev = mpmath.eigsy(M, eigvals_only=True)
        return sorted((float(e) for e in ev), reverse=True)


def main():
    sys.path[:0] = [str(TESTS), str(ROOT / "src")]  # conftest imports hjacobi
    from conftest import graded_input

    records = []
    for spec in INPUTS:
        H, digest = graded_input(spec)
        records.append({**spec, "sha256": digest, "eigenvalues": mp_eigenvalues(H)})
        print(f"{spec['name']}: done", file=sys.stderr)
    (TESTS / "graded_refs.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
