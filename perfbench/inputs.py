"""Workload definitions and seeded input generation.

Every input is a pure function of ``--seed`` except the graded D -> 1e-8
input, which is built from a fixed seed so that its failure (or, once the
factorization is fixed, its success) is the same in every run.
"""

from dataclasses import dataclass

import numpy as np

from hjacobi import EigSpec, SolveOptions, generate_test_matrix

# Dense inputs: spectrum log-uniform in [1e-3, 1], 40% of it negative.
NEG_FRACTION = 0.4
SPEC_LO, SPEC_HI = 1e-3, 1.0

# Graded inputs H = D A D with D = logspace(0, GRADED_DECADES, n).
GRADED_N = 32
GRADED_DECADES = -6
FAILING_DECADES = -8
FAILING_SEED = 20101008
WARMUP_N = 16

# A = S + E with |S_ii| in [1, 1.25] and ||E||_2 = 0.2.  Every Schur pivot of
# A then has modulus >= 0.8 - 0.2**2 / 0.8 = 0.75, so the smallest pivot of
# D A D at n = 32 is >= 0.75e-12, above the factorization's absolute
# threshold 64*n*eps*max|H| <= 6.6e-13 for every seed.  The 1e-8 input drops
# its smallest pivot to ~1e-16, below that threshold.
GRADED_DIAG = (1.0, 1.25)
GRADED_OFFDIAG_NORM = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    # (variant, strategy, p) in solve order
    variants: tuple
    # dense real and dense complex inputs per pass: how long a solve takes
    # depends on the input (one sweep more or less, +-5% rotations), so each
    # run times several inputs drawn from its seed, which narrows the spread
    # between seeds; small orders keep several passes in a run
    dense_inputs: int
    failing_input: bool = False

    def options(self, variant, n):
        """Solve options for one variant at order n.

        Blocked variants use n/4 outer and n/8 inner block targets, so the
        ring's local square factor (n/p = n/2 columns) holds four inner blocks
        and the three-level path runs at every size the benchmark solves.
        """
        for v, strategy, p in self.variants:
            if v == variant:
                return SolveOptions(variant=v, strategy=strategy, p=p,
                                    nt_outer=max(n // 4, 1),
                                    inner_nt=max(n // 8, 1))
        raise KeyError(variant)

    @property
    def variant_names(self):
        return tuple(v for v, _, _ in self.variants)


WORKLOADS = {
    "cyclic": Workload("cyclic", 64, (("seq", "modulus", 1),), 8, failing_input=True),
    "blocked": Workload("blocked", 32, (("seqB", "modulus", 1), ("seqF", "modulus", 1)), 6),
    "ring": Workload("ring", 32, (("2B", "round_robin", 2), ("3B", "modulus", 2)), 8),
}
ALL_VARIANTS = ("seq", "seqB", "seqF", "2B", "3B")


@dataclass
class Problem:
    """One input matrix with what the checks need to know about it."""

    name: str
    kind: str  # "real", "complex" or "graded"
    H: np.ndarray
    n_negative: int  # prescribed inertia
    expect_failure: bool = False


def dense_problem(name, n, seed, complex_scalars):
    spec = EigSpec(mode="log_uniform", lo=SPEC_LO, hi=SPEC_HI,
                   neg_fraction=NEG_FRACTION, seed=seed)
    H = generate_test_matrix(n, spec, complex_scalars=complex_scalars)
    return Problem(name, "complex" if complex_scalars else "real", H,
                   int(round(NEG_FRACTION * n)))


def graded_problem(name, n, rng, decades, complex_scalars, expect_failure=False):
    """H = D A D with D = logspace(0, decades, n) and A well-conditioned."""
    n_neg = int(round(NEG_FRACTION * n))
    signs = np.ones(n)
    signs[rng.permutation(n)[:n_neg]] = -1.0
    S = np.diag(signs * rng.uniform(*GRADED_DIAG, size=n))
    E = rng.standard_normal((n, n))
    if complex_scalars:
        E = E + 1j * rng.standard_normal((n, n))
    E = (E + E.conj().T) / 2.0
    E *= GRADED_OFFDIAG_NORM / np.linalg.norm(E, 2)
    A = S + E
    d = np.logspace(0, decades, n)
    H = np.asfortranarray(d[:, None] * A * d[None, :])
    return Problem(name, "graded", H, n_neg, expect_failure)


def make_problems(workload: Workload, seed: int):
    """The inputs one pass of ``workload`` solves, in pass order."""
    k = workload.dense_inputs
    seeds = np.random.default_rng(seed).integers(2**31, size=2 * k + 1)
    problems = [dense_problem(f"real{i}", workload.n, int(seeds[i]), False)
                for i in range(k)]
    problems += [dense_problem(f"complex{i}", workload.n, int(seeds[k + i]), True)
                 for i in range(k)]
    g = np.random.default_rng(seeds[-1])
    problems += [
        graded_problem("graded_real", GRADED_N, g, GRADED_DECADES, False),
        graded_problem("graded_complex", GRADED_N, g, GRADED_DECADES, True),
    ]
    if workload.failing_input:
        problems.append(graded_problem(
            "graded_1e-8", GRADED_N, np.random.default_rng(FAILING_SEED),
            FAILING_DECADES, False, expect_failure=True))
    return problems


def warmup_problem(seed: int):
    return dense_problem("warmup", WARMUP_N, seed, False)
