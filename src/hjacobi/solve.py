"""High-level solve pipeline shared by the CLI and the benchmark harness.

factorize -> inertia ordering -> chosen solver -> eigenpair extraction, with
the eigenvectors mapped back to the original row indexing of H and a metrics
record (timings, residual, orthogonality, scaled condition).
"""

import time
from dataclasses import dataclass

import numpy as np

from .blocking import block_oriented, full_block, greedy_partition
from .core import EigenResult, as_matrix, gram
from .factorization import (
    factorize_hermitian_indefinite,
    order_by_inertia,
    scaled_condition,
)
from .parallel import parallel_jacobi
from .rotations import Tolerances, extract_eigen, jacobi_diagonalize
from .strategies import MODULUS, normalize_strategy

# seq* run in this process, the others on the worker ring; F variants fully
# diagonalize every block pivot, B variants give it one pass
ALL_VARIANTS = ("seq", "seqF", "seqB", "2F", "2B", "3F", "3B")


@dataclass(frozen=True)
class SolveOptions:
    """Solver variant and its settings: ``nt_outer`` is the block size of
    seqF/seqB, ``inner_nt`` the inner block size of the 3F/3B workers."""

    variant: str = "seq"
    strategy: str = MODULUS
    p: int = 1
    nt_outer: int = 64
    inner_nt: int = 32
    tol: Tolerances = Tolerances()

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "strategy", normalize_strategy(self.strategy))
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.nt_outer < 1:
            raise ValueError("nt_outer must be >= 1")
        if self.inner_nt < 1:
            raise ValueError("inner_nt must be >= 1")

    @property
    def full(self) -> bool:
        """Whether the variant fully diagonalizes every block pivot (an F variant)."""
        return self.variant.endswith("F")


def run_solver(G, signs, opts: SolveOptions):
    """Diagonalize the factor pair by the selected variant; returns (G, info).

    G is overwritten in place when it is already column-major.
    """
    G = np.asfortranarray(G)
    if opts.variant == "seq":
        return G, jacobi_diagonalize(G, signs, opts.tol)
    if opts.variant.startswith("seq"):
        n = G.shape[1]
        driver = full_block if opts.full else block_oriented
        return G, driver(G, signs, greedy_partition(n, opts.nt_outer), opts.tol)
    return parallel_jacobi(G, signs, opts)


def solve_hermitian(H, opts: SolveOptions = SolveOptions(), factored=None,
                    order="desc"):
    """Full eigensolve of a Hermitian matrix.

    Returns (EigenResult, metrics dict).  ``factored`` may carry a
    pre-computed FactoredForm (then H is only used for the residual metric;
    pass H=None to skip it, e.g. for rectangular external factors).
    ``order`` is "desc" (descending by value) or "index" (pre-ordering
    column position of the factor).
    """
    if order not in ("desc", "index"):
        raise ValueError(f"unknown eigenvalue order {order!r}")
    metrics = {}
    if factored is None:
        H = as_matrix(H)
        t0 = time.perf_counter()
        f = order_by_inertia(factorize_hermitian_indefinite(H))
        metrics["factor_time_s"] = time.perf_counter() - t0
        metrics["scaled_condition"] = scaled_condition(gram(f.G))
    else:
        f = factored
    t0 = time.perf_counter()
    G_out, info = run_solver(f.G.copy(order="F"), f.J, opts)
    metrics["solve_time_s"] = time.perf_counter() - t0
    if order == "desc":
        res = extract_eigen(G_out, f.J, sort_descending=True)
    else:
        res = extract_eigen(G_out, f.J, col_perm=f.P1)
    # undo the pivoting: row i of the solved system is row P[i] of H
    U = np.empty_like(res.eigenvectors)
    U[f.P, :] = res.eigenvectors
    result = EigenResult(
        eigenvalues=res.eigenvalues,
        eigenvectors=np.asfortranarray(U),
        sweeps=info.sweeps,
        rotations=info.rotations,
        converged=info.converged,
    )
    metrics["sweeps"] = info.sweeps
    metrics["rotations"] = info.rotations
    metrics["converged"] = bool(info.converged)
    metrics["orthogonality"] = float(
        np.abs(U.conj().T @ U - np.eye(U.shape[1])).max()
    ) if U.size else 0.0
    if H is not None and H.shape[0] == U.shape[0] and H.shape[0]:
        hnorm = np.linalg.norm(H)
        resid = np.linalg.norm(H @ U - U * result.eigenvalues)
        metrics["residual"] = float(resid / hnorm) if hnorm else float(resid)
    return result, metrics
