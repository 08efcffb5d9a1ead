"""Annihilation passes and the non-blocked one-sided Jacobi driver.

The J-unitary plane rotation itself lives only in ``_kernels``: its
parameters in ``rotation_theta`` and ``rotation_tangent``, its 2x2 matrix
in ``rotation_matrices``.  ``jacobi_cycle`` runs one annihilation pass through the
kernel; ``members_until_quiet`` is the convergence loop of every driver,
with ``sweep_until_quiet`` its one-factor case, and ``jacobi_diagonalize``
sweeps one factor until a sweep rotates nothing.  ``cycle_members`` and
``diagonalize_members`` do the same for several factors of equal width side
by side in one array, in one kernel call per pass, each factor with the
bits it gets alone.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .core import EigenResult, column_norms_squared
from .errors import PivotDefinitenessError, StructuralError

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Thresholds of the sweep loop.

    ``orth_tol`` defaults to sqrt(m)*eps when left as None (m = row count of
    the swept factor) and must lie in (0, 1): a pair is skipped once
    |a_rs| <= orth_tol*sqrt(a_rr*a_ss), which always holds at orth_tol >= 1.
    """

    orth_tol: float | None = None
    max_sweeps: int = 30

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.orth_tol is not None and not 0.0 < self.orth_tol < 1.0:
            raise ValueError(f"orth_tol must lie in (0, 1), got {self.orth_tol}")

    def orth(self, m):
        return self.orth_tol if self.orth_tol is not None else math.sqrt(m) * EPS

    def with_max_sweeps(self, max_sweeps):
        return replace(self, max_sweeps=max_sweeps)


DEFAULT_TOL = Tolerances()


@dataclass
class DiagInfo:
    """Counters only, of an annihilation pass or of a whole driver."""

    sweeps: int = 0
    rotations: int = 0
    big_rotations: int = 0
    max_abs_t: float = 0.0
    converged: bool = False

    def absorb(self, other: "DiagInfo"):
        """Add another run's rotation counters to these."""
        self.rotations += other.rotations
        self.big_rotations += other.big_rotations
        self.max_abs_t = max(self.max_abs_t, other.max_abs_t)


def cycle_members(G, signs, D, W, n_i, n_j, diag_bl, tol: Tolerances, offsets):
    """``jacobi_cycle`` on member factors of G side by side, as one kernel call.

    Member b's columns start at offsets[b] (a sequence of ints,
    increasing); each member gets its own pass, with the bits it gets
    alone, and a DiagInfo of its own in the returned list.  Raises
    PivotDefinitenessError with the failing member's own pair.
    """
    m = G.shape[0]
    n = n_i if diag_bl else n_i + n_j
    if W is None:
        W = np.zeros((0, G.shape[1]), dtype=G.dtype, order="F")
    offsets = tuple(offsets)  # the kernel's key of its round table, as it is
    stats = np.zeros((len(offsets), 3))
    *_, fail_r, fail_s = _kernels.sweep_pairs(
        G, signs, D, W, n_i, n_j, diag_bl, tol.orth(m), n * EPS, offsets, stats
    )
    if fail_r >= 0:
        o = max(x for x in offsets if x <= fail_r)
        raise PivotDefinitenessError(int(fail_r - o), int(fail_s - o))
    return [DiagInfo(rotations=int(r), big_rotations=int(b), max_abs_t=float(t))
            for r, b, t in stats.tolist()]


def jacobi_cycle(G, signs, D, W, n_i, n_j, diag_bl, tol: Tolerances = DEFAULT_TOL):
    """One annihilation pass over G, through ``_kernels.sweep_pairs``: pairs
    column-cyclically under numba, by rounds of disjoint pairs on the
    interpreted path.

    Returns the pass's counters as a DiagInfo, where a big rotation has
    |t| > n*eps (n = columns in the pass).  Raises PivotDefinitenessError if
    a visited pivot is not positive definite.
    """
    return cycle_members(G, signs, D, W, n_i, n_j, diag_bl, tol, (0,))[0]


def members_until_quiet(sweep, members, tol: Tolerances):
    """The convergence loop of every driver, for ``members`` factors at once.

    sweep(k, active) runs sweep k on the members listed in ``active`` and
    returns a DiagInfo per active member.  A member leaves ``active`` after
    its first sweep without rotations, which sets its ``converged``, or
    after tol.max_sweeps sweeps.  Returns a DiagInfo per member, summing
    its sweeps.
    """
    infos = [DiagInfo() for _ in range(members)]
    active = list(range(members))
    for sweep_k in range(1, tol.max_sweeps + 1):
        for b, stats in zip(active, sweep(sweep_k, active)):
            infos[b].sweeps = sweep_k
            infos[b].absorb(stats)
            infos[b].converged = stats.rotations == 0
        active = [b for b in active if not infos[b].converged]
        if not active:
            break
    return infos


def sweep_until_quiet(sweep, tol: Tolerances):
    """``members_until_quiet`` for one factor: sums the DiagInfo of sweep(k),
    k = 1, ..., tol.max_sweeps, up to the first sweep that rotates nothing,
    which sets ``converged``."""
    return members_until_quiet(lambda k, _: [sweep(k)], 1, tol)[0]


def diagonalize_members(M, m, signs, members, tol: Tolerances = DEFAULT_TOL):
    """``jacobi_diagonalize`` on ``members`` factors of equal width side by
    side in M[:m], with one stacked cycle per sweep.

    Each sweep cycles only the members that have not yet had a sweep without
    rotations, so every member stops at its own first quiet sweep (or at
    tol.max_sweeps) and comes out with the bits and counters it gets alone.
    M's rows below m are accumulator rows, which the rotations rotate too
    (the kernel's W).  Returns a DiagInfo per member.
    """
    k = M.shape[1] // members
    G = M[:m]

    def sweep(_, active):
        return cycle_members(G, signs, column_norms_squared(G), M[m:], k, 0, True, tol,
                             tuple(b * k for b in active))

    return members_until_quiet(sweep, members, tol)


def jacobi_diagonalize(G, signs, tol: Tolerances = DEFAULT_TOL):
    """Orthogonalize the columns of G in place by J-Jacobi sweeps.

    Each sweep reinitializes the Gram-diagonal cache from the current
    columns, then runs one full cycle.  Termination: a sweep that applies no
    rotations.  Returns DiagInfo (``diagonalize_members`` of one member).
    """
    return diagonalize_members(G, G.shape[0], signs, 1, tol)[0]


def extract_eigen(G_final, signs, col_perm=None, sort_descending=False):
    """Read eigenpairs off a converged factor.

    lambda_i = j_ii * ||g_i||^2 with u_i = g_i / ||g_i||; ``col_perm`` maps
    current column positions to original indices and the output is ordered by
    original index (optionally re-sorted descending by eigenvalue).
    """
    norms2 = column_norms_squared(G_final)
    if np.any(norms2 == 0.0):
        raise StructuralError("zero-norm column: factor is rank deficient")
    norms = np.sqrt(norms2)
    lam = signs * norms2
    U = G_final / norms
    n = lam.size
    if col_perm is not None:
        col_perm = np.asarray(col_perm)
        out_lam = np.empty_like(lam)
        out_U = np.empty_like(U)
        out_lam[col_perm] = lam
        out_U[:, col_perm] = U
        lam, U = out_lam, out_U
    if sort_descending:
        order = np.argsort(-lam, kind="stable")
        lam = lam[order]
        U = U[:, order]
    return EigenResult(eigenvalues=lam, eigenvectors=U)
