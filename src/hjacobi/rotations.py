"""J-unitary plane rotations and the non-blocked one-sided Jacobi driver.

``compute_plane_rotation``/``apply_rotation`` expose single rotations for
direct use and testing, with the kernel's own arithmetic; ``jacobi_cycle``
runs one annihilation pass through the kernel; ``sweep_until_quiet`` is the
convergence loop of the blocked and ring drivers, and ``jacobi_diagonalize``
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

TRIGONOMETRIC = "trigonometric"
HYPERBOLIC = "hyperbolic"
IDENTITY = "identity"


@dataclass(frozen=True)
class PlaneRotation:
    """Nontrivial 2x2 part of a J-unitary plane transformation.

    For a trigonometric rotation cs^2 + sn^2 = 1 and |t| <= 1; for a
    hyperbolic one cs^2 - sn^2 = 1 (cs >= 1) and |t| < 1.  ``phase`` is the
    unit-modulus factor absorbed into the r-column (exactly 1 for real
    scalars); ``eta`` is the signed modulus of the pivot's off-diagonal
    entry, kept for the incremental diagonal update.
    """

    kind: str
    cs: float
    sn: float
    phase: complex
    t: float
    eta: float = 0.0

    @property
    def matrix(self):
        """The 2x2 matrix W_P such that [g_r', g_s'] = [g_r, g_s] W_P."""
        if self.kind == IDENTITY:
            return np.eye(2)
        sigma = 1.0 if self.kind == HYPERBOLIC else -1.0
        return np.array(
            [
                [self.cs * self.phase, self.sn * self.phase],
                [sigma * self.sn, self.cs],
            ]
        )


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
    """Counters of an annihilation pass or of a whole diagonalization driver."""

    sweeps: int = 0
    rotations: int = 0
    big_rotations: int = 0
    max_abs_t: float = 0.0
    converged: bool = False
    W: np.ndarray | None = None

    def absorb(self, other: "DiagInfo"):
        """Add another run's rotation counters to these."""
        self.rotations += other.rotations
        self.big_rotations += other.big_rotations
        self.max_abs_t = max(self.max_abs_t, other.max_abs_t)


def compute_plane_rotation(a_rr, a_ss, a_rs, j_rr, j_ss):
    """Rotation parameters annihilating the off-diagonal of a 2x2 Gram pivot.

    The pivot [[a_rr, a_rs], [conj(a_rs), a_ss]] must be positive definite;
    the trigonometric form is chosen when j_rr == j_ss, hyperbolic otherwise,
    always taking the minimal-|t| (inner) root (see ``_kernels.plane_rotation``).
    """
    if a_rr <= 0.0 or a_ss <= 0.0 or abs(a_rs) ** 2 >= a_rr * a_ss:
        raise PivotDefinitenessError(0, 1, "2x2 pivot is not positive definite")
    if a_rs == 0:
        return PlaneRotation(IDENTITY, 1.0, 0.0, 1.0, 0.0, 0.0)
    aa = abs(a_rs)
    eta = aa if a_rs.real >= 0.0 else -aa
    # numpy's complex division, as in the kernel (Python's can differ by an ulp)
    phase = complex(np.divide(a_rs, eta))
    if phase.imag == 0.0:
        phase = phase.real
    with np.errstate(over="ignore"):  # theta = +-inf for a tiny a_rs: t = 0, cs = 1
        t, cs, sn, _ = _kernels.plane_rotation(a_rr, a_ss, eta, j_rr == j_ss)
    if cs == 0.0:
        raise PivotDefinitenessError(0, 1, "hyperbolic pivot has no inner rotation")
    return PlaneRotation(TRIGONOMETRIC if j_rr == j_ss else HYPERBOLIC, cs, sn, phase, t, eta)


def apply_rotation(G, W, D, r, s, rot: PlaneRotation):
    """Apply ``rot`` to columns r, s of G (and of the accumulator W), in place.

    D entries r, s receive the incremental Gram-diagonal update
    d_rr += hyp*t*eta, d_ss += t*eta, with hyp = +1 for a hyperbolic rotation
    and -1 for a trigonometric one.
    """
    if r == s:
        raise ValueError("rotation columns must differ")
    if rot.kind == IDENTITY:
        return
    hyp = 1.0 if rot.kind == HYPERBOLIC else -1.0
    if D is not None:
        D[r] += hyp * rot.t * rot.eta
        D[s] += rot.t * rot.eta
    for M in (G, W):
        if M is not None and M.shape[0] > 0:
            _kernels.rotate_columns(M, r, s, rot.phase, rot.cs, rot.sn, hyp)


def cycle_members(G, signs, D, W, n_i, n_j, diag_bl, tol: Tolerances, offsets):
    """``jacobi_cycle`` on member factors of G side by side, as one kernel call.

    Member b's columns start at offsets[b] (increasing); each member gets
    its own pass, with the bits it gets alone, and a DiagInfo of its own in
    the returned list.  Raises PivotDefinitenessError with the failing
    member's own pair.
    """
    m = G.shape[0]
    n = n_i if diag_bl else n_i + n_j
    if W is None:
        W = np.zeros((0, G.shape[1]), dtype=G.dtype, order="F")
    offsets = np.asarray(offsets, dtype=np.intp)
    stats = np.zeros((offsets.size, 3))
    *_, fail_r, fail_s = _kernels.sweep_pairs(
        G, signs, D, W, n_i, n_j, diag_bl, tol.orth(m), n * EPS, offsets, stats
    )
    if fail_r >= 0:
        o = offsets[np.searchsorted(offsets, fail_r, side="right") - 1]
        raise PivotDefinitenessError(int(fail_r - o), int(fail_s - o))
    return [DiagInfo(rotations=int(r), big_rotations=int(b), max_abs_t=float(t))
            for r, b, t in stats.tolist()]


def jacobi_cycle(G, signs, D, W, n_i, n_j, diag_bl, tol: Tolerances = DEFAULT_TOL):
    """One annihilation pass over G, through ``_kernels.sweep_pairs``: pairs
    column-cyclically, or by rounds of disjoint pairs on the interpreted
    path when a round holds at least ``_kernels.ROUND_MIN_PAIRS`` pairs
    (counted over all the members of a ``cycle_members`` call).

    Returns the pass's counters as a DiagInfo, where a big rotation has
    |t| > n*eps (n = columns in the pass).  Raises PivotDefinitenessError if
    a visited pivot is not positive definite.
    """
    return cycle_members(G, signs, D, W, n_i, n_j, diag_bl, tol, _kernels.ONE_MEMBER)[0]


def sweep_until_quiet(sweep, tol: Tolerances, W=None,
                      quiet=lambda stats: stats.rotations == 0):
    """The convergence loop of the blocked and ring drivers: sums the
    DiagInfo of sweep(k), k = 1, ..., tol.max_sweeps, up to the first
    ``quiet`` sweep (by default one that rotates nothing), which sets
    ``converged``; W is attached."""
    info = DiagInfo(W=W)
    for k in range(1, tol.max_sweeps + 1):
        stats = sweep(k)
        info.sweeps = k
        info.absorb(stats)
        if quiet(stats):
            info.converged = True
            break
    return info


def eye_blocks(k, members, dtype):
    """``members`` k x k identities side by side, column-major."""
    W = np.zeros((k, members * k), dtype=dtype, order="F")
    W.reshape((k * k, members), order="F")[::k + 1] = 1.0  # each block's diagonal
    return W


def diagonalize_members(G, signs, members, tol: Tolerances = DEFAULT_TOL, accumulate=False):
    """``jacobi_diagonalize`` on ``members`` factors of equal width side by
    side in G, with one stacked cycle per sweep.

    Each sweep cycles only the members that have not yet had a sweep without
    rotations, so every member stops at its own first quiet sweep (or at
    tol.max_sweeps) and comes out with the bits, counters and W it gets
    alone.  Returns a DiagInfo per member; their W are column blocks of one
    accumulator when ``accumulate`` is set.
    """
    k = G.shape[1] // members
    W = eye_blocks(k, members, G.dtype) if accumulate else None
    infos = [DiagInfo(W=None if W is None else W[:, b * k:(b + 1) * k]) for b in range(members)]
    active = list(range(members))
    for sweep in range(1, tol.max_sweeps + 1):
        stats = cycle_members(G, signs, column_norms_squared(G), W, k, 0, True, tol,
                              [b * k for b in active])
        for b, st in zip(active, stats):
            infos[b].sweeps = sweep
            infos[b].absorb(st)
            infos[b].converged = st.rotations == 0
        active = [b for b in active if not infos[b].converged]
        if not active:
            break
    return infos


def jacobi_diagonalize(G, signs, tol: Tolerances = DEFAULT_TOL, accumulate=False):
    """Orthogonalize the columns of G in place by J-Jacobi sweeps.

    Each sweep reinitializes the Gram-diagonal cache from the current
    columns, then runs one full cycle.  Termination: a sweep that applies no
    rotations.  Returns DiagInfo; ``W`` holds the accumulated J-unitary
    transformation when ``accumulate`` is set.
    """
    return diagonalize_members(G, signs, 1, tol, accumulate)[0]


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
