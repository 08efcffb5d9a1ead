"""Correctness checks on every solve, computed apart from hjacobi.

A solve passes when
* it reports convergence;
* its eigenvalues match the reference: ``numpy.linalg.eigvalsh`` for the
  dense inputs to ``DENSE_RTOL`` relative, and 30-digit mpmath eigenvalues
  for the graded inputs to ``GRADED_C * kappa(A_s) * n * eps`` relative;
* its negative-eigenvalue count equals the prescribed inertia;
* ||H U - U Lambda||_F / ||H||_F and max |U* U - I| are at most
  ``RESID_C * n * eps``, both recomputed here from the returned U.

``self_test`` shows that a perturbed eigenvalue, eigenvector, inertia or
convergence flag fails these checks.
"""

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)
RESID_C = 32.0
GRADED_C = 16.0
# eigvalsh is backward stable, not relatively accurate: its error on an
# eigenvalue of modulus 1e-3 at ||H|| = 1 is up to ~n*eps/1e-3 ~ 3e-11.
DENSE_RTOL = 1e-9


@dataclass(frozen=True)
class Expected:
    eigenvalues: np.ndarray  # reference, descending
    n_negative: int
    rtol: float


def scaled_kappa(H):
    """2-norm condition of H scaled to unit-modulus diagonal."""
    s = 1.0 / np.sqrt(np.abs(np.diag(H).real))
    w = np.abs(np.linalg.eigvalsh(H * np.outer(s, s)))
    return float(w.max() / w.min())


def expected_dense(H, n_negative):
    ev = np.sort(np.linalg.eigvalsh(H))[::-1]
    return Expected(ev, n_negative, DENSE_RTOL)


def expected_graded(H, n_negative, mp_eigs):
    rtol = GRADED_C * scaled_kappa(H) * H.shape[0] * EPS
    return Expected(np.asarray(mp_eigs), n_negative, rtol)


def check_solution(H, lam, U, converged, exp: Expected):
    """Return a list of failed-check descriptions (empty when correct)."""
    n = H.shape[0]
    bad = []
    if not converged:
        bad.append("not converged")
    lam = np.asarray(lam)
    if lam.shape != exp.eigenvalues.shape or U.shape != (n, n):
        return bad + [f"shape: {lam.shape} eigenvalues, {U.shape} eigenvectors"]
    order = np.argsort(-lam, kind="stable")
    lam_s = lam[order]
    rel = np.abs(lam_s - exp.eigenvalues) / np.abs(exp.eigenvalues)
    if not rel.max() <= exp.rtol:
        bad.append(f"eigenvalue rel error {rel.max():.2e} > {exp.rtol:.2e}")
    n_neg = int(np.count_nonzero(lam < 0))
    if n_neg != exp.n_negative:
        bad.append(f"inertia: {n_neg} negative, expected {exp.n_negative}")
    limit = RESID_C * n * EPS
    resid = np.linalg.norm(H @ U - U * lam) / np.linalg.norm(H)
    if not resid <= limit:
        bad.append(f"residual {resid:.2e} > {limit:.2e}")
    orth = np.abs(U.conj().T @ U - np.eye(n)).max()
    if not orth <= limit:
        bad.append(f"orthogonality {orth:.2e} > {limit:.2e}")
    return bad


def self_test():
    """Raise AssertionError unless the checks accept a correct solution and
    reject each kind of perturbed one."""
    rng = np.random.default_rng(7)
    n = 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.geomspace(1.0, 1e-3, n) * np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    H = (Q * w) @ Q.T
    H = (H + H.T) / 2.0
    lam, U = np.linalg.eigh(H)
    n_neg = int(np.count_nonzero(w < 0))
    for exp in (expected_dense(H, n_neg),
                Expected(np.sort(w)[::-1], n_neg, DENSE_RTOL)):
        if check_solution(H, lam, U, True, exp):
            raise AssertionError(f"correct solution rejected: "
                                 f"{check_solution(H, lam, U, True, exp)}")
        lam_bad = lam.copy()
        lam_bad[0] *= 1.0 + 1e-6
        c, s = np.cos(1e-6), np.sin(1e-6)
        U_bad = U.copy()
        U_bad[:, 0], U_bad[:, 1] = c * U[:, 0] - s * U[:, 1], s * U[:, 0] + c * U[:, 1]
        U_skew = U.copy()
        U_skew[0, 0] += 1e-6
        wrong_inertia = Expected(exp.eigenvalues, n_neg + 1, exp.rtol)
        cases = {
            "perturbed eigenvalue": (lam_bad, U, True, exp),
            "rotated eigenvectors": (lam, U_bad, True, exp),
            "non-orthogonal eigenvector": (lam, U_skew, True, exp),
            "wrong inertia": (lam, U, True, wrong_inertia),
            "not converged": (lam, U, False, exp),
        }
        for what, args in cases.items():
            if not check_solution(H, *args):
                raise AssertionError(f"checks accepted a {what}")
