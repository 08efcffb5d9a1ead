"""Random Hermitian test matrices with prescribed spectra.

H = Q diag(lam) Q^* where Q is a product of min(n, 8) random Householder
reflectors — enough mixing to make the matrix dense at O(n^2) cost per
reflector.  The spectrum is drawn from an explicit list or a log-uniform /
uniform magnitude range with a prescribed fraction of negative eigenvalues.
"""

import math
from dataclasses import dataclass

import numpy as np

MODES = ("explicit", "log_uniform", "uniform")
MAX_REFLECTORS = 8


@dataclass(frozen=True)
class EigSpec:
    """Eigenvalue recipe for a generated test matrix."""

    mode: str = "log_uniform"
    lo: float = 1e-2
    hi: float = 1.0
    values: tuple = ()
    neg_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "explicit":
            if not self.values:
                raise ValueError("explicit mode needs a nonempty value list")
            if not all(math.isfinite(v) and v != 0 for v in self.values):
                raise ValueError("explicit eigenvalues must be finite and nonzero")
        elif not 0 < self.lo <= self.hi < math.inf:
            raise ValueError("range endpoints must be finite and satisfy 0 < lo <= hi")
        if not (0.0 <= self.neg_fraction <= 1.0):
            raise ValueError("neg_fraction must lie in [0, 1]")

    def draw(self, n: int, rng=None) -> np.ndarray:
        """Sample n eigenvalues (signed reals, none zero)."""
        if self.mode == "explicit":
            vals = np.asarray(self.values, dtype=np.float64)
            if vals.size != n:
                raise ValueError(f"explicit list has {vals.size} values, need {n}")
            return vals
        if rng is None:
            rng = np.random.default_rng(self.seed)
        if self.mode == "log_uniform":
            mags = np.exp(rng.uniform(np.log(self.lo), np.log(self.hi), size=n))
        else:
            mags = rng.uniform(self.lo, self.hi, size=n)
        n_neg = int(round(self.neg_fraction * n))
        signs = np.ones(n)
        signs[rng.permutation(n)[:n_neg]] = -1.0
        return mags * signs


def parse_eig_spec(text: str, neg_fraction: float = 0.5, seed: int = 0) -> EigSpec:
    """Parse ``log:lo:hi``, ``uni:lo:hi``, or a comma-separated value list."""
    head, _, rest = text.partition(":")
    if head in ("log", "uni"):
        try:
            lo_s, hi_s = rest.split(":")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise ValueError(f"malformed range spec {text!r}") from exc
        mode = "log_uniform" if head == "log" else "uniform"
        return EigSpec(mode=mode, lo=lo, hi=hi, neg_fraction=neg_fraction, seed=seed)
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed eigenvalue list {text!r}") from exc
    return EigSpec(mode="explicit", values=values, neg_fraction=neg_fraction,
                   seed=seed)


def _apply_reflectors(rng, H, complex_scalars):
    """H <- Q H Q^* for a product of random Householder reflectors Q."""
    n = H.shape[0]
    for _ in range(min(n, MAX_REFLECTORS)):
        v = rng.standard_normal(n)
        if complex_scalars:
            v = v + 1j * rng.standard_normal(n)
        v = v / np.linalg.norm(v)
        # (I - 2vv^*) H (I - 2vv^*)
        w = H @ v
        c = np.vdot(v, w)
        H -= 2.0 * np.outer(w, v.conj())
        H -= 2.0 * np.outer(v, w.conj())
        H += 4.0 * c * np.outer(v, v.conj())
    return H


def generate_test_matrix(n: int, spec: EigSpec, complex_scalars: bool = False):
    """Dense Hermitian n x n matrix with the spectrum drawn from ``spec``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed)
    lam = spec.draw(n, rng)
    dtype = np.complex128 if complex_scalars else np.float64
    H = np.zeros((n, n), dtype=dtype, order="F")
    np.fill_diagonal(H, lam)
    H = _apply_reflectors(rng, H, complex_scalars)
    H = (H + H.conj().T) / 2.0
    return np.asfortranarray(H)
