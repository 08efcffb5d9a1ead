"""Benchmark harness: time solve cells over a grid and report c = T*p/n^3.

The grid comes from a JSON config; each cell gets one warm-up plus R timed
repetitions (median reported).  Failed cells are recorded with an error
status and the run continues.
"""

import csv
import itertools
import json
import statistics
import time
from dataclasses import astuple, dataclass, field, fields
from typing import get_args, get_origin

from ._kernels import KERNEL
from .solve import SolveOptions, run_solver
from .factorization import factorize_hermitian_indefinite, order_by_inertia
from .testmat import EigSpec, generate_test_matrix

_DEFAULTS = SolveOptions()

@dataclass
class BenchRecord:
    variant: str
    strategy: str
    scalar: str
    n: int
    p: int
    nt_outer: int
    nt_inner: int
    kernel: str = KERNEL
    sweeps: int = 0
    rotations: int = 0
    time_s: float = 0.0
    c: float = 0.0
    status: str = "ok"

    def row(self):
        return [f"{v:.6g}" if isinstance(v, float) else v for v in astuple(self)]


CSV_HEADER = tuple(f.name for f in fields(BenchRecord))


@dataclass
class BenchGrid:
    sizes: list[int]
    workers: list[int] = field(default_factory=lambda: [1])
    variants: list[str] = field(default_factory=lambda: ["3F"])
    strategies: list[str] = field(default_factory=lambda: [_DEFAULTS.strategy])
    inner_nt: list[int] = field(default_factory=lambda: [_DEFAULTS.inner_nt])
    nt_outer: int = _DEFAULTS.nt_outer
    reps: int = 3
    seed: int = 0
    complex_scalars: bool = False
    max_sweeps: int = _DEFAULTS.tol.max_sweeps

    def __post_init__(self):
        # each key must have the type its annotation names, list items included
        for f in fields(self):
            value, item = getattr(self, f.name), get_args(f.type)
            if not isinstance(value, get_origin(f.type) or f.type) or (
                    item and not all(isinstance(v, item) for v in value)):
                raise ValueError(f"grid key {f.name!r} must be of type "
                                 f"{f.type if item else f.type.__name__}, got {value!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        # unknown names and out-of-range settings fail the library's own checks
        for variant, strategy, p, nt in itertools.product(
                self.variants, self.strategies, self.workers, self.inner_nt):
            self.options(variant, strategy, p, nt)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("grid config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        if "sizes" not in raw:
            raise ValueError("grid config needs a 'sizes' list")
        return cls(**raw)

    def options(self, variant, strategy, p, inner_nt):
        return SolveOptions(variant=variant, strategy=strategy, p=p,
                            nt_outer=self.nt_outer, inner_nt=inner_nt,
                            tol=_DEFAULTS.tol.with_max_sweeps(self.max_sweeps))

    def cells(self):
        return itertools.product(self.sizes, self.workers, self.variants,
                                 self.strategies, self.inner_nt)


def _time_cell(G, J, opts, reps):
    """One warm-up plus ``reps`` timed repetitions; median time."""
    times = []
    info = None
    for k in range(reps + 1):
        t0 = time.perf_counter()
        _, info = run_solver(G.copy(order="F"), J, opts)
        dt = time.perf_counter() - t0
        if k > 0:
            times.append(dt)
    return statistics.median(times), info


def run_bench(grid: BenchGrid, progress=None):
    records = []
    factors = {}
    for n, p, variant, strategy, nt in grid.cells():
        scalar = "complex128" if grid.complex_scalars else "real64"
        rec = BenchRecord(variant=variant, strategy=strategy, scalar=scalar,
                          n=n, p=p, nt_outer=grid.nt_outer, nt_inner=nt)
        try:
            if n not in factors:
                spec = EigSpec(mode="log_uniform", lo=1e-2, hi=1.0,
                               neg_fraction=0.5, seed=grid.seed)
                H = generate_test_matrix(n, spec, grid.complex_scalars)
                factors[n] = order_by_inertia(factorize_hermitian_indefinite(H))
            f = factors[n]
            opts = grid.options(variant, strategy, p, nt)
            rec.time_s, info = _time_cell(f.G, f.J, opts, grid.reps)
            rec.sweeps = info.sweeps
            rec.rotations = info.rotations
            rec.c = rec.time_s * p / float(n) ** 3
            if not info.converged:
                rec.status = "non-convergence"
        except Exception as exc:  # noqa: BLE001 - cell failure must not stop the grid
            rec.status = f"error: {type(exc).__name__}: {exc}"
        records.append(rec)
        if progress is not None:
            progress(rec)
    return records


def write_csv(fh, records):
    """Write the records as CSV to the text file ``fh`` (opened with newline="")."""
    w = csv.writer(fh)
    w.writerow(CSV_HEADER)
    for rec in records:
        w.writerow(rec.row())
