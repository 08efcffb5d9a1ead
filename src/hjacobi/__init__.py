"""Dense eigensolver for Hermitian indefinite matrices.

One-sided hyperbolic J-Jacobi method on the factored form P H P^T = G J G^*:
non-blocked, cache-blocked sequential (full block / block-oriented), and the
ring-parallel variants with two- and three-level blocking, whose workers run
in lock-step in one thread.  The sweep kernel is numba-compiled when numba
is importable and pure numpy otherwise.
"""

from ._accel import NUMBA_ENABLED
from .core import EigenResult
from .errors import (
    DefinitenessError,
    HJacobiError,
    NonConvergenceError,
    PivotDefinitenessError,
    RankDeficiencyError,
    SingularMatrixError,
    StructuralError,
)
from .factorization import (
    FactoredForm,
    accept_external_factor,
    factorize_hermitian_indefinite,
    order_by_inertia,
    scaled_condition,
)
from .blocking import (
    BlockPartition,
    block_oriented,
    full_block,
    greedy_partition,
    off_diagonal_pass,
    uniform_partition,
)
from .parallel import parallel_jacobi
from .rotations import (
    Tolerances,
    extract_eigen,
    jacobi_cycle,
    jacobi_diagonalize,
)
from .solve import SolveOptions, solve_hermitian
from .strategies import generate_sweep_schedule
from .testmat import EigSpec, generate_test_matrix
from .matio import read_matrix, write_matrix

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "DefinitenessError",
    "EigSpec",
    "EigenResult",
    "FactoredForm",
    "HJacobiError",
    "NUMBA_ENABLED",
    "NonConvergenceError",
    "PivotDefinitenessError",
    "RankDeficiencyError",
    "SingularMatrixError",
    "SolveOptions",
    "StructuralError",
    "Tolerances",
    "accept_external_factor",
    "block_oriented",
    "extract_eigen",
    "factorize_hermitian_indefinite",
    "full_block",
    "generate_sweep_schedule",
    "generate_test_matrix",
    "greedy_partition",
    "jacobi_cycle",
    "jacobi_diagonalize",
    "off_diagonal_pass",
    "order_by_inertia",
    "parallel_jacobi",
    "read_matrix",
    "scaled_condition",
    "solve_hermitian",
    "uniform_partition",
    "write_matrix",
]
