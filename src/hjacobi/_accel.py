"""Numba acceleration shim.

The hot sweep kernel is compiled with ``numba.njit`` when numba is importable;
the scalar helpers it calls are marked ``jitable``, so they compile into the
kernel and stay plain Python functions everywhere else.
Setting the environment variable ``HJACOBI_NO_NUMBA=1`` (checked once, at
import time) forces the pure-numpy interpreted path; ``benchmarks/
accel_compare.py`` times both.
"""

import os

ENV_FLAG = "HJACOBI_NO_NUMBA"

try:
    from numba import njit as _njit
    from numba.extending import register_jitable as jitable

    HAVE_NUMBA = True
except ImportError:  # numba is the optional "jit" extra
    HAVE_NUMBA = False

    def jitable(func):
        """Stand-in for numba's register_jitable: the function stays as it is."""
        return func


def _disabled_by_env() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in ("1", "true", "yes", "on")


NUMBA_ENABLED = HAVE_NUMBA and not _disabled_by_env()


def jit_kernel(func):
    """Compile a kernel with njit, or return it unchanged if numba is absent."""
    if HAVE_NUMBA:
        return _njit(cache=True, nogil=True)(func)
    return func
