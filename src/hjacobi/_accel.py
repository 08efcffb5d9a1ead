"""Numba acceleration shim.

The hot sweep kernel is compiled with ``numba.njit`` if and only if numba is
importable; the scalar helpers it calls are marked ``jitable``, so they
compile into the kernel and stay plain Python functions everywhere else.
``benchmarks/ab.py`` records which kernel ran on each side of an A/B.
"""

try:
    from numba import njit as _njit
    from numba.extending import register_jitable as jitable

    NUMBA_ENABLED = True
except ImportError:  # numba is the optional "jit" extra
    NUMBA_ENABLED = False

    def jitable(func):
        """Stand-in for numba's register_jitable: the function stays as it is."""
        return func


def jit_kernel(func):
    """Compile a kernel with njit, or return it unchanged if numba is absent."""
    if NUMBA_ENABLED:
        return _njit(cache=True, nogil=True)(func)
    return func
