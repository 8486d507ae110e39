"""One BLAS thread for the small contractions of the p-form functions.

numpy hands every matrix product to its BLAS.  OpenBLAS splits a GEMM of
more than 64^3 multiply-adds over its worker threads, and after each such
call the workers spin for about 0.1 s, waiting for the next one.  The
products of bochner's form functions are a few million multiply-adds for
n <= 11, where a second thread saves little; but a loop over them calls
OpenBLAS often enough that the workers never stop spinning, so one caller
keeps every core busy and its latency follows whatever else the host runs.

one_blas_thread wraps a function so that OpenBLAS runs its products on the
calling thread alone, and puts back the thread count it found when the
outermost wrapped call returns.  The count is process-wide: a product
another thread starts meanwhile also runs on one thread.  OpenBLAS is found
through numpy's own extension module; with any other BLAS the wrapper does
nothing.
"""

import ctypes
from functools import lru_cache, wraps
import threading

# (get, set) of the thread count: the names in numpy's wheels, then the
# names of a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None."""
    try:
        from numpy._core import _multiarray_umath

        # symbols are looked up in the module and in the libraries it loaded
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _SYMBOLS:
        get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_lock = threading.Lock()
_depth = 0  # wrapped calls running, in any thread
_found = 1  # the thread count the outermost of them found


def one_blas_thread(fn):
    """Run fn with OpenBLAS on one thread (see the module docstring)."""

    @wraps(fn)
    def serial(*args, **kwargs):
        global _depth, _found
        threads = _openblas_threads()
        if threads is None:
            return fn(*args, **kwargs)
        get, put = threads
        with _lock:
            if _depth == 0:
                _found = get()
                put(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    put(_found)

    return serial
