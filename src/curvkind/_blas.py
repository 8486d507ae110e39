"""numpy's own BLAS and LAPACK, reached through ctypes: one BLAS thread for
the small contractions of the p-form functions, and the smallest eigenvalue
of a symmetric matrix alone.

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
another thread starts meanwhile also runs on one thread.  The lanes of
bochner._solve_ric_l rely on this: each runs its solves on its own thread,
with no OpenBLAS worker beside it, and gets the same bits on any lane.
OpenBLAS is found through numpy's own extension module; with any other BLAS
the wrapper does nothing.

lowest_eigenvalue returns the smallest eigenvalue of a symmetric or
Hermitian matrix through the LAPACKE that numpy's wheels carry, ?syevr with
RANGE = 'I' and IL = IU = 1: after the tridiagonal reduction it bisects for
that one eigenvalue, where np.linalg.eigvalsh (?syevd) computes all N of
them.  It works in place on the caller's matrix, so it also saves the copy
eigvalsh makes.  Without those symbols it calls eigvalsh.
"""

import ctypes
from functools import lru_cache, wraps
import threading

import numpy as np

from .tolerance import unit_scale

# (get, set) of the thread count: the names in numpy's wheels, then the
# names of a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# LAPACKE's column-major layout, and ?syevr's symbols in numpy's wheels,
# where every lapack_int is 64 bits
_COLUMN_MAJOR = 102
_SYEVR = {
    np.dtype(np.float64): "scipy_LAPACKE_dsyevr64_",
    np.dtype(np.complex128): "scipy_LAPACKE_zheevr64_",
}


@lru_cache(maxsize=None)
def _numpy_library():
    """numpy's extension module as a ctypes library, or None."""
    try:
        from numpy._core import _multiarray_umath

        # symbols are looked up in the module and in the libraries it loaded
        return ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None


@lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None."""
    lib = _numpy_library()
    if lib is None:
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


@lru_cache(maxsize=None)
def _syevr(dtype):
    """LAPACKE's ?syevr (?heevr for complex) for float64 or complex128, or None."""
    solve = getattr(_numpy_library(), _SYEVR[dtype], None)
    if solve is not None:
        flag, i64, real, out = ctypes.c_char, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        # layout, jobz, range, uplo, n, a, lda; vl, vu, il, iu, abstol; m, w, z, ldz, isuppz
        solve.argtypes = [
            *(ctypes.c_int, flag, flag, flag, i64, out, i64),
            *(real, real, i64, i64, real),
            *(out, out, out, i64, out),
        ]
        solve.restype = i64
    return solve


def lowest_eigenvalue(M):
    """The smallest eigenvalue of a symmetric (or Hermitian) matrix, which it
    overwrites: np.linalg.eigvalsh(M)[0] within N eps |M|_2, the backward
    error bound of either solve.

    M must be a writable, C-contiguous float64 or complex128 square array;
    anything else raises ValueError.  As eigvalsh does, it reads the lower
    triangle of M, which column-major LAPACK sees as the upper one.
    ?syevr rescales a matrix of norm above about 1e77 by a factor that is
    not a power of two (eigvalsh, the fallback, one above about 1e146), so
    M is divided by its unit scale first, which is exact: 2^e M then gives
    exactly 2^e times the eigenvalue of M.  The bisection runs to
    LAPACK's default tolerance (ABSTOL = 0), eps times the norm of the
    tridiagonal form.  A failed solve raises LinAlgError.
    """
    if not (
        isinstance(M, np.ndarray)
        and M.dtype in _SYEVR
        and M.ndim == 2
        and M.shape[0] == M.shape[1]
        and M.flags.c_contiguous
        and M.flags.writeable
    ):
        raise ValueError("need a writable, C-contiguous, square float64 or complex128 array")
    scale = unit_scale(M)
    M /= scale
    solve = _syevr(M.dtype)
    if solve is None:
        return float(np.linalg.eigvalsh(M)[0]) * scale
    n = len(M)
    found = np.zeros(1, np.int64)
    w = np.empty(n)
    z = np.empty(1, M.dtype)
    support = np.empty(2, np.int64)
    # eigenvalues only, the first through the first, no eigenvector workspace
    info = solve(
        *(_COLUMN_MAJOR, b"N", b"I", b"U", n, M.ctypes.data, n),
        *(0.0, 0.0, 1, 1, 0.0),
        *(found.ctypes.data, w.ctypes.data, z.ctypes.data, 1, support.ctypes.data),
    )
    if info != 0 or found[0] != 1:
        raise np.linalg.LinAlgError(f"?syevr failed with info={info}")
    return float(w[0]) * scale
