"""Cholesky factorization, solve, condition estimate and 1-norm: LAPACK potrf, potrs, pocon, lansy.

The four routines are bound with ctypes to the OpenBLAS that numpy itself
loaded (the ``numpy.libs/libscipy_openblas64_*`` library of numpy 2 wheels,
whose LAPACKE entry points take 64-bit integers), so the solver runs without
importing scipy.  The ``_work`` entry points are used: the plain LAPACKE ones
scan the matrix for NaN on every call.  Where numpy's library or one of the
symbols is missing (other wheel layouts, MKL, a system BLAS), the same
routines come from scipy, imported only then: ``scipy.linalg.lapack``, and
``dlansy``, which it does not wrap, from ``scipy.linalg.cython_lapack``.
The two sources differ only in :func:`_load`.

Both OpenBLAS builds also export their thread-count calls, which
:func:`single_threaded` uses to pin the library to one thread while two
threads each factor a matrix of their own; where the library has no such
calls (MKL, a system BLAS), it pins nothing.

Matrices are column-major float64 with a leading dimension of at least
their order (a square view into the top rows of a taller Fortran-order
array will do), and only the triangle named by ``lower`` (the lower one by
default) is read or written, so two triangles may share one array.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["cho_factor", "cho_solve", "pocon", "lansy", "single_threaded", "SOURCE"]

_COL_MAJOR = 102  # LAPACK_COL_MAJOR
_ALIGN = 64  # bytes; pocon's and lansy's work arrays always start on this boundary


def _aligned_empty(n: int, dtype) -> np.ndarray:
    """Uninitialized 1-D array of ``n`` items whose data starts on a 64-byte boundary.

    OpenBLAS's vector kernels take a different summation order depending on
    where their operands start, so work arrays placed wherever the heap
    happens to put them would make the estimate vary in its last digits.
    """
    itemsize = np.dtype(dtype).itemsize
    raw = np.empty(n + _ALIGN // itemsize, dtype=dtype)
    skip = (-raw.ctypes.data % _ALIGN) // itemsize
    return raw[skip:skip + n]


def _thread_calls(lib, suffix: str = ""):
    """(get, set) of the OpenBLAS thread count in ``lib``, or None where it has none."""
    try:
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _from_numpy_openblas():
    """(potrf, potrs, pocon, lansy, threads) bound to numpy's OpenBLAS; raises where it is missing.

    ``threads`` is the (get, set) pair of :func:`_thread_calls`.
    """
    from numpy._core import _multiarray_umath

    # a library handle also resolves the symbols of its dependencies,
    # OpenBLAS among them
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    head = [ctypes.c_int, ctypes.c_char, i64]  # layout, uplo, n
    potrf_c = lib.scipy_LAPACKE_dpotrf_work64_
    potrf_c.argtypes = [*head, ptr, i64]
    potrs_c = lib.scipy_LAPACKE_dpotrs_work64_
    potrs_c.argtypes = [*head, i64, ptr, i64, ptr, i64]
    pocon_c = lib.scipy_LAPACKE_dpocon_work64_
    pocon_c.argtypes = [*head, ptr, i64, ctypes.c_double,
                        ctypes.POINTER(ctypes.c_double), ptr, ptr]
    for fn in (potrf_c, potrs_c, pocon_c):
        fn.restype = i64
    lansy_c = lib.scipy_LAPACKE_dlansy_work64_
    lansy_c.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
    lansy_c.restype = ctypes.c_double

    def uplo(lower):
        return b"L" if lower else b"U"

    def potrf(a, lower):
        n = a.shape[0]
        return potrf_c(_COL_MAJOR, uplo(lower), n, a.ctypes.data, _leading(a))

    def potrs(c, b, lower):
        n = c.shape[0]
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        return potrs_c(_COL_MAJOR, uplo(lower), n, nrhs, c.ctypes.data, _leading(c),
                       b.ctypes.data, max(n, 1))

    def pocon(c, anorm, lower):
        n = c.shape[0]
        rcond = ctypes.c_double()
        work = _aligned_empty(3 * n, np.float64)
        iwork = _aligned_empty(n, np.int64)
        info = pocon_c(_COL_MAJOR, uplo(lower), n, c.ctypes.data, _leading(c), anorm,
                       ctypes.byref(rcond), work.ctypes.data, iwork.ctypes.data)
        return rcond.value, info

    def lansy(c, lower):
        n = c.shape[0]
        work = _aligned_empty(n, np.float64)
        return lansy_c(_COL_MAJOR, b"1", uplo(lower), n, c.ctypes.data, _leading(c),
                       work.ctypes.data)

    return potrf, potrs, pocon, lansy, _thread_calls(lib, "64_")


def _from_scipy():
    """(potrf, potrs, pocon, lansy, threads) from scipy, with the same conventions.

    ``lansy`` is the C function in a capsule of ``scipy.linalg.cython_lapack``.
    The thread-count calls are those of the OpenBLAS that scipy's LAPACK
    module links, where it links one.
    """
    from scipy.linalg import _flapack, cython_lapack
    from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

    def potrf(a, lower):
        # clean=0: the other triangle may hold another matrix
        c, info = dpotrf(a, lower=int(lower), clean=0, overwrite_a=1)
        if c is not a:  # f2py copied instead of factoring in place: copy back our triangle
            own = np.tri(len(a), dtype=bool)
            np.copyto(a, c, where=own if lower else own.T)
        return info

    def potrs(c, b, lower):
        x, info = dpotrs(c, b, lower=int(lower), overwrite_b=1)
        if x is not b:
            b[...] = x
        return info

    def pocon(c, anorm, lower):
        rcond, info = dpocon(c, anorm, uplo="L" if lower else "U")
        return float(rcond), info

    capsule, text, ptr = cython_lapack.__pyx_capi__["dlansy"], ctypes.c_char_p, ctypes.c_void_p
    api, obj, int_p = ctypes.pythonapi, ctypes.py_object, ctypes.POINTER(ctypes.c_int)
    name = ctypes.PYFUNCTYPE(text, obj)(("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(ptr, obj, text)(("PyCapsule_GetPointer", api))(capsule, name)
    dlansy = ctypes.CFUNCTYPE(ctypes.c_double, text, text, int_p, ptr, int_p, ptr)(address)

    def lansy(c, lower):
        n, lda = ctypes.c_int(c.shape[0]), ctypes.c_int(_leading(c))
        work = _aligned_empty(c.shape[0], np.float64)
        return dlansy(b"1", b"L" if lower else b"U", ctypes.byref(n), c.ctypes.data,
                      ctypes.byref(lda), work.ctypes.data)

    return potrf, potrs, pocon, lansy, _thread_calls(ctypes.CDLL(_flapack.__file__))


def _load():
    """The routines and where they come from: numpy's OpenBLAS, else scipy."""
    try:
        return (*_from_numpy_openblas(), "numpy-openblas")
    except (ImportError, OSError, AttributeError):  # no such module, library or symbol
        return (*_from_scipy(), "scipy")


_potrf, _potrs, _pocon, _lansy, _threads, SOURCE = _load()
_pin_lock = threading.RLock()


@contextmanager
def single_threaded():
    """Pin the library to one thread for the ``with`` block; yield whether it is pinned.

    The thread count is the library's, global to the process: under a
    (re-entrant) lock, so that pinned sections of several threads run one
    after the other, it is set to 1 and the previous count is restored on
    exit.  While a section runs, the BLAS calls of every thread of the
    process run on one thread each.  Where the library has no thread-count
    calls, nothing is pinned and the block gets False.
    """
    threads = _threads
    if threads is None:
        yield False
        return
    get, set_ = threads
    with _pin_lock:
        before = get()
        set_(1)
        try:
            yield True
        finally:
            set_(before)


def _leading(c: np.ndarray) -> int:
    """The leading dimension of a column-major matrix."""
    return max(c.strides[1] // c.itemsize, c.shape[0], 1)


def _check_factor(c: np.ndarray) -> None:
    if not (c.ndim == 2 and c.shape[0] == c.shape[1] and c.dtype == np.float64
            and (c.flags.f_contiguous
                 or (c.strides[0] == c.itemsize and c.strides[1] >= c.itemsize * len(c)))
            and c.flags.writeable):
        raise ValueError("expected a writeable column-major square float64 matrix")


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def cho_factor(a: np.ndarray, lower: bool = True) -> np.ndarray:
    """Overwrite the lower triangle of ``a`` with its Cholesky factor L; return ``a``.

    With ``lower=False`` the upper triangle holds the matrix and gets the
    factor U = L^T instead.  The other strict triangle is neither read nor
    written.  Raises ``numpy.linalg.LinAlgError`` when ``a`` is not positive
    definite (its triangle is then partly overwritten).
    """
    _check_factor(a)
    info = _potrf(a, lower)
    _check_info(info, "potrf")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (leading minor of order {info})"
        )
    return a


def cho_solve(c: np.ndarray, b: np.ndarray, lower: bool = True) -> np.ndarray:
    """x with L L^T x = b, for the factor L of :func:`cho_factor` and b of shape (n,) or (n, k).

    ``lower`` names the triangle that holds the factor, as in :func:`cho_factor`.
    """
    _check_factor(c)
    x = np.array(b, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != c.shape[0]:
        raise ValueError(f"right-hand side of shape {np.shape(b)} for a matrix of order {len(c)}")
    _check_info(_potrs(c, x, lower), "potrs")
    return x


def pocon(c: np.ndarray, anorm: float, lower: bool = True) -> float:
    """LAPACK's estimate of 1 / cond_1(L L^T), given L and the 1-norm of L L^T.

    ``lower`` names the triangle that holds the factor, as in :func:`cho_factor`.
    """
    _check_factor(c)
    rcond, info = _pocon(c, float(anorm), lower)
    _check_info(info, "pocon")
    return rcond


def lansy(c: np.ndarray, lower: bool = True) -> float:
    """The 1-norm of the symmetric matrix in the triangle of ``c`` that ``lower`` names,
    which alone is read; a NaN or infinite entry there makes it non-finite."""
    _check_factor(c)
    return _lansy(c, lower)
