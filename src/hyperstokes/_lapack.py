"""Cholesky factorization, solve, condition estimate and 1-norm: LAPACK potrf, potrs, pocon, lansy.

The four routines are LAPACK's Fortran entry points ``dpotrf``, ``dpotrs``,
``dpocon`` and ``dlansy``, called through ctypes by :func:`_bind`.  They are
taken from the OpenBLAS that numpy itself loaded (the
``numpy.libs/libscipy_openblas64_*`` library of numpy 2 wheels, whose
symbols take 64-bit integers), so the solver runs without importing scipy.
Where numpy's library or one of the symbols is missing (other wheel
layouts, MKL, a system BLAS), the same routines come from the capsules of
``scipy.linalg.cython_lapack``, with C ints, imported only then.  The two
sources differ only in where the pointers come from (:func:`_load`); they
are different OpenBLAS builds, so their results agree to roundoff, not bit
for bit.

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


def _bind(routine, integer):
    """(potrf, potrs, pocon, lansy) over LAPACK's Fortran entry points.

    ``routine(name)`` is the address of the Fortran routine ``name``, such
    as ``"dpotrf"``, and ``integer`` the ctypes type of its integers.  Every
    argument goes by reference, and each character argument adds its hidden
    length, a trailing size_t of 1, as gfortran lays the call out.  The work
    arrays of pocon and lansy come from :func:`_aligned_empty`.
    """
    ptr, length, double = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_double

    def fortran(name, pointers, chars, restype=None):
        return ctypes.CFUNCTYPE(restype, *[ptr] * pointers, *[length] * chars)(routine(name))

    dpotrf, dpotrs = fortran("dpotrf", 5, 1), fortran("dpotrs", 8, 1)
    dpocon, dlansy = fortran("dpocon", 9, 1), fortran("dlansy", 6, 2, double)

    def ref(value):
        return ctypes.byref(integer(value))

    def uplo(lower):
        return b"L" if lower else b"U"

    def potrf(a, lower):
        info = integer()
        dpotrf(uplo(lower), ref(len(a)), a.ctypes.data, ref(_leading(a)), ctypes.byref(info), 1)
        return info.value

    def potrs(c, b, lower):
        n, info = len(c), integer()
        dpotrs(uplo(lower), ref(n), ref(1 if b.ndim == 1 else b.shape[1]), c.ctypes.data,
               ref(_leading(c)), b.ctypes.data, ref(max(n, 1)), ctypes.byref(info), 1)
        return info.value

    def pocon(c, anorm, lower):
        n, rcond, info = len(c), double(), integer()
        work, iwork = _aligned_empty(3 * n, np.float64), _aligned_empty(n, integer)
        dpocon(uplo(lower), ref(n), c.ctypes.data, ref(_leading(c)), ctypes.byref(double(anorm)),
               ctypes.byref(rcond), work.ctypes.data, iwork.ctypes.data, ctypes.byref(info), 1)
        return rcond.value, info.value

    def lansy(c, lower):
        work = _aligned_empty(len(c), np.float64)
        return dlansy(b"1", uplo(lower), ref(len(c)), c.ctypes.data, ref(_leading(c)),
                      work.ctypes.data, 1, 1)

    return potrf, potrs, pocon, lansy


def _from_numpy_openblas():
    """(potrf, potrs, pocon, lansy, threads) bound to numpy's OpenBLAS; raises where it is missing.

    ``threads`` is the (get, set) pair of :func:`_thread_calls`.
    """
    from numpy._core import _multiarray_umath

    # a library handle also resolves the symbols of its dependencies,
    # OpenBLAS among them
    lib = ctypes.CDLL(_multiarray_umath.__file__)

    def routine(name):
        return ctypes.cast(getattr(lib, f"scipy_{name}_64_"), ctypes.c_void_p).value

    return (*_bind(routine, ctypes.c_int64), _thread_calls(lib, "64_"))


def _from_scipy():
    """(potrf, potrs, pocon, lansy, threads) from ``scipy.linalg.cython_lapack``.

    The routines are the C functions in its capsules, and the thread-count
    calls those of the OpenBLAS that the module links, where it links one.
    """
    from scipy.linalg import cython_lapack

    api, obj, text = ctypes.pythonapi, ctypes.py_object, ctypes.c_char_p
    name_of = ctypes.PYFUNCTYPE(text, obj)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, text)(("PyCapsule_GetPointer", api))

    def routine(name):
        capsule = cython_lapack.__pyx_capi__[name]
        return pointer(capsule, name_of(capsule))

    return (*_bind(routine, ctypes.c_int), _thread_calls(ctypes.CDLL(cython_lapack.__file__)))


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
