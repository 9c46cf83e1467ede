"""Closed-form kernels of the hyperviscous Stokes operator.

The fluid model adds a fourth-order term to the Stokes operator, with a
screening length ``ell`` (the effective thickness of the immersed body).
The resulting free-space Green's function and Oseen tensor are smooth and
*bounded at the origin*, which is what allows one-dimensional bodies to
interact with the flow at all.  All quantities are nondimensional.

Every evaluator accepts a single 3-vector or an array of shape (..., 3)
and broadcasts over the leading axes.

Every screened value, and every entry of the solver's matrix, takes one
path from a separation x: s = |x| / ell (:func:`scaled_norm`,
:func:`_over_ell`); f(s)/s for f = 1 - e^{-s} (the Green's function) or
for the two "brackets" of the Oseen tensor,

    identity factor  D(s) = 1 - 2 e^{-s} - (2/s) e^{-s} + (2/s^2)(1 - e^{-s})
    dyadic factor    Y(s) = 1 + 2 e^{-s} + (6/s) e^{-s} - (6/s^2)(1 - e^{-s})

by one branch rule (:func:`_by_branch`); and one last division by 4 pi or
8 pi times ell (:func:`_over_pi_length`).  The 2/s^2 terms cancel down to
O(s) as s -> 0, so below ``series_threshold`` f(s)/s is its Taylor series,
which also gives the continuous extension Z(0) = I / (6 pi ell): a point
force experiences exactly the Stokes drag of a sphere of radius ell.
Where s leaves the float range, f = 1 and the division is by |x| instead
of ell: the classical limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, pi
from typing import ClassVar

import numpy as np

from .errors import InvalidArgument, SingularPointError, _require_positive

__all__ = [
    "HyperKernel",
    "green_scalar",
    "green_classical",
    "oseen_tensor",
    "stokeslet_velocity",
    "stokeslet_pressure",
    "classical_oseen",
]

# below this norm the sum of squares is subnormal and has lost digits
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class HyperKernel:
    """Evaluation context for the screened kernels.

    ell              screening length (effective thickness), > 0

    Class constants:

    series_threshold cutoff on s = |x|/ell below which Taylor branches
                     are used; at the cutoff the closed form loses
                     digits to the cancelling 6/s^2 terms, so the two
                     branches agree to 2e-11 relative for Y(s)/s and
                     2e-13 for D(s)/s (measured 9.6e-12 and 7.6e-14
                     within 2e-12 of s = 0.1)
    series_terms     Taylor terms per bracket; 24 keeps the truncation
                     error below 1e-16 anywhere on the series branch
    """

    ell: float
    series_threshold: ClassVar[float] = 0.1
    series_terms: ClassVar[int] = 24

    def __post_init__(self):
        _require_positive(ell=self.ell)


def _over_ell(r, kernel: HyperKernel) -> np.ndarray:
    """s = r / ell, inf where it leaves the float range; the kernels then take
    their classical limits (:func:`green_scalar`, :func:`_brackets`)."""
    with np.errstate(over="ignore"):
        return r / kernel.ell


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise InvalidArgument(f"expected 3-vector(s), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgument("non-finite component in input point(s)")
    return x


def scaled_norm(x, axis=None) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` of one vector (``axis=None``) or of the
    vectors along the last axis (``axis=-1``), without overflow or underflow.

    The plain norm is kept wherever its sum of squares stays in the range
    of normal floats.  A vector whose sum of squares leaves it is scaled by
    the power of two that brings its largest component into [0.5, 1), and
    its norm is scaled back, which is exact: |(1e200, 0, 0)| is 1e200, not
    inf, and |(1e-170, 0, 0)| is 1e-170, not 0.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed sum of squares is redone below
        r = np.asarray(np.linalg.norm(x, axis=axis))
    redo = ~((_SQRT_TINY <= r) & (r < np.inf))
    if redo.any():
        v = x[redo]
        _, exponent = np.frexp(np.abs(v).max(axis=-1))
        r[redo] = np.ldexp(np.linalg.norm(np.ldexp(v, -exponent[:, None]), axis=-1), exponent)
    return r[()]


# Taylor coefficients, lowest order first, of
#   D(s)/s = sum_{m>=1} d_m s^{m-1},  d_m = 2 (-1)^{m+1} (1/m! - 1/(m+1)! + 1/(m+2)!)
#   Y(s)/s = sum_{m>=1} y_m s^{m-1},  y_m = 2 (-1)^m   (1/m! - 3/(m+1)! + 3/(m+2)!)
#   (1-e^{-s})/s = sum_{m>=0} (-1)^m s^m / (m+1)!
# Leading orders D ~ (4/3) s and Y ~ s^2/4 give Z(0) = I/(6 pi ell).
_D_SERIES = np.array([2.0 * (-1.0) ** (m + 1)
                      * (1.0 / factorial(m) - 1.0 / factorial(m + 1) + 1.0 / factorial(m + 2))
                      for m in range(1, HyperKernel.series_terms + 1)])
_Y_SERIES = np.array([2.0 * (-1.0) ** m
                      * (1.0 / factorial(m) - 3.0 / factorial(m + 1) + 3.0 / factorial(m + 2))
                      for m in range(1, HyperKernel.series_terms + 1)])
_G_SERIES = np.array([(-1.0) ** m / factorial(m + 1) for m in range(HyperKernel.series_terms + 1)])


def _horner(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.full_like(s, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * s + c
    return out


def _factors_closed(s: np.ndarray):
    """Bracket factors (D, Y) for s bounded away from 0.

    Evaluates D = 1 - 2 e - (2/s) e + (2/s)(1/s)(1 - e) and
    Y = 1 + 2 e + (6/s) e - (6/s)(1/s)(1 - e), e = exp(-s), term by term
    from left to right, in place in a few arrays of the size of s.
    """
    e = np.negative(s)
    one_minus_e = np.expm1(e)
    np.negative(one_minus_e, out=one_minus_e)
    np.exp(e, out=e)
    inv = np.divide(1.0, s)
    coef = np.multiply(2.0, inv)
    tmp = np.multiply(2.0, e)
    ident = np.subtract(1.0, tmp)
    np.multiply(coef, e, out=tmp)
    ident -= tmp
    np.multiply(coef, inv, out=tmp)
    tmp *= one_minus_e
    ident += tmp
    np.multiply(6.0, inv, out=coef)
    dyad = np.multiply(2.0, e)
    np.add(1.0, dyad, out=dyad)
    np.multiply(coef, e, out=tmp)
    dyad += tmp
    np.multiply(coef, inv, out=tmp)
    tmp *= one_minus_e
    dyad -= tmp
    return ident, dyad


def _by_branch(s, kernel: HyperKernel, closed, *series) -> tuple:
    """f(s)/s for each fresh array f(s) that ``closed`` returns on a 1-d array
    of s; the entries below ``series_threshold`` (s = 0 among them) are
    written over by the Taylor series of f(s)/s, one coefficient array each."""
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1)  # at least 1-d, so that the in-place steps get arrays
    with np.errstate(all="ignore"):  # 1/s at s = 0, overwritten below
        values = closed(flat)
        for value in values:
            value /= flat
    small = flat < kernel.series_threshold
    if small.any():
        near = flat[small]
        for value, coeffs in zip(values, series):
            value[small] = _horner(coeffs, near)
    return tuple(value.reshape(s.shape) for value in values)


def _factors_over_s(s: np.ndarray, kernel: HyperKernel):
    """(D(s)/s, Y(s)/s) by :func:`_by_branch`; exact limit at s = 0."""
    return _by_branch(s, kernel, _factors_closed, _D_SERIES, _Y_SERIES)


def _over_pi_length(value, c: float, length):
    """value / (c length) for c = 4 pi or 8 pi, the last step of every kernel.

    A result out of the float range is its IEEE limit, 0 or inf, without a
    numpy warning.  Where c length overflows (length above about 1.4e307),
    value / length / c keeps the digits of a subnormal result.
    """
    with np.errstate(over="ignore"):
        scale = c * length
        out = value / scale
        far = np.isinf(scale)
        if np.any(far):
            out = np.where(far, value / length / c, out)[()]
    return out


def green_scalar(x, kernel: HyperKernel) -> np.ndarray:
    """Screened Green's function g(x) = (1 - exp(-|x|/ell)) / (4 pi |x|).

    Defined for every x: g -> 1/(4 pi ell) as x -> 0, and g -> 1/(4 pi |x|)
    (the Laplace fundamental solution) as ell -> 0 at fixed |x|.  Where s =
    |x|/ell leaves the float range, g is that limit, :func:`green_classical`.
    """
    r = scaled_norm(_as_points(x), axis=-1)
    s = _over_ell(r, kernel)
    (out,) = _by_branch(s, kernel, lambda t: (-np.expm1(-t),), _G_SERIES)
    far = np.isinf(s)  # there g = (1 - e^{-s}) / (4 pi r), with 1 - e^{-s} = 1
    out[far] = 1.0
    return _over_pi_length(out, 4.0 * pi, np.where(far, r, kernel.ell))


def green_classical(x) -> np.ndarray:
    """Fundamental solution 1/(4 pi |x|) of the Laplace operator; singular at 0."""
    r = scaled_norm(_as_points(x), axis=-1)
    if np.any(r == 0.0):
        raise SingularPointError("classical Green's function is singular at x = 0")
    return _over_pi_length(1.0, 4.0 * pi, r)


def _brackets(x: np.ndarray, kernel: HyperKernel):
    """(D(s)/s, Y(s)/s, xhat, length) at the points x, the kernels being
    [D/s I + Y/s xhat xhat^T] / (8 pi length); xhat = 0 at x = 0.

    The length is ell, except where s leaves the float range: there both
    brackets are D = Y = 1 and the length is r, which gives the classical
    limit (I + xhat xhat^T) / (8 pi r).
    """
    r = scaled_norm(x, axis=-1)
    s = _over_ell(r, kernel)
    dr, yr = _factors_over_s(s, kernel)
    far = np.isinf(s)
    dr[far] = yr[far] = 1.0
    return dr, yr, x / np.where(r > 0.0, r, 1.0)[..., None], np.where(far, r, kernel.ell)


def oseen_tensor(x, kernel: HyperKernel) -> np.ndarray:
    """Screened Oseen tensor Z(x), shape (..., 3, 3).

    Z(x) = [D(s)/s * I + Y(s)/s * xhat xhat^T] / (8 pi ell),  s = |x|/ell.

    Symmetric and even in x; Z(0) = I/(6 pi ell) by continuity, and Z is
    :func:`classical_oseen` where s leaves the float range.
    """
    dr, yr, xhat, length = _brackets(_as_points(x), kernel)
    outer = xhat[..., :, None] * xhat[..., None, :]
    return _over_pi_length(dr[..., None, None] * np.eye(3) + yr[..., None, None] * outer,
                           8.0 * pi, length[..., None, None])


def stokeslet_velocity(x, h, kernel: HyperKernel) -> np.ndarray:
    """Velocity zeta(x) = Z(x) h induced by a point force h at the origin, as
    [D(s)/s * h + Y(s)/s * xhat (xhat . h)] / (8 pi ell) without forming Z.

    An entry whose numerator overflows is redone as 4 Z(x) (h / 4): |D/s|
    <= 4/3 and |Y/s| <= 1 keep every step of Z (h / 4) in the float range.
    """
    h = _as_points(h)
    dr, yr, xhat, length = _brackets(_as_points(x), kernel)

    def velocity(h):
        along = yr * (xhat * h).sum(axis=-1)
        return _over_pi_length(dr[..., None] * h + along[..., None] * xhat,
                               8.0 * pi, length[..., None])

    with np.errstate(all="ignore"):  # a non-finite entry is redone below
        u = velocity(h)
    redo = ~np.isfinite(u)
    if redo.any():
        with np.errstate(over="ignore"):  # inf where Z h leaves the float range: the limit
            u[redo] = np.ldexp(velocity(np.ldexp(h, -2))[redo], 2)
    return u


def stokeslet_pressure(x, h) -> np.ndarray:
    """Pressure p(x) = (h . x) / (4 pi |x|^3) of the point-force solution.

    Identical to the classical Stokeslet pressure (the screening term does
    not alter the pressure); harmonic and singular at the origin.  Where
    |x|^3 or h . x leaves the range of normal floats, p is redone from
    x = 2^e u, |u| in [0.5, 1), as 2^-2e (h . u) / (4 pi |u|^3).
    """
    x = _as_points(x)
    h = np.broadcast_to(_as_points(h), x.shape)
    r = np.asarray(scaled_norm(x, axis=-1))
    if np.any(r == 0.0):
        raise SingularPointError("Stokeslet pressure is singular at x = 0")
    with np.errstate(all="ignore"):  # an entry out of range is redone below
        cube = r**3
        p = np.asarray(np.einsum("...i,...i->...", x, h) / (4.0 * pi * cube))
    redo = ~((np.finfo(float).tiny <= cube) & (cube < np.inf) & np.isfinite(p))
    if redo.any():
        mantissa, exponent = np.frexp(r[redo])
        u = np.ldexp(x[redo], -exponent[:, None])
        with np.errstate(over="ignore"):  # inf near the origin is the limit
            p[redo] = np.ldexp(np.einsum("...i,...i->...", u, h[redo]) / (4.0 * pi * mantissa**3),
                               -2 * exponent)
    return p[()]


def classical_oseen(x) -> np.ndarray:
    """Classical Oseen tensor (I + xhat xhat^T) / (8 pi |x|); the ell -> 0 limit."""
    x = _as_points(x)
    r = scaled_norm(x, axis=-1)
    if np.any(r == 0.0):
        raise SingularPointError("classical Oseen tensor is singular at x = 0")
    xhat = x / r[..., None]
    outer = xhat[..., :, None] * xhat[..., None, :]
    return _over_pi_length(np.eye(3) + outer, 8.0 * pi, r[..., None, None])
