"""Body symmetries and the structural patterns they force on the tensors.

A body invariant under an orthogonal map Q has tensors satisfying

    K = Q^T K Q,    B = Q^T B Q,    C = (det Q) Q^T C Q

and specific invariances force specific zero patterns:

* plane of material symmetry with normal along axis n: the K and B rows/
  columns mixing n with the in-plane directions vanish, C loses its whole
  diagonal and the in-plane off-diagonal pair;
* helicoidal symmetry (co-axial rotation of order > 2) about axis n: K and
  B are diagonal with equal transverse entries, C is axisymmetric with an
  antisymmetric transverse pair;
* both together (fore-aft symmetry) force C = 0 and purely translational
  fall.

Symmetry verification is numerical: node sets are matched by nearest
neighbor under Q, with densities and weights required to match as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NoTranslationalOrientation
from .geometry import DiscretizedBody, ensure_orthogonal, nearest_neighbors
from .mobility import ResistanceSet

__all__ = [
    "SymmetryReport",
    "check_geometric_invariance",
    "check_transform_law",
    "check_plane_pattern",
    "check_helicoidal_pattern",
    "translational_orientation_plane",
    "symmetry_report",
]

_INVARIANCE_RTOL = 1e-9


def _axes(axis: int):
    """Map a 1-based symmetry axis to (axis index, other two indices)."""
    if axis not in (1, 2, 3):
        raise InvalidArgument(f"axis must be 1, 2 or 3, got {axis}")
    n = axis - 1
    p, q = [i for i in range(3) if i != n]
    return n, p, q


def check_geometric_invariance(dbody: DiscretizedBody, Q, diameter: float | None = None) -> float:
    """Node-matching error between the discretized body and its image under Q.

    Each node of the image is matched to its nearest original node (and vice
    versa); the error combines the worst position mismatch with density and
    weight mismatches scaled by the body diameter.  Invariance holds when
    the error is below 1e-9 times the diameter.  A caller that already has
    ``dbody.diameter`` (an O(N^2) computation) may pass it in.
    """
    Q = ensure_orthogonal(Q)
    x = dbody.nodes
    mapped = x @ Q.T
    diam = max(dbody.diameter if diameter is None else diameter, 1e-300)
    rho = dbody.densities
    w = dbody.weights
    err = 0.0
    for src, dst in ((mapped, x), (x, mapped)):
        dist, idx = nearest_neighbors(dst, src)
        idx = idx[:, 0]
        err = max(err, float(dist.max()))
        err = max(err, diam * float(np.abs(rho - rho[idx]).max() / rho.max()))
        err = max(err, diam * float(np.abs(w - w[idx]).max() / w.max()))
    return err


def check_transform_law(res: ResistanceSet, Q):
    """Relative residuals of K, B, C against their transformation law under Q.

    The C residual is scaled by max(|C|, |K|) so it stays meaningful when C
    is numerically zero.
    """
    Q = ensure_orthogonal(Q)
    det = float(np.linalg.det(Q))
    norm_k = np.linalg.norm(res.K)
    norm_b = np.linalg.norm(res.B)
    res_k = np.linalg.norm(res.K - Q.T @ res.K @ Q) / max(norm_k, 1e-300)
    res_b = np.linalg.norm(res.B - Q.T @ res.B @ Q) / max(norm_b, 1e-300)
    res_c = np.linalg.norm(res.C - det * (Q.T @ res.C @ Q)) / max(
        np.linalg.norm(res.C), norm_k, 1e-300
    )
    return float(res_k), float(res_b), float(res_c)


def check_plane_pattern(res: ResistanceSet, normal_axis: int, tol: float = 1e-8) -> bool:
    """True iff the zero pattern of a plane of symmetry holds to tol * |A|."""
    n, p, q = _axes(normal_axis)
    scale = np.linalg.norm(res.A)
    if scale == 0.0:
        return True
    bound = tol * scale
    entries = []
    for m in (res.K, res.B):
        entries += [m[n, p], m[n, q], m[p, n], m[q, n]]
    entries += [res.C[0, 0], res.C[1, 1], res.C[2, 2], res.C[p, q], res.C[q, p]]
    return bool(np.max(np.abs(entries)) < bound)


def check_helicoidal_pattern(res: ResistanceSet, axis: int, tol: float = 1e-8) -> bool:
    """True iff the axisymmetric pattern of helicoidal symmetry holds to tol * |A|.

    K and B must be diagonal with equal transverse entries; C must vanish
    off the axis block, have equal transverse diagonal entries and an
    antisymmetric transverse pair.
    """
    n, p, q = _axes(axis)
    scale = np.linalg.norm(res.A)
    if scale == 0.0:
        return True
    bound = tol * scale
    entries = []
    for m in (res.K, res.B):
        off = m - np.diag(np.diag(m))
        entries += list(off.ravel())
        entries += [m[p, p] - m[q, q]]
    c = res.C
    entries += [c[n, p], c[n, q], c[p, n], c[q, n], c[p, q] + c[q, p], c[p, p] - c[q, q]]
    return bool(np.max(np.abs(entries)) < bound)


def translational_orientation_plane(res: ResistanceSet, tol: float = 1e-8):
    """Gravity direction of a purely translational fall for det C = 0 bodies.

    Returns (g, nullity) where g = K u0 / |K u0| for u0 the right singular
    direction of C with (near-)zero singular value, and nullity counts the
    numerically zero singular values.  For C = 0 (nullity 3) every
    orientation works and the x3 axis is returned.  Raises
    NoTranslationalOrientation when C is far from singular.
    """
    scale = np.linalg.norm(res.A)
    _, sv, vt = np.linalg.svd(res.C)
    bound = tol * max(scale, 1e-300)
    nullity = int(np.sum(sv < bound))
    if nullity == 0:
        raise NoTranslationalOrientation(
            f"coupling tensor has no null direction (sigma_min = {sv[-1]:.3e}, "
            f"threshold {bound:.3e})"
        )
    if nullity == 3:
        return np.array([0.0, 0.0, 1.0]), nullity
    u0 = vt[-1]
    g = res.K @ u0
    g = g / np.linalg.norm(g)
    pivot = int(np.argmax(np.abs(g)))
    if g[pivot] < 0.0:  # deterministic sign
        g = -g
    return g, nullity


@dataclass(eq=False)
class SymmetryReport:
    """Outcome of the symmetry checks requested for one body."""

    Q: np.ndarray | None
    det: float | None
    invariance_error: float | None
    invariant: bool | None
    tensor_residuals: tuple[float, float, float] | None
    plane_axis: int | None = None
    plane_pattern: bool | None = None
    heli_axis: int | None = None
    heli_pattern: bool | None = None
    fore_aft: bool | None = None
    translational_g: np.ndarray | None = None
    coupling_nullity: int | None = None


def symmetry_report(
    dbody: DiscretizedBody,
    res: ResistanceSet,
    Q=None,
    plane_axis: int | None = None,
    heli_axis: int | None = None,
    tol: float = 1e-8,
) -> SymmetryReport:
    """Run the requested symmetry checks and bundle the results."""
    report = SymmetryReport(
        Q=None, det=None, invariance_error=None, invariant=None, tensor_residuals=None
    )
    if Q is not None:
        Q = ensure_orthogonal(Q)
        report.Q = Q
        report.det = float(np.linalg.det(Q))
        diam = dbody.diameter
        report.invariance_error = check_geometric_invariance(dbody, Q, diam)
        report.invariant = report.invariance_error < _INVARIANCE_RTOL * max(diam, 1e-300)
        report.tensor_residuals = check_transform_law(res, Q)
    if plane_axis is not None:
        report.plane_axis = plane_axis
        report.plane_pattern = check_plane_pattern(res, plane_axis, tol)
    if heli_axis is not None:
        report.heli_axis = heli_axis
        report.heli_pattern = check_helicoidal_pattern(res, heli_axis, tol)
    if plane_axis is not None and heli_axis is not None and plane_axis == heli_axis:
        report.fore_aft = bool(report.plane_pattern and report.heli_pattern)
    try:
        g, nullity = translational_orientation_plane(res, tol)
        report.translational_g = g
        report.coupling_nullity = nullity
    except NoTranslationalOrientation:  # translational_g stays None
        report.coupling_nullity = 0
    return report
