"""One-dimensional rigid bodies: polyline segments, mass accounting, quadrature.

A body is a finite union of polyline segments with piecewise-constant linear
mass density.  Smooth shapes (e.g. the helix) are pre-sampled into polylines
by their builders, which keeps line integrals and symmetry detection exact.

All downstream solvers work in the co-moving frame with the center of mass
at the origin; :func:`discretize` enforces that centering on its quadrature
nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, cos, pi, sin, sqrt

import numpy as np

from .errors import BodyConfigError, InvalidArgument

__all__ = [
    "Segment",
    "BodyGeometry",
    "MassProperties",
    "DiscretizedBody",
    "Involution",
    "mass_properties",
    "total_length",
    "diameter",
    "transform",
    "discretize",
    "ensure_orthogonal",
    "find_involution",
    "nearest_neighbors",
    "rod",
    "bent_rod",
    "tripod_tetrahedron",
    "octahedron_frame",
    "helix",
]

_ORTHO_TOL = 1e-12
_DIAMETER_CHUNK_PAIRS = 250_000
_NEIGHBOR_CHUNK_PAIRS = 250_000
_INVOLUTION_RTOL = 1e-12  # node positions match to this fraction of the cloud's radius
_INVOLUTION_CANDIDATES = 64  # anchor images tried before giving up
_INVOLUTION_SCREEN = 16  # about this many nodes checked before a candidate gets the full match


@dataclass(frozen=True, eq=False)
class Segment:
    """Polyline with a positive density per edge.

    ``density`` may be given as a single scalar (applied to every edge) or
    as one value per edge.
    """

    points: np.ndarray
    density: np.ndarray = field(default=1.0)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise BodyConfigError(
                f"segment needs >= 2 points of dimension 3, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise BodyConfigError("segment contains non-finite coordinates")
        edges = np.diff(pts, axis=0)
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths == 0.0):
            raise BodyConfigError("segment has consecutive duplicate points")
        dens = np.asarray(self.density, dtype=float)
        if dens.ndim == 0:
            dens = np.full(len(lengths), float(dens))
        if dens.shape != (len(lengths),):
            raise BodyConfigError(
                f"density must be scalar or one value per edge "
                f"({len(lengths)} edges), got shape {dens.shape}"
            )
        if not np.all(np.isfinite(dens)) or np.any(dens <= 0.0):
            raise BodyConfigError("density values must be positive and finite")
        pts = pts.copy()
        dens = dens.copy()
        pts.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "density", dens)

    @property
    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.points, axis=0), axis=1)


@dataclass(frozen=True, eq=False)
class BodyGeometry:
    """A rigid body: named collection of segments plus its complementary mass.

    ``m_c`` is the mass of fluid displaced by the idealized body (used for
    buoyancy); it must not exceed the body mass.
    """

    name: str
    segments: tuple[Segment, ...]
    m_c: float = 0.0

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise BodyConfigError("body needs at least one segment")
        if not all(isinstance(s, Segment) for s in segs):
            raise BodyConfigError("segments must be Segment instances")
        if not (np.isfinite(self.m_c) and self.m_c >= 0.0):
            raise BodyConfigError(f"m_c must be >= 0, got {self.m_c}")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "m_c", float(self.m_c))


@dataclass(frozen=True, eq=False)
class MassProperties:
    """Mass, first moments and derived buoyancy data of a body.

    ``r`` is the centroid (uniform-density center) minus the center of mass,
    expressed in the co-moving frame; it vanishes for uniform densities.
    """

    m: float
    m_c: float
    m_e: float
    center_of_mass: np.ndarray
    centroid: np.ndarray
    r: np.ndarray
    total_length: float


@dataclass(frozen=True, eq=False)
class DiscretizedBody:
    """Midpoint-rule quadrature of a body, centered at its center of mass.

    nodes      (N, 3) element midpoints in the co-moving frame
    weights    (N,) element arc lengths
    densities  (N,) linear density at each node
    """

    name: str
    nodes: np.ndarray
    weights: np.ndarray
    densities: np.ndarray
    mass: MassProperties
    resolution: float

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def diameter(self) -> float:
        return _cloud_diameter(self.nodes)

    @cached_property
    def involution(self) -> Involution | None:
        """The point-free involution of the nodes (:func:`find_involution`), or None."""
        return find_involution(self.nodes, self.weights)


@dataclass(frozen=True, eq=False)
class Involution:
    """An affine map x -> c + Q (x - c) that permutes the nodes without fixing any.

    Q is symmetric orthogonal and not the identity (a C2 rotation, a mirror
    or the inversion); node k maps onto node ``sigma[k]`` != k, with
    ``sigma[sigma[k]] == k`` and equal weights.
    """

    Q: np.ndarray
    sigma: np.ndarray


def _edges(body: BodyGeometry):
    """Yield (p0, p1, rho) for every edge of every segment."""
    for seg in body.segments:
        pts = seg.points
        for i, rho in enumerate(seg.density):
            yield pts[i], pts[i + 1], rho


def _cloud_diameter(points: np.ndarray) -> float:
    """Largest pairwise distance, over row chunks of about 250k pairs each."""
    n = len(points)
    chunk = max(1, _DIAMETER_CHUNK_PAIRS // n)
    d2 = max(
        np.sum((points[lo : lo + chunk, None, :] - points[None, :, :]) ** 2, axis=-1).max()
        for lo in range(0, n, chunk)
    )
    return float(np.sqrt(d2))


def nearest_neighbors(points, queries, k: int = 1):
    """Exact k nearest ``points`` of each query: (distances, indices), each (m, k).

    Rows are in ascending distance.  The points are sorted along their
    widest coordinate, and each query first looks only at a window of 2h
    points around its own place in that order.  Every point outside the
    window is at least as far along the coordinate as the window's edges,
    so the window's k nearest are the true ones when the k-th distance is
    below that gap; the remaining queries try again with h doubled.  Work
    proceeds in row chunks of at most about 250k query-point pairs, so the
    memory does not grow with the number of points.
    """
    points = np.asarray(points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n = len(points)
    if not 1 <= k <= n:
        raise InvalidArgument(f"cannot find {k} neighbors among {n} points")
    axis = int(np.argmax(np.ptp(points, axis=0)))
    order = np.argsort(points[:, axis], kind="stable")
    coords = points[order].T.copy()  # one contiguous row per coordinate
    zs = coords[axis]
    zq = queries[:, axis]
    place = np.searchsorted(zs, zq)
    d2_out = np.empty((len(queries), k))
    idx_out = np.empty((len(queries), k), dtype=np.intp)
    todo = np.arange(len(queries))
    half = 2 * k
    while todo.size:
        width = min(2 * half, n)
        rows = max(1, _NEIGHBOR_CHUNK_PAIRS // width)
        retry = []
        for lo in range(0, todo.size, rows):
            q = todo[lo:lo + rows]
            start = np.clip(place[q] - half, 0, n - width)
            window = start[:, None] + np.arange(width)
            d2 = np.zeros(window.shape)
            for c, qc in zip(coords, queries[q].T):
                diff = c[window] - qc[:, None]
                d2 += diff * diff
            near = np.argpartition(d2, k - 1, axis=1)[:, :k]
            near_d2 = np.take_along_axis(d2, near, axis=1)
            by_distance = np.argsort(near_d2, axis=1, kind="stable")
            near = np.take_along_axis(near, by_distance, axis=1)
            near_d2 = np.take_along_axis(near_d2, by_distance, axis=1)
            end = start + width
            gap = np.minimum(
                np.where(start > 0, zq[q] - zs[np.maximum(start - 1, 0)], np.inf),
                np.where(end < n, zs[np.minimum(end, n - 1)] - zq[q], np.inf),
            )
            done = (near_d2[:, -1] < gap * gap) | (width == n)
            d2_out[q[done]] = near_d2[done]
            idx_out[q[done]] = start[done, None] + near[done]
            retry.append(q[~done])
        todo = np.concatenate(retry)
        half *= 2
    return np.sqrt(d2_out), order[idx_out]


def _frame(u: np.ndarray, v: np.ndarray, handedness: float = 1.0) -> np.ndarray:
    """Rows e1 || u, e2 in the plane of u and v, e3 = handedness * e1 x e2."""
    e1 = u / np.linalg.norm(u)
    e2 = v - (v @ e1) * e1
    e2 /= np.linalg.norm(e2)
    return np.array([e1, e2, handedness * np.cross(e1, e2)])


_SKEW = _frame(np.array([1.0, 0.618, 0.382]), np.array([0.2, 1.0, 0.7])).T


def find_involution(nodes, weights) -> Involution | None:
    """A point-free affine involution of the weighted node set, or None.

    The centre c is the weight centroid.  Q is pinned by two anchors: the
    farthest node a from c and the node b farthest from the line through c
    and a (ties go to the lowest index, so the anchors do not depend on
    roundoff).  Each image a' of equal radius and weight, and each image b'
    of equal radius, weight and dot product with a', gives a proper and an
    improper candidate mapping the frame of (a, b) onto that of (a', b').
    A candidate must be symmetric, then map a few screening nodes onto
    other nodes of equal weight (O(N) each), and only then all of them:
    positions to 1e-12 of the cloud's radius, weights to 1e-12 relative.
    Candidates are tried in index order and at most 64 of them, so the
    choice is deterministic.  Collinear and odd-sized node sets have none
    that this search can pin down.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(x)
    if n < 2 or n % 2:
        return None
    y = x - w @ x / w.sum()
    r = np.sqrt(np.einsum("ij,ij->i", y, y))
    size = r.max()
    tol = _INVOLUTION_RTOL * size
    wtol = _INVOLUTION_RTOL * w.max()
    a = int(np.argmax(r >= size - tol))
    lever = np.linalg.norm(np.cross(y[a] / r[a], y), axis=1)
    if lever.max() <= tol:
        return None
    b = int(np.argmax(lever >= lever.max() - tol))
    frame = _frame(y[a], y[b])
    screen = np.arange(0, n, max(1, n // _INVOLUTION_SCREEN))

    def like(k):
        return (np.abs(r - r[k]) <= tol) & (np.abs(w - w[k]) <= wtol)

    def passes_screen(q):
        d2 = (((y[screen] @ q)[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
        near = d2.argmin(axis=1)
        return bool(np.all((d2[np.arange(len(screen)), near] <= tol * tol)
                           & (near != screen) & (np.abs(w[near] - w[screen]) <= wtol)))

    like_b = like(b)
    tried = 0
    for a2 in np.flatnonzero(like(a)):
        if a2 == a:
            continue
        dots = np.abs(y @ y[a2] - y[a] @ y[b]) <= tol * size
        for b2 in np.flatnonzero(like_b & dots):
            if b2 in (a2, b):
                continue
            for handedness in (1.0, -1.0):
                if tried == _INVOLUTION_CANDIDATES:
                    return None
                tried += 1
                q = _frame(y[a2], y[b2], handedness).T @ frame
                if np.abs(q - q.T).max() > 1e-9:  # an orthogonal involution is symmetric
                    continue
                q = 0.5 * (q + q.T)
                if not passes_screen(q):
                    continue
                # in a skew frame, as axis-aligned bodies tie on the search's sort coordinate
                dist, idx = nearest_neighbors(y @ _SKEW, y @ q @ _SKEW)
                sigma = idx[:, 0]
                if (dist.max() <= tol and np.all(sigma != np.arange(n))
                        and np.array_equal(sigma[sigma], np.arange(n))
                        and np.abs(w[sigma] - w).max() <= wtol):
                    q.setflags(write=False)
                    sigma.setflags(write=False)
                    return Involution(Q=q, sigma=sigma)
    return None


def total_length(body: BodyGeometry) -> float:
    """Total arc length of the body."""
    return float(sum(np.linalg.norm(p1 - p0) for p0, p1, _ in _edges(body)))


def diameter(body: BodyGeometry) -> float:
    """Largest distance between any two polyline vertices."""
    return _cloud_diameter(np.vstack([s.points for s in body.segments]))


def mass_properties(body: BodyGeometry) -> MassProperties:
    """Exact line integrals of the piecewise-linear, piecewise-constant body.

    Each edge contributes rho * L to the mass and rho * L * midpoint to the
    first moment, which is exact for linear geometry.
    """
    m = 0.0
    length = 0.0
    moment = np.zeros(3)
    geo_moment = np.zeros(3)
    for p0, p1, rho in _edges(body):
        ell = float(np.linalg.norm(p1 - p0))
        mid = 0.5 * (p0 + p1)
        m += rho * ell
        length += ell
        moment += rho * ell * mid
        geo_moment += ell * mid
    com = moment / m
    centroid = geo_moment / length
    if body.m_c > m:
        raise BodyConfigError(
            f"complementary mass m_c={body.m_c} exceeds body mass m={m}"
        )
    return MassProperties(
        m=m,
        m_c=body.m_c,
        m_e=m - body.m_c,
        center_of_mass=com,
        centroid=centroid,
        r=centroid - com,
        total_length=length,
    )


def ensure_orthogonal(Q) -> np.ndarray:
    """Validate Q^T Q = I to 1e-12 and return Q as a float array."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3) or not np.all(np.isfinite(Q)):
        raise InvalidArgument(f"expected a finite 3x3 matrix, got shape {Q.shape}")
    dev = np.abs(Q.T @ Q - np.eye(3)).max()
    if dev > _ORTHO_TOL:
        raise InvalidArgument(f"matrix is not orthogonal (|Q^T Q - I| = {dev:.2e})")
    return Q


def transform(body: BodyGeometry, Q, t=(0.0, 0.0, 0.0)) -> BodyGeometry:
    """Rigidly map every point p -> Q p + t; densities and m_c unchanged."""
    Q = ensure_orthogonal(Q)
    t = np.asarray(t, dtype=float)
    segs = tuple(
        Segment(points=seg.points @ Q.T + t, density=seg.density)
        for seg in body.segments
    )
    return BodyGeometry(name=body.name, segments=segs, m_c=body.m_c)


def _warn_if_disconnected(body: BodyGeometry) -> None:
    """Multi-segment bodies are expected to be connected; warn otherwise."""
    n = len(body.segments)
    if n <= 1:
        return
    tol = 1e-9 * max(diameter(body), 1e-300)
    ends = [(s.points[0], s.points[-1]) for s in body.segments]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        pts_i = np.vstack(ends[i])
        for j in range(i + 1, n):
            pts_j = np.vstack(ends[j])
            gap = np.linalg.norm(pts_i[:, None, :] - pts_j[None, :, :], axis=-1).min()
            if gap <= tol:
                parent[find(i)] = find(j)
    if len({find(i) for i in range(n)}) > 1:
        warnings.warn(
            f"body '{body.name}' has disconnected segments; the solver still "
            "works but the underlying model assumes a connected body",
            stacklevel=3,
        )


def discretize(body: BodyGeometry, resolution: float) -> DiscretizedBody:
    """Composite-midpoint quadrature with at least ``resolution`` nodes per unit length.

    Every edge is split uniformly into ceil(length * resolution) elements,
    one node per element midpoint, weight = element length.  The product is
    shrunk by 1e-12 relative before rounding up, so a length that roundoff
    (e.g. from a rotation) puts one ulp above an integer count keeps that
    count.  Midpoint nodes avoid duplicated junction points where segments
    meet, so the kernel matrix never sees coincident nodes.  The node set is
    finally shifted so the density-weighted center of mass sits at the origin.
    """
    if not (np.isfinite(resolution) and resolution > 0.0):
        raise InvalidArgument(f"resolution must be positive, got {resolution}")
    _warn_if_disconnected(body)
    mass = mass_properties(body)
    nodes = []
    weights = []
    densities = []
    for p0, p1, rho in _edges(body):
        ell = float(np.linalg.norm(p1 - p0))
        n = max(1, ceil(ell * resolution * (1.0 - 1e-12)))
        t = (np.arange(n) + 0.5) / n
        nodes.append(p0 + t[:, None] * (p1 - p0))
        weights.append(np.full(n, ell / n))
        densities.append(np.full(n, rho))
    x = np.vstack(nodes)
    w = np.concatenate(weights)
    rho = np.concatenate(densities)
    x = x - (w * rho) @ x / float(np.sum(w * rho))
    x.setflags(write=False)
    w.setflags(write=False)
    rho.setflags(write=False)
    return DiscretizedBody(
        name=body.name,
        nodes=x,
        weights=w,
        densities=rho,
        mass=mass,
        resolution=float(resolution),
    )


def _require_positive(**dims) -> None:
    for name, val in dims.items():
        if not (np.isfinite(val) and val > 0.0):
            raise InvalidArgument(f"{name} must be positive, got {val}")


def rod(length: float) -> BodyGeometry:
    """Straight uniform rod along x1, centered at the origin."""
    _require_positive(length=length)
    pts = np.array([[-0.5 * length, 0.0, 0.0], [0.5 * length, 0.0, 0.0]])
    return BodyGeometry(name="rod", segments=(Segment(points=pts),))


def bent_rod(angle_deg: float, arm_length: float) -> BodyGeometry:
    """Two equal arms joined at ``angle_deg``, lying in the x2-x3 plane.

    The bend is symmetric about the x3 axis, so the body has both x2-x3
    (it is planar) and x1-x3 as planes of symmetry.
    """
    _require_positive(angle_deg=angle_deg, arm_length=arm_length)
    if angle_deg >= 180.0:
        raise InvalidArgument(f"opening angle must be < 180 deg, got {angle_deg}")
    half = 0.5 * angle_deg * pi / 180.0
    a = arm_length * sin(half)
    b = arm_length * cos(half)
    pts = np.array([[0.0, -a, b], [0.0, 0.0, 0.0], [0.0, a, b]])
    pts = pts - np.array([0.0, 0.0, 0.5 * b])  # uniform center to origin
    return BodyGeometry(name="bent_rod", segments=(Segment(points=pts),))


def tripod_tetrahedron(edge: float) -> BodyGeometry:
    """Three concurrent edges of a regular tetrahedron, apex on the x1 axis.

    Invariant under the rotation by 2*pi/3 about x1 (helicoidal symmetry of
    order 3).
    """
    _require_positive(edge=edge)
    h = edge * sqrt(2.0 / 3.0)
    rb = edge / sqrt(3.0)
    apex = np.array([0.5 * h, 0.0, 0.0])
    segs = []
    for k in range(3):
        ang = 2.0 * pi * k / 3.0
        base = np.array([-0.5 * h, rb * cos(ang), rb * sin(ang)])
        segs.append(Segment(points=np.array([apex, base])))
    return BodyGeometry(name="tripod_tetrahedron", segments=tuple(segs))


def octahedron_frame(edge: float) -> BodyGeometry:
    """Wire frame of the 12 edges of a regular octahedron, vertices on the axes.

    Helicoidally symmetric about every coordinate axis and fore-aft
    symmetric, so its coupling tensor vanishes.
    """
    _require_positive(edge=edge)
    c = edge / sqrt(2.0)
    verts = c * np.array(
        [
            [1, 0, 0],
            [-1, 0, 0],
            [0, 1, 0],
            [0, -1, 0],
            [0, 0, 1],
            [0, 0, -1],
        ],
        dtype=float,
    )
    segs = []
    for i in range(6):
        for j in range(i + 1, 6):
            if abs(np.linalg.norm(verts[i] - verts[j]) - edge) < 1e-12 * edge:
                segs.append(Segment(points=np.array([verts[i], verts[j]])))
    return BodyGeometry(name="octahedron_frame", segments=tuple(segs))


def helix(radius: float, pitch: float, turns: float, samples_per_turn: int = 16) -> BodyGeometry:
    """Circular helix along x1, pre-sampled as a polyline.

    ``pitch`` is the axial advance per full turn.  The polyline resolution
    (``samples_per_turn``) fixes the shape; :func:`discretize` refines the
    quadrature on top of it.
    """
    _require_positive(radius=radius, pitch=pitch, turns=turns)
    if samples_per_turn < 4:
        raise InvalidArgument("samples_per_turn must be >= 4")
    n = int(round(samples_per_turn * turns))
    t = np.linspace(0.0, 2.0 * pi * turns, n + 1)
    pts = np.stack(
        [
            pitch * t / (2.0 * pi) - 0.5 * pitch * turns,
            radius * np.cos(t),
            radius * np.sin(t),
        ],
        axis=1,
    )
    return BodyGeometry(name="helix", segments=(Segment(points=pts),))
