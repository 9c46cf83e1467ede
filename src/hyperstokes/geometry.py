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
from itertools import combinations, islice
from math import ceil, cos, pi, sin, sqrt

import numpy as np

from .errors import BodyConfigError, InvalidArgument, _check_memory, _require_positive

__all__ = [
    "Segment",
    "BodyGeometry",
    "Edges",
    "MassProperties",
    "DiscretizedBody",
    "Involution",
    "mass_properties",
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
_NODE_BYTES = 100  # a node's position, weight and density, with the temporaries that build them
_CHUNK_PAIRS = 250_000  # point pairs per step of the diameter, neighbour and touch searches
_INVOLUTION_RTOL = 1e-12  # node positions match to this fraction of the cloud's radius
_INVOLUTION_CANDIDATES = 64  # anchor images tried before giving up
_INVOLUTION_SCREEN = 16  # about this many nodes checked before a candidate gets the full match
_HELIX_SAMPLES_PER_TURN = 16  # polyline edges per turn of a helix
# a unit vector normal to no difference of small-integer lattice points
_SORT_DIRECTION = np.array([0.7548776662466928, 0.5698402909980533, 0.32471795724474606])


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
        with np.errstate(over="ignore"):  # an overflow is refused below
            lengths = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if not np.all(np.isfinite(lengths)):
            raise BodyConfigError("segment has an edge whose length overflows a float")
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
        for name, array in (("points", pts.copy()), ("density", dens.copy())):
            array.setflags(write=False)
            object.__setattr__(self, name, array)


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

    @cached_property
    def edges(self) -> Edges:
        """The body's edge table, built on first read; every walk over the edges reads it."""
        segs = self.segments
        p0, p1 = np.vstack([s.points[:-1] for s in segs]), np.vstack([s.points[1:] for s in segs])
        table = Edges(p0, p1, np.concatenate([s.density for s in segs]),
                      np.array([np.linalg.norm(step) for step in p1 - p0]),
                      np.repeat(np.arange(len(segs)), [len(s.density) for s in segs]))
        for array in vars(table).values():
            array.setflags(write=False)
        return table


@dataclass(frozen=True, eq=False)
class Edges:
    """The straight edges of a body, one read-only row each, segment after segment."""

    p0: np.ndarray  # (E, 3) where each edge starts
    p1: np.ndarray  # (E, 3) where it ends
    density: np.ndarray  # (E,) its linear density
    length: np.ndarray  # (E,) norm of each p1 - p0 alone; an axis-wise norm rounds otherwise
    segment: np.ndarray  # (E,) the index of its segment in BodyGeometry.segments


@dataclass(frozen=True, eq=False)
class MassProperties:
    """Mass, first moments and derived buoyancy data of a body.

    The excess mass ``m_e`` = m - m_c and ``r``, the centroid (uniform-density
    center) minus the center of mass in the co-moving frame, are computed on
    each read; ``r`` vanishes for uniform densities.
    """

    m: float
    m_c: float
    center_of_mass: np.ndarray
    centroid: np.ndarray
    total_length: float

    m_e = property(lambda self: self.m - self.m_c)
    r = property(lambda self: self.centroid - self.center_of_mass)


@dataclass(frozen=True, eq=False)
class DiscretizedBody:
    """Midpoint-rule quadrature of a body, centered at its center of mass.

    nodes      (N, 3) element midpoints in the co-moving frame
    weights    (N,) element arc lengths
    densities  (N,) linear density at each node
    """

    nodes: np.ndarray
    weights: np.ndarray
    densities: np.ndarray
    mass: MassProperties

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def diameter(self) -> float:
        return _cloud_diameter(self.nodes)

    @cached_property
    def involution(self) -> Involution | None:
        """The involution of the nodes (:func:`find_involution`), or None.

        Its node pairs and fixed nodes are the orbits of the solver's
        symmetry split; a body without one is split by
        :meth:`Involution.identity`, every node fixed.
        """
        return find_involution(self.nodes, self.weights)


@dataclass(frozen=True, eq=False)
class Involution:
    """An affine map x -> c + Q (x - c) that permutes the nodes.

    Q is symmetric orthogonal (the identity, a C2 rotation, a mirror or the
    inversion); node k maps onto node ``sigma[k]`` of equal weight, with
    ``sigma[sigma[k]] == k``.  Its orbits are node pairs k != sigma(k) and
    fixed nodes sigma(k) = k; :func:`find_involution` only returns maps that
    move at least one pair, and :meth:`identity` is the map that fixes all.
    """

    Q: np.ndarray
    sigma: np.ndarray

    @classmethod
    def identity(cls, n: int) -> Involution:
        """Q = I and every one of the ``n`` nodes fixed: the split of a body without symmetry."""
        return cls(Q=np.eye(3), sigma=np.arange(n))


def _cloud_diameter(points: np.ndarray) -> float:
    """Largest pairwise distance, over row chunks of about 250k pairs each.

    Squared differences are summed one contiguous coordinate row at a time,
    x then y then z: the bits of a sum over a trailing axis of three, faster.
    """
    coords = np.asarray(points, dtype=float).T.copy()
    n = coords.shape[1]
    chunk = max(1, _CHUNK_PAIRS // n)
    d2 = 0.0
    for lo in range(0, n, chunk):
        block = np.zeros((min(chunk, n - lo), n))
        for c in coords:
            diff = c[lo:lo + chunk, None] - c
            block += np.square(diff, out=diff)
        d2 = max(d2, block.max())
    return float(np.sqrt(d2))


def nearest_neighbors(points, queries, k: int = 1):
    """Exact k nearest ``points`` of each query: (distances, indices), each (m, k).

    Rows are in ascending distance.  The points are sorted along a fixed
    generic direction (on a coordinate, axis-aligned bodies tie by the
    hundreds), and each query first looks only at a window of 2h points
    around its own place in that order.  Every point outside the window is
    at least as far along the direction as the window's edges, so the
    window's k nearest are the true ones when the k-th distance is below
    that gap less roundoff; the remaining queries try again with h doubled.
    Work proceeds in row chunks of at most about 250k query-point pairs, so
    the memory does not grow with the number of points.
    """
    points = np.asarray(points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n = len(points)
    if not 1 <= k <= n:
        raise InvalidArgument(f"cannot find {k} neighbors among {n} points")
    proj = points @ _SORT_DIRECTION
    order = np.argsort(proj, kind="stable")
    coords = points[order].T.copy()  # one contiguous row per coordinate
    zs = proj[order]
    zq = queries @ _SORT_DIRECTION
    slack = 16 * np.finfo(float).eps * (np.abs(points).max() + np.abs(queries).max(initial=0.0))
    place = np.searchsorted(zs, zq)
    d2_out = np.empty((len(queries), k))
    idx_out = np.empty((len(queries), k), dtype=np.intp)
    todo = np.arange(len(queries))
    half = 2 * k
    while todo.size:
        width = min(2 * half, n)
        rows = max(1, _CHUNK_PAIRS // width)
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
            gap = np.maximum(gap - slack, 0.0)
            done = (near_d2[:, -1] < gap * gap) | (width == n)
            d2_out[q[done]] = near_d2[done]
            idx_out[q[done]] = start[done, None] + near[done]
            retry.append(q[~done])
        todo = np.concatenate(retry)
        half *= 2
    return np.sqrt(d2_out), order[idx_out]


def find_involution(nodes, weights) -> Involution | None:
    """An affine involution of the weighted node set that moves a node, or None.

    The centre c is the weight centroid and the anchor a the node farthest
    from it (the lowest index among ties, so roundoff does not move it).
    For u = a - c and v = a' - c, a' any other node of equal radius and
    weight, the symmetric orthogonal Q != I with Q u = v are the mirror with
    normal u - v, the half-turn about u + v (the inversion if v = -u) and,
    if v = -u, the half-turns about axes normal to u, which are not tried.
    At most 64 candidates are tried, in index order of a'.  Each must map a
    few screening nodes, then all of them, onto nodes of equal weight:
    positions to 1e-12 of the cloud's radius, weights to 1e-12 relative.
    A node may map onto itself (it lies on the mirror, the axis or the
    centre), and a moves, so every map found moves at least one pair.  The
    first point-free map ends the search, so a body that has one gets it;
    otherwise the map that fixes the fewest nodes is returned, the first
    among ties.  An involution that fixes a is not found.
    """
    x = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(x)
    if n < 2:
        return None
    y = x - w @ x / w.sum()
    r = np.sqrt(np.einsum("ij,ij->i", y, y))
    tol = _INVOLUTION_RTOL * r.max()
    wtol = _INVOLUTION_RTOL * w.max()
    a = int(np.argmax(r >= r.max() - tol))
    everyone = np.arange(n)

    def images(q, rows):
        """sigma on ``rows`` if q maps each onto a node of equal weight, else None."""
        dist, idx = nearest_neighbors(y, y[rows] @ q)
        sigma = idx[:, 0]
        ok = dist.max() <= tol and np.abs(w[sigma] - w[rows]).max() <= wtol
        return sigma if ok else None

    def candidates():
        eye = np.eye(3)
        for a2 in np.flatnonzero((np.abs(r - r[a]) <= tol) & (np.abs(w - w[a]) <= wtol)):
            d, s = y[a] - y[a2], y[a] + y[a2]
            if d @ d > tol * tol:  # neither a itself nor a node on top of it
                yield eye - (2.0 / (d @ d)) * np.outer(d, d)
                yield -eye if s @ s <= tol * tol else (2.0 / (s @ s)) * np.outer(s, s) - eye

    best, best_fixed = None, n
    for q in islice(candidates(), _INVOLUTION_CANDIDATES):
        if images(q, everyone[::max(1, n // _INVOLUTION_SCREEN)]) is None:
            continue
        sigma = images(q, everyone)
        if sigma is None or not np.array_equal(sigma[sigma], everyone):
            continue
        fixed = int(np.count_nonzero(sigma == everyone))
        if fixed < best_fixed:
            q.setflags(write=False)
            sigma.setflags(write=False)
            best, best_fixed = Involution(Q=q, sigma=sigma), fixed
            if fixed == 0:
                break
    return best


def diameter(body: BodyGeometry) -> float:
    """Largest distance between any two polyline vertices."""
    return _cloud_diameter(np.vstack([s.points for s in body.segments]))


def mass_properties(body: BodyGeometry) -> MassProperties:
    """Exact line integrals of the piecewise-linear, piecewise-constant body.

    Each edge contributes rho * L to the mass and rho * L * midpoint to the
    first moment, which is exact for linear geometry.  Raises BodyConfigError
    when the mass, the length or a moment overflows a float.
    """
    edges = body.edges
    m = length = 0.0
    moment, geo_moment = np.zeros(3), np.zeros(3)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for p0, p1, rho, ell in zip(edges.p0, edges.p1, edges.density, edges.length):
            mid = 0.5 * (p0 + p1)
            m += rho * ell
            length += ell
            moment += rho * ell * mid
            geo_moment += ell * mid
        com = moment / m
        centroid = geo_moment / length
        r = centroid - com
    if not np.all(np.isfinite([m, length, *com, *centroid, *r])):
        raise BodyConfigError(f"the body's mass {m}, length {length} or moments overflow a float")
    if body.m_c > m:
        raise BodyConfigError(
            f"complementary mass m_c={body.m_c} exceeds body mass m={m}"
        )
    return MassProperties(m=m, m_c=body.m_c, center_of_mass=com, centroid=centroid,
                          total_length=length)


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
    """Rigidly map every point p -> Q p + t; densities and m_c unchanged.

    Raises InvalidArgument unless Q is orthogonal and t a finite 3-vector.
    """
    Q = ensure_orthogonal(Q)
    t = np.asarray(t, dtype=float)
    if t.shape != (3,) or not np.all(np.isfinite(t)):
        raise InvalidArgument(f"translation must be a finite 3-vector, got {t}")
    segs = tuple(
        Segment(points=seg.points @ Q.T + t, density=seg.density)
        for seg in body.segments
    )
    return BodyGeometry(name=body.name, segments=segs, m_c=body.m_c)


def _warn_if_disconnected(body: BodyGeometry) -> None:
    """Warn unless the segments form one connected set.

    Two segments touch where an end of one lies within 1e-9 times the
    body's diameter of any point of the other (a vertex, the middle of an
    edge or an end), over row chunks of ends of about 250k end-edge pairs;
    a breadth-first sweep over the touches must reach every segment.
    """
    n = len(body.segments)
    if n <= 1:
        return
    tol = 1e-9 * max(diameter(body), 1e-300)
    ends = np.array([p for s in body.segments for p in (s.points[0], s.points[-1])])
    starts, steps = body.edges.p0, body.edges.p1 - body.edges.p0
    touch = np.zeros((n, n), dtype=bool)
    rows = max(1, _CHUNK_PAIRS // len(starts))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed distance touches nothing
        for lo in range(0, 2 * n, rows):
            rel = ends[lo:lo + rows, None] - starts
            t = np.clip((rel * steps).sum(axis=2) / (steps * steps).sum(axis=1), 0.0, 1.0)
            end, edge = np.nonzero(np.linalg.norm(rel - t[..., None] * steps, axis=2) <= tol)
            touch[(lo + end) // 2, body.edges.segment[edge]] = True
    touch |= touch.T
    reached = frontier = np.arange(n) == 0
    while frontier.any():
        frontier = touch[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    if not reached.all():
        warnings.warn(f"body '{body.name}' has disconnected segments; the solver still works "
                      "but the underlying model assumes a connected body", stacklevel=3)


def discretize(body: BodyGeometry, resolution: float) -> DiscretizedBody:
    """Composite-midpoint quadrature with at least ``resolution`` nodes per unit length.

    Every edge is split uniformly into ceil(length * resolution) elements,
    one node per element midpoint, weight = element length.  The product is
    shrunk by 1e-12 relative before rounding up, so a length that roundoff
    (e.g. from a rotation) puts one ulp above an integer count keeps that
    count.  Midpoint nodes avoid duplicated junction points where segments
    meet; overlapping segments still give coincident nodes, which assembly
    refuses.  The node set is finally shifted so the density-weighted center
    of mass sits at the origin.  A node count whose arrays would not fit in
    memory is refused with InvalidArgument before anything is allocated.
    """
    _require_positive(resolution=resolution)
    _warn_if_disconnected(body)
    mass = mass_properties(body)
    edges = body.edges
    with np.errstate(over="ignore"):  # an overflow is refused below
        sizes = (edges.length * resolution * (1.0 - 1e-12)).tolist()
    if not np.isfinite(sum(sizes)):
        raise InvalidArgument(f"resolution {resolution} asks for more nodes than a float counts")
    counts = [max(1, ceil(size)) for size in sizes]
    _check_memory(_NODE_BYTES * sum(counts), f"{sum(counts)} quadrature nodes need",
                  "lower the resolution", InvalidArgument)
    # node k of an edge split into n elements sits at t = (k + 0.5) / n along it
    k = np.arange(sum(counts)) - np.repeat(np.cumsum(counts) - counts, counts)
    t = (k + 0.5) / np.repeat(counts, counts)
    x = t[:, None] * np.repeat(edges.p1 - edges.p0, counts, axis=0)
    x += np.repeat(edges.p0, counts, axis=0)  # in place: one (N, 3) temporary fewer
    w = np.repeat(edges.length / counts, counts)
    rho = np.repeat(edges.density, counts)
    x -= (w * rho) @ x / float(np.sum(w * rho))
    for array in (x, w, rho):
        array.setflags(write=False)
    return DiscretizedBody(nodes=x, weights=w, densities=rho, mass=mass)


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
    segs = tuple(Segment(points=np.array([apex, [-0.5 * h, rb * cos(ang), rb * sin(ang)]]))
                 for ang in (2.0 * pi * k / 3.0 for k in range(3)))
    return BodyGeometry(name="tripod_tetrahedron", segments=segs)


def octahedron_frame(edge: float) -> BodyGeometry:
    """Wire frame of the 12 edges of a regular octahedron, vertices on the axes.

    Helicoidally symmetric about every coordinate axis and fore-aft
    symmetric, so its coupling tensor vanishes.
    """
    _require_positive(edge=edge)
    c = edge / sqrt(2.0)
    verts = c * np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                         dtype=float)
    # every pair of vertices is an edge but the three opposite ones, 2k and 2k + 1
    segs = tuple(Segment(points=verts[[i, j]])
                 for i, j in combinations(range(6), 2) if i // 2 != j // 2)
    return BodyGeometry(name="octahedron_frame", segments=segs)


def helix(radius: float, pitch: float, turns: float) -> BodyGeometry:
    """Circular helix along x1, pre-sampled as a polyline.

    ``pitch`` is the axial advance per full turn.  The polyline has
    ``_HELIX_SAMPLES_PER_TURN`` (16) edges per turn, rounded, and at least
    one edge; it fixes the shape, and :func:`discretize` refines the
    quadrature on top of it.  A polyline too large for memory (a sample costs
    about what a node does) is refused with InvalidArgument before sampling.
    """
    _require_positive(radius=radius, pitch=pitch, turns=turns)
    count = _HELIX_SAMPLES_PER_TURN * float(turns)  # inf for turns above about 1e307
    _check_memory(_NODE_BYTES * count, f"{count:.3g} helix edges need", "use fewer turns",
                  InvalidArgument)
    n = max(1, int(round(count)))
    t = np.linspace(0.0, 2.0 * pi * turns, n + 1)
    pts = np.stack([pitch * t / (2.0 * pi) - 0.5 * pitch * turns, radius * np.cos(t),
                    radius * np.sin(t)], axis=1)
    return BodyGeometry(name="helix", segments=(Segment(points=pts),))
