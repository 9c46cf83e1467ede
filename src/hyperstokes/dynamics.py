"""Quasi-steady orientation dynamics of a sedimenting body.

At every instant the force/torque balance A (xi; omega) = (m_e G; -m_c r x G)
fixes the rigid motion for the current gravity direction G (seen from the
body frame), and G itself evolves by the kinematic equation

    dG/dt = G x omega.

This module is a numerically independent validator of the steady-state
solver: fixed points of the orientation flow (G x omega(G) = 0) are exactly
the steady free-fall orientations.  The quasi-steady flow itself is an
extension of the steady theory -- inertia is dropped entirely, so only
fixed-point locations (not time scales) are compared against it.

|G| is a first integral of the kinematics; the classical 4th-order
Runge-Kutta step is followed by a renormalization, and the per-step
pre-renormalization drift is recorded as an order diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import InvalidArgument
from .freefall import FreefallInput, require_regular, skew
from .geometry import nearest_neighbors
from .mobility import _check_memory

__all__ = [
    "OrientationTrajectory",
    "FixedPointResult",
    "motion_operator",
    "instantaneous_motion",
    "check_time_grid",
    "check_grid_resolution",
    "integrate_orientation",
    "find_fixed_points",
    "fibonacci_sphere",
]


def motion_operator(inp: FreefallInput):
    """Matrices (L_xi, L_omega) with xi = L_xi G and omega = L_omega G."""
    a = require_regular(inp.resistance.A, "grand resistance matrix")
    rhs = np.vstack([inp.m_e * np.eye(3), -inp.m_c * skew(inp.r)])
    sol = np.linalg.solve(a, rhs)
    return sol[:3], sol[3:]


def instantaneous_motion(inp: FreefallInput, G):
    """Rigid motion (xi, omega) balancing gravity along G at this instant."""
    G = np.asarray(G, dtype=float)
    if G.shape != (3,) or not np.all(np.isfinite(G)):
        raise InvalidArgument("G must be a finite 3-vector")
    l_xi, l_omega = motion_operator(inp)
    return l_xi @ G, l_omega @ G


@dataclass(eq=False)
class OrientationTrajectory:
    """Time series of the body-frame gravity direction and rigid motion."""

    t: np.ndarray
    G: np.ndarray
    xi: np.ndarray
    omega: np.ndarray
    max_norm_drift: float  # max | |G(t)| - 1 | over stored (renormalized) samples
    max_step_drift: float  # max per-step drift before renormalization
    final_residual: float  # |G x omega| at the final time


_SAMPLE_BYTES = 80  # t, G, xi and omega of one stored step
_LATTICE_POINT_BYTES = 200  # a lattice point, its residual and its 7-neighbour table


def check_time_grid(dt: float, t_end: float) -> None:
    """Raise InvalidArgument unless dt and t_end are positive and finite and the samples fit."""
    if not (np.isfinite(dt) and dt > 0.0) or not (np.isfinite(t_end) and t_end > 0.0):
        raise InvalidArgument("dt and t_end must be positive")
    _check_memory(_SAMPLE_BYTES * (t_end / dt + 1.0),
                  f"a trajectory of {t_end / dt:.3g} steps needs",
                  "raise dt or lower t_end", InvalidArgument)


def integrate_orientation(
    inp: FreefallInput, G0, dt: float, t_end: float
) -> OrientationTrajectory:
    """Classical RK4 on dG/dt = G x omega(G), renormalizing after each step."""
    check_time_grid(dt, t_end)
    g = np.asarray(G0, dtype=float)
    if g.shape != (3,) or abs(np.linalg.norm(g) - 1.0) > 1e-8:
        raise InvalidArgument("G0 must be a unit 3-vector")
    g = g / np.linalg.norm(g)
    l_xi, l_omega = motion_operator(inp)

    def rhs(v):
        return np.cross(v, l_omega @ v)

    n_steps = max(1, int(round(t_end / dt)))
    ts = dt * np.arange(n_steps + 1)
    gs = np.empty((n_steps + 1, 3))
    gs[0] = g
    max_step_drift = 0.0
    for k in range(n_steps):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * dt * k1)
        k3 = rhs(g + 0.5 * dt * k2)
        k4 = rhs(g + dt * k3)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.linalg.norm(g)
        max_step_drift = max(max_step_drift, abs(norm - 1.0))
        g = g / norm
        gs[k + 1] = g
    xis = gs @ l_xi.T
    omegas = gs @ l_omega.T
    return OrientationTrajectory(
        t=ts,
        G=gs,
        xi=xis,
        omega=omegas,
        max_norm_drift=float(np.abs(np.linalg.norm(gs, axis=1) - 1.0).max()),
        max_step_drift=float(max_step_drift),
        final_residual=float(np.linalg.norm(np.cross(gs[-1], omegas[-1]))),
    )


def fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform lattice of n points on the unit sphere."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = pi * (3.0 - sqrt(5.0)) * i
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


@dataclass(eq=False)
class FixedPointResult:
    """Fixed points of the orientation flow, or the all-orientations flag."""

    points: list[tuple[np.ndarray, float]]
    all_orientations: bool
    threshold: float


_POLISH_STEPS = 6  # quadratic convergence reaches roundoff in about 4 steps


def _polish(g: np.ndarray, l_omega: np.ndarray) -> np.ndarray:
    """Refine a fixed-point candidate by projected Gauss-Newton steps on the sphere.

    The minimum-norm least-squares step for the Jacobian of g x L g on the
    tangent plane stays in that plane, so renormalizing is the only retraction.
    """
    for _ in range(_POLISH_STEPS):
        jac = (skew(g) @ l_omega - skew(l_omega @ g)) @ (np.eye(3) - np.outer(g, g))
        step = np.linalg.lstsq(jac, np.cross(g, l_omega @ g), rcond=None)[0]
        g = g - step
        g = g / np.linalg.norm(g)
    return g


def check_grid_resolution(grid_resolution: int) -> None:
    """Raise InvalidArgument unless the sphere lattice has 12 points or more and fits."""
    if grid_resolution < 12:
        raise InvalidArgument("grid_resolution must be at least 12")
    _check_memory(_LATTICE_POINT_BYTES * grid_resolution,
                  f"a lattice of {grid_resolution} points needs",
                  "lower the lattice size", InvalidArgument)


def find_fixed_points(inp: FreefallInput, grid_resolution: int = 2000) -> FixedPointResult:
    """Locate all orientations with G x omega(G) = 0 by grid search + polishing.

    Candidates are local minima of |G x omega| on a Fibonacci lattice,
    refined by projected Gauss-Newton steps and accepted below
    1e-8 * (m_e + m_c |r|).  If the residual is below threshold everywhere
    on the grid, the degenerate all-orientations case is reported (with the
    coordinate axes as representatives).  Points are sorted by their
    coordinates rounded to 8 digits, so roundoff does not reorder them.
    """
    check_grid_resolution(grid_resolution)
    _, l_omega = motion_operator(inp)
    scale = inp.m_e + inp.m_c * float(np.linalg.norm(inp.r))
    threshold = 1e-8 * scale
    grid = fibonacci_sphere(grid_resolution)
    residuals = np.linalg.norm(np.cross(grid, grid @ l_omega.T), axis=1)

    if residuals.max() <= threshold:
        axes = [np.eye(3)[i] * s for i in range(3) for s in (1.0, -1.0)]
        pts = [(g, float(np.linalg.norm(np.cross(g, l_omega @ g)))) for g in axes]
        return FixedPointResult(points=pts, all_orientations=True, threshold=threshold)

    # local minima on the lattice; each point is its own nearest neighbor
    _, neighbors = nearest_neighbors(grid, grid, k=7)
    is_min = np.all(residuals[:, None] <= residuals[neighbors[:, 1:]], axis=1)
    found: list[tuple[np.ndarray, float]] = []
    for idx in np.flatnonzero(is_min):
        g = _polish(grid[idx], l_omega)
        r = float(np.linalg.norm(np.cross(g, l_omega @ g)))
        if r > threshold:
            continue
        if any(np.linalg.norm(g - gk) < 1e-6 for gk, _ in found):
            continue
        found.append((g, r))
    found.sort(key=lambda pr: tuple(np.round(pr[0], 8)))
    return FixedPointResult(points=found, all_orientations=False, threshold=threshold)
