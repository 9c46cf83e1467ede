"""Steady free-fall states from the algebraic force/torque balance.

With spin locked to gravity (omega = lambda g), the steady balance

    K xi + lambda S g = m_e g
    C xi + lambda B g = -m_c r x g

reduces, after eliminating xi = K^{-1}(m_e g - lambda S g), to the 3x3
eigenproblem F g = lambda g with

    F = (C K^{-1} S - B)^{-1} (m_e C K^{-1} + m_c [r]_x).

Every real eigenpair yields two steady states (+-g, +-xi); lambda = 0 means
a purely translational fall, otherwise the body screws about g.  States are
always re-verified against the original balance and carry both residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import acos, degrees

import numpy as np

from .errors import InvalidArgument, SingularSystemError
from .mobility import ResistanceSet

__all__ = [
    "FreefallInput",
    "SteadyState",
    "build_F",
    "steady_states",
    "verify",
    "tilt_angle",
    "check_axis",
    "skew",
    "require_regular",
]

_COND_LIMIT = 1e14


def skew(v) -> np.ndarray:
    """Matrix [v]_x with [v]_x w = v x w."""
    v = np.asarray(v, dtype=float)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


@dataclass(frozen=True, eq=False)
class FreefallInput:
    """Resistance tensors plus the mass data entering the balance."""

    resistance: ResistanceSet
    m_e: float
    m_c: float
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3,) or not np.all(np.isfinite(r)):
            raise InvalidArgument("r must be a finite 3-vector")
        if not (np.isfinite(self.m_e) and self.m_e >= 0.0):
            raise InvalidArgument(f"m_e must be >= 0, got {self.m_e}")
        if not (np.isfinite(self.m_c) and self.m_c >= 0.0):
            raise InvalidArgument(f"m_c must be >= 0, got {self.m_c}")
        object.__setattr__(self, "r", r)

    @classmethod
    def from_body(cls, dbody, res: ResistanceSet) -> "FreefallInput":
        m = dbody.mass
        return cls(resistance=res, m_e=m.m_e, m_c=m.m_c, r=m.r)

    @property
    def residual_scale(self) -> float:
        return self.m_e + self.m_c * float(np.linalg.norm(self.r)) + 1.0


@dataclass(eq=False)
class SteadyState:
    """One steady solution (lambda, g, xi, omega = lambda g) with residuals."""

    lam: float
    g: np.ndarray
    xi: np.ndarray
    omega: np.ndarray
    residual_force: float
    residual_torque: float
    classification: str  # "translational" | "screw"
    multiplicity: int
    consistent: bool
    note: str = field(default="")


def require_regular(mat: np.ndarray, what: str) -> np.ndarray:
    """``mat`` itself if finite with condition <= _COND_LIMIT, else SingularSystemError."""
    if not np.all(np.isfinite(mat)) or np.linalg.cond(mat) > _COND_LIMIT:
        raise SingularSystemError(f"{what} singular")
    return mat


def build_F(inp: FreefallInput) -> np.ndarray:
    """F = (C K^{-1} S - B)^{-1} (m_e C K^{-1} + m_c [r]_x)."""
    res = inp.resistance
    k_inv = np.linalg.inv(require_regular(res.K, "translation tensor"))
    ck = res.C @ k_inv
    core = ck @ res.S - res.B
    core_inv = np.linalg.inv(require_regular(core, "grand resistance matrix"))
    return core_inv @ (inp.m_e * ck + inp.m_c * skew(inp.r))


def verify(state: SteadyState, inp: FreefallInput):
    """Residual norms of the two balance equations for a given state."""
    res = inp.resistance
    g, xi, lam = state.g, state.xi, state.lam
    r1 = res.K @ xi + lam * (res.S @ g) - inp.m_e * g
    r2 = res.C @ xi + lam * (res.B @ g) + inp.m_c * np.cross(inp.r, g)
    return float(np.linalg.norm(r1)), float(np.linalg.norm(r2))


def _make_state(inp, lam, g, xi, classification, multiplicity, note=""):
    state = SteadyState(
        lam=float(lam),
        g=g,
        xi=xi,
        omega=lam * g,
        residual_force=0.0,
        residual_torque=0.0,
        classification=classification,
        multiplicity=multiplicity,
        consistent=True,
        note=note,
    )
    r1, r2 = verify(state, inp)
    state.residual_force = r1
    state.residual_torque = r2
    state.consistent = max(r1, r2) <= 1e-8 * inp.residual_scale
    return state


def _emit_pair(states, inp, lam, g, xi, classification, multiplicity, note=""):
    states.append(_make_state(inp, lam, g, xi, classification, multiplicity, note))
    states.append(_make_state(inp, lam, -g, -xi, classification, multiplicity, note))


def steady_states(inp: FreefallInput, tol_trans: float | None = None) -> list[SteadyState]:
    """All steady free-fall states of the body; at least one is always found.

    When the coupling and buoyancy torques vanish (fore-aft + helicoidal
    homogeneous bodies, straight rods, single nodes), every orientation is a
    translational steady state; the three coordinate-axis pairs are then
    returned instead of an arbitrary eigenbasis.  This branch also avoids
    inverting the rotational block, which is singular for collinear bodies.

    States come in (g, -g) pairs in ascending order of lambda; the first of
    each pair has the largest-magnitude component of g positive, so the
    order does not depend on the sign an eigensolver gives a vector.
    """
    res = inp.resistance
    scale = inp.residual_scale
    k_inv = np.linalg.inv(require_regular(res.K, "translation tensor"))
    ck = res.C @ k_inv
    torque_bound = inp.m_e * np.linalg.norm(ck, 2) + inp.m_c * np.linalg.norm(inp.r)
    states: list[SteadyState] = []
    if torque_bound <= 1e-10 * scale:
        note = "degenerate: any orientation is a steady translational fall"
        for i in range(3):
            g = np.zeros(3)
            g[i] = 1.0
            xi = inp.m_e * (k_inv @ g)
            _emit_pair(states, inp, 0.0, g, xi, "translational", 3, note)
        return states

    f_mat = build_F(inp)
    norm_f = np.linalg.norm(f_mat)
    eigvals, eigvecs = np.linalg.eig(f_mat)
    tol_imag = 1e-10 * max(norm_f, 1e-300)
    tol_cluster = 1e-8 * max(norm_f, 1e-300)
    tol_lambda = tol_trans if tol_trans is not None else 1e-8 * norm_f

    # LAPACK's real geev gives each 1x1 block of the real Schur form (a real 3x3
    # matrix has one) an eigenvalue with imaginary part 0: one pair is always kept
    order = np.argsort(eigvals.real)
    kept: list[tuple[float, np.ndarray]] = []
    for idx in order:
        lam = eigvals[idx]
        if abs(lam.imag) > tol_imag:
            continue
        vec = eigvecs[:, idx].real
        g = vec / np.linalg.norm(vec)
        if any(
            abs(lam.real - l0) <= tol_cluster and abs(g @ g0) >= 1.0 - 1e-10
            for l0, g0 in kept
        ):
            continue
        kept.append((lam.real, g))

    for lam, g in kept:
        if g[int(np.argmax(np.abs(g)))] < 0.0:  # the sign eig returns is arbitrary
            g = -g
        multiplicity = int(np.sum(np.abs(eigvals - lam) <= tol_cluster))
        xi = k_inv @ (inp.m_e * g - lam * (res.S @ g))
        classification = "translational" if abs(lam) <= tol_lambda else "screw"
        _emit_pair(states, inp, lam, g, xi, classification, multiplicity)
    return states


def check_axis(body_axis) -> np.ndarray:
    """Validate a body axis (a nonzero finite 3-vector) and return it as a float array."""
    axis = np.asarray(body_axis, dtype=float)
    if axis.shape != (3,) or not np.all(np.isfinite(axis)) or not np.any(axis):
        raise InvalidArgument("body axis must be a nonzero finite 3-vector")
    return axis


def tilt_angle(state: SteadyState, body_axis) -> float:
    """Angle in degrees, within [0, 90], between gravity and a body axis."""
    axis = check_axis(body_axis)
    # scaled by a power of two, which is exact, so that neither the product
    # nor the norm overflows or underflows
    axis = np.ldexp(axis, -np.frexp(np.abs(axis).max())[1])
    cosine = abs(float(state.g @ axis) / np.linalg.norm(axis))
    return degrees(acos(min(cosine, 1.0)))
