"""Slender-body hydrodynamics in a hyperviscous Stokes fluid.

Computes resistance tensors and steady free-fall states of one-dimensional
rigid bodies via a Nystrom boundary-integral method built on the screened
(everywhere-bounded) Oseen tensor, and verifies the structural properties
of the tensors (reciprocity, positive definiteness, symmetry patterns)
numerically.
"""

from .dynamics import (
    FixedPointResult,
    OrientationTrajectory,
    find_fixed_points,
    instantaneous_motion,
    integrate_orientation,
)
from .errors import (
    AssemblyError,
    BodyConfigError,
    HyperstokesError,
    InvalidArgument,
    NoTranslationalOrientation,
    SingularPointError,
    SingularSystemError,
)
from .freefall import FreefallInput, SteadyState, build_F, steady_states, tilt_angle, verify
from .geometry import (
    BodyGeometry,
    DiscretizedBody,
    MassProperties,
    Segment,
    bent_rod,
    diameter,
    discretize,
    helix,
    mass_properties,
    octahedron_frame,
    rod,
    transform,
    tripod_tetrahedron,
)
from .kernel import (
    HyperKernel,
    classical_oseen,
    green_classical,
    green_scalar,
    oseen_tensor,
    stokeslet_pressure,
    stokeslet_velocity,
)
from .mobility import (
    KernelMatrix,
    ResistanceSet,
    assemble,
    disturbance_velocity,
    force_torque,
    resistance,
    solve_rigid,
)
from .symmetry import (
    SymmetryReport,
    check_geometric_invariance,
    check_helicoidal_pattern,
    check_plane_pattern,
    check_transform_law,
    symmetry_report,
    translational_orientation_plane,
)

__version__ = "0.1.0"
