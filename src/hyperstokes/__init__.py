"""Slender-body hydrodynamics in a hyperviscous Stokes fluid.

Computes resistance tensors and steady free-fall states of one-dimensional
rigid bodies via a Nystrom boundary-integral method built on the screened
(everywhere-bounded) Oseen tensor, and verifies the structural properties
of the tensors (reciprocity, positive definiteness, symmetry patterns)
numerically.

The names below are loaded from their module on first use (PEP 562), so
``import hyperstokes`` imports no submodule.
"""

import importlib

_EXPORTS = {
    "dynamics": ("FixedPointResult OrientationTrajectory find_fixed_points "
                 "instantaneous_motion integrate_orientation"),
    "errors": ("AssemblyError BodyConfigError HyperstokesError InvalidArgument "
               "NoTranslationalOrientation SingularPointError SingularSystemError"),
    "freefall": "FreefallInput SteadyState build_F steady_states tilt_angle verify",
    "geometry": ("BodyGeometry DiscretizedBody MassProperties Segment bent_rod diameter "
                 "discretize helix mass_properties octahedron_frame rod transform "
                 "tripod_tetrahedron"),
    "kernel": ("HyperKernel classical_oseen green_classical green_scalar oseen_tensor "
               "stokeslet_pressure stokeslet_velocity"),
    "mobility": ("KernelMatrix ResistanceSet assemble disturbance_velocity force_torque "
                 "resistance solve_rigid"),
    "symmetry": ("SymmetryReport check_geometric_invariance check_helicoidal_pattern "
                 "check_plane_pattern check_transform_law symmetry_report "
                 "translational_orientation_plane"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
