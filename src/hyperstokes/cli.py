"""Command-line interface: body I/O, unit handling, and result serialization.

All solver output goes to stdout as JSON (envelope {"config", "body",
"result"}) or CSV for time series and convergence tables.  Validation
failures print a single machine-parsable line

    error[<slug>]: <message>

to stderr and exit with code 2.

The solver layers (mobility and, above it, free fall, dynamics and
symmetry) are imported by the commands that call them, so a process pays
only for the modules its command uses.
"""

from __future__ import annotations

import gc
from dataclasses import asdict, dataclass

import click
import numpy as np

from . import __version__, geometry
from .errors import HyperstokesError, InvalidArgument, SingularSystemError, _require_positive
from .kernel import (
    HyperKernel,
    _over_ell,
    green_classical,
    green_scalar,
    oseen_tensor,
    scaled_norm,
    stokeslet_pressure,
    stokeslet_velocity,
)
from .serialize import Rounded, csv_lines, csv_text, json_text, load_body

DEFAULT_ELL = 0.1
DEFAULT_RESOLUTION = 16.0
DEFAULT_CONDITION_CEILING = 1e12
_CSV_CHUNK_ROWS = 1024  # fall-sim rows converted to Python floats at a time


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HyperstokesError as exc:
            click.echo(f"error[{exc.slug}]: {exc}", err=True)
            ctx.exit(2)


@dataclass
class RunConfig:
    """Flags shared by the solver commands, echoed into every JSON result."""

    ell: float = DEFAULT_ELL
    resolution: float = DEFAULT_RESOLUTION
    tol_trans: float | None = None
    tol_symmetry: float = 1e-8
    format: str = "json"
    condition_ceiling: float = DEFAULT_CONDITION_CEILING
    force: bool = False

    def __post_init__(self):
        _require_positive(ell=self.ell, resolution=self.resolution)
        # written as "not > 0" so that NaN is rejected too; inf stays allowed
        if self.tol_trans is not None and not self.tol_trans > 0:
            raise InvalidArgument("tol-trans must be positive")
        if not self.tol_symmetry > 0:
            raise InvalidArgument("symmetry tolerance must be positive")
        if not self.condition_ceiling > 0:
            raise InvalidArgument(f"max-condition must be positive, got {self.condition_ceiling}")


def nondim(rho: float, mu: float, g_phys: float, d: float, L: float):
    """Reference speed W = rho g d^2 / mu, Reynolds number Re = rho W d / mu,
    and ell = L / d; returns (W, Re, ell, warnings).

    The arguments are in SI units: fluid density rho (kg/m^3), dynamic
    viscosity mu (Pa s), gravitational acceleration g_phys (m/s^2),
    reference length d (m) and effective thickness L (m).  Raises
    InvalidArgument naming the first that is not positive and finite, or
    naming the group where one overflows a float.
    """
    _require_positive(rho=rho, mu=mu, g_phys=g_phys, d=d, L=L)
    try:
        w = rho * g_phys * d**2 / mu
    except OverflowError:  # d**2 of a Python float raises instead of giving inf
        w = float("inf")
    re = rho * w * d / mu
    ell = L / d
    for name, value in (("W = rho g d^2 / mu", w), ("Re = rho W d / mu", re),
                        ("ell = L / d", ell)):
        if not np.isfinite(value):
            raise InvalidArgument(f"{name} overflows for these parameters")
    notes = []
    if re > 0.1:
        notes.append(f"Re = {re:.6g} is not small; the creeping-flow model may not apply")
    if L > d:
        notes.append(f"L = {L:.6g} exceeds the reference length d = {d:.6g}")
    return w, re, ell, notes


def _body_summary(body, mass) -> dict:
    return {
        "name": body.name,
        "n_segments": len(body.segments),
        "m": mass.m,
        "m_c": mass.m_c,
        "m_e": mass.m_e,
        "r": mass.r,
        "length": mass.total_length,
        "diameter": geometry.diameter(body),
    }


def _solve(body, config: RunConfig):
    """Discretize and compute the resistance tensors; enforce the condition ceiling."""
    from . import mobility

    dbody = geometry.discretize(body, config.resolution)
    res = mobility.resistance(dbody, HyperKernel(ell=config.ell))
    if res.condition > config.condition_ceiling and not config.force:
        raise SingularSystemError(
            f"condition number {res.condition:.3e} at resolution {config.resolution:g} "
            f"exceeds ceiling {config.condition_ceiling:.3e}; rerun with --force to override"
        )
    return dbody, res


def _emit_result(config: RunConfig, body, mass, result) -> None:
    click.echo(
        json_text(
            {"config": asdict(config), "body": _body_summary(body, mass), "result": result}
        )
    )


def _printed_condition(res: mobility.ResistanceSet) -> Rounded:
    """The condition estimate to 3 significant digits; its last digits vary between runs."""
    return Rounded(f"{res.condition:.3g}")


def _resistance_dict(res: mobility.ResistanceSet) -> dict:
    return {
        "n_nodes": res.n_nodes,
        "condition": _printed_condition(res),
        "asymmetry": res.asymmetry,
        "min_eigenvalue": res.min_eigenvalue,
        "spin_nullity": res.spin_nullity,
        "spin_axis": res.spin_axis,
        "K": res.K,
        "S": res.S,
        "C": res.C,
        "B": res.B,
        "A": res.A,
    }


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def main():
    """Resistance tensors and steady free fall of slender bodies in a
    hyperviscous Stokes fluid."""


@main.group()
def body():
    """Body-file utilities."""


@body.command("info")
@click.argument("file", type=click.Path())
def body_info(file):
    """Mass properties of a body file."""
    b = load_body(file)
    mass = geometry.mass_properties(b)
    cfg = RunConfig()
    _emit_result(
        cfg,
        b,
        mass,
        {
            "m": mass.m,
            "m_c": mass.m_c,
            "m_e": mass.m_e,
            "center_of_mass": mass.center_of_mass,
            "centroid": mass.centroid,
            "r": mass.r,
            "length": mass.total_length,
            "diameter": geometry.diameter(b),
        },
    )


@main.group()
def kernel():
    """Kernel evaluation utilities."""


@kernel.command("eval")
@click.option("--x", nargs=3, type=float, required=True, help="Evaluation point.")
@click.option("--ell", type=float, default=DEFAULT_ELL, show_default=True)
@click.option("--h", nargs=3, type=float, default=None, help="Point force (optional).")
def kernel_eval(x, ell, h):
    """Green's function, Oseen tensor and optionally the Stokeslet at x."""
    kern = HyperKernel(ell=ell)
    point = np.asarray(x, dtype=float)
    r = scaled_norm(point)
    at_origin = r == 0.0
    result = {
        "x": point,
        "ell": ell,
        "s": float(_over_ell(r, kern)),
        "g": float(green_scalar(point, kern)),
        "g_classical": None if at_origin else float(green_classical(point)),
        "Z": oseen_tensor(point, kern),
    }
    if h is not None:
        force = np.asarray(h, dtype=float)
        result["zeta"] = stokeslet_velocity(point, force, kern)
        result["pressure"] = (
            None if at_origin else float(stokeslet_pressure(point, force))
        )
    click.echo(json_text({"config": {"ell": ell}, "result": result}))


def _condition_options(fn):
    fn = click.option("--force", is_flag=True, help="Override the condition ceiling.")(fn)
    fn = click.option(
        "--max-condition", type=float, default=DEFAULT_CONDITION_CEILING,
        show_default=True,
        help="Refuse solves whose condition estimate is above this: LAPACK's "
             "estimate for the split, block-diagonal system, a lower bound on "
             "that system's 1-norm condition number only.",
    )(fn)
    return fn


def _solver_options(fn):
    fn = _condition_options(fn)
    fn = click.option("--resolution", type=float, default=DEFAULT_RESOLUTION, show_default=True)(fn)
    fn = click.option("--ell", type=float, default=DEFAULT_ELL, show_default=True)(fn)
    fn = click.argument("file", type=click.Path())(fn)
    return fn


@main.command()
@_solver_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def resistance(file, ell, resolution, max_condition, force, fmt):
    """Resistance tensors K, S, C, B and the grand matrix A."""
    cfg = RunConfig(ell=ell, resolution=resolution, format=fmt,
                    condition_ceiling=max_condition, force=force)
    b = load_body(file)
    dbody, res = _solve(b, cfg)
    if fmt == "csv":
        rows = []
        for name, mat in (("K", res.K), ("S", res.S), ("C", res.C), ("B", res.B)):
            for i in range(3):
                for j in range(3):
                    rows.append([name, i + 1, j + 1, mat[i, j]])
        rows.append(["condition", "", "", _printed_condition(res)])
        rows.append(["asymmetry", "", "", res.asymmetry])
        rows.append(["min_eigenvalue", "", "", res.min_eigenvalue])
        rows.append(["n_nodes", "", "", res.n_nodes])
        click.echo(csv_text(["tensor", "i", "j", "value"], rows), nl=False)
        return
    _emit_result(cfg, b, dbody.mass, _resistance_dict(res))


@main.command("freefall")
@_solver_options
@click.option("--tol-trans", type=float, default=None,
              help="Classify |lambda| below this as translational.")
@click.option("--axis", nargs=3, type=float, default=(1.0, 0.0, 0.0),
              show_default=True, help="Body axis for the tilt angle.")
def freefall_cmd(file, ell, resolution, max_condition, force, tol_trans, axis):
    """Steady free-fall states (lambda, g, xi, omega) of a body."""
    from . import freefall

    cfg = RunConfig(ell=ell, resolution=resolution, tol_trans=tol_trans,
                    condition_ceiling=max_condition, force=force)
    freefall.check_axis(axis)
    b = load_body(file)
    dbody, res = _solve(b, cfg)
    inp = freefall.FreefallInput.from_body(dbody, res)
    states = freefall.steady_states(inp, tol_trans=tol_trans)
    f_mat = None
    eig_list = []
    try:
        f_mat = freefall.build_F(inp)
        for lam in np.linalg.eigvals(f_mat):
            eig_list.append({"re": float(lam.real), "im": float(lam.imag)})
    except SingularSystemError:
        pass
    table = [
        {
            "lambda": st.lam,
            "g": st.g,
            "xi": st.xi,
            "omega": st.omega,
            "residual_force": st.residual_force,
            "residual_torque": st.residual_torque,
            "class": st.classification,
            "multiplicity": st.multiplicity,
            "consistent": st.consistent,
            "tilt_deg": freefall.tilt_angle(st, np.asarray(axis)),
            "note": st.note,
        }
        for st in states
    ]
    _emit_result(cfg, b, dbody.mass, {
        "m_e": inp.m_e, "m_c": inp.m_c, "r": inp.r,
        "F": f_mat, "eigenvalues": eig_list, "states": table,
    })


@main.command("symmetry")
@_solver_options
@click.option("--transform", nargs=9, type=float, default=None,
              help="Row-major orthogonal matrix to test.")
@click.option("--plane-axis", type=click.IntRange(1, 3), default=None,
              help="Check the plane-of-symmetry pattern for this normal axis.")
@click.option("--heli-axis", type=click.IntRange(1, 3), default=None,
              help="Check the helicoidal pattern about this axis.")
@click.option("--tol", type=float, default=1e-8, show_default=True)
def symmetry_cmd(file, ell, resolution, max_condition, force, transform,
                 plane_axis, heli_axis, tol):
    """Symmetry checks: invariance, transformation law, tensor patterns."""
    from . import symmetry

    cfg = RunConfig(ell=ell, resolution=resolution, tol_symmetry=tol,
                    condition_ceiling=max_condition, force=force)
    q = geometry.ensure_orthogonal(np.reshape(transform, (3, 3))) if transform else None
    b = load_body(file)
    dbody, res = _solve(b, cfg)
    report = symmetry.symmetry_report(
        dbody, res, Q=q, plane_axis=plane_axis, heli_axis=heli_axis, tol=tol
    )
    _emit_result(cfg, b, dbody.mass, asdict(report))


@main.command("fall-sim")
@_solver_options
@click.option("--g0", nargs=3, type=float, required=True, help="Initial gravity direction.")
@click.option("--dt", type=float, required=True, help="RK4 step.")
@click.option("--t-end", type=float, required=True,
              help="End time; the last step is shortened to end there.")
def fall_sim(file, ell, resolution, max_condition, force, g0, dt, t_end):
    """Integrate the orientation kinematics; emits a trajectory CSV."""
    from . import dynamics, freefall

    cfg = RunConfig(ell=ell, resolution=resolution,
                    condition_ceiling=max_condition, force=force)
    g_start = np.asarray(g0, dtype=float)
    norm = scaled_norm(g_start)
    if norm == 0.0 or not np.all(np.isfinite(g_start)):
        raise InvalidArgument("--g0 must be a nonzero finite vector")
    dynamics.check_time_grid(dt, t_end)
    b = load_body(file)
    dbody, res = _solve(b, cfg)
    inp = freefall.FreefallInput.from_body(dbody, res)
    traj = dynamics.integrate_orientation(inp, g_start / norm, dt, t_end)
    header = ["t", "G1", "G2", "G3", "xi1", "xi2", "xi3", "omega1", "omega2", "omega3"]
    columns = (traj.t[:, None], traj.G, traj.xi, traj.omega)
    # written as it is formatted, a few rows at a time: the text of a long
    # trajectory is many times the size of its arrays
    rows = (row for lo in range(0, len(traj.t), _CSV_CHUNK_ROWS)
            for row in np.hstack([c[lo:lo + _CSV_CHUNK_ROWS] for c in columns]).tolist())
    out = click.get_text_stream("stdout")
    out.writelines(csv_lines(header, rows))
    out.flush()


@main.command("fixed-points")
@_solver_options
@click.option("--grid", type=int, default=2000, show_default=True,
              help="Number of sphere-lattice points.")
def fixed_points(file, ell, resolution, max_condition, force, grid):
    """Orientations with G x omega(G) = 0 (steady-fall cross-check)."""
    from . import dynamics, freefall

    cfg = RunConfig(ell=ell, resolution=resolution,
                    condition_ceiling=max_condition, force=force)
    dynamics.check_grid_resolution(grid)
    b = load_body(file)
    dbody, res = _solve(b, cfg)
    inp = freefall.FreefallInput.from_body(dbody, res)
    result = dynamics.find_fixed_points(inp, grid_resolution=grid)
    _emit_result(cfg, b, dbody.mass, {
        "all_orientations": result.all_orientations,
        "threshold": result.threshold,
        "points": [{"g": g, "residual": r} for g, r in result.points],
    })


@main.command()
@click.argument("file", type=click.Path())
@click.option("--ell", type=float, default=DEFAULT_ELL, show_default=True)
@click.option("--resolutions", type=str, required=True,
              help="Comma-separated list, e.g. 8,16,32.")
@_condition_options
def convergence(file, ell, resolutions, max_condition, force):
    """Translation tensor per resolution, with successive differences (CSV)."""
    try:
        res_list = [float(tok) for tok in resolutions.split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgument(f"cannot parse --resolutions {resolutions!r}") from None
    if not res_list:
        raise InvalidArgument("--resolutions must list at least one value")
    configs = [RunConfig(ell=ell, resolution=r, condition_ceiling=max_condition, force=force)
               for r in res_list]
    b = load_body(file)
    rows = []
    prev_k = None
    for cfg in configs:
        _, res = _solve(b, cfg)
        diff = None if prev_k is None else float(np.linalg.norm(res.K - prev_k))
        rows.append([cfg.resolution, res.n_nodes, *res.K.ravel().tolist(), diff])
        prev_k = res.K
    header = ["resolution", "n_nodes",
              "K11", "K12", "K13", "K21", "K22", "K23", "K31", "K32", "K33",
              "dK_fro"]
    click.echo(csv_text(header, rows), nl=False)


@main.command("nondim")
@click.option("--rho", type=float, required=True, help="Fluid density, kg/m^3.")
@click.option("--mu", type=float, required=True, help="Dynamic viscosity, Pa s.")
@click.option("--gravity", type=float, required=True, help="Gravity, m/s^2.")
@click.option("--d", type=float, required=True, help="Reference length, m.")
@click.option("--l", "--L", "thickness", type=float, required=True,
              help="Effective thickness, m.")
def nondim_cmd(rho, mu, gravity, d, thickness):
    """Nondimensional groups W, Re and ell from physical parameters."""
    w, re, ell, notes = nondim(rho, mu, gravity, d, thickness)
    for note in notes:
        click.echo(f"warning: {note}", err=True)
    click.echo(json_text({
        "config": {"rho": rho, "mu": mu, "gravity": gravity, "d": d, "L": thickness},
        "result": {"W": w, "Re": re, "ell": ell, "warnings": notes},
    }))


def run():
    """The process entry: ``main``, then every object left at exit is frozen,
    so the interpreter's shutdown collections do not traverse them.

    Only a process that ends here may freeze; callers of ``main`` (tests,
    ``CliRunner``) keep their collector as it was.
    """
    try:
        main(prog_name="hyperstokes")
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
