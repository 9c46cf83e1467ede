"""Workload inputs and operations; see WORKLOADS.md for why each exists.

Every workload turns ``--seed`` into a list of operation specs.  Bodies are
the five suite bodies of ``tests/conftest.py`` under seeded rigid rotations,
so the program never sees the same coordinates twice across seeds while
its outputs stay comparable with the frozen references.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hyperstokes import freefall, geometry, mobility
from hyperstokes import kernel as hkernel

import gate

RESOLUTIONS = (8, 16, 32)  # convergence
HELIX_RESOLUTION = 512  # N = 1968 nodes, a 5904^2 matrix
CLI_ELL = 0.1  # CLI defaults
CLI_RESOLUTION = 16
ROTATIONS_PER_BODY = 4
CLI_TIMEOUT_S = 120.0
MAX_REDRAWS = 1000


def suite_bodies() -> dict:
    """The bodies of the test suite (tests/conftest.py)."""
    return {
        "rod": geometry.rod(1.0),
        "bent_rod": geometry.bent_rod(90.0, 0.5),
        "tripod": geometry.tripod_tetrahedron(1.0),
        "octahedron": geometry.octahedron_frame(1.0),
        "helix": geometry.helix(0.2, 0.1, 3),
    }


def _rotation_about(axis: int, angle: float) -> np.ndarray:
    q = np.eye(3)
    i, j = [k for k in range(3) if k != axis]
    c, s = math.cos(angle), math.sin(angle)
    q[i, i], q[i, j], q[j, i], q[j, j] = c, -s, s, c
    return q


# A known symmetry of each unrotated suite body.
SYMMETRIES = {
    "rod": np.diag([-1.0, 1.0, 1.0]),
    "bent_rod": np.diag([1.0, -1.0, 1.0]),
    "tripod": _rotation_about(0, 2.0 * math.pi / 3.0),
    "octahedron": _rotation_about(2, math.pi / 2.0),
    "helix": np.diag([-1.0, 1.0, -1.0]),
}


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed proper rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rotated_body(name, base, rng, refs, resolutions):
    """A seeded rotation of ``base`` that keeps its node count at ``resolutions``.

    discretize() splits an edge into ceil(length * resolution) elements.  The
    suite bodies have unit edges, so a rotation that lengthens an edge by one
    ulp adds an element and yields a different discrete problem, to which
    the frozen reference does not apply.  Such rotations are drawn again;
    the number of redraws is reported as ``geometry.rotations_redrawn``.
    """
    for redraws in range(MAX_REDRAWS):
        q = random_rotation(rng)
        body = geometry.transform(base, q)
        if all(geometry.discretize(body, r).n_nodes == refs["n_nodes"][f"{name}|{r:g}"]
               for r in resolutions):
            return body, q, redraws
    raise RuntimeError(f"no rotation of {name} keeps its node count")


# -- in-process solves -------------------------------------------------------


def solve(spec: dict) -> dict:
    """discretize -> assemble -> resistance -> steady_states."""
    dbody = geometry.discretize(spec["geometry"], spec["resolution"])
    kern = hkernel.HyperKernel(ell=spec["ell"])
    km = mobility.assemble(dbody, kern)
    res = mobility.resistance(dbody, kern, matrix=km)
    states = freefall.steady_states(freefall.FreefallInput.from_body(dbody, res))
    return {"res": res, "states": states}


def check_solve(refs: dict, spec: dict, out: dict) -> None:
    ref = refs["solutions"][gate.solution_key(spec["body"], spec["ell"], spec["resolution"])]
    res, q = out["res"], spec["q"]
    gate.check_resistance(ref, q, res.A, res.asymmetry, res.min_eigenvalue,
                          res.spin_nullity, res.n_nodes)
    gate.check_states(ref, q, [s.g for s in out["states"]], [s.consistent for s in out["states"]])


def helix_large_specs(seed, refs, workdir, tiny=False):
    rng = np.random.default_rng(seed)
    resolution = RESOLUTIONS[1] if tiny else HELIX_RESOLUTION
    base = suite_bodies()["helix"]
    specs, redrawn = [], 0
    for _ in range(ROTATIONS_PER_BODY):
        body, q, n = rotated_body("helix", base, rng, refs, (resolution,))
        redrawn += n
        specs.append({"body": "helix", "geometry": body, "q": q, "ell": 0.1,
                      "resolution": resolution})
    return specs, redrawn


# -- CLI subprocesses --------------------------------------------------------

CLI_COMMANDS = ("resistance", "freefall", "symmetry", "fixed-points", "fall-sim",
                "convergence", "body-info", "kernel-eval")
# The rod's grand matrix is singular (it does not resist spin about its
# axis), so fixed-points and fall-sim refuse it by design with exit code 2.
_NEEDS_ORIENTATION_FLOW = ("fixed-points", "fall-sim")
FALL_SIM_DT, FALL_SIM_T_END = 0.01, 10.0


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _write_body(path: Path, body) -> None:
    path.write_text(json.dumps({
        "name": body.name,
        "m_c": body.m_c,
        "segments": [{"points": s.points.tolist(), "density": s.density.tolist()}
                     for s in body.segments],
    }))


def _cli_args(cmd, spec, rng) -> list[str]:
    path = spec.get("path")
    if cmd == "symmetry":
        return ["symmetry", path, "--transform", *_floats(spec["symmetry"].ravel())]
    if cmd == "fall-sim":
        g0 = rng.standard_normal(3)
        spec["steps"] = round(FALL_SIM_T_END / FALL_SIM_DT)
        return ["fall-sim", path, "--g0", *_floats(g0 / np.linalg.norm(g0)),
                "--dt", repr(FALL_SIM_DT), "--t-end", repr(FALL_SIM_T_END)]
    if cmd == "convergence":
        spec["resolutions"] = RESOLUTIONS
        return ["convergence", path, "--resolutions", ",".join(map(str, RESOLUTIONS))]
    if cmd == "body-info":
        return ["body", "info", path]
    if cmd == "kernel-eval":
        # |x| / ell in [0.5, 20], where the closed form in gate.py is accurate
        direction = rng.standard_normal(3)
        spec["x"] = direction / np.linalg.norm(direction) * CLI_ELL * rng.uniform(0.5, 20.0)
        spec["h"] = rng.standard_normal(3)
        return ["kernel", "eval", "--x", *_floats(spec["x"]), "--h", *_floats(spec["h"])]
    return [cmd, path]


def cli_calls_specs(seed, refs, workdir, tiny=False):
    """Rounds of the eight commands, each on a body file of seeded orientation.

    The seed draws the rotations and the numeric arguments only.  Which
    command runs on which body follows a fixed schedule, so every seed runs
    the same mix of work in the same order: command ``i`` of round ``r``
    takes the ``(r + i)``-th of the files it accepts.
    """
    rng = np.random.default_rng(seed)
    files, redrawn = [], 0
    for name, base in suite_bodies().items():
        for k in range(2):
            body, q, n = rotated_body(name, base, rng, refs, RESOLUTIONS)
            redrawn += n
            path = Path(workdir) / f"{name}-{k}.json"
            _write_body(path, body)
            files.append({"body": name, "path": str(path), "q": q,
                          "symmetry": q @ SYMMETRIES[name] @ q.T})
    specs = []
    for r in range(2 if tiny else 40):
        for i, cmd in enumerate(CLI_COMMANDS):
            allowed = [f for f in files
                       if cmd not in _NEEDS_ORIENTATION_FLOW or f["body"] != "rod"]
            spec = {**allowed[(r + i) % len(allowed)], "command": cmd,
                    "ell": CLI_ELL, "resolution": CLI_RESOLUTION, "workdir": str(workdir)}
            spec["args"] = _cli_args(cmd, spec, rng)
            specs.append(spec)
    return specs, redrawn


def child_env() -> dict:
    """Environment for a fresh interpreter that imports this checkout's ``src/``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}


def run_cli(spec: dict) -> dict:
    """One ``hyperstokes`` command in a fresh interpreter, start to exit."""
    out_path = Path(spec["workdir"]) / "stdout"
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "hyperstokes.cli", *spec["args"]],
                                stdout=out, stderr=err, env=child_env())
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "stdout": out_path.read_text(),
            "maxrss_kb": usage.ru_maxrss}


def replay_cli(spec: dict) -> dict:
    """The same command's code path inside this process (for traced runs)."""
    from click.testing import CliRunner

    from hyperstokes import cli

    result = CliRunner().invoke(cli.main, spec["args"], prog_name="hyperstokes")
    return {"returncode": result.exit_code, "stdout": result.stdout, "maxrss_kb": None}


def check_cli(refs: dict, spec: dict, out: dict) -> None:
    gate.check_cli(refs, spec, out["returncode"], out["stdout"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_specs: Callable  # (seed, refs, workdir, tiny) -> (specs, rotations redrawn)
    run: Callable  # spec -> output
    check: Callable  # (refs, spec, output) -> None, raises gate.GateFailure
    kind: Callable  # spec -> the kind of operation, for per-kind medians
    warmup_ops: int
    replay: Callable | None = None  # in-process replay of ``run`` for traced runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("helix_large",
                 "one 1968-node helix solved repeatedly: fill, Cholesky and memory at scale",
                 helix_large_specs, solve, check_solve, lambda spec: "solve", 1),
        Workload("cli_calls",
                 "one hyperstokes command per process at the defaults: import, click, output",
                 cli_calls_specs, run_cli, check_cli, lambda spec: spec["command"], 1,
                 replay_cli),
    )
}
