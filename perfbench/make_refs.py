"""Regenerate refs.json, the frozen references of the correctness gate.

Run from the repository root:

    python3 perfbench/make_refs.py

Only a change that alters the solver's results on purpose does this, as a
benchmark change of its own; the gate then holds later changes to the new
values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperstokes import (  # noqa: E402
    FreefallInput,
    HyperKernel,
    SingularSystemError,
    discretize,
    find_fixed_points,
    mass_properties,
    resistance,
    steady_states,
)

import gate  # noqa: E402
from workloads import CLI_ELL, HELIX_RESOLUTION, RESOLUTIONS, suite_bodies  # noqa: E402


def solution(body, ell, res) -> dict:
    dbody = discretize(body, res)
    rs = resistance(dbody, HyperKernel(ell=ell))
    inp = FreefallInput.from_body(dbody, rs)
    try:
        fixed = find_fixed_points(inp)
    except SingularSystemError:  # the rod: no orientation flow
        fixed = None
    return {
        "n_nodes": dbody.n_nodes,
        "A": rs.A.tolist(),
        "states": [s.g.tolist() for s in steady_states(inp)],
        "fixed_points": None if fixed is None else [g.tolist() for g, _ in fixed.points],
        "all_orientations": None if fixed is None else fixed.all_orientations,
    }


def main() -> None:
    refs = {"n_nodes": {}, "solutions": {}, "bodies": {}}
    cases = [(name, CLI_ELL, res) for name in suite_bodies() for res in RESOLUTIONS]
    cases.append(("helix", 0.1, HELIX_RESOLUTION))
    bodies = suite_bodies()
    for name, ell, res in cases:
        sol = solution(bodies[name], ell, res)
        refs["n_nodes"][f"{name}|{res:g}"] = sol["n_nodes"]
        refs["solutions"][gate.solution_key(name, ell, res)] = sol
    for name, body in bodies.items():
        mass = mass_properties(body)
        refs["bodies"][name] = {"m": mass.m, "length": mass.total_length}
    gate.REFS_PATH.write_text(json.dumps(refs, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
