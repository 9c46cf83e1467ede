"""Correctness gate: every operation's output is checked before it counts.

An operation fails on an exception or a non-zero CLI exit, on output that
does not parse, on an asymmetric or indefinite grand matrix, on an
inconsistent steady state, on steady states that disagree with the fixed
points of the orientation flow (paper criterion 9), or when its grand
matrix A moves more than ``A_RTOL`` from the reference frozen in
``refs.json``.  Inputs are rigidly rotated bodies, so outputs are mapped
back with the transformation law before the comparison:

    K = Q^T K' Q,  S = det(Q) Q^T S' Q,  C = det(Q) Q^T C' Q,  B = Q^T B' Q.

A change that alters A on purpose regenerates ``refs.json`` with
``make_refs.py`` as a benchmark change of its own.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

REFS_PATH = Path(__file__).with_name("refs.json")

A_RTOL = 1e-10  # relative Frobenius distance of A (or K) from the reference
ASYMMETRY_TOL = 1e-10
DIRECTION_TOL = 1e-6  # criterion 9: directions agree up to sign
UNIT_TOL = 1e-9  # |G| of a fall-sim trajectory
KERNEL_RTOL = 1e-10  # kernel eval against the closed form, for s >= 0.5


class GateFailure(Exception):
    """An operation's output is wrong."""


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def solution_key(body: str, ell: float, resolution: float) -> str:
    return f"{body}|{ell:g}|{resolution:g}"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


def _transform(q: np.ndarray) -> np.ndarray:
    """6x6 map P with A' = P A P^T for a body moved by p -> Q p."""
    p = np.zeros((6, 6))
    p[:3, :3] = q
    p[3:, 3:] = np.linalg.det(q) * q
    return p


def _rel(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(a - ref) / np.linalg.norm(ref))


def check_resistance(ref: dict, q, A, asymmetry, min_eigenvalue, spin_nullity, n_nodes):
    _require(n_nodes == ref["n_nodes"], f"n_nodes {n_nodes} != reference {ref['n_nodes']}")
    _require(asymmetry <= ASYMMETRY_TOL, f"asymmetry {asymmetry:.3e}")
    _require(min_eigenvalue >= 0.0 or spin_nullity > 0, f"min_eigenvalue {min_eigenvalue:.3e}")
    p = _transform(np.asarray(q))
    rel = _rel(p.T @ np.asarray(A, dtype=float) @ p, np.asarray(ref["A"]))
    _require(rel <= A_RTOL, f"A is {rel:.3e} from the reference")


def _distance(g, directions) -> float:
    return min((min(np.linalg.norm(g - d), np.linalg.norm(g + d)) for d in directions),
               default=math.inf)


def _cross_check(found, expected, what: str) -> None:
    """Criterion 9: every direction of one solver is found by the other."""
    for g in found:
        _require(_distance(g, expected) <= DIRECTION_TOL, f"{what}: unmatched direction {g}")
    for g in expected:
        _require(_distance(g, found) <= DIRECTION_TOL, f"{what}: missing direction {g}")


def check_states(ref: dict, q, directions, consistent) -> None:
    """Steady states are consistent and agree with the frozen fixed points."""
    _require(len(directions) > 0, "no steady state")
    _require(all(consistent), "inconsistent steady state")
    if ref["fixed_points"] is None or ref["all_orientations"]:
        return  # singular A (no orientation flow) or every orientation is fixed
    back = [np.asarray(q).T @ np.asarray(g, dtype=float) for g in directions]
    _cross_check(back, np.asarray(ref["fixed_points"]), "steady states vs fixed points")


def check_fixed_points(ref: dict, q, points, all_orientations) -> None:
    """Fixed points of the orientation flow agree with the frozen steady states."""
    _require(ref["fixed_points"] is not None, "reference has no orientation flow")
    _require(bool(all_orientations) == ref["all_orientations"], "all_orientations flag differs")
    if all_orientations:
        return
    back = [np.asarray(q).T @ np.asarray(g, dtype=float) for g in points]
    _cross_check(back, np.asarray(ref["states"]), "fixed points vs steady states")


def _json_result(stdout: str) -> dict:
    try:
        return json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        raise GateFailure(f"unparseable JSON output: {exc}") from None


def _csv_rows(stdout: str, header: list[str]) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(bool(rows) and rows[0] == header, "unexpected CSV header")
    try:
        return np.array([[float(c) if c else math.nan for c in row] for row in rows[1:]])
    except ValueError as exc:
        raise GateFailure(f"unparseable CSV output: {exc}") from None


def oseen_closed_form(x, ell):
    """Screened Green's function and Oseen tensor from their closed forms (s >= 0.5)."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    s = r / ell
    e = math.exp(-s)
    d = 1 - 2 * e - 2 * e / s + 2 * (1 - e) / s**2
    y = 1 + 2 * e + 6 * e / s - 6 * (1 - e) / s**2
    xhat = x / r
    z = (d / s * np.eye(3) + y / s * np.outer(xhat, xhat)) / (8 * math.pi * ell)
    return (1 - e) / (4 * math.pi * r), z


FALL_SIM_HEADER = ["t", "G1", "G2", "G3", "xi1", "xi2", "xi3", "omega1", "omega2", "omega3"]
CONVERGENCE_HEADER = ["resolution", "n_nodes", "K11", "K12", "K13", "K21", "K22", "K23",
                      "K31", "K32", "K33", "dK_fro"]


def check_cli(refs: dict, spec: dict, returncode: int, stdout: str) -> None:
    """Check one CLI command's exit code and output against the references."""
    _require(returncode == 0, f"exit code {returncode}")
    cmd = spec["command"]
    q = spec.get("q")
    key = solution_key(spec.get("body", ""), spec["ell"], spec["resolution"])
    if cmd == "resistance":
        out = _json_result(stdout)
        check_resistance(refs["solutions"][key], q, out["A"], out["asymmetry"],
                         out["min_eigenvalue"], out["spin_nullity"], out["n_nodes"])
    elif cmd == "freefall":
        states = _json_result(stdout)["states"]
        check_states(refs["solutions"][key], q, [s["g"] for s in states],
                     [s["consistent"] for s in states])
    elif cmd == "fixed-points":
        out = _json_result(stdout)
        check_fixed_points(refs["solutions"][key], q, [p["g"] for p in out["points"]],
                           out["all_orientations"])
    elif cmd == "symmetry":
        _require(_json_result(stdout)["invariant"] is True, "known symmetry not detected")
    elif cmd == "fall-sim":
        rows = _csv_rows(stdout, FALL_SIM_HEADER)
        _require(rows.shape == (spec["steps"] + 1, 10), f"fall-sim shape {rows.shape}")
        _require(bool(np.all(np.isfinite(rows))), "non-finite trajectory")
        drift = np.abs(np.linalg.norm(rows[:, 1:4], axis=1) - 1.0).max()
        _require(drift <= UNIT_TOL, f"|G| drifts by {drift:.3e}")
    elif cmd == "convergence":
        rows = _csv_rows(stdout, CONVERGENCE_HEADER)
        _require(len(rows) == len(spec["resolutions"]), "convergence row count")
        for row, res in zip(rows, spec["resolutions"]):
            ref = refs["solutions"][solution_key(spec["body"], spec["ell"], res)]
            _require(row[1] == ref["n_nodes"], f"n_nodes {row[1]} at resolution {res}")
            k = np.asarray(q).T @ row[2:11].reshape(3, 3) @ np.asarray(q)
            rel = _rel(k, np.asarray(ref["A"])[:3, :3])
            _require(rel <= A_RTOL, f"K is {rel:.3e} from the reference at resolution {res}")
    elif cmd == "body-info":
        out = _json_result(stdout)
        ref = refs["bodies"][spec["body"]]
        for name in ("m", "length"):
            _require(math.isclose(out[name], ref[name], rel_tol=1e-12), f"{name} {out[name]}")
    elif cmd == "kernel-eval":
        out = _json_result(stdout)
        g, z = oseen_closed_form(spec["x"], spec["ell"])
        _require(math.isclose(out["g"], g, rel_tol=KERNEL_RTOL), f"g {out['g']} != {g}")
        _require(_rel(np.asarray(out["Z"]), z) <= KERNEL_RTOL, "Z differs from closed form")
        _require(_rel(np.asarray(out["zeta"]), z @ spec["h"]) <= KERNEL_RTOL, "zeta differs")
    else:
        raise GateFailure(f"unknown command {cmd}")
