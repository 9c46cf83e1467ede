"""Self-test of the benchmark: metrics, the correctness gate and the tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_source_tree()

import gate  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyperstokes import freefall, mobility  # noqa: E402


def tiny_run(name, trace):
    return run.run_workload(name, seed=3, seconds=0.2, trace=trace, tiny=True, probes=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    record, result = tiny_run(name, trace)
    defined = spec.END_TO_END if trace == 0 else spec.PER_LAYER
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in defined]
    for name_, unit, *_ in defined:
        metric = result["metrics"][name_]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)
    assert record["seed"] == 3 and record["n_nodes"]
    assert all(blas["threads"] >= 1 for blas in record["openblas"])


def test_perturbed_A_is_counted_as_failed(monkeypatch):
    original = mobility.resistance

    def perturbed(*args, **kwargs):
        res = original(*args, **kwargs)
        res.A = res.A * (1.0 + 1e-8)
        return res

    monkeypatch.setattr(mobility, "resistance", perturbed)
    _, result = tiny_run("helix_large", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_inconsistent_state_is_counted_as_failed(monkeypatch):
    original = freefall.steady_states

    def broken(*args, **kwargs):
        states = original(*args, **kwargs)
        states[0].consistent = False
        return states

    monkeypatch.setattr(freefall, "steady_states", broken)
    _, result = tiny_run("helix_large", 0)
    assert result["failed"] == result["attempted"] >= 1


@pytest.fixture(scope="module")
def cli_specs():
    refs = gate.load_refs()
    workdir = run._workdir()
    try:
        specs, _ = workloads.cli_calls_specs(5, refs, workdir, tiny=True)
        yield refs, {s["command"]: s for s in specs}
    finally:
        run._remove_workdir(workdir)


def test_cli_schedule_does_not_depend_on_the_seed():
    refs = gate.load_refs()
    workdir = run._workdir()
    try:
        schedules = [[(s["command"], s["body"]) for s in
                      workloads.cli_calls_specs(seed, refs, workdir)[0]]
                     for seed in (1, 2)]
    finally:
        run._remove_workdir(workdir)
    assert schedules[0] == schedules[1]


def test_cli_gate_accepts_replayed_commands(cli_specs):
    refs, by_command = cli_specs
    assert set(by_command) == set(workloads.CLI_COMMANDS)
    for spec_ in by_command.values():
        workloads.check_cli(refs, spec_, workloads.replay_cli(spec_))


def test_cli_gate_rejects_broken_output(cli_specs):
    refs, by_command = cli_specs
    spec_ = by_command["resistance"]
    out = workloads.replay_cli(spec_)
    doc = json.loads(out["stdout"])
    doc["result"]["A"][0][0] *= 1.0 + 1e-8
    with pytest.raises(gate.GateFailure, match="reference"):
        gate.check_cli(refs, spec_, 0, json.dumps(doc))
    with pytest.raises(gate.GateFailure, match="exit code"):
        gate.check_cli(refs, spec_, 2, out["stdout"])
    with pytest.raises(gate.GateFailure, match="unparseable"):
        gate.check_cli(refs, spec_, 0, out["stdout"][:-10])
    sim = by_command["fall-sim"]
    lines = workloads.replay_cli(sim)["stdout"].splitlines()
    cells = lines[5].split(",")
    cells[1] = "3.0"  # |G| no longer 1
    lines[5] = ",".join(cells)
    with pytest.raises(gate.GateFailure, match="drifts"):
        gate.check_cli(refs, sim, 0, "\n".join(lines))


def test_transformation_law_undoes_rotation():
    ref = gate.load_refs()["solutions"][gate.solution_key("tripod", 0.1, 8)]
    q = workloads.random_rotation(np.random.default_rng(0))
    p = gate._transform(q)
    a = p @ np.asarray(ref["A"]) @ p.T
    gate.check_resistance(ref, q, a, 0.0, 1.0, 0, ref["n_nodes"])
    with pytest.raises(gate.GateFailure):
        gate.check_resistance(ref, np.eye(3), a, 0.0, 1.0, 0, ref["n_nodes"])


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [
        tracing.Span("bench.op", 0.0, 10.0, None, 0),
        tracing.Span("mobility.assemble", 1.0, 8.0, 0, 0),
        tracing.Span("kernel.oseen", 2.0, 5.0, 1, 0),
        tracing.Span("kernel.oseen", 5.0, 6.0, 1, 0),
    ]
    assert tr.self_time_by_layer() == {"bench": 3.0, "mobility": 3.0, "kernel": 4.0}
    assert tr.median_per_op("kernel.oseen") == 4.0
    assert tr.median_per_op("dynamics.integrate") == 0.0


def test_benchmark_json_is_written_from_spec():
    written = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert written == spec.benchmark_json()


def test_refuses_to_run_without_the_program():
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    bare = run.ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "helix_large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    finally:
        run._remove_workdir(bare)
    assert out.returncode != 0
    assert out.stdout == ""
