"""hyperstokes benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload helix_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in a fresh process
    python3 perfbench/run.py --write-spec    # write BENCHMARK.json from spec.py

Run from a checkout's root: the program is imported from its ``src/``.
Load is a closed loop from one process, one operation at a time; every
operation's output goes through the correctness gate (gate.py).  With
``--trace 0`` the last line carries the end-to-end metrics; ``--trace 1``
runs each operation untraced and then traced and carries the per-layer
metrics and the tracing overhead.  The line before it is the run record.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # set-up is timed in this many fresh interpreters
IMPORT_PROBES = 3
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND_TAIL = 10


def use_source_tree() -> None:
    """Import hyperstokes from this checkout's ``src/`` and nowhere else."""
    package = SRC / "hyperstokes"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no hyperstokes sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperstokes

    if Path(hyperstokes.__file__).resolve().parent != package:
        sys.exit(f"error: hyperstokes was imported from {hyperstokes.__file__}")


# -- run record ----------------------------------------------------------------


def _git_revision() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperstokes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _openblas() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        found.append(info)
    return found


def _caches() -> dict:
    """CPU cache sizes as the kernel reports them (read only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    return sizes


def run_record(name, seed, seconds, trace, refs, specs) -> dict:
    import numpy
    import scipy

    sizes = {refs["n_nodes"][f"{s['body']}|{s['resolution']:g}"] for s in specs}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "n_nodes": sorted(sizes),
        "load": "closed loop: one process, one operation at a time",
        "computed": ["mobility.factor_gflop", "mobility.matrix_mb"],
    }


# -- measurement -----------------------------------------------------------------


class Loop:
    """Runs operations one at a time and puts every output through the gate."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, run, spec):
        t0 = time.perf_counter()
        try:
            out = run(spec)
            reason = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, reason = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if reason is None:
            try:
                self.workload.check(self.refs, spec, out)
            except Exception as exc:  # malformed output fails the gate too
                reason = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{spec['body']}: {reason}")
        return elapsed, out

    def measure(self, run, specs, seconds):
        """Closed loop over ``specs`` for ``seconds``; returns (spec, seconds, child RSS)."""
        samples = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            spec = specs[len(samples) % len(specs)]
            elapsed, out = self.one(run, spec)
            samples.append((spec, elapsed, None if out is None else out.get("maxrss_kb")))
        return samples


def tail(durations: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(durations)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND_TAIL:
            return {f"op_s.p{p}": quantiles(durations, n=100)[p - 1], "samples": n}
    return {"samples": n}


def _probe_seconds(args: list[str]) -> float:
    from workloads import child_env

    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=child_env(), check=True,
                   stdout=subprocess.PIPE, timeout=120)
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int, probes: int) -> float:
    """Median wall time of a fresh interpreter importing hyperstokes and making the inputs."""
    return median(_probe_seconds([str(HERE / "run.py"), "--setup-probe", "--workload", name,
                                  "--seed", str(seed)]) for _ in range(probes))


def import_seconds() -> float:
    """Median time of ``import hyperstokes.cli`` in a fresh interpreter."""
    from workloads import child_env

    code = ("import time; t = time.perf_counter(); import hyperstokes.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return median(times)


def peak_rss_mb(samples) -> float:
    """Peak RSS of the workload process; for CLI calls, the median over the children."""
    children = [kb for _, _, kb in samples if kb is not None]
    kb = median(children) if children else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb * 1024 / 1e6


def end_to_end(loop, workload, specs, seconds, setup_s):
    samples = loop.measure(workload.run, specs, seconds)
    durations = [elapsed for _, elapsed, _ in samples]
    # throughput of the workload's mix at the median time of each kind of
    # operation, so that a stall of a few operations does not move it
    by_kind: dict[str, list[float]] = {}
    for spec, elapsed, _ in samples:
        by_kind.setdefault(workload.kind(spec), []).append(elapsed)
    metrics = {
        "setup_s": setup_s,
        "op_s.p50": median(durations),
        "ops_per_s": len(by_kind) / sum(median(times) for times in by_kind.values()),
        "peak_rss_mb": peak_rss_mb(samples),
    }
    return metrics, tail(durations)


def per_layer(loop, workload, specs, seconds, redrawn):
    from tracing import Tracer, instrument

    tracer = Tracer()
    run, root, walls = workload.run, "bench.op", []
    if workload.replay is not None:
        # CLI processes for half the time, then the same commands replayed
        # in this process for the other half
        walls = loop.measure(workload.run, specs, seconds / 2)
        specs = [spec for spec, _, _ in walls]
        run, root, seconds = workload.replay, "cli.run", seconds / 2
        loop.one(run, specs[0])  # imports click and the CLI module

    def traced_run(spec):
        with tracer.span(root):
            return run(spec)
    # each spec runs untraced and then traced, so drift of the machine's
    # speed does not bias the tracing overhead
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        spec = specs[len(traced) % len(specs)]
        untraced.append(loop.one(run, spec)[0])
        tracer.op = len(traced)
        with instrument(tracer):
            traced.append((spec, loop.one(traced_run, spec)[0]))
    metrics = layer_metrics(tracer, traced, walls, import_seconds(), redrawn)
    traced_s = [elapsed for _, elapsed in traced]
    metrics["trace.overhead_s"] = median(traced_s) - median(untraced)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / median(untraced)
    return metrics, tail(traced_s)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, traced, walls, import_s, redrawn) -> dict:
    """Per-layer metrics from the spans of the traced phase (0 where a layer is not called)."""
    from workloads import CLI_COMMANDS

    def total(name, key=None):
        return sum(s.duration if key is None else s.counts.get(key, 0) for s in tr.calls(name))

    def median_calls(name, key):
        values = [s.counts[key] for s in tr.calls(name) if key in s.counts]
        return median(values) if values else 0.0

    assemble = tr.calls("mobility.assemble")
    m = {
        "kernel.oseen_s": tr.median_per_op("kernel.oseen"),
        "kernel.pairs": tr.median_per_op("kernel.oseen", "pairs"),
        "kernel.pairs_per_s": _ratio(total("kernel.oseen", "pairs"), total("kernel.oseen")),
        "kernel.series_frac": _ratio(total("kernel.oseen", "series"),
                                     total("kernel.oseen", "pairs")),
        "mobility.assemble_s": tr.median_per_op("mobility.assemble"),
        "mobility.cholesky_s": tr.median_per_op("mobility.cholesky"),
        "mobility.factor_gflop": tr.median_per_op("mobility.assemble", "factor_flops") / 1e9,
        "mobility.matrix_mb": tr.median_per_op("mobility.assemble", "matrix_bytes") / 1e6,
        "mobility.peak_over_matrix": median(
            s.counts["heap_peak"] / s.counts["matrix_bytes"] for s in assemble
            if "heap_peak" in s.counts
        ) if assemble else 0.0,
        "mobility.resistance_s": tr.median_per_op("mobility.resistance"),
        "mobility.condition": median_calls("mobility.assemble", "condition"),
        "mobility.indefinite_fallbacks": total("mobility.assemble", "indefinite"),
        "geometry.discretize_s": tr.median_per_op("geometry.discretize"),
        "geometry.n_nodes": median_calls("geometry.discretize", "n_nodes"),
        "geometry.diameter_s": tr.median_per_op("geometry.diameter"),
        "geometry.rotations_redrawn": redrawn,
        "symmetry.report_s": tr.median_per_op("symmetry.report"),
        "symmetry.invariant_frac": _ratio(total("symmetry.report", "invariant"),
                                          sum("invariant" in s.counts
                                              for s in tr.calls("symmetry.report"))),
        "freefall.steady_states_s": tr.median_per_op("freefall.steady_states"),
        "freefall.states": median_calls("freefall.steady_states", "states"),
        "freefall.consistent_frac": _ratio(total("freefall.steady_states", "consistent"),
                                           total("freefall.steady_states", "states")),
        "dynamics.fixed_points_s": tr.median_per_op("dynamics.fixed_points"),
        "dynamics.fixed_points_found": median_calls("dynamics.fixed_points", "found"),
        "dynamics.integrate_s": tr.median_per_op("dynamics.integrate"),
        "dynamics.rk4_steps_per_s": _ratio(total("dynamics.integrate", "steps"),
                                           total("dynamics.integrate")),
        "serialize.json_s": tr.median_per_op("serialize.json"),
        "serialize.csv_s": tr.median_per_op("serialize.csv"),
        "serialize.bytes_out": median(tr.per_op("serialize.json", "bytes")
                                      + tr.per_op("serialize.csv", "bytes") or [0]),
        "cli.import_s": import_s,
    }
    self_time = tr.self_time_by_layer()
    for layer in ("kernel", "mobility", "geometry", "symmetry", "freefall", "dynamics",
                  "serialize", "cli"):
        m[f"{layer}.self_s"] = self_time.get(layer, 0.0) / len(traced)

    # CLI: subprocess wall per command, and what is left of it after the
    # import and the layer spans of the same command replayed in-process
    layers_by_command: dict[str, list[float]] = {}
    for i, span in enumerate(tr.spans):
        if span.name == "cli.run":
            layers_by_command.setdefault(traced[span.op][0]["command"], []).append(
                tr.children_time(i))
    other = [elapsed - import_s - median(layers_by_command[spec["command"]])
             for spec, elapsed, _ in walls if spec["command"] in layers_by_command]
    m["cli.other_s"] = median(other) if other else 0.0
    for cmd in CLI_COMMANDS:
        times = [elapsed for spec, elapsed, _ in walls if spec["command"] == cmd]
        m[f"cli.{cmd}_s"] = median(times) if times else 0.0
    return m


# -- entry points ------------------------------------------------------------------


def _workdir() -> Path:
    path = ROOT / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True)
    return path


def _remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def run_workload(name, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one workload; returns (run record, result line as a dict)."""
    import gate
    from spec import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    refs = gate.load_refs()
    setup_s = None if trace else setup_seconds(name, seed, probes)
    workdir = _workdir()
    try:
        specs, redrawn = workload.make_specs(seed, refs, workdir, tiny)
        loop = Loop(workload, refs)
        for spec in specs[:workload.warmup_ops]:
            loop.one(workload.run, spec)
        if trace:
            metrics, tails = per_layer(loop, workload, specs, seconds, redrawn)
        else:
            metrics, tails = end_to_end(loop, workload, specs, seconds, setup_s)
    finally:
        _remove_workdir(workdir)
    out = {key: {"value": float(metrics[key]), "unit": unit}
           for key, unit, *_ in (PER_LAYER if trace else END_TO_END)}
    for key, metric in out.items():
        if not math.isfinite(metric["value"]):
            raise RuntimeError(f"metric {key} is {metric['value']}")
    record = run_record(name, seed, seconds, trace, refs, specs)
    record.update(tail=tails, fail_frac=len(loop.failures) / loop.attempted,
                  failures=loop.failures[:5])
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": out,
    }
    return record, result


def _run_all(args) -> int:
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_source_tree()
    import spec
    from workloads import WORKLOADS

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        import gate

        workdir = _workdir()
        try:
            WORKLOADS[args.workload].make_specs(args.seed, gate.load_refs(), workdir)
        finally:
            _remove_workdir(workdir)
        return 0
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    record, result = run_workload(args.workload, args.seed, seconds, args.trace)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
