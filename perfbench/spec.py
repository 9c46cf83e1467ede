"""The benchmark's definition; ``run.py --write-spec`` writes it to BENCHMARK.json."""

from workloads import CLI_COMMANDS, WORKLOADS

RUN_SECONDS = 50

# name, unit, better, bound (share of the parent's median a change may lose).
# On a shared 2-vCPU machine the speed drifts by up to about 15% over
# minutes, so time bounds sit near the 0.25 ceiling; setup keeps the largest.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.24),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# name, unit, better.  Times are medians per operation over the operations
# that make the call; "<layer>.self_s" is the layer's mean self time per
# operation.  Units ending in "-computed" are derived from N, not measured.
PER_LAYER = [
    ("kernel.oseen_s", "s", "lower"),
    ("kernel.pairs", "count", "lower"),
    ("kernel.pairs_per_s", "1/s", "higher"),
    ("kernel.series_frac", "fraction", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("mobility.assemble_s", "s", "lower"),
    ("mobility.cholesky_s", "s", "lower"),
    ("mobility.factor_gflop", "GFLOP-computed", "lower"),
    ("mobility.matrix_mb", "MB-computed", "lower"),
    ("mobility.peak_over_matrix", "ratio", "lower"),
    ("mobility.resistance_s", "s", "lower"),
    ("mobility.condition", "ratio", "lower"),
    ("mobility.indefinite_fallbacks", "count", "lower"),
    ("mobility.self_s", "s", "lower"),
    ("geometry.discretize_s", "s", "lower"),
    ("geometry.n_nodes", "count", "lower"),
    ("geometry.diameter_s", "s", "lower"),
    ("geometry.rotations_redrawn", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("symmetry.report_s", "s", "lower"),
    ("symmetry.invariant_frac", "fraction", "higher"),
    ("symmetry.self_s", "s", "lower"),
    ("freefall.steady_states_s", "s", "lower"),
    ("freefall.states", "count", "higher"),
    ("freefall.consistent_frac", "fraction", "higher"),
    ("freefall.self_s", "s", "lower"),
    ("dynamics.fixed_points_s", "s", "lower"),
    ("dynamics.fixed_points_found", "count", "higher"),
    ("dynamics.integrate_s", "s", "lower"),
    ("dynamics.rk4_steps_per_s", "1/s", "higher"),
    ("dynamics.self_s", "s", "lower"),
    ("serialize.json_s", "s", "lower"),
    ("serialize.csv_s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *[(f"cli.{cmd}_s", "s", "lower") for cmd in CLI_COMMANDS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
