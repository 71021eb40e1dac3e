"""What the benchmark measures, and what each layer metric is expected to move.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``), so the workload reasons, the
metric bounds and the layer predictions live in one place.  The predictions
are stated before any optimisation lands: a later change that speeds up one
layer should move the end-to-end metric named here, on the workload named
here, and leave the others alone.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50

WORKLOADS = [
    {"name": "verify237",
     "why": "the paper's (2,3,7) certification with the 27-word table; tail b1 "
            "(csch_k1_array over 1e7 indices) dominates cold and warm, where a "
            "cheaper tail bound must show"},
    {"name": "spectrum_enum",
     "why": "enumerate_classes(16) into the hyperbolic head and growth check: word "
            "calculus and scalar csch_k1, zero Struve calls and no tail, so kernel "
            "or tail speed-ups must leave it unchanged"},
]

# Bounds are shares of the parent's median.  On the shared 2-core machine the
# benchmark was tuned on, interpreter-bound code switches between two speeds
# up to 2x apart, for seconds to minutes at a time, so every timing gets the
# largest bound allowed; peak memory is nearly deterministic.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "warm_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cli_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# name, unit, better, prediction (layer -> end-to-end metric -> workload)
_K_COLD = "verify237 wall_s and cli_s; no warm_s, not spectrum_enum"
_SERIES = "verify237 warm_s, a small share (the elliptic and identity series loops)"
_ENUM = "spectrum_enum wall_s"
_LAYERS = [
    ("specfun.struve_k.calls", "count", "lower", _K_COLD),
    ("specfun.struve_k.misses", "count", "lower", _K_COLD),
    ("specfun.struve_k.hit_ratio", "ratio", "higher", _K_COLD),
    ("specfun.struve_k.s", "s", "lower", _K_COLD),
    ("specfun.struve_k.route.integral_rep", "count", "lower", _K_COLD),
    ("specfun.struve_k.route.series", "count", "lower", _K_COLD),
    ("specfun.struve_k.route.asymptotic", "count", "lower", _K_COLD),
    ("specfun.struve_k.route.closed_form", "count", "lower", _K_COLD),
    ("specfun.struve_k.z_le12.n", "count", "lower", _K_COLD),
    ("specfun.struve_k.z_le12.s", "s", "lower", _K_COLD),
    ("specfun.struve_k.z_12_40.n", "count", "lower", _K_COLD),
    ("specfun.struve_k.z_12_40.s", "s", "lower", _K_COLD),
    ("specfun.struve_k.z_ge40.n", "count", "lower", _K_COLD),
    ("specfun.struve_k.z_ge40.s", "s", "lower", _K_COLD),
    ("specfun.csch_k1_array.s", "s", "lower", "verify237 wall_s and warm_s"),
    ("specfun.csch_k1_array.elements", "count", "lower", "verify237 wall_s and warm_s"),
    ("specfun.csch_k1.calls", "count", "lower", _ENUM),
    ("specfun.csch_k1.s", "s", "lower", _ENUM),
    ("quadrature.adaptive_quadrature.calls", "count", "lower", "verify237 wall_s"),
    ("quadrature.adaptive_quadrature.s", "s", "lower", "verify237 wall_s"),
    ("quadrature.adaptive_quadrature.evaluations", "count", "lower", "verify237 wall_s"),
    ("quadrature.adaptive_quadrature.unconverged", "count", "lower", "verify237 wall_s"),
    ("quadrature.adaptive_quadrature.evaluations_per_miss", "count/miss", "lower",
     "verify237 wall_s"),
    ("contributions.elliptic_contribution.self_s", "s", "lower", _SERIES),
    ("contributions.identity_series.self_s", "s", "lower", _SERIES),
    ("contributions.tail_direct_sum.s", "s", "lower", "verify237 wall_s, warm_s and cli_s"),
    ("contributions.tail_direct_sum.terms", "count", "lower", "verify237 wall_s, warm_s and cli_s"),
    ("contributions.hyperbolic_contribution.calls", "count", "lower", _ENUM),
    ("contributions.hyperbolic_contribution.s", "s", "lower", _ENUM),
    ("contributions.geodesic_contribution.calls", "count", "lower", _ENUM),
    ("contributions.geodesic_contribution.s", "s", "lower", _ENUM),
    ("contributions.assumption_check.calls", "count", "lower", _ENUM),
    ("contributions.assumption_check.s", "s", "lower", _ENUM),
    ("contributions.casimir_energy.self_s", "s", "lower", "verify237 wall_s"),
    ("compensated.NeumaierSum.adds", "count", "lower", _SERIES),
    ("triangle.enumerate_classes.calls", "count", "lower", _ENUM),
    ("triangle.enumerate_classes.s", "s", "lower", _ENUM),
    ("triangle.enumerate_classes.classes", "count", "lower", _ENUM),
    ("triangle.word_orbit.calls", "count", "lower", _ENUM),
    ("triangle.word_orbit.s", "s", "lower", _ENUM),
    ("triangle.canonical_rotation.calls", "count", "lower", _ENUM),
    ("triangle.canonical_rotation.s", "s", "lower", _ENUM),
    ("triangle.word_to_matrix.calls", "count", "lower", _ENUM),
    ("triangle.word_to_matrix.s", "s", "lower", _ENUM),
    ("triangle.table_corpus.s", "s", "lower", "verify237 wall_s"),
    ("cli.run.s", "s", "lower", "cli_s and setup_s"),
    ("cli.emit_breakdown.s", "s", "lower", "cli_s and setup_s"),
    ("setup.scipy_special_s", "s", "lower", "cli_s and setup_s"),
    # measured beside the layers: the untraced iteration in the same process,
    # what tracing cost, the machine-speed calibration and the check tally
    ("bench.wall_s", "s", "lower", "reference for the layer shares of wall_s"),
    ("bench.warm_s", "s", "lower", "reference for the layer shares of warm_s"),
    ("bench.traced_wall_s", "s", "lower", "tracing overhead reference"),
    ("bench.tracing_overhead_s", "s", "lower", "tracing overhead"),
    ("bench.spans", "count", "lower", "tracing overhead"),
    ("bench.calibration_s", "s", "lower", "machine-speed drift, moved by no change"),
    ("bench.error_rate", "ratio", "lower", "0 on every workload"),
    ("env.nproc", "count", "higher", "machine description"),
]

PER_LAYER = [{"name": n, "unit": u, "better": b} for n, u, b, _ in _LAYERS]
PREDICTIONS = {n: p for n, _, _, p in _LAYERS}


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
