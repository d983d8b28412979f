"""Names, units and bounds of every metric the benchmark prints.

BENCHMARK.json at the repository root repeats these lists; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("ops_per_s", "ops/s", "higher", 0.24),
    ("latency_p50_ms", "ms", "lower", 0.24),
    ("latency_p90_ms", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "p50_ms": "ms",
    "fail": "count",
    "deadline_missed": "count",
    "models_per_s": "1/s",
    "rules_per_s": "1/s",
}


def _expand(prefix: str, stats: str) -> list[str]:
    return [f"{prefix}.{s}" for s in stats.split()]


_LAYER_NAMES = (
    _expand("consequence.logical_consequence.holds", "calls busy_s p50_ms")
    + _expand("consequence.logical_consequence.counterexample", "calls busy_s p50_ms")
    + _expand("consequence.logical_consequence", "deadline_missed")
    + _expand("consequence.entails_bridge_rule", "calls busy_s")
    + _expand("consequence.enumerate_models", "busy_s models models_per_s")
    + _expand("semantics.check_theory", "calls busy_s p50_ms rules_per_s violations")
    + _expand("semantics.satisfies_local", "calls busy_s p50_ms")
    + _expand("semantics.load_model", "busy_s")
    + _expand("semantics.validate_model", "busy_s")
    + _expand("relations.relation_has_property", "calls busy_s")
    + _expand("syntax.parse_theory", "calls busy_s p50_ms")
    + _expand("syntax.render_theory", "busy_s")
    + _expand("syntax.parse_labeled_formula", "busy_s")
    + _expand("calculus.load_proof_script", "busy_s")
    + _expand("calculus.parse_proof_script", "busy_s")
    + _expand("calculus.check_proof", "calls busy_s p50_ms violations")
    + _expand("prover.tableau_valid", "calls busy_s p50_ms proved open")
    + _expand("mcs.parse_prop_system", "busy_s")
    + _expand("mcs.fixpoint_steps", "busy_s steps")
    + _expand("mcs.minimal_model", "busy_s")
    + _expand("encodings.encode_text", "calls busy_s p50_ms rules fail")
    + [f"encodings.encode_text.{d}.busy_s" for d in ("ddl", "econn", "pdl", "qml", "qlc")]
)

# The traced run's own cost: the rate of its traced rounds against that of
# the untraced rounds interleaved with them.
TRACE_METRICS = [
    ("trace.ops_per_s", "ops/s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]

PER_LAYER = [(name, _UNITS.get(name.rpartition(".")[2], "count")) for name in _LAYER_NAMES] + TRACE_METRICS


def per_layer(stats: dict[str, float], trace: dict[str, float]) -> dict[str, dict]:
    """Every PER_LAYER metric from span statistics; a layer a workload
    never calls reads 0."""
    derived = dict(stats)
    for key, count in (("consequence.enumerate_models", "models"), ("semantics.check_theory", "rules")):
        busy = stats.get(f"{key}.busy_s", 0.0)
        derived[f"{key}.{count}_per_s"] = stats.get(f"{key}.{count}", 0) / busy if busy else 0.0
    derived.update(trace)
    return {name: {"value": derived.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
