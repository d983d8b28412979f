"""One workload in a fresh interpreter.

Generates the seeded inputs, then times set-up from just before
``import dfol`` until the loop starts: the import, parsing and loading the
standing theories, queries, formulas and models, and one untimed warm-up
operation per family.  With ``--mode setup`` it stops there; otherwise it
runs the closed loop, then the known-defect probes, and prints one JSON
object as its last line.  ``run.py`` starts it; it is not meant to be run
by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import generators
from harness import percentile_ms, run_loop, timed_call
from metrics import per_layer
from spans import Tracer, layer_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_dfol():
    """dfol from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dfol

    if Path(dfol.__file__).resolve().parent != (src / "dfol").resolve():
        raise SystemExit(f"dfol was imported from {dfol.__file__}, not from {src}")


def measure(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool = False) -> dict:
    texts, specs, probe_specs = generators.build(workload, seed)

    start = time.perf_counter()
    import_dfol()
    import workloads

    tracer = Tracer(trace)
    ctx = workloads.Context(texts, tracer)
    ops = workloads.make_ops(ctx, specs)
    probes = workloads.make_ops(ctx, probe_specs, first_id=len(ops))
    deadline = workloads.DEADLINE_S[workload]
    for op, spec in zip(ops, specs):
        if spec["warm"]:
            timed_call(op.call, deadline)
    setup_s = time.perf_counter() - start
    if setup_only:
        return {"setup_s": setup_s}

    loop = run_loop(ops, seconds, deadline, tracer, alternate=trace)
    tracer.enabled = trace
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_results = []
    for op, spec in zip(probes, probe_specs):
        tracer.op = op.id
        out, _, error = timed_call(op.call, deadline)
        wrong = None if error else op.check(out)
        status = "fails" if error else ("wrong" if wrong else "passes")
        probe_results.append({"name": op.name, "defect": spec["defect"], "status": status, "detail": error or wrong})

    result = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": [f"op {i} {name}: {cause}" for i, name, cause in loop.failures[:20]],
        "rounds": len(loop.rounds),
        "ops_per_round": len(ops),
        "probes": probe_results,
        "ops_per_s": loop.ok_per_s(),
        "latency_p50_ms": percentile_ms(loop, 50),
        "latency_p90_ms": percentile_ms(loop, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        spans = tracer.spans
        traced = loop.ok_per_s(loop.rounds[0::2])
        plain = loop.ok_per_s(loop.rounds[1::2])
        overhead = {
            "trace.ops_per_s": traced,
            "trace.untraced_ops_per_s": plain,
            "trace.overhead_pct": (plain / traced - 1) * 100,
            "trace.spans": len(spans),
        }
        result["layers"] = per_layer(layer_stats(spans), overhead)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.dump(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(generators.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("loop", "setup"), default="loop")
    args = ap.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.mode == "setup")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
