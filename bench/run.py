"""Benchmark for the dfol toolkit.

    python3 bench/run.py --workload entail|toolchain \
        --seed N --seconds S --trace 0|1

Runs one workload closed-loop (one caller, one thread, no think time) in a
fresh interpreter, checks every operation's output against the
expectation its seeded generator built, and prints the metrics by name
with their units.  ``setup_s`` is the median over seven fresh
interpreters.  ``--trace 1`` runs the loop with spans around every public
call instead, prints the per-layer metrics and the tracing overhead, and
writes the spans under bench/out/.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from generators import GENERATORS
from metrics import END_TO_END

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def child(args: argparse.Namespace, mode: str) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metrics_of(res: dict, trace: bool) -> dict[str, dict]:
    """The metrics the final JSON line carries: per-layer with tracing on,
    end-to-end otherwise."""
    if trace:
        return res["layers"]
    return {name: {"value": res[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dfol" / "__init__.py").is_file():
        sys.exit(f"no dfol sources under {ROOT / 'src'}")

    # Set-up samples come from fresh interpreters on both sides of the loop,
    # so that a slow spell of the host does not hold all of them.
    extra = 0 if args.trace else SETUP_SAMPLES // 2
    setups = [child(args, "setup")["setup_s"] for _ in range(extra)]
    res = child(args, "loop")
    setups += [res["setup_s"]] + [child(args, "setup")["setup_s"] for _ in range(extra)]
    res["setup_s"] = statistics.median(setups)

    # A probe of a known defect may fail or, once the defect is fixed,
    # pass; a wrong output from it is a failure like any other.
    probes_ok = all(p["status"] != "wrong" for p in res["probes"])
    print(f"workload {args.workload}, seed {args.seed}: {res['rounds']} rounds of {res['ops_per_round']} operations")
    print(f"latency samples: {res['attempted']}, failed: {res['failed']}")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    for p in res["probes"]:
        detail = f": {p['detail']}" if p["detail"] else ""
        print(f"  known-defect probe {p['name']} ({p['defect']}): {p['status']}{detail}")
    if args.trace:
        print(f"spans written to {res['trace_file']}")
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = metrics_of(res, bool(args.trace))
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0 and probes_ok,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
