"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import generators  # noqa: E402
import run  # noqa: E402
from harness import Op, run_loop  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import import_dfol, measure  # noqa: E402

WORKLOADS = sorted(generators.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert generators.build(workload, 7) == generators.build(workload, 7)
    assert generators.build(workload, 7) != generators.build(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operation_names_are_unique(workload):
    _, ops, probes = generators.build(workload, 1)
    names = [op["name"] for op in ops + probes]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_keeps_the_mix_of_operation_kinds(workload):
    def kinds(seed):
        _, ops, probes = generators.build(workload, seed)
        fields = ("family", "theory", "bound", "dialect", "holds", "code", "steps", "rules", "models")
        return sorted(str([op.get(f) for f in fields]) for op in ops + probes)

    assert kinds(1) == kinds(2)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_one_round_emits_every_metric_and_checks_out(workload, trace):
    res = measure(workload, seed=3, seconds=0.001, trace=trace)
    assert res["rounds"] == (2 if trace else 1)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == res["ops_per_round"] * res["rounds"]
    assert all(p["status"] != "wrong" for p in res["probes"])
    metrics = run.metrics_of(res, trace)
    expected = [name for name, _ in PER_LAYER] if trace else [name for name, *_ in END_TO_END]
    assert list(metrics) == expected
    for m in metrics.values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


def test_known_defects_are_probed_not_counted():
    res = measure("toolchain", seed=4, seconds=0.001, trace=True)
    assert res["failed"] == 0
    assert [p["status"] for p in res["probes"]] == ["fails"] * 3
    assert res["layers"]["encodings.encode_text.fail"]["value"] == 3


def _entail_ops(specs, tracer):
    import_dfol()
    import workloads

    texts, _, _ = generators.build("entail", 5)
    ctx = workloads.Context(texts, tracer)
    return workloads.make_ops(ctx, specs)


def test_wrong_expectation_counts_as_failure():
    _, specs, _ = generators.build("entail", 5)
    spec = next(s for s in specs if s["family"] == "consequence" and s["theory"].startswith("chain"))
    wrong = dict(spec, holds=not spec["holds"])
    res = run_loop(_entail_ops([spec, wrong], Tracer(False)), seconds=0, deadline_s=5, tracer=Tracer(False), rounds=1)
    assert res.attempted == 2
    assert [op_id for op_id, _, _ in res.failures] == [1]
    assert "expected" in res.failures[0][2]


def test_deadline_records_failure_without_hanging():
    def forever():
        while True:
            pass

    ops = [Op(0, "spin", "spin", forever, lambda out: None), Op(1, "quick", "quick", lambda: 1, lambda out: None)]
    start = time.perf_counter()
    res = run_loop(ops, seconds=0, deadline_s=0.2, tracer=Tracer(False), rounds=1)
    assert time.perf_counter() - start < 2
    assert [(op_id, "deadline" in cause) for op_id, _, cause in res.failures] == [(0, True)]


def test_deadline_interrupts_a_search_and_is_traced():
    _, _, probes = generators.build("entail", 5)
    tracer = Tracer(True)
    start = time.perf_counter()
    res = run_loop(_entail_ops(probes, tracer), seconds=0, deadline_s=0.3, tracer=tracer, rounds=1)
    assert time.perf_counter() - start < 3
    assert len(res.failures) == 1 and "deadline" in res.failures[0][2]
    searches = [s for s in tracer.spans if s.name == "consequence.logical_consequence"]
    assert [s.error for s in searches] == ["deadline_missed"]


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
