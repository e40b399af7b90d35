"""Tests of the serving benchmark itself, at tiny scale.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.oracle import MatrixLinearScan, expected_answers, failures
from perfbench.workloads import WORKLOADS, make_inputs
from repro.baselines.linear_scan import LinearScan

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: the smallest inputs each workload still behaves like itself on
TINY = {
    "hotkey-vector-mixed": dict(num_indexed=300, requests_per_stream=60),
    "churn-tloc-updates": dict(num_indexed=300, requests_per_stream=200),
    # the tier must hold one default block: 8192 2-d points per 2 shards
    "outofcore-sharded-knn": dict(num_indexed=8192, requests_per_stream=20),
}


def tiny_inputs(name: str, seed: int = 3):
    config = dataclasses.replace(WORKLOADS[name], streams=1, **TINY[name])
    return make_inputs(config, seed)


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return json.loads(BENCHMARK.read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    inputs = tiny_inputs(request.param)
    return (inputs,) + harness.run_traced(inputs)


def test_benchmark_json_parses_and_names_the_workloads(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} == {
        name: config.why for name, config in WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in benchmark_json["workloads"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in benchmark_json["end_to_end"]
    )


def test_metric_names_are_well_formed(benchmark_json):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in benchmark_json[key]]
    names += [w["name"] for w in benchmark_json["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_traced_and_untraced_runs_agree(traced_run):
    inputs, checked, untraced, traced, _ = traced_run
    assert checked.failed == 0, checked.notes
    for plain, with_trace in zip(untraced, traced):
        assert with_trace.results == plain.results
        assert with_trace.fingerprint == plain.fingerprint


def test_runs_emit_exactly_the_declared_metrics(traced_run, benchmark_json):
    inputs, checked, untraced, traced, tracer = traced_run
    layer, _ = harness.per_layer(inputs, traced, untraced, tracer)
    declared = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert {k: unit for k, (_, unit) in layer.items()} == declared
    e2e, _ = harness.end_to_end(inputs, checked, rss_mib=1.0)
    declared = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    assert {k: unit for k, (_, unit) in e2e.items()} == declared
    assert all(value > 0 for value, _ in e2e.values())


def test_layer_shares_count_serving_alone(traced_run):
    inputs, checked, untraced, traced, tracer = traced_run
    layer, _ = harness.per_layer(inputs, traced, untraced, tracer)
    shares = {k: value for k, (value, unit) in layer.items() if k.endswith("_share")}
    assert shares and all(0.0 <= value <= 1.0 for value in shares.values()), shares
    assert layer["construction.build_s"][0] > 0
    assert 0.0 <= layer["tier.hit_rate"][0] <= 1.0


def test_tracing_restores_the_program():
    from repro import GTS, Device

    before = (GTS.__dict__["knn_query_batch"], Device.__dict__["launch_kernel"])
    inputs = tiny_inputs("hotkey-vector-mixed")
    harness.serve_round(inputs, 0, harness.Tracer())
    assert (GTS.__dict__["knn_query_batch"], Device.__dict__["launch_kernel"]) == before


def test_matrix_scan_answers_like_linear_scan():
    inputs = tiny_inputs("hotkey-vector-mixed")
    stream = inputs.streams[0]
    fast, reference = MatrixLinearScan(inputs.new_metric()), LinearScan(inputs.new_metric())
    fast.build(stream.indexed)
    reference.build(stream.indexed)
    queries = list(stream.objects[:5])
    for k in (1, 8, len(stream.indexed), len(stream.indexed) + 3):
        assert fast.knn_query_batch(queries, k) == reference.knn_query_batch(queries, k)
    # duplicated rows tie at every distance: ties must still break by id
    fast.build(np.repeat(stream.indexed[:40], 3, axis=0))
    reference.build(np.repeat(stream.indexed[:40], 3, axis=0))
    assert fast.knn_query_batch(queries, 8) == reference.knn_query_batch(queries, 8)
    assert fast.range_query_batch(queries, stream.radius) == reference.range_query_batch(
        queries, stream.radius
    )


@pytest.mark.parametrize("name", ["hotkey-vector-mixed", "churn-tloc-updates"])
def test_oracle_flags_corrupted_answers(name):
    inputs = tiny_inputs(name)
    stream = inputs.streams[0]
    served = harness.serve_round(inputs, 0)
    expected = expected_answers(inputs, stream)
    assert failures(inputs, stream, served.results, expected) == set()

    corrupted = copy.deepcopy(served.results)
    range_at = next(i for i, r in enumerate(stream.requests) if r.kind == "range" and corrupted[i])
    knn_at = next(i for i, r in enumerate(stream.requests) if r.kind == "knn")
    corrupted[range_at] = corrupted[range_at][:-1]  # a missing hit
    oid, dist = corrupted[knn_at][0]
    corrupted[knn_at][0] = (oid + 1, dist)  # a wrong neighbour
    flagged = {range_at, knn_at}
    if name == "churn-tloc-updates":
        insert_at = next(i for i, r in enumerate(stream.requests) if r.kind == "insert")
        corrupted[insert_at] += 1  # a wrong id for an inserted object
        flagged.add(insert_at)
    assert failures(inputs, stream, corrupted, expected) == flagged
    assert failures(inputs, stream, corrupted[:-1], expected) == flagged | {len(corrupted) - 1}
