"""Tests for the evaluation harness: workloads, runner, reporting, experiments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import available_methods
from repro.datasets import generate_tloc, generate_words
from repro.evalsuite import (
    ExperimentResult,
    MethodRunner,
    STATUS_OK,
    STATUS_OOM,
    STATUS_UNSUPPORTED,
    compute_recall,
    format_bytes,
    format_seconds,
    format_table,
    format_throughput,
    make_workload,
    radius_for_selectivity,
    rows_to_csv,
    sample_pairwise_distances,
)
from repro.evalsuite.experiments import (
    ablation_prune_and_pivot,
    experiment_fig6_node_capacity,
    experiment_fig9_batch_size,
    experiment_fig10_identical_objects,
    experiment_table4_construction,
    experiment_table5_cache_size,
)
from repro.exceptions import BaselineError, QueryError
from repro.gpusim import DeviceSpec, MiB


@pytest.fixture(scope="module")
def tloc_small():
    return generate_tloc(800, seed=3)


class TestWorkloads:
    def test_sample_pairwise_distances(self, tloc_small):
        d = sample_pairwise_distances(tloc_small.objects, tloc_small.metric, sample_size=50)
        assert len(d) > 0 and np.all(d >= 0)

    def test_radius_for_selectivity_monotone(self, tloc_small):
        small = radius_for_selectivity(tloc_small.objects, tloc_small.metric, 0.001)
        large = radius_for_selectivity(tloc_small.objects, tloc_small.metric, 0.5)
        assert 0 < small <= large

    def test_radius_selectivity_roughly_respected(self, tloc_small):
        radius = radius_for_selectivity(tloc_small.objects, tloc_small.metric, 0.01)
        arr = np.asarray(tloc_small.objects)
        q = arr[0]
        frac = np.mean(np.sqrt(((arr - q) ** 2).sum(1)) <= radius)
        assert frac < 0.3  # selective, not a full scan

    def test_invalid_selectivity(self, tloc_small):
        with pytest.raises(QueryError):
            radius_for_selectivity(tloc_small.objects, tloc_small.metric, 0.0)

    def test_make_workload_shapes(self, tloc_small):
        wl = make_workload(tloc_small, num_queries=16, radius_step=8, k=4)
        assert wl.batch_size == 16
        assert wl.radius > 0 and wl.k == 4 and 0 < wl.selectivity <= 0.02


class TestRunner:
    def test_build_and_query_gts(self, tloc_small):
        runner = MethodRunner("GTS", tloc_small)
        build = runner.build()
        assert build.status == STATUS_OK
        assert build.sim_time > 0 and build.storage_bytes > 0
        wl = make_workload(tloc_small, num_queries=8)
        mrq = runner.run_mrq(wl.queries, wl.radius)
        assert mrq.status == STATUS_OK and mrq.throughput > 0
        knn = runner.run_knn(wl.queries, 4)
        assert knn.status == STATUS_OK and knn.num_queries == 8

    def test_unknown_method_rejected(self, tloc_small):
        with pytest.raises(BaselineError):
            MethodRunner("NoSuchMethod", tloc_small)

    def test_unsupported_method_reports_status(self):
        words = generate_words(200, seed=5)
        runner = MethodRunner("GANNS", words)
        build = runner.build()
        assert build.status == STATUS_UNSUPPORTED

    def test_oom_reported_not_raised(self, tloc_small):
        runner = MethodRunner(
            "GPU-Tree", tloc_small, device_spec=DeviceSpec(memory_bytes=1 * MiB)
        )
        build = runner.build()
        assert build.status == STATUS_OK
        wl = make_workload(tloc_small, num_queries=512)
        res = runner.run_mrq(wl.queries, wl.radius)
        assert res.status == STATUS_OOM

    def test_recall_computed_against_ground_truth(self, tloc_small):
        oracle = MethodRunner("LinearScan", tloc_small)
        oracle.build()
        wl = make_workload(tloc_small, num_queries=8)
        truth = oracle.index.knn_query_batch(wl.queries, 4)
        runner = MethodRunner("GTS", tloc_small)
        runner.build()
        res = runner.run_knn(wl.queries, 4, ground_truth=truth)
        assert res.recall == pytest.approx(1.0)

    def test_stream_and_batch_update_measurements(self, tloc_small):
        runner = MethodRunner("GTS", tloc_small)
        runner.build()
        stream = runner.run_stream_updates(5)
        assert stream.status == STATUS_OK
        assert stream.params["time_per_update"] > 0
        batch = runner.run_batch_update(fraction=0.05)
        assert batch.status == STATUS_OK
        assert batch.params["count"] == int(0.05 * len(tloc_small.objects))

    def test_compute_recall_empty_truth(self):
        assert compute_recall([[(1, 0.0)]], [[]]) == 1.0

    def test_compute_recall_partial(self):
        got = [[(1, 0.1), (2, 0.2)]]
        truth = [[(1, 0.1), (3, 0.15)]]
        assert compute_recall(got, truth) == pytest.approx(0.5)

    def test_queries_before_build_rejected(self, tloc_small):
        runner = MethodRunner("GTS", tloc_small)
        with pytest.raises(BaselineError):
            runner.run_mrq([], 1.0)


class TestReporting:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KB"
        assert "MB" in format_bytes(5 * 1024 * 1024)

    def test_format_seconds(self):
        assert "ns" in format_seconds(1e-8)
        assert "us" in format_seconds(5e-5)
        assert "ms" in format_seconds(5e-3)
        assert format_seconds(2.0) == "2.000 s"

    def test_format_throughput(self):
        assert "q/min" in format_throughput(100.0)
        assert "e" in format_throughput(1e7)

    def test_format_table_and_csv(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        text = format_table(rows, ["a", "b"], title="demo")
        assert "demo" in text and "a" in text and "y" in text
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0] == "a,b"

    def test_experiment_result_helpers(self):
        result = ExperimentResult(experiment="t", title="demo")
        result.add_row(method="GTS", x=1, y=2.0)
        result.add_row(method="BST", x=2, y=3.0)
        assert result.filter(method="GTS")[0]["y"] == 2.0
        assert result.series("x", "y", method="BST") == [(2, 3.0)]
        assert "demo" in result.to_text()
        assert "method" in result.to_csv()


class TestExperimentsSmallScale:
    """Each experiment runs end-to-end at a tiny scale and produces sane rows."""

    def test_table4_small(self):
        res = experiment_table4_construction(
            datasets=("tloc",), methods=("MVPT", "GTS"), cardinalities={"tloc": 400}
        )
        assert len(res.rows) == 2
        gts = res.filter(dataset="tloc", method="GTS")[0]
        assert gts["status"] == STATUS_OK and gts["time_s"] > 0

    def test_table5_smallest_cache_holds_one_word(self):
        # words reach 17+ bytes: a 0.01 KB (10 B) budget must still take the
        # re-insert of any of them
        res = experiment_table5_cache_size(
            datasets=("words",), cache_sizes_kb=(0.01,), num_updates=6,
            cardinalities={"words": 300},
        )
        (row,) = res.rows
        assert row["status"] == STATUS_OK and row["time_per_op_s"] > 0
        assert row["rebuilds"] >= 1

    def test_fig6_small(self):
        res = experiment_fig6_node_capacity(
            datasets=("tloc",), node_capacities=(10, 40), num_queries=8,
            cardinalities={"tloc": 400},
        )
        assert {row["node_capacity"] for row in res.rows} == {10, 40}
        assert all(row["mrq_throughput"] > 0 for row in res.rows)

    def test_fig9_small_includes_oom(self):
        res = experiment_fig9_batch_size(
            datasets=("tloc",), methods=("GPU-Tree", "GTS"), batch_sizes=(16, 256),
            cardinalities={"tloc": 400}, device_memory_mb=1.5,
        )
        gts_rows = res.filter(method="GTS")
        assert all(r["status"] == STATUS_OK for r in gts_rows)
        tree_256 = res.filter(method="GPU-Tree", batch_size=256)[0]
        assert tree_256["status"] == STATUS_OOM

    def test_fig10_small(self):
        res = experiment_fig10_identical_objects(
            datasets=("tloc",), distinct_proportions=(0.5, 1.0), num_queries=8,
            cardinalities={"tloc": 400},
        )
        assert len(res.rows) == 2
        assert all(r["status"] == STATUS_OK for r in res.rows)

    def test_ablation_prune_and_pivot_small(self):
        res = ablation_prune_and_pivot(dataset_name="tloc", num_queries=8, cardinality=400)
        ok_rows = [r for r in res.rows if r["status"] == STATUS_OK]
        assert len(ok_rows) == 4
        two_sided = [r for r in ok_rows if r["prune"] == "two-sided" and r["pivot"] == "fft"][0]
        one_sided = [r for r in ok_rows if r["prune"] == "one-sided"][0]
        assert two_sided["mrq_distances"] <= one_sided["mrq_distances"]


class TestMethodRegistryCompleteness:
    def test_all_paper_methods_present(self):
        names = set(available_methods())
        assert {"BST", "EGNAT", "MVPT", "GPU-Table", "GPU-Tree", "LBPG-Tree", "GANNS", "GTS"} <= names
