"""Tests of the concurrent query-serving layer (repro.service).

The load-bearing property is *sequential equivalence*: whatever the
scheduling policy does, the answers a served stream receives must be
identical to replaying the same stream one request at a time against a bare
index.  The rest covers the policies' dispatch decisions, the workload
generator's determinism/skew, the latency accounting, and the scheduler's
edge cases (empty streams, oversized batches, tiny devices).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import GTS, EuclideanDistance
from repro.exceptions import QueryError
from repro.gpusim import Device, DeviceSpec, ExecutionStats, PhaseTimer
from repro.service import (
    DeadlineAwarePolicy,
    GreedyBatchPolicy,
    GTSService,
    Request,
    WorkloadSpec,
    generate_workload,
    make_policy,
    sequential_replay,
    summarize,
)


@pytest.fixture
def pool(rng) -> np.ndarray:
    """Clustered points: the first 400 are indexed, the rest insertable."""
    centers = rng.normal(scale=8.0, size=(5, 2))
    return centers[rng.integers(0, 5, size=450)] + rng.normal(scale=0.4, size=(450, 2))


NUM_INDEXED = 400


def build_index(pool, **kwargs) -> GTS:
    kwargs.setdefault("node_capacity", 16)
    kwargs.setdefault("seed", 5)
    return GTS.build(pool[:NUM_INDEXED], EuclideanDistance(), **kwargs)


def make_stream(pool, *, duration=1.5e-3, deadline=None, seed=3, mix=None) -> list:
    spec = WorkloadSpec(
        num_clients=4,
        rate_per_client=40_000.0,
        duration=duration,
        radius=0.8,
        k=6,
        mix=mix or {"range": 0.35, "knn": 0.35, "insert": 0.2, "delete": 0.1},
        deadline=deadline,
        seed=seed,
    )
    return generate_workload(pool, NUM_INDEXED, spec).requests


# ---------------------------------------------------------------------------
# GTS.execute_batch — the mixed-batch entry point
# ---------------------------------------------------------------------------
class TestExecuteBatch:
    def test_matches_individual_calls(self, pool):
        index = build_index(pool)
        q = pool[:3]
        ops = [("range", q[0], 0.9), ("knn", q[1], 5), ("range", q[2], 0.4)]
        got = index.execute_batch(ops)
        assert got[0] == index.range_query(q[0], 0.9)
        assert got[1] == index.knn_query(q[1], 5)
        assert got[2] == index.range_query(q[2], 0.4)

    def test_updates_are_barriers(self, pool):
        index = build_index(pool)
        new_obj = pool[NUM_INDEXED]
        before, insert_result, after = index.execute_batch(
            [("knn", new_obj, 1), ("insert", new_obj), ("knn", new_obj, 1)]
        )
        assert insert_result == NUM_INDEXED  # ids are append-ordered
        # the query after the insert sees the new object at distance 0 ...
        assert after[0] == (NUM_INDEXED, 0.0)
        # ... the query before it does not
        assert before[0] != (NUM_INDEXED, 0.0)

    def test_delete_filters_results(self, pool):
        index = build_index(pool)
        target = int(index.knn_query(pool[0], 1)[0][0])
        results = index.execute_batch([("delete", target), ("knn", pool[0], 1)])
        assert results[0] is None
        assert results[1][0][0] != target

    def test_unknown_kind_rejected(self, pool):
        index = build_index(pool)
        with pytest.raises(QueryError):
            index.execute_batch([("frobnicate", pool[0], 1)])

    def test_empty_batch(self, pool):
        index = build_index(pool)
        assert index.execute_batch([]) == []

    def test_per_query_parameters(self, pool):
        index = build_index(pool)
        ops = [("knn", pool[0], 2), ("knn", pool[1], 7)]
        got = index.execute_batch(ops)
        assert len(got[0]) == 2 and len(got[1]) == 7

    def test_malformed_batch_rejected_before_anything_runs(self, pool):
        index = build_index(pool)
        stats = index.device.stats.copy()
        size, cached = len(index), index.cache_size
        for bad_op in (
            ("frobnicate", pool[0], 1),
            ("range", pool[0]),
            ("knn", pool[0]),
            ("insert",),
            ("delete",),
            (),
            ("knn", pool[0], "x"),
            ("range", pool[0], "wide"),
            ("delete", "x"),
        ):
            # the error names the bad operation's position in the batch
            with pytest.raises(QueryError, match="operation 1"):
                index.execute_batch([("insert", pool[NUM_INDEXED]), bad_op])
        assert (len(index), index.cache_size) == (size, cached)
        assert index.device.stats == stats


# ---------------------------------------------------------------------------
# Coalescing: one batch call per query kind between update barriers
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_update_free_batch_makes_one_call_per_kind(self, pool, spy_batch_calls):
        index = build_index(pool)
        calls = spy_batch_calls(index)
        ops = [("range", pool[i], 0.8) if i % 2 else ("knn", pool[i], 5) for i in range(9)]
        got = index.execute_batch(ops)
        assert calls == [("range_query_batch", 4), ("knn_query_batch", 5)]
        for (kind, query, param), answer in zip(ops, got):
            method = index.range_query if kind == "range" else index.knn_query
            assert answer == method(query, param)

    def test_one_call_per_kind_per_segment(self, pool, spy_batch_calls, mixed_batches):
        replay, _ = mixed_batches
        index = build_index(pool)
        calls = spy_batch_calls(index)
        ops = [
            ("range", pool[0], 0.8),
            ("knn", pool[1], 4),
            ("insert", pool[NUM_INDEXED]),
            ("knn", pool[NUM_INDEXED], 2),
            ("range", pool[2], 0.8),
            ("delete", 3),
            ("range", pool[3], 0.8),
        ]
        got = index.execute_batch(ops)
        assert [name for name, _ in calls] == [
            "range_query_batch",
            "knn_query_batch",
            "range_query_batch",
            "knn_query_batch",
            "range_query_batch",
        ]
        assert got == replay(build_index(pool), ops)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleaving_matches_sequential_replay(self, pool, seed, mixed_batches):
        replay, random_batch = mixed_batches
        index = build_index(pool)
        ops = random_batch(index, pool[:NUM_INDEXED], pool[NUM_INDEXED:], seed)
        target = ops[0][1]
        expected = replay(build_index(pool), ops)
        got = index.execute_batch(ops)
        assert got == expected
        # the batch deletes the first query's answer, and a later query in
        # the same batch no longer sees it
        deleted = expected[0][0][0]
        at = ops.index(("delete", deleted))
        assert ops[at + 1][1] is target and expected[at + 1][0][0] != deleted


# ---------------------------------------------------------------------------
# Deduplication: queries that must get identical answers are searched once
# ---------------------------------------------------------------------------
class TestDeduplication:
    def test_duplicates_get_distinct_lists(self, pool):
        index = build_index(pool)
        first, second = index.execute_batch([("knn", pool[0], 5), ("knn", pool[0].copy(), 5)])
        assert first == second and first is not second
        second.clear()
        assert first == index.knn_query(pool[0], 5)

    @pytest.mark.parametrize(
        "ops",
        [
            [("range", np.array([0.5, 1.0]), 0.8), ("range", np.array([0.5, 1.0]), 0.9)],
            [("knn", np.array([0.5, 1.0]), 3), ("knn", np.array([0.5, 1.0]), 4)],
            [("knn", np.array([1, 2]), 3), ("knn", np.array([1.0, 2.0]), 3)],
            [("knn", np.array([0.0, 1.0]), 3), ("knn", np.array([-0.0, 1.0]), 3)],
            [("knn", [0.5, 1.0], 3), ("knn", [0.5, 1.0], 3)],
        ],
        ids=["radius", "k", "dtype", "signed-zero", "list"],
    )
    def test_not_merged(self, pool, ops, spy_batch_calls, mixed_batches):
        replay, _ = mixed_batches
        index = build_index(pool)
        calls = spy_batch_calls(index)
        got = index.execute_batch(ops)
        assert [count for _, count in calls] == [2]
        assert got == replay(build_index(pool), ops)

    def test_equal_arrays_merged(self, pool, spy_batch_calls):
        index = build_index(pool)
        calls = spy_batch_calls(index)
        index.execute_batch([("range", pool[0], 0.8), ("range", pool[0].copy(), 0.8)])
        assert calls == [("range_query_batch", 1)]

    def test_string_payloads_merged(self, word_list, edit_metric, spy_batch_calls):
        index = GTS.build(word_list, edit_metric, node_capacity=8, seed=5)
        calls = spy_batch_calls(index)
        ops = [("knn", "metric", 3), ("range", "tree", 1.0), ("knn", "metric", 3)]
        got = index.execute_batch(ops)
        assert calls == [("range_query_batch", 1), ("knn_query_batch", 1)]
        assert got[0] == got[2] == index.knn_query("metric", 3)

    def test_pair_count_drops_only_with_repeats(self, pool):
        index = build_index(pool)
        metric = index.metric

        def pairs(run) -> int:
            metric.reset_counter()
            run()
            return metric.pair_count

        queries = [pool[0], pool[1], pool[0], pool[0]]
        searched_each = pairs(lambda: index.range_query_batch(queries, 0.8))
        searched_once = pairs(lambda: index.range_query_batch(queries[:2], 0.8))
        repeated = pairs(lambda: index.execute_batch([("range", q, 0.8) for q in queries]))
        assert repeated == searched_once < searched_each
        distinct = pool[:4]
        plain = pairs(lambda: index.range_query_batch(distinct, 0.8))
        assert pairs(lambda: index.execute_batch([("range", q, 0.8) for q in distinct])) == plain


# ---------------------------------------------------------------------------
# Sequential equivalence — the serving contract
# ---------------------------------------------------------------------------
class TestSequentialEquivalence:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: GreedyBatchPolicy(max_batch_size=1, max_wait=0.0),
            lambda: GreedyBatchPolicy(max_batch_size=7, max_wait=50e-6),
            lambda: GreedyBatchPolicy(max_batch_size=64, max_wait=400e-6),
            lambda: DeadlineAwarePolicy(max_batch_size=32, max_wait=200e-6),
        ],
    )
    def test_interleaved_clients_match_direct_calls(self, pool, policy_factory):
        stream = make_stream(pool, deadline=1e-3)
        assert len({r.client_id for r in stream}) >= 3
        kinds = {r.kind for r in stream}
        assert {"range", "knn", "insert"} <= kinds

        service = GTSService(build_index(pool), policy=policy_factory())
        responses = service.serve(stream)
        expected = sequential_replay(build_index(pool), stream)

        assert len(responses) == len(stream)
        assert [r.result for r in responses] == expected

    def test_insert_visible_to_later_query_across_batches(self, pool):
        index = build_index(pool)
        service = GTSService(index, GreedyBatchPolicy(max_batch_size=2, max_wait=1e-6))
        new_obj = pool[NUM_INDEXED]
        service.submit("insert", new_obj, arrival_time=0.0)
        service.submit("knn", new_obj, k=1, arrival_time=1e-3)
        responses = service.flush()
        assert responses[0].result == NUM_INDEXED
        assert responses[1].result[0] == (NUM_INDEXED, 0.0)


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------
def req(request_id, arrival, deadline=None) -> Request:
    return Request(
        request_id=request_id,
        client_id=0,
        kind="knn",
        arrival_time=arrival,
        payload=None,
        k=1,
        deadline=deadline,
    )


class TestGreedyPolicy:
    def test_waits_while_batch_fills(self):
        policy = GreedyBatchPolicy(max_batch_size=4, max_wait=100e-6)
        decision = policy.decide([req(0, 0.0)], now=10e-6, next_arrival=20e-6)
        assert not decision.batch
        assert decision.wake_at == pytest.approx(100e-6)

    def test_dispatches_on_full_batch(self):
        policy = GreedyBatchPolicy(max_batch_size=2, max_wait=1.0)
        pending = [req(0, 0.0), req(1, 0.0), req(2, 0.0)]
        decision = policy.decide(pending, now=0.0, next_arrival=None)
        assert [r.request_id for r in decision.batch] == [0, 1]

    def test_dispatches_on_max_wait(self):
        policy = GreedyBatchPolicy(max_batch_size=64, max_wait=100e-6)
        decision = policy.decide([req(0, 0.0)], now=150e-6, next_arrival=1.0)
        assert len(decision.batch) == 1

    def test_flushes_when_stream_drained(self):
        policy = GreedyBatchPolicy(max_batch_size=64, max_wait=1.0)
        decision = policy.decide([req(0, 0.0)], now=0.0, next_arrival=None)
        assert len(decision.batch) == 1

    def test_empty_queue_sleeps(self):
        policy = GreedyBatchPolicy()
        decision = policy.decide([], now=0.0, next_arrival=5.0)
        assert not decision.batch and decision.wake_at == math.inf

    def test_rejects_bad_parameters(self):
        with pytest.raises(QueryError):
            GreedyBatchPolicy(max_batch_size=0)
        with pytest.raises(QueryError):
            GreedyBatchPolicy(max_wait=-1.0)


class TestDeadlinePolicy:
    def test_dispatches_before_deadline_unmeetable(self):
        policy = DeadlineAwarePolicy(
            max_batch_size=64,
            max_wait=10.0,
            initial_request_estimate=10e-6,
            initial_overhead_estimate=10e-6,
            safety=1.0,
        )
        pending = [req(0, 0.0, deadline=100e-6)]
        est = policy.estimated_service_time(1)
        # well before (deadline - est) the policy keeps waiting ...
        early = policy.decide(pending, now=0.0, next_arrival=1.0)
        assert not early.batch and early.wake_at == pytest.approx(100e-6 - est)
        # ... and at the latest viable start it cuts the batch
        late = policy.decide(pending, now=100e-6 - est, next_arrival=1.0)
        assert len(late.batch) == 1

    def test_observe_learns_service_time(self):
        policy = DeadlineAwarePolicy(
            initial_request_estimate=1e-6, initial_overhead_estimate=0.0, smoothing=1.0
        )
        policy.observe(batch_size=10, service_time=100e-6)
        assert policy.estimated_service_time(10) > 100e-6  # safety-inflated

    def test_meets_deadlines_where_lazy_greedy_misses(self, pool):
        stream = make_stream(pool, deadline=120e-6, mix={"range": 0.5, "knn": 0.5})
        lazy = GTSService(
            build_index(pool), GreedyBatchPolicy(max_batch_size=256, max_wait=2e-3)
        )
        lazy_report = summarize(lazy.serve(stream), lazy.batches)
        aware = GTSService(
            build_index(pool), DeadlineAwarePolicy(max_batch_size=256, max_wait=2e-3)
        )
        aware_report = summarize(aware.serve(stream), aware.batches)

        assert lazy_report.deadline_miss_rate > 0
        assert aware_report.deadline_miss_rate < lazy_report.deadline_miss_rate
        # deadline pressure forces smaller, earlier batches
        assert aware_report.mean_batch_size < lazy_report.mean_batch_size

    def test_registry(self):
        assert isinstance(make_policy("greedy", max_batch_size=3), GreedyBatchPolicy)
        assert isinstance(make_policy("deadline"), DeadlineAwarePolicy)
        with pytest.raises(QueryError):
            make_policy("nope")


# ---------------------------------------------------------------------------
# Scheduler / service edge cases
# ---------------------------------------------------------------------------
class TestServiceEdgeCases:
    def test_empty_stream(self, pool):
        service = GTSService(build_index(pool))
        assert service.serve([]) == []
        assert service.batches == []
        report = summarize([], service.batches)
        assert report.num_requests == 0 and report.throughput == 0.0
        assert "0 micro-batches" in report.to_text()

    def test_empty_dispatch_rejected(self, pool):
        service = GTSService(build_index(pool))
        with pytest.raises(QueryError):
            service._dispatch([], now=0.0)

    def test_non_prefix_policy_rejected(self, pool):
        # a policy violating the arrival-order prefix contract must fail
        # loudly, not silently drop/duplicate requests
        class SkipAheadPolicy(GreedyBatchPolicy):
            def decide(self, pending, now, next_arrival):
                decision = super().decide(pending, now, next_arrival)
                if len(decision.batch) > 1:
                    decision.batch.reverse()
                return decision

        service = GTSService(build_index(pool), SkipAheadPolicy(max_batch_size=8))
        with pytest.raises(QueryError, match="non-prefix"):
            service.serve(make_stream(pool))

    def test_oversized_wave_is_chunked(self, pool):
        # 300 requests arriving at the same instant, budget 32: the scheduler
        # must cut ceil(300/32) batches, not crash or drop requests.
        stream = [
            Request(request_id=i, client_id=i % 5, kind="knn",
                    arrival_time=0.0, payload=pool[i % NUM_INDEXED], k=3)
            for i in range(300)
        ]
        service = GTSService(build_index(pool), GreedyBatchPolicy(max_batch_size=32))
        responses = service.serve(stream)
        assert len(responses) == 300
        assert max(b.size for b in service.batches) <= 32
        assert len(service.batches) == math.ceil(300 / 32)

    def test_big_batch_on_tiny_device_uses_two_stage_grouping(self, pool):
        # A batch far beyond the device's intermediate-table budget must still
        # be answered (the index's two-stage grouping splits it internally).
        device = Device(DeviceSpec(memory_bytes=256 * 1024))
        index = build_index(pool, device=device)
        stream = [
            Request(request_id=i, client_id=0, kind="range",
                    arrival_time=0.0, payload=pool[i % NUM_INDEXED], radius=0.8)
            for i in range(128)
        ]
        service = GTSService(index, GreedyBatchPolicy(max_batch_size=128))
        responses = service.serve(stream)
        expected = sequential_replay(build_index(pool), stream)
        assert [r.result for r in responses] == expected

    def test_latency_accounting_consistent(self, pool):
        service = GTSService(build_index(pool), GreedyBatchPolicy(max_batch_size=8))
        responses = service.serve(make_stream(pool))
        for response in responses:
            assert response.queue_time >= 0
            assert response.latency == pytest.approx(
                response.queue_time + response.dispatch_time + response.kernel_time
            )
            assert response.completed_at == pytest.approx(
                response.request.arrival_time + response.latency
            )
        # per-request attribution sums back to the batch totals
        for record in service.batches:
            share = sum(
                r.attributed_stats.sim_time
                for r in responses
                if r.batch_id == record.batch_id
            )
            assert share == pytest.approx(record.service_time, rel=1e-9)

    def test_batches_never_overlap_in_time(self, pool):
        service = GTSService(build_index(pool), GreedyBatchPolicy(max_batch_size=16))
        service.serve(make_stream(pool))
        records = service.batches
        for earlier, later in zip(records, records[1:]):
            assert later.dispatched_at >= earlier.completed_at


# ---------------------------------------------------------------------------
# Workload generator
# ---------------------------------------------------------------------------
class TestWorkloadGenerator:
    def test_deterministic(self, pool):
        a = make_stream(pool, seed=9)
        b = make_stream(pool, seed=9)
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert (x.kind, x.arrival_time, x.client_id) == (y.kind, y.arrival_time, y.client_id)

    def test_arrival_order_and_rate(self, pool):
        stream = make_stream(pool, duration=2e-3)
        arrivals = [r.arrival_time for r in stream]
        assert arrivals == sorted(arrivals)
        assert all(0 < t <= 2e-3 for t in arrivals)
        # 4 clients x 40k/s x 2ms = 320 expected; allow generous Poisson noise
        assert 200 <= len(stream) <= 480

    def test_hot_key_skew(self, pool):
        spec = WorkloadSpec(
            num_clients=2, rate_per_client=300_000.0, duration=2e-3,
            mix={"knn": 1.0}, radius=0.5, zipf_theta=1.2, seed=4,
        )
        requests = generate_workload(pool, NUM_INDEXED, spec).requests
        counts: dict = {}
        for r in requests:
            counts[r.payload.tobytes()] = counts.get(r.payload.tobytes(), 0) + 1
        top = sorted(counts.values(), reverse=True)
        # the hottest key dominates a uniform draw's expectation many-fold
        assert top[0] > 5 * len(requests) / NUM_INDEXED

    def test_deletes_only_target_prior_inserts(self, pool):
        stream = make_stream(pool, seed=21)
        inserted_so_far = set()
        next_id = NUM_INDEXED
        for r in stream:
            if r.kind == "insert":
                inserted_so_far.add(next_id)
                next_id += 1
            elif r.kind == "delete":
                assert r.payload in inserted_so_far
                inserted_so_far.discard(r.payload)

    def test_invalid_specs_rejected(self):
        with pytest.raises(QueryError):
            WorkloadSpec(num_clients=0)
        with pytest.raises(QueryError):
            WorkloadSpec(zipf_theta=0.5)
        with pytest.raises(QueryError):
            WorkloadSpec(mix={"teleport": 1.0})
        with pytest.raises(QueryError):
            WorkloadSpec(mix={})


# ---------------------------------------------------------------------------
# Stats attribution primitives (gpusim)
# ---------------------------------------------------------------------------
class TestStatsAttribution:
    def test_scale_splits_additive_counters(self):
        stats = ExecutionStats(
            kernel_launches=4, total_ops=100.0, sim_time=8.0, peak_memory_bytes=512
        )
        share = stats.scale(0.25)
        assert share.kernel_launches == 1
        assert share.total_ops == pytest.approx(25.0)
        assert share.sim_time == pytest.approx(2.0)
        assert share.peak_memory_bytes == 512  # high-water mark, not additive

    def test_scale_shares_sum_to_batch_totals(self):
        # counters stay fractional so n shares reproduce the batch exactly
        stats = ExecutionStats(kernel_launches=5, bytes_to_device=100, allocations=3)
        n = 64
        share = stats.scale(1.0 / n)
        assert share.kernel_launches * n == pytest.approx(5)
        assert share.bytes_to_device * n == pytest.approx(100)
        assert share.allocations * n == pytest.approx(3)

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            ExecutionStats().scale(-1.0)

    def test_phase_timer_accumulates(self, device):
        timer = PhaseTimer(device)
        with timer.phase("a"):
            device.launch_kernel(work_items=100)
        with timer.phase("b"):
            device.launch_kernel(work_items=200)
        with timer.phase("a"):
            device.launch_kernel(work_items=100)
        assert timer.stats["a"].kernel_launches == 2
        assert timer.stats["b"].kernel_launches == 1
        assert timer.sim_time("a") > 0
        assert timer.sim_time("missing") == 0.0
        assert timer.total_sim_time == pytest.approx(
            timer.sim_time("a") + timer.sim_time("b")
        )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------
class TestReport:
    def test_percentiles_monotone_and_breakdown_sums(self, pool):
        service = GTSService(build_index(pool), GreedyBatchPolicy(max_batch_size=16))
        responses = service.serve(make_stream(pool, deadline=5e-3))
        report = summarize(responses, service.batches)
        s = report.latency
        assert 0 <= s.p50 <= s.p90 <= s.p99 <= s.max
        assert report.num_requests == len(responses)
        assert set(report.per_kind) == {r.request.kind for r in responses}
        assert report.throughput > 0 and report.capacity > 0
        assert report.device_busy_time <= report.makespan + 1e-12
        assert report.deadline_miss_rate == 0.0
        text = report.to_text("unit test")
        assert "p99" in text and "micro-batches" in text
