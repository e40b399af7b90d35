"""One run of one workload: set-up, timed serving rounds, checks, metrics.

A *round* builds a fresh index over the run's objects (timed: one
``setup_s`` sample), serves one of the run's request streams through
:meth:`GTSService.serve` (timed: one host-throughput sample) and records the
answers plus everything the simulator accounted.  A run serves each of its
streams once, then repeats them in order until ``--seconds`` of serving has
been measured; a repeated stream must reproduce its first round's answers
and simulated accounting exactly.  Simulated metrics come from the first
round of each stream, so they are a deterministic function of the seed.
Answers are checked against the oracle after all timing is done.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.service import KNN, RANGE

from .oracle import expected_answers, failures
from .trace import Tracer
from .workloads import Inputs, build_index, make_service

__all__ = [
    "Round",
    "serve_round",
    "run_untraced",
    "run_traced",
    "end_to_end",
    "per_layer",
    "layer_target",
    "workload_properties",
]

MIB = float(2**20)

#: Streams a traced run serves (each twice): a fixed number, so its counts
#: are a function of the seed, and few enough that serving them twice fits
#: in one run on the largest workload.
TRACED_STREAMS = 4

#: Seconds :func:`probe_seconds` takes on the reference machine speed that
#: host timings are scaled to.
PROBE_REFERENCE_S = 0.05


def probe_seconds() -> float:
    """Time a fixed reference computation: how fast the machine runs right now.

    Shared hosts speed up and slow down by up to a third for seconds to
    minutes at a time.  The probe mixes what the workloads spend their time
    on (small NumPy calls driven from Python loops over 2-d points, and
    gathers of 300-d rows with a cosine kernel) but never touches the
    program, so dividing a host time by it removes the machine's speed and
    keeps the program's.  Best of two.
    """
    narrow = np.random.default_rng(0).random((20000, 2))
    wide = np.random.default_rng(0).random((4000, 300))
    best = float("inf")
    for _ in range(2):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        total = 0.0
        for _ in range(350):
            ids = np.sort(rng.integers(0, len(narrow), 256))
            rows = narrow[ids]
            dist = np.sqrt(((rows - rows[0]) ** 2).sum(1))
            total += float(dist[np.argpartition(dist, 8)[:8]].sum())
            table = {int(i): float(d) for i, d in zip(ids[:64].tolist(), dist[:64].tolist())}
            total += sum(sorted(table.values())[:8])
        for _ in range(75):
            rows = wide[np.sort(rng.integers(0, len(wide), 256))]
            norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(rows[0])
            total += float(np.arccos(np.clip((rows * rows[0]).sum(1) / norms, -1, 1)).sum())
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Round:
    """Outcome of serving one stream on a fresh index."""

    stream: int
    setup_s: float
    serve_s: float = 0.0
    #: :func:`probe_seconds` around the round (mean of before and after)
    probe_s: float = PROBE_REFERENCE_S
    #: one result per request in stream order (None when serving raised)
    results: Optional[list] = None
    #: every simulated or counted quantity; equal rounds must have equal ones
    fingerprint: dict = field(default_factory=dict)
    #: per request, in stream order (simulated seconds)
    latency: Optional[np.ndarray] = None
    batch_ids: Optional[np.ndarray] = None
    queue_time: Optional[np.ndarray] = None
    dispatched_at: Optional[np.ndarray] = None
    completed_at: Optional[np.ndarray] = None
    #: indices of answers that differ from the stream's first round
    diverged: set = field(default_factory=set)
    #: False when the simulated accounting differs from the first round's
    reproduced: bool = True


def _devices(index) -> list:
    shards = getattr(index, "shards", None)
    return [shard.device for shard in shards] if shards else [index.device]


def _pager_stats(index) -> dict:
    """The index's cumulative pager counters, without the derived hit rate."""
    if hasattr(index, "pager_stats"):
        stats = index.pager_stats() or {}
    else:
        stats = index.pager.stats.as_dict() if index.pager is not None else {}
    return {key: value for key, value in stats.items() if key != "hit_rate"}


def serve_round(inputs: Inputs, stream_index: int, tracer: Optional[Tracer] = None) -> Round:
    """Build a fresh index and serve one stream on it (both timed)."""
    stream = inputs.streams[stream_index]
    probe_before = probe_seconds()
    result = Round(stream=stream_index, setup_s=0.0)
    index = None
    with tracer.installed() if tracer is not None else nullcontext():
        try:
            start = time.perf_counter()
            index = build_index(inputs, stream)
            result.setup_s = time.perf_counter() - start
            service = make_service(index, inputs.config)
            device = index.device
            launches, busy, pairs = device.stats.kernel_launches, device.stats.sim_time, index.metric.pair_count
            device_sim = [d.stats.sim_time for d in _devices(index)]
            pager = _pager_stats(index)
            start = time.perf_counter()
            responses = service.serve(stream.requests)
            result.serve_s = time.perf_counter() - start
        except Exception:  # a failing round is reported, never dropped
            traceback.print_exc()
            if index is not None:
                index.close()
            return result
    by_id = sorted(responses, key=lambda r: r.request.request_id)
    result.results = [r.result for r in by_id]
    result.latency = np.array([r.latency for r in by_id])
    result.queue_time = np.array([r.queue_time for r in by_id])
    result.batch_ids = np.array([r.batch_id for r in by_id])
    result.dispatched_at = np.array([r.dispatched_at for r in by_id])
    result.completed_at = np.array([r.completed_at for r in by_id])
    result.fingerprint = {
        "latency": result.latency.tolist(),
        # (size, simulated seconds) of every micro-batch
        "batches": [(b.size, b.service_time) for b in service.batches],
        # (simulated seconds, swapped) of every maintenance slice
        "slices": [(m.sim_time, m.swapped) for m in service.maintenance_records],
        "kernel_launches": device.stats.kernel_launches - launches,
        "sim_busy_s": device.stats.sim_time - busy,
        # per-device simulated seconds summed over the shards' devices
        "device_sim_s": sum(d.stats.sim_time - t for d, t in zip(_devices(index), device_sim)),
        "pairs": index.metric.pair_count - pairs,
        "peak_bytes": max(d.stats.peak_memory_bytes for d in _devices(index)),
        # pager counters of serving alone (the build faults blocks in too)
        "pager": {key: value - pager[key] for key, value in _pager_stats(index).items()},
    }
    index.close()
    del index, service, responses, by_id
    gc.collect()  # release this round's index before the next one is built
    result.probe_s = (probe_before + probe_seconds()) / 2
    return result


# ------------------------------------------------------------------- runs
@dataclass
class Checked:
    """Rounds plus the outcome of checking them."""

    rounds: list
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)


def _compare(r: Round, reference: Round) -> None:
    """Record where ``r`` diverges from its stream's first round."""
    if r.results is not None and reference.results is not None:
        r.diverged = {i for i, (a, b) in enumerate(zip(r.results, reference.results)) if a != b}
        r.reproduced = r.fingerprint == reference.fingerprint


def _slim(r: Round) -> Round:
    """Keep only what a compared repeat round still needs (its timings).

    The memory a run holds then does not grow with the number of rounds.
    """
    r.results = [] if r.results is not None else None
    r.fingerprint = {}
    r.latency = r.batch_ids = r.queue_time = r.dispatched_at = r.completed_at = None
    return r


def _check(inputs: Inputs, rounds: list, references: dict) -> Checked:
    """Check every round: first rounds against the oracle, repeats against those.

    ``references`` maps a stream index to its first round, whose answers the
    oracle checks; a repeated round fails where it diverged from it, and
    fails entirely when it did not reproduce its simulated accounting.
    """
    checked = Checked(rounds=rounds)
    wrong: dict = {}
    for stream_index, reference in references.items():
        stream = inputs.streams[stream_index]
        if reference.results is None:
            wrong[stream_index] = set(range(len(stream.requests)))
            continue
        wrong[stream_index] = failures(
            inputs, stream, reference.results, expected_answers(inputs, stream)
        )
    for r in rounds:
        n = len(inputs.streams[r.stream].requests)
        checked.attempted += n
        if r.results is None:
            checked.failed += n
            checked.notes.append(f"stream {r.stream}: serving raised")
            continue
        bad = wrong[r.stream] | r.diverged
        if not r.reproduced:
            bad = set(range(n))
            checked.notes.append(f"stream {r.stream}: simulated accounting not reproduced")
        checked.failed += len(bad)
    if checked.failed:
        checked.notes.append(f"{checked.failed} of {checked.attempted} answers wrong")
    return checked


def run_untraced(inputs: Inputs, seconds: float) -> tuple:
    """Serve every stream, then repeat them until ``seconds`` of serving.

    Returns the checked rounds and the peak resident set (MiB) of serving
    every stream once, a fixed amount of work however long the run is.
    """
    rounds = [serve_round(inputs, s) for s in range(len(inputs.streams))]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    references = {r.stream: r for r in rounds}
    while sum(r.serve_s for r in rounds) < seconds and all(r.results is not None for r in rounds):
        r = serve_round(inputs, len(rounds) % len(inputs.streams))
        _compare(r, references[r.stream])
        rounds.append(_slim(r))
    return _check(inputs, rounds, references), rss_mib


def run_traced(inputs: Inputs) -> tuple:
    """Serve each of the first :data:`TRACED_STREAMS` streams untraced, then traced.

    The two rounds of a stream run back to back, and which goes first
    alternates, so neither a change of machine speed nor the second round's
    warmer caches lands on one side only.  They must agree.  Returns
    ``(checked, untraced_rounds, traced_rounds, tracer)``.
    """
    tracer = Tracer()
    untraced, traced = [], []
    for s in range(min(TRACED_STREAMS, len(inputs.streams))):
        if s % 2:
            traced.append(serve_round(inputs, s, tracer))
            untraced.append(serve_round(inputs, s))
        else:
            untraced.append(serve_round(inputs, s))
            traced.append(serve_round(inputs, s, tracer))
    for r in traced:
        _compare(r, untraced[r.stream])
    references = {r.stream: r for r in untraced}
    return _check(inputs, untraced + traced, references), untraced, traced, tracer


# ---------------------------------------------------------------- metrics
def _first_rounds(rounds: list) -> list:
    """The first round of every stream that served, in stream order."""
    firsts = {}
    for r in rounds:
        firsts.setdefault(r.stream, r)
    return [firsts[s] for s in sorted(firsts) if firsts[s].results is not None]


def _speed(r: Round) -> float:
    """How much slower than the reference speed the machine ran this round."""
    return r.probe_s / PROBE_REFERENCE_S


def host_rps(rounds: list, inputs: Inputs, scaled: bool = True) -> float:
    """Requests served per host second of ``serve``, over all streams.

    Each stream's serving time is the median over its rounds, so one round
    that ran while the machine was briefly slower or faster does not move
    the figure; the streams are then pooled.  Scaled (the default) to the
    reference machine speed with each round's probe.
    """
    times: dict = {}
    for r in rounds:
        if r.results is not None:
            times.setdefault(r.stream, []).append(r.serve_s / (_speed(r) if scaled else 1.0))
    served = sum(len(inputs.streams[s].requests) for s in times)
    return served / sum(float(np.median(t)) for t in times.values())


def setup_seconds(rounds: list, scaled: bool = True) -> float:
    """Median build time over the rounds, scaled like :func:`host_rps`."""
    return float(np.median([r.setup_s / (_speed(r) if scaled else 1.0) for r in rounds]))


def end_to_end(inputs: Inputs, checked: Checked, rss_mib: float) -> tuple:
    """The end-to-end metrics and the sample counts behind the percentiles."""
    rounds = checked.rounds
    firsts = _first_rounds(rounds)
    latency = np.concatenate([r.latency for r in firsts])
    is_query = np.concatenate(
        [[q.kind in (RANGE, KNN) for q in inputs.streams[r.stream].requests] for r in firsts]
    )
    p50, p99 = np.percentile(latency, [50, 99])
    query_p99 = float(np.percentile(latency[is_query], 99))
    requests = sum(len(inputs.streams[r.stream].requests) for r in firsts)
    metrics = {
        "setup_s": (setup_seconds(rounds), "s"),
        "host_rps": (host_rps(rounds, inputs), "req/s"),
        "sim_p50_us": (float(p50) * 1e6, "us"),
        "sim_p99_us": (float(p99) * 1e6, "us"),
        "sim_query_p99_us": (query_p99 * 1e6, "us"),
        "sim_capacity_rps": (
            requests / sum(t for r in firsts for _, t in r.fingerprint["batches"]),
            "req/s",
        ),
        # each stream is one device lifetime: the mean of their high-water marks
        "device_peak_mib": (
            float(np.mean([r.fingerprint["peak_bytes"] for r in firsts])) / MIB,
            "MiB",
        ),
        "host_rss_mib": (rss_mib, "MiB"),
    }
    samples = {
        "latency_samples": int(latency.size),
        "beyond_p99": int(np.sum(latency > p99)),
        "query_samples": int(is_query.sum()),
        "query_beyond_p99": int(np.sum(latency[is_query] > query_p99)),
        "rounds": len(rounds),
        "streams": len(firsts),
        "raw_host_rps": host_rps(rounds, inputs, scaled=False),
        "raw_setup_s": setup_seconds(rounds, scaled=False),
        "probe_ms": float(np.median([r.probe_s for r in rounds])) * 1e3,
        "error_rate": checked.failed / checked.attempted,
    }
    return metrics, samples


def workload_properties(inputs: Inputs, rounds: list) -> dict:
    """Input properties later optimisations rely on, measured as served.

    * ``repeat_share``: share of query requests whose (kind, payload) occurs
      again in the same micro-batch;
    * ``mean_run_length``: mean length of the maximal same-kind runs a
      micro-batch splits into (what ``execute_batch`` can coalesce);
    * ``backlog``: requests still queued when arrivals end; flagged when
      they would take over 10% of the arrival window to arrive.
    """
    queries = repeated = requests = runs = 0
    queued_at_end = 0
    drain = window = 0.0
    for r in _first_rounds(rounds):
        stream = inputs.streams[r.stream]
        kinds = np.array([q.kind for q in stream.requests])
        for batch in np.unique(r.batch_ids):
            members = np.flatnonzero(r.batch_ids == batch)
            batch_kinds = kinds[members]
            requests += len(members)
            runs += 1 + int(np.sum(batch_kinds[1:] != batch_kinds[:-1]))
            keys = [(kinds[i], int(stream.targets[i])) for i in members if stream.targets[i] >= 0]
            queries += len(keys)
            counts: dict = {}
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            repeated += sum(c for c in counts.values() if c > 1)
        end = stream.window
        queued_at_end += int(np.sum(r.dispatched_at > end))
        drain = max(drain, float(r.completed_at.max()) - end)
        window += end
    share_queued = queued_at_end / max(1, requests)
    return {
        "repeat_share": repeated / max(1, queries),
        "mean_run_length": requests / max(1, runs),
        "queued_at_arrival_end": queued_at_end,
        "drain_after_arrivals_us": drain * 1e6,
        "backlog": "growing" if share_queued > 0.1 else "stable",
    }


#: (metric-name prefix, end-to-end metric it should move, on which workload);
#: the first matching prefix applies.
LAYER_TARGETS = (
    ("service.self", "host_rps", "churn-tloc-updates"),
    ("service.serve", "host_rps", "all"),
    ("service.", "sim_p99_us, sim_capacity_rps", "all"),
    ("gts.query_runs", "host_rps, sim_capacity_rps", "hotkey-vector-mixed (~1 on outofcore-sharded-knn)"),
    ("gts.", "host_rps", "all"),
    ("range_query.", "host_rps", "hotkey-vector-mixed"),
    ("knn_query.", "host_rps", "hotkey-vector-mixed"),
    ("search.", "sim_capacity_rps", "hotkey-vector-mixed"),
    ("metrics.", "host_rps", "hotkey-vector-mixed"),
    ("objectstore.", "host_rps", "hotkey-vector-mixed"),
    ("cache_table.", "host_rps, sim_query_p99_us", "churn-tloc-updates"),
    ("maintenance.", "sim_query_p99_us, host_rps", "churn-tloc-updates"),
    ("construction.", "setup_s", "all"),
    ("tier.", "host_rps, sim_capacity_rps, sim_p99_us", "outofcore-sharded-knn"),
    ("shard.", "host_rps", "outofcore-sharded-knn"),
    ("gpusim.", "sim_capacity_rps, host_rps", "churn-tloc-updates, outofcore-sharded-knn"),
    ("tracing.", "none (the cost of tracing itself)", "all"),
)


def layer_target(name: str) -> tuple:
    """``(end-to-end metric, workload)`` a per-layer metric should move."""
    return next((moves, on) for prefix, moves, on in LAYER_TARGETS if name.startswith(prefix))


def per_layer(inputs: Inputs, traced: list, untraced: list, tracer: Tracer) -> tuple:
    """Per-layer metrics of the traced rounds.

    Returns ``(metrics, readable)``: ``metrics`` maps each recorded name to
    ``(value, unit)``; ``readable`` holds the host seconds behind the
    ``*_share`` metrics (shares of the traced ``serve`` time, so a layer a
    workload never enters records a share of 0 rather than a zero time)
    plus a few figures only printed.  Every figure counts serving alone,
    except ``construction.build_s``, which times the index builds.
    """
    ok = [r for r in traced if r.results is not None]
    streams = [inputs.streams[r.stream] for r in ok]
    batches = sum(len(r.fingerprint["batches"]) for r in ok)
    requests = sum(len(s.requests) for s in streams)
    results = sum(
        len(answer)
        for r, s in zip(ok, streams)
        for q, answer in zip(s.requests, r.results)
        if q.kind in (RANGE, KNN)
    )
    pager: dict = {}
    for r in ok:
        for key, value in r.fingerprint["pager"].items():
            pager[key] = pager.get(key, 0) + value
    hits, misses = pager.get("hits", 0), pager.get("misses", 0)
    slice_s = [t for r in ok for t, _ in r.fingerprint["slices"]]
    rebuilds = sum(swapped for r in ok for _, swapped in r.fingerprint["slices"])
    serve_s = tracer.inclusive_seconds("service")
    sim_busy = sum(r.fingerprint["sim_busy_s"] for r in ok)
    kernel_s = tracer.inclusive_seconds("metrics.pairwise_segmented")
    device_calls, device_s = tracer.aggregate("gpusim.device_call")
    pager_calls, pager_s = tracer.aggregate("tier.pager_access")
    query_runs = sum(
        tracer.count(name, parent="gts.execute_batch")
        for name in ("range_query", "knn_query", "shard")
    )
    seconds = {
        "service.self_s": tracer.self_seconds("service"),
        "gts.execute_batch_s": tracer.inclusive_seconds("gts.execute_batch"),
        "range_query.self_s": tracer.self_seconds("range_query"),
        "knn_query.self_s": tracer.self_seconds("knn_query"),
        "shard.self_s": tracer.self_seconds("shard"),
        "metrics.pairwise_segmented_s": kernel_s,
        "objectstore.gather_s": tracer.inclusive_seconds("objectstore.gather"),
        "cache_table.scan_s": tracer.inclusive_seconds("cache_table.scan"),
        "maintenance.slice_s": tracer.inclusive_seconds("maintenance"),
        "tier.gather_s": tracer.inclusive_seconds("tier.gather"),
        "gpusim.device_calls_s": device_s,
    }
    metrics = {
        "service.serve_s": (serve_s, "s"),
        "service.batches": (batches, "count"),
        "service.batch_size_mean": (requests / max(1, batches), "requests"),
        "service.queue_us_mean": (
            float(np.mean(np.concatenate([r.queue_time for r in ok]))) * 1e6,
            "us",
        ),
        "gts.query_runs_per_batch": (query_runs / max(1, batches), "calls/batch"),
        "search.dist_per_result": (
            sum(r.fingerprint["pairs"] for r in ok) / max(1, results),
            "pairs/result",
        ),
        "metrics.pairs": (tracer.kernel_pairs, "count"),
        "metrics.pairs_per_s": (tracer.kernel_pairs / kernel_s if kernel_s else 0.0, "1/s"),
        "cache_table.scan_calls": (tracer.count("cache_table.scan"), "count"),
        "maintenance.slices": (len(slice_s), "count"),
        "maintenance.rebuilds": (rebuilds, "count"),
        "maintenance.sim_share": (sum(slice_s) / sim_busy, "fraction"),
        "construction.build_s": (tracer.inclusive_seconds("construction", serving=False), "s"),
        "tier.hit_rate": (hits / (hits + misses) if hits + misses else 1.0, "fraction"),
        "tier.misses": (misses, "count"),
        "tier.evictions": (pager.get("evictions", 0), "count"),
        "tier.h2d_mib": (pager.get("bytes_h2d", 0) / MIB, "MiB"),
        "tier.h2d_sim_share": (
            pager.get("h2d_seconds", 0.0) / sum(r.fingerprint["device_sim_s"] for r in ok),
            "fraction",
        ),
        "tier.pager_accesses": (pager_calls, "count"),
        "gpusim.kernel_launches": (sum(r.fingerprint["kernel_launches"] for r in ok), "count"),
        "gpusim.sim_busy_s": (sim_busy, "s"),
        "gpusim.device_calls": (device_calls, "count"),
        "tracing.overhead": (host_rps(untraced, inputs) / host_rps(traced, inputs) - 1.0, "fraction"),
    }
    for name, value in seconds.items():
        metrics[name[: -len("_s")] + "_share"] = (value / serve_s, "fraction")
    readable = dict(seconds)
    readable.update(
        {
            "maintenance.sim_s": sum(slice_s),
            "maintenance.max_slice_us": max(slice_s, default=0.0) * 1e6,
            "tier.gather_calls": tracer.count("tier.gather"),
            "tier.h2d_sim_s": pager.get("h2d_seconds", 0.0),
            "tier.pager_access_s": pager_s,
        }
    )
    return metrics, readable
