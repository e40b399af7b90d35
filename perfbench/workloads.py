"""The benchmark's workloads: datasets, index settings and request streams.

Each workload is one traffic mix served through :class:`repro.GTSService`.
Every input is a deterministic function of the workload and ``--seed``: the
*shape* of each dataset (cluster centres, latent directions) is a fixed
property of the workload, while the seed draws the points, the arrival
times, the request kinds and the hot set.  Keeping the shape fixed means two
seeds give two samples of the same workload rather than two different
workloads, so the run-to-run spread measures the program, not the luck of
the draw.

The generator is an open loop: arrivals are a Poisson process at the
workload's fixed offered rate, precomputed in simulated seconds before
serving starts, so the generator never runs late.  Each request is timed
from its scheduled arrival (``Response.latency``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import GTS, AngularDistance, EuclideanDistance, GTSService, ShardedGTS, TierConfig
from repro.core import MaintenanceConfig
from repro.service import DELETE, INSERT, KNN, RANGE, GreedyBatchPolicy, MaintenanceHook, Request

__all__ = [
    "WorkloadConfig",
    "WORKLOADS",
    "K",
    "CLIENTS",
    "Stream",
    "Inputs",
    "make_inputs",
    "build_index",
    "make_service",
]

#: Seeds of the fixed dataset shapes (not the run seed; see module docstring).
_SHAPE_SEEDS = {"vector": 1003, "tloc": 1002}
#: k of every kNN request
K = 8
#: range radius: this quantile of the sampled pairwise-distance distribution
SELECTIVITY = 0.01
#: open-loop clients whose merged Poisson arrivals form a stream
CLIENTS = 16


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything that defines one workload.

    ``name`` and ``why`` are its entry in ``BENCHMARK.json``; the full
    settings are printed by ``python3 perfbench/run.py --describe``.
    """

    name: str
    why: str
    #: ``"vector"`` (300-d, angular) or ``"tloc"`` (2-d, L2)
    dataset: str
    num_indexed: int
    #: request-kind weights
    mix: dict
    #: offered load in requests per simulated second (below capacity)
    rate: float
    requests_per_stream: int
    #: streams per run, each with its own dataset sample and index seed
    streams: int
    #: Zipf exponent of the query keys over a per-stream hot permutation,
    #: or None for uniform keys
    zipf_theta: Optional[float] = None
    #: cache-table budget in bytes (None: the index default)
    cache_bytes: Optional[int] = None
    #: drive generation-swap maintenance through a MaintenanceHook
    maintenance: bool = False
    shards: int = 1
    #: device pool per shard as a share of the shard's object bytes
    tier_fraction: Optional[float] = None

    def describe(self) -> dict:
        """The workload's settings, as ``run.py --describe`` prints them."""
        return {
            "dataset": _DATASET_DESCRIPTIONS[self.dataset],
            "indexed_objects": self.num_indexed,
            "mix": dict(self.mix),
            "offered_rate_per_s": self.rate,
            "requests": (
                f"{self.streams} streams x {self.requests_per_stream}, each stream with "
                "its own dataset sample and index seed"
            ),
            "key_skew": (
                f"zipf theta={self.zipf_theta} over one hot permutation per stream"
                if self.zipf_theta
                else "uniform"
            ),
            "knn_k": K,
            "range_selectivity": SELECTIVITY,
            "cache_bytes": self.cache_bytes or "default",
            "maintenance": "generation-swap via MaintenanceHook" if self.maintenance else "none",
            "shards": self.shards,
            "tier": (
                f"{self.tier_fraction:.0%} of each shard's object bytes, default block, LRU"
                if self.tier_fraction
                else "fully resident"
            ),
            "policy": "GreedyBatchPolicy defaults (at most 64 requests, 200 us max wait)",
            "clients": f"{CLIENTS} open-loop Poisson clients",
        }


_DATASET_DESCRIPTIONS = {
    "vector": "300-d embedding-like vectors, angular distance (vector stand-in)",
    "tloc": "2-d clustered geo points, L2 distance (tloc stand-in)",
}

WORKLOADS = {
    w.name: w
    for w in (
        WorkloadConfig(
            name="hotkey-vector-mixed",
            why=(
                "vector 300-d angular, 2000 resident objects, 50% range (1% selectivity) + 50% "
                "kNN k=8, Zipf 1.3 hot keys, 150k req/s: distance kernels and tree search work; "
                "cache, tier, shards idle"
            ),
            dataset="vector",
            num_indexed=2000,
            mix={RANGE: 0.5, KNN: 0.5},
            rate=150_000.0,
            requests_per_stream=1000,
            streams=4,
            zipf_theta=1.3,
        ),
        WorkloadConfig(
            name="churn-tloc-updates",
            why=(
                "tloc 2-d L2, 4000 objects, 50% insert 10% delete 40% range/kNN (uniform keys), "
                "512 B cache overflowing every ~32 inserts, swap maintenance, 400k req/s: cache "
                "scans and maintenance dominate"
            ),
            dataset="tloc",
            num_indexed=4000,
            mix={INSERT: 0.5, DELETE: 0.1, RANGE: 0.2, KNN: 0.2},
            rate=400_000.0,
            requests_per_stream=3000,
            streams=2,
            cache_bytes=512,
            maintenance=True,
        ),
        WorkloadConfig(
            name="outofcore-sharded-knn",
            why=(
                "tloc 2-d L2, 20000 objects on 2 shards, each paged through 25% of its bytes "
                "(LRU, 16 KiB blocks), uniform kNN k=8, 150 req/s: pager faults and shard "
                "scatter/gather dominate"
            ),
            dataset="tloc",
            num_indexed=20000,
            mix={KNN: 1.0},
            rate=150.0,
            requests_per_stream=500,
            streams=16,
            shards=2,
            tier_fraction=0.25,
        ),
    )
}


# ---------------------------------------------------------------- datasets
def _vector_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors near an 8-d latent subspace of R^300 (fixed subspace)."""
    shape = np.random.default_rng(_SHAPE_SEEDS["vector"])
    basis = shape.normal(size=(8, 300))
    scales = shape.uniform(0.5, 2.0, size=8)
    vectors = (rng.normal(size=(n, 8)) * scales) @ basis + 0.15 * rng.normal(size=(n, 300))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors


def _tloc_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points around 24 fixed "cities" plus a 5% uniform background.

    Each city's share of the points is fixed (largest remainders of its
    weight), so the seed moves points, not how many live in sparse regions.
    """
    shape = np.random.default_rng(_SHAPE_SEEDS["tloc"])
    centers = np.column_stack([shape.uniform(-180, 180, 24), shape.uniform(-60, 70, 24)])
    weights = shape.dirichlet(np.full(24, 0.6))
    spread = shape.uniform(0.2, 3.0, 24)
    clustered = n - n // 20
    quota = weights * clustered
    counts = np.floor(quota).astype(np.int64)
    counts[np.argsort(counts - quota)[: clustered - counts.sum()]] += 1
    city = rng.permutation(np.repeat(np.arange(25), np.append(counts, n - clustered)))
    points = centers[city % 24] + rng.normal(size=(n, 2)) * spread[city % 24][:, None]
    background = city == 24
    count = int(background.sum())
    points[background] = np.column_stack(
        [rng.uniform(-180, 180, count), rng.uniform(-90, 90, count)]
    )
    return points


_POINTS = {"vector": _vector_points, "tloc": _tloc_points}
_METRICS = {"vector": AngularDistance, "tloc": EuclideanDistance}


# ----------------------------------------------------------------- streams
@dataclass
class Stream:
    """One episode of a run: a dataset sample, an index seed and a request stream.

    Every stream of a run draws its own dataset and index seed, so the
    simulated metrics average over several trees and samples rather than
    inheriting the luck of one.
    """

    #: indexed objects first, then the insert pool
    objects: np.ndarray
    num_indexed: int
    radius: float
    build_seed: int
    requests: list
    #: ``targets[i]`` is the object index a query request asks about (-1 for updates)
    targets: np.ndarray

    @property
    def indexed(self) -> np.ndarray:
        return self.objects[: self.num_indexed]

    @property
    def window(self) -> float:
        """Simulated seconds from time zero to the last arrival."""
        return self.requests[-1].arrival_time


@dataclass
class Inputs:
    """Everything one run of a workload serves, generated from the seed."""

    config: WorkloadConfig
    seed: int
    streams: list

    def new_metric(self):
        """A fresh metric instance (own pair counter and digest cache)."""
        return _METRICS[self.config.dataset]()


def _radius(objects: np.ndarray, metric, selectivity: float, rng) -> float:
    """The ``selectivity`` quantile of sampled pairwise distances."""
    sample = objects[rng.choice(len(objects), size=min(400, len(objects)), replace=False)]
    dists = np.concatenate([metric.pairwise(q, sample) for q in sample[:100]])
    return float(np.quantile(dists[dists > 0], selectivity))


def _stream(config: WorkloadConfig, rng) -> Stream:
    n, num_indexed = config.requests_per_stream, config.num_indexed
    # inserts take pool objects in order; a stream never has more than n
    pool = n if INSERT in config.mix else 0
    objects = _POINTS[config.dataset](num_indexed + pool, rng)
    radius = _radius(objects[:num_indexed], _METRICS[config.dataset](), SELECTIVITY, rng)
    arrivals = np.cumsum(rng.exponential(1.0 / config.rate, size=n))
    clients = rng.integers(CLIENTS, size=n)
    kinds = sorted(config.mix)
    weights = np.asarray([config.mix[kind] for kind in kinds], dtype=np.float64)
    drawn = rng.choice(len(kinds), size=n, p=weights / weights.sum())
    requests, targets = [], np.full(n, -1, dtype=np.int64)
    hot = rng.permutation(num_indexed)
    # uniform keys are drawn without replacement, so every stream asks about
    # the dataset's dense and sparse regions in their true proportions
    uniform = rng.choice(num_indexed, size=n, replace=n > num_indexed)
    inserted = 0
    deletable: list[int] = []
    for i in range(n):
        kind = kinds[int(drawn[i])]
        if kind == DELETE and not deletable:
            kind = KNN  # nothing this stream inserted is live yet
        common = dict(request_id=i, client_id=int(clients[i]), arrival_time=float(arrivals[i]))
        if kind in (RANGE, KNN):
            if config.zipf_theta is None:
                target = int(uniform[i])
            else:
                target = int(hot[(int(rng.zipf(config.zipf_theta)) - 1) % num_indexed])
            targets[i] = target
            if kind == RANGE:
                requests.append(Request(kind=RANGE, payload=objects[target], radius=radius, **common))
            else:
                requests.append(Request(kind=KNN, payload=objects[target], k=K, **common))
        elif kind == INSERT:
            # a fresh index assigns ids in insertion order after the bulk load
            deletable.append(num_indexed + inserted)
            requests.append(Request(kind=INSERT, payload=objects[num_indexed + inserted], **common))
            inserted += 1
        else:
            victim = deletable.pop(int(rng.integers(len(deletable))))
            requests.append(Request(kind=DELETE, payload=victim, **common))
    return Stream(
        objects=objects,
        num_indexed=num_indexed,
        radius=radius,
        build_seed=int(rng.integers(2**31)),
        requests=requests,
        targets=targets,
    )


def make_inputs(config: WorkloadConfig, seed: int) -> Inputs:
    """Generate the datasets and request streams of one run."""
    rng = np.random.default_rng([seed, sum(map(ord, config.name))])
    streams = [_stream(config, rng) for _ in range(config.streams)]
    return Inputs(config=config, seed=seed, streams=streams)


# ------------------------------------------------------------------ serving
def build_index(inputs: Inputs, stream: Stream):
    """Build a fresh index over a stream's indexed objects (the timed set-up step)."""
    config = inputs.config
    options = dict(seed=stream.build_seed)
    if config.cache_bytes is not None:
        options["cache_capacity_bytes"] = config.cache_bytes
    if config.tier_fraction is not None:
        shard_bytes = stream.indexed.nbytes / config.shards
        options["tier"] = TierConfig(memory_budget_bytes=int(shard_bytes * config.tier_fraction))
    if config.shards == 1:
        return GTS.build(stream.indexed, inputs.new_metric(), **options)
    return ShardedGTS.build(
        stream.indexed, inputs.new_metric(), num_shards=config.shards, **options
    )


def make_service(index, config: WorkloadConfig) -> GTSService:
    """The serving front-end a workload runs behind."""
    hook = None
    if config.maintenance:
        # Slices run after (nearly) every micro-batch and the overflow valve is
        # off, so every rebuild completes inside service-scheduled slices.
        hook = MaintenanceHook(
            defer_queue_threshold=256,
            max_deferrals=2,
            config=MaintenanceConfig(levels_per_slice=1, hard_overflow_factor=None),
        )
    return GTSService(index, policy=GreedyBatchPolicy(), maintenance=hook)
