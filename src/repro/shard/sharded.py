"""Multi-device sharded GTS index (scatter-gather scale-out).

:class:`ShardedGTS` partitions the object store across ``K`` simulated
:class:`~repro.gpusim.device.Device`\\ s — the single biggest hardware lever
the paper's single-GPU design leaves unused, and the route Faiss takes to
billion scale (Johnson et al., "Billion-scale similarity search with GPUs").
Each shard is a complete, independent :class:`~repro.core.gts.GTS` index on
its own device: its own tree, cache table and rebuild schedule.

**Queries** are answered by scatter-gather: the whole batch is broadcast to
every shard, each shard runs the paper's batch algorithm (Algorithms 4-5)
over its partition in parallel, and the host ranks all shards'
``(query, global id, distance)`` triples at once (union for range, top-k
for kNN).  On the host, the shards' searches are one level-synchronous
descent over the stacked shard trees
(:func:`~repro.core.search.search_forest`), so a batch pays each level's
fixed host cost once rather than once per shard, while every shard keeps
its own bounds and its device is charged exactly its own search.  Because
the partitions are disjoint and every shard answers exactly over its
partition, the merged answers equal a single-device GTS over the same
data — including the ``(distance, id)`` tie-breaking, since local-id order
within a shard follows global-id order.

**Updates** are routed to the owning shard: inserts go to the shard the
assignment policy picks, deletes to the shard that holds the id.  The
router keeps no copy of shard state, only each shard's ascending global
ids (regions of one array, which is also the stacked forest's id space)
and the stacked forest itself, rebuilt when a shard's tree changes;
whether an id is live is asked of its shard.  Cache tables and
overflow rebuilds stay shard-local, so a hot shard rebuilding never blocks
the others' (simulated) progress.

**Time accounting** is deliberately honest.  The shards' devices run in
parallel, so each scatter-gather round charges the coordinating timeline
(``self.device``) the *makespan* over the shards' deltas — not their sum —
plus a host-side merge term proportional to the gathered result volume
(charged on a sequential :class:`~repro.gpusim.cpu.CPUExecutor`).  The
speedup curve therefore flattens exactly where it should: when per-shard
work stops shrinking (kernel-launch floors) or the merge term starts to
matter.

The class exposes the same ``execute_batch`` contract as :class:`GTS`, so
:class:`~repro.service.GTSService` serves a sharded index unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.gts import (
    DEFAULT_CACHE_BYTES,
    GTS,
    PLANS,
    execute_operation_batch,
    search_indexes,
    stack_forest,
)
from ..core.objectstore import make_object_store
from ..core.searchcommon import RESULT_BYTES, query_ks, query_radii, triples_to_answer_lists
from ..exceptions import IndexError_, UpdateError
from ..gpusim.cpu import CPUExecutor
from ..gpusim.device import Device
from ..gpusim.specs import CPUSpec, DeviceSpec
from ..gpusim.stats import ExecutionStats
from ..metrics.base import Metric
from ..tier.config import TierConfig
from .policy import AssignmentPolicy, make_assignment_policy

__all__ = ["ShardedGTS", "ShardedBuildReport", "DEFAULT_HOST_SPEC"]

#: Host the scatter/merge work runs on.  Unlike the CPU *baselines* (which
#: the paper runs sequentially, one query at a time), the gather-merge is
#: embarrassingly parallel across queries, so the coordinator uses the
#: paper's host CPU (i9-10900X) with all ten cores.
DEFAULT_HOST_SPEC = CPUSpec(name="shard-host", cores=10)


class _LiveLoads:
    """Each shard's :attr:`GTS.live_nbytes`, read only when a policy indexes
    it (round-robin takes the length alone)."""

    def __init__(self, shards: list) -> None:
        self._shards = shards

    def __len__(self) -> int:
        return len(self._shards)

    def __getitem__(self, sid: int) -> int:
        return self._shards[sid].live_nbytes


@dataclass
class ShardedBuildReport:
    """Per-shard construction results plus the parallel-build makespan."""

    #: one :class:`~repro.core.construction.BuildResult` per shard
    per_shard: list = field(default_factory=list)
    #: simulated seconds of the parallel build (slowest shard)
    sim_time: float = 0.0

    @property
    def distance_computations(self) -> int:
        """Total construction distance computations across shards."""
        return sum(r.distance_computations for r in self.per_shard)


class ShardedGTS:
    """GTS index partitioned over several simulated devices.

    Parameters
    ----------
    metric:
        Distance metric of the metric space (shared by every shard).
    num_shards:
        Number of devices/shards ``K``.
    assignment:
        Shard-assignment policy: ``"round-robin"`` (default),
        ``"size-balanced"`` or an :class:`AssignmentPolicy` instance.
    node_capacity / cache_capacity_bytes / pivot_strategy / prune_mode:
        Per-shard GTS configuration, identical across shards.
    device_spec:
        Spec every shard device (and the coordinating device) is created
        from; the default 11 GB / 4096-core spec when omitted.
    host_spec:
        Spec of the host executor the scatter/merge work is charged on;
        defaults to :data:`DEFAULT_HOST_SPEC` (a 10-core host, the merge
        being parallel across queries).
    seed:
        Base construction seed; shard ``s`` uses ``seed + s`` so shards draw
        independent pivot choices while staying reproducible.
    tier:
        Tiered-memory configuration (DESIGN.md §7) applied to **every
        shard**: each shard keeps its partition host-resident and pages
        object blocks into a per-device pool of the config's budget.
        The ``execute_batch`` contract is unchanged, so the serving layer
        works over a tiered sharded index as-is.
    """

    def __init__(
        self,
        metric: Metric,
        num_shards: int = 2,
        assignment: str | AssignmentPolicy = "round-robin",
        node_capacity: int = 20,
        device_spec: Optional[DeviceSpec] = None,
        host_spec: Optional[CPUSpec] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_BYTES,
        pivot_strategy: str = "fft",
        prune_mode: str = "two-sided",
        seed: int = 17,
        tier: Optional[TierConfig] = None,
    ):
        if num_shards < 1:
            raise IndexError_(f"num_shards must be at least 1, got {num_shards}")
        self.metric = metric
        self.num_shards = int(num_shards)
        self.policy = (
            assignment
            if isinstance(assignment, AssignmentPolicy)
            else make_assignment_policy(assignment)
        )
        self.node_capacity = int(node_capacity)
        self.seed = int(seed)
        spec = device_spec or DeviceSpec()
        #: the host-facing timeline every operation's makespan is charged to
        self.device = Device(spec)
        #: host executor the scatter/merge work is charged on
        self.host = CPUExecutor(host_spec or DEFAULT_HOST_SPEC)
        self.shards: list[GTS] = [
            GTS(
                metric=metric,
                node_capacity=node_capacity,
                device=Device(spec),
                cache_capacity_bytes=cache_capacity_bytes,
                pivot_strategy=pivot_strategy,
                prune_mode=prune_mode,
                seed=self.seed + s,
                tier=tier,
            )
            for s in range(self.num_shards)
        ]
        self.tier_config = self.shards[0].tier_config
        self._set_regions([np.zeros(0, dtype=np.int64)] * self.num_shards, [0] * self.num_shards)
        self._next_id = 0
        self._built = False
        #: the shards' stacked forest, and the objects it was stacked from
        self._stack = None
        self._stack_key: list = []
        #: query batches served per kind and plan; a sharded batch is always
        #: the forest descent
        self._plan_counts = {kind: dict.fromkeys(PLANS, 0) for kind in ("range", "knn")}

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def build(cls, objects: Sequence, metric: Metric, **options) -> "ShardedGTS":
        """Build a sharded index over ``objects`` and return it.

        ``options`` are the constructor's keyword parameters.
        """
        index = cls(metric, **options)
        index.bulk_load(objects)
        return index

    def bulk_load(self, objects: Sequence) -> ShardedBuildReport:
        """Partition ``objects`` across the shards and build all of them.

        Object ``i`` receives *global* id ``i`` (the same contract as
        :meth:`GTS.bulk_load`); the assignment policy maps each global id to
        a shard.  Per-shard constructions run on independent devices, so the
        reported ``sim_time`` is their makespan.
        """
        if len(objects) == 0:
            raise IndexError_("cannot bulk load an empty object collection")
        if len(objects) < self.num_shards:
            raise IndexError_(
                f"cannot spread {len(objects)} objects over {self.num_shards} shards"
            )
        # objects are sized and partitioned as the shards store them
        store = make_object_store(objects)
        n = len(store)
        nbytes = store.row_sizes()
        owner = np.asarray(self.policy.partition(store, nbytes, self.num_shards), dtype=np.int64)
        if len(owner) != n or owner.min() < 0 or owner.max() >= self.num_shards:
            raise IndexError_(
                f"assignment policy {self.policy.name!r} must give each of the {n} "
                f"objects a shard in [0, {self.num_shards})"
            )
        counts = np.bincount(owner, minlength=self.num_shards)
        empty = np.flatnonzero(counts == 0).tolist()
        if empty:
            raise IndexError_(f"assignment left shards {empty} empty")
        # global ids grouped by shard, ascending within each: local id order
        members = np.argsort(owner, kind="stable")
        self._set_regions(np.split(members, np.cumsum(counts)[:-1]), counts.tolist())
        self._next_id = n
        partitions = [store.gather(ids) for ids in self._to_global]
        # one partitioning pass over the stream happens on the host
        self._charge_host(n, "shard-partition")
        results = self._shard_round(
            lambda: [shard.bulk_load(part) for shard, part in zip(self.shards, partitions)]
        )
        self._built = True
        return ShardedBuildReport(
            per_shard=list(results),
            sim_time=max(r.sim_time for r in results),
        )

    def close(self) -> None:
        """Free every device allocation held by the shards (and the stack)."""
        for shard in self.shards:
            shard.close()
        self._stack = None

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(
                "the sharded index has not been built yet; call bulk_load() first"
            )

    # ---------------------------------------------------------------- id maps
    def _set_regions(self, arrays: list, capacities: list) -> None:
        """Lay the shards' global-id arrays out as regions of one array.

        Shard ``sid``'s local id ``lid`` sits at ``_global_of[_region[sid] +
        lid]``: the stacked id space of the shards' forest, so the router
        maps a stacked id to its global id with one fancy index.
        ``_to_global[sid]`` is shard ``sid``'s region, a view whose first
        ``len(shard._objects)`` entries are set and the rest spare capacity.
        """
        starts = np.concatenate(([0], np.cumsum(capacities, dtype=np.int64)))
        self._global_of = np.zeros(int(starts[-1]), dtype=np.int64)
        for start, ids in zip(starts.tolist(), arrays):
            self._global_of[start : start + len(ids)] = ids
        self._region = starts.tolist()
        self._to_global = [
            self._global_of[start:end] for start, end in zip(self._region, self._region[1:])
        ]

    def _resolve(self, gid: int) -> Optional[tuple[int, int]]:
        """``(shard, local id)`` of the global id ``gid``; None when it is
        unknown (outside ``[0, next id)``)."""
        if 0 <= gid < self._next_id:
            for sid, shard in enumerate(self.shards):
                ids = self._to_global[sid][: len(shard._objects)]
                lid = int(np.searchsorted(ids, gid))
                if lid < len(ids) and ids[lid] == gid:
                    return sid, lid
        return None

    def _record(self, sid: int, first: int, gids) -> None:
        """Map shard ``sid``'s local ids ``first, first + 1, ...`` to ``gids``,
        growing its region geometrically (amortised ``O(1)`` appends; a
        growth moves every region, so the next query batch re-stacks the
        forest)."""
        end = first + len(gids)
        if end > len(self._to_global[sid]):
            capacities = [len(ids) for ids in self._to_global]
            capacities[sid] = max(end, 2 * capacities[sid])
            self._set_regions(self._to_global, capacities)
        self._to_global[sid][first:end] = gids

    # ---------------------------------------------------------- time charging
    def _shard_round(self, fn):
        """Run ``fn()`` — work on every shard — as one parallel round.

        The shards' devices advance independently; the coordinating timeline
        is charged the round's makespan while the additive work counters keep
        their cross-shard totals (see :meth:`Device.absorb`).
        """
        befores = [shard.device.snapshot() for shard in self.shards]
        out = fn()
        deltas = [
            shard.device.stats.delta_since(before)
            for shard, before in zip(self.shards, befores)
        ]
        merged = ExecutionStats()
        for delta in deltas:
            merged = merged.merge(delta)
        self.device.absorb(merged, sim_time=max(d.sim_time for d in deltas))
        return out

    def _single_shard(self, sid: int, fn):
        """Run ``fn(shard)`` on one shard, charging its delta to the timeline."""
        shard = self.shards[sid]
        before = shard.device.snapshot()
        out = fn(shard)
        self.device.absorb(shard.device.stats.delta_since(before))
        return out

    def _charge_host(self, ops: float, label: str) -> None:
        """Charge sequential host-side work (partitioning, result merging)."""
        before = self.host.snapshot()
        self.host.execute(ops, label=label)
        self.device.absorb(self.host.stats.delta_since(before))

    def _log_shards(self) -> float:
        """Per-item comparison cost of a ``K``-way merge (heap of ``K`` heads)."""
        return max(1.0, math.log2(max(2, self.num_shards)))

    # -------------------------------------------------------------- queries
    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Answer one metric range query (scatter-gather over the shards)."""
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Answer a batch of range queries: broadcast, per-shard Algorithm 4, union.

        Same answer contract as :meth:`GTS.range_query_batch` — exact
        ``(object_id, distance)`` lists sorted by ``(distance, object_id)``
        with *global* object ids.
        """
        self._require_built()
        return self._scatter(queries, radii=query_radii(radii, len(queries)))

    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Answer one metric kNN query (scatter-gather over the shards)."""
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Answer a batch of kNN queries: broadcast, per-shard Algorithm 5, merge-top-k.

        Every shard answers the full batch with the full ``k`` over its
        partition; the host keeps the global top-k of the ``K`` per-shard
        top-k lists.  Exact, because any object among the global k nearest
        has fewer than ``k`` objects ahead of it in its own shard.
        """
        self._require_built()
        return self._scatter(queries, k=query_ks(k, len(queries)))

    def _forest(self):
        """The shards' trees stacked as one forest (:func:`stack_forest`).

        Shard ``sid``'s ids start at its region of the global-id array, so
        a stacked id is a position in ``_global_of``.  The stack is rebuilt
        only when a shard's tree, a tiered shard's slot map or the regions
        are no longer the objects it was stacked from, checked by identity
        once per batch; it is never changed in place.
        """
        key = [shard._tree for shard in self.shards]
        if self.tiered:
            key += [shard._port.store.slot_map for shard in self.shards]
        key.append(self._global_of)
        if self._stack is None or any(a is not b for a, b in zip(self._stack_key, key)):
            self._stack, self._stack_key = stack_forest(self.shards, self._region[:-1]), key
        return self._stack

    def _scatter(
        self,
        queries: Sequence,
        radii: Optional[np.ndarray] = None,
        k: Optional[np.ndarray] = None,
    ) -> list[list[tuple[int, float]]]:
        """Search every shard's tree in one forest descent and rank the triples.

        :func:`search_indexes` runs one level-synchronous descent over the
        stacked shard trees, each under its own bounds, then each shard's
        cache scan.  Its accumulator's ``(query, id, distance)`` triples —
        for kNN every triple at or under the query's k-th distance on its
        shard — carry virtual queries ``sid * len(queries) + q`` and stacked
        ids, which one fancy index of ``_global_of`` maps to global ids;
        all shards' triples are ranked by one
        :func:`triples_to_answer_lists` call (cut to ``k`` for kNN).  The
        partitions are disjoint, so no id appears twice.
        """
        num_queries = len(queries)
        forest = self._forest()
        if num_queries:
            self._plan_counts["range" if k is None else "knn"]["descent"] += 1

        def run():
            results = search_indexes(self.shards, forest, queries, radii=radii, k=k)
            qs, ids, dists = results.triples()
            # each shard gathers its answers back to the host: every pooled
            # triple of a range batch, at most k per query of a kNN batch
            if k is None:
                edges = np.arange(self.num_shards + 1, dtype=np.int64) * num_queries
                answered = np.diff(np.searchsorted(qs, edges))
            else:
                per_query = np.bincount(qs, minlength=self.num_shards * num_queries)
                answered = np.minimum(per_query, results.k).reshape(self.num_shards, -1).sum(axis=1)
            for shard, count in zip(self.shards, answered.tolist()):
                shard.device.transfer_to_host(count * RESULT_BYTES, label="results-d2h")
            return qs, ids, dists

        qs, ids, dists = self._shard_round(run)
        if num_queries:
            qs = qs % num_queries
        merged = triples_to_answer_lists(qs, self._global_of[ids], dists, num_queries, k=k)
        if k is None:
            # The union keeps every gathered hit (partitions are disjoint, so
            # the union size equals the single-device answer size): a K-way
            # merge of the per-shard sorted lists costs log2(K) comparisons
            # per hit.
            self._charge_host(len(qs) * self._log_shards(), "shard-merge-range")
        else:
            # Selecting the global top-k from K sorted per-shard lists needs
            # only one pop from a K-element heap per answer (k, or fewer when
            # the shards hold fewer objects) — the merge never has to
            # consume all K*k gathered candidates.
            pops = sum(len(answer) for answer in merged)
            self._charge_host(
                len(queries) * self.num_shards + float(pops) * self._log_shards(),
                "shard-merge-knn",
            )
        return merged

    def execute_batch(self, ops: Sequence[tuple]) -> list:
        """Execute a heterogeneous operation batch in submission order.

        Identical contract to :meth:`GTS.execute_batch` (the serving layer's
        entry point): updates act as barriers, the range and the kNN queries
        between two barriers ride one scatter-gather batch per kind, repeated
        queries are searched once, and results come back in submission order.
        """
        self._require_built()
        return execute_operation_batch(self, ops)

    # -------------------------------------------------------------- updates
    def insert(self, obj) -> int:
        """Insert one object, routed to the shard the policy picks.

        Returns the new *global* id (insertion order, like :meth:`GTS.insert`).
        The object lands in the owning shard's cache table; a cache overflow
        rebuilds that shard alone.
        """
        self._require_built()
        gid = self._next_id
        sid = self.policy.assign(gid, obj, _LiveLoads(self.shards))
        # validate before charging: a rejected insert (object larger than the
        # shard's whole cache budget, or no row of its store) must stay
        # stats-neutral
        self.shards[sid]._insert_nbytes(obj)
        # routing the object to its shard is one host-side table lookup
        self._charge_host(1.0, "shard-route")
        lid = self._single_shard(sid, lambda shard: shard.insert(obj))
        self._record(sid, lid, [gid])
        self._next_id += 1
        return gid

    def delete(self, obj_id: int) -> None:
        """Delete one object by global id, routed to its owning shard.

        Validates before charging any simulated time, like :meth:`GTS.delete`
        and with its errors: an id outside ``[0, next id)`` is unknown, and
        one its shard does not report live has already been deleted; both
        raise :class:`~repro.exceptions.UpdateError` with no device activity.
        """
        self._require_built()
        gid = int(obj_id)
        owner = self._resolve(gid)
        if owner is None:
            raise UpdateError(f"unknown object id {gid}")
        sid, lid = owner
        if not self.shards[sid].is_live(lid):
            raise UpdateError(f"object {gid} has already been deleted")
        self._charge_host(1.0, "shard-route")
        self._single_shard(sid, lambda shard: shard.delete(lid))

    def update(self, obj_id: int, new_obj) -> int:
        """Modify an object: delete the old version, insert the new one.

        Validated atomically: the shard the replacement will go to is picked
        first — the policy is a pure function of the next global id, the
        object and the loads, here the loads after the delete — and a
        replacement too large for that shard's cache budget, or one its
        store cannot hold, is rejected before the old version is touched.
        """
        self._require_built()
        loads = self.shard_load_bytes
        if self.is_live(obj_id):
            sid, lid = self._resolve(int(obj_id))
            loads[sid] -= self.shards[sid]._objects.nbytes([lid])
        self.shards[self.policy.assign(self._next_id, new_obj, loads)]._insert_nbytes(new_obj)
        self.delete(obj_id)
        return self.insert(new_obj)

    def batch_update(self, inserts: Sequence = (), deletes: Sequence[int] = ()) -> ShardedBuildReport:
        """Apply a bulk update; only the shards it touches rebuild (in parallel).

        Deletes are validated up front as :meth:`delete` validates one
        (unknown, then already-deleted ids raise), then grouped per owning
        shard; inserts are assigned global ids and shards exactly as
        streaming inserts would be, and each is checked against its shard's
        store before anything changes.  Each affected shard runs :meth:`GTS.batch_update`
        (its full reconstruction), untouched shards do nothing, and the
        reported ``sim_time`` is the makespan of the round.  A call with both
        sequences empty is a free no-op: no round, no host charge, no rebuild
        counters.
        """
        self._require_built()
        inserts = list(inserts)
        delete_set = {int(d) for d in deletes}
        if not inserts and not delete_set:
            return ShardedBuildReport(per_shard=[], sim_time=0.0)
        owners = {gid: self._resolve(gid) for gid in sorted(delete_set)}
        unknown = [gid for gid, owner in owners.items() if owner is None]
        if unknown:
            raise UpdateError(f"cannot delete unknown object ids: {unknown}")
        already_deleted = [
            gid for gid, (sid, lid) in owners.items() if not self.shards[sid].is_live(lid)
        ]
        if already_deleted:
            raise UpdateError(f"objects have already been deleted: {already_deleted}")

        # routing is planned on a copy of the shards' loads, as the deletes
        # and each routed insert change them
        loads = self.shard_load_bytes
        per_shard_deletes: list[list[int]] = [[] for _ in range(self.num_shards)]
        for sid, lid in owners.values():
            per_shard_deletes[sid].append(lid)
            loads[sid] -= self.shards[sid]._objects.nbytes([lid])

        per_shard_inserts: list[list] = [[] for _ in range(self.num_shards)]
        new_gids: list[list[int]] = [[] for _ in range(self.num_shards)]
        for gid, obj in enumerate(inserts, start=self._next_id):
            sid = self.policy.assign(gid, obj, loads)
            store = self.shards[sid]._objects
            store.stored_row(obj)
            per_shard_inserts[sid].append(obj)
            new_gids[sid].append(gid)
            loads[sid] += store.stored_nbytes(obj)

        self._charge_host(len(delete_set) + len(inserts), "shard-route")
        # GTS assigns local ids consecutively from its current object count
        first_local = [len(shard._objects) for shard in self.shards]

        def run():
            return [
                shard.batch_update(per_shard_inserts[sid], per_shard_deletes[sid])
                if per_shard_inserts[sid] or per_shard_deletes[sid]
                else None
                for sid, shard in enumerate(self.shards)
            ]

        results = self._shard_round(run)
        for sid, shard_gids in enumerate(new_gids):
            self._record(sid, first_local[sid], shard_gids)
        self._next_id += len(inserts)
        rebuilt = [r for r in results if r is not None]
        return ShardedBuildReport(
            per_shard=rebuilt,
            sim_time=max((r.sim_time for r in rebuilt), default=0.0),
        )

    def rebuild(self) -> ShardedBuildReport:
        """Force every shard to rebuild (one parallel round)."""
        self._require_built()
        results = self._shard_round(lambda: [shard.rebuild() for shard in self.shards])
        return ShardedBuildReport(
            per_shard=list(results),
            sim_time=max(r.sim_time for r in results),
        )

    # ---------------------------------------------------------- maintenance
    def enable_incremental_maintenance(self, config=None) -> None:
        """Enable non-blocking generation-swap rebuilds on every shard.

        Shard-local cache overflows then only mark the owning shard
        maintenance-due; :meth:`run_maintenance_slice` advances the rebuilds
        under a **staggered schedule** — at most one shard is in maintenance
        at a time, so a scatter-gather query batch never waits behind more
        than one shard's slice and the tail latency of the round stays
        bounded (DESIGN.md §9).
        """
        for shard in self.shards:
            shard.enable_incremental_maintenance(config)

    @property
    def maintenance_enabled(self) -> bool:
        """True when the shards run non-blocking generation-swap rebuilds."""
        return any(shard.maintenance_enabled for shard in self.shards)

    @property
    def maintenance_due(self) -> bool:
        """True when a maintenance slice would advance some shard."""
        return any(shard.maintenance_due for shard in self.shards)

    def run_maintenance_slice(self):
        """Advance maintenance on **at most one** shard (staggered schedule).

        A shard with an in-flight generation always goes first — it runs to
        completion over successive calls before any other due shard may
        start its own rebuild, which is what keeps at most one shard in
        maintenance at any time.  The slice's delta is charged to the
        coordinating timeline like any single-shard operation.  Returns the
        shard's :class:`~repro.core.maintenance.SliceReport` or None.
        """
        self._require_built()
        target = None
        for sid, shard in enumerate(self.shards):
            if shard.maintenance is not None and shard.maintenance.in_flight:
                target = sid
                break
        if target is None:
            for sid, shard in enumerate(self.shards):
                if shard.maintenance_due:
                    target = sid
                    break
        if target is None:
            return None
        return self._single_shard(target, lambda shard: shard.run_maintenance_slice())

    # ------------------------------------------------------------ properties
    def get_object(self, obj_id: int):
        """Return the object registered under the *global* ``obj_id``."""
        owner = self._resolve(int(obj_id))
        if owner is None:
            raise IndexError_(f"unknown object id {int(obj_id)}")
        sid, lid = owner
        return self.shards[sid].get_object(lid)

    def is_live(self, obj_id: int) -> bool:
        """True when the global ``obj_id`` is known and its shard reports it live."""
        owner = self._resolve(int(obj_id))
        return owner is not None and self.shards[owner[0]].is_live(owner[1])

    @property
    def num_objects(self) -> int:
        """Number of live (visible) objects across all shards."""
        return sum(shard.num_objects for shard in self.shards)

    @property
    def num_indexed(self) -> int:
        """Number of objects inside the shard trees (incl. tombstoned slots)."""
        return sum(shard.num_indexed for shard in self.shards)

    @property
    def cache_size(self) -> int:
        """Objects currently buffered across the shard-local cache tables."""
        return sum(shard.cache_size for shard in self.shards)

    @property
    def rebuild_count(self) -> int:
        """Total rebuilds across all shards: ``automatic + forced``."""
        return sum(shard.rebuild_count for shard in self.shards)

    @property
    def automatic_rebuild_count(self) -> int:
        """Cache-overflow (streaming-update) rebuilds across all shards."""
        return sum(shard.automatic_rebuild_count for shard in self.shards)

    @property
    def forced_rebuild_count(self) -> int:
        """Explicit :meth:`rebuild` / :meth:`batch_update` reconstructions
        across all shards."""
        return sum(shard.forced_rebuild_count for shard in self.shards)

    @property
    def plan_counts(self) -> dict:
        """Query batches served per kind and plan, shaped like
        :attr:`GTS.plan_counts` (a copy).  Every sharded batch is one forest
        descent; the flat plan is a single-tree index's."""
        return {kind: dict(plans) for kind, plans in self._plan_counts.items()}

    @property
    def shard_sizes(self) -> list[int]:
        """Live object count of each shard (balance diagnostic)."""
        return [shard.num_objects for shard in self.shards]

    @property
    def shard_load_bytes(self) -> list[int]:
        """Bytes of each shard's live objects (what size-balanced evens out),
        read from the shards' object stores."""
        return [shard.live_nbytes for shard in self.shards]

    @property
    def tiered(self) -> bool:
        """True when the shards page their object stores (tiered mode)."""
        return self.tier_config is not None

    def pager_stats(self) -> Optional[dict]:
        """Aggregate block-pager counters across the shards (None if resident)."""
        if not self.tiered:
            return None
        totals: dict = {}
        for shard in self.shards:
            for key, value in shard.pager.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        accesses = totals.get("hits", 0) + totals.get("misses", 0)
        totals["hit_rate"] = totals.get("hits", 0) / accesses if accesses else 1.0
        return totals

    @property
    def storage_bytes(self) -> int:
        """Total index storage across the shard trees."""
        return sum(shard.storage_bytes for shard in self.shards)

    @property
    def height(self) -> int:
        """Height of the tallest shard tree."""
        self._require_built()
        return max(shard.height for shard in self.shards)

    def __len__(self) -> int:
        return self.num_objects

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = "built" if self._built else "empty"
        return (
            f"ShardedGTS({built}, shards={self.num_shards}, "
            f"objects={self.num_objects}, policy={self.policy.name!r}, "
            f"metric={self.metric.name!r})"
        )
