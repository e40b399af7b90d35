"""Public facade of the GTS index.

:class:`GTS` ties together the pieces built in the rest of :mod:`repro.core`:

* level-synchronous parallel construction (Algorithms 1-3);
* batch metric range queries and batch metric kNN queries (Algorithms 4-5)
  with the two-stage memory-aware grouping;
* streaming updates through the cache table and tombstones, with automatic
  full rebuilds when the cache outgrows its budget (Section 4.4);
* the node-capacity cost model (Section 5.3).

A minimal end-to-end use looks like::

    from repro import GTS, EuclideanDistance

    index = GTS.build(points, EuclideanDistance(), node_capacity=20)
    hits = index.range_query(points[0], radius=0.5)
    neighbours = index.knn_query_batch(points[:64], k=10)

Object identity: every object handed to the index receives a persistent
integer id (its position in the insertion order).  Query answers are
``(object_id, distance)`` pairs sorted by ``(distance, object_id)``;
:meth:`GTS.get_object` maps ids back to objects.  Ids survive rebuilds and
are never reused after deletion.

Concurrent callers: :meth:`GTS.execute_batch` is the mixed-batch entry point
the serving layer (:mod:`repro.service`) coalesces interleaved client
requests through; see DESIGN.md §4.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..exceptions import IndexError_, QueryError, UpdateError
from ..gpusim.device import Device
from ..gpusim.specs import DeviceSpec
from ..metrics.base import Metric
from ..tier.config import TierConfig
from .cache_table import CacheTable
from .construction import BuildResult, TreeBuild
from .cost_model import (
    DistanceDistribution,
    estimate_distance_distribution,
    recommend_node_capacity,
)
from .nodes import TreeStructure
from .objectstore import ListStore, make_object_store
from .search import BoundedTriples, descend_forest, open_batch, verify_flat
from .searchcommon import (
    Forest,
    PruneMode,
    SearchBatch,
    query_k,
    query_ks,
    query_radii,
    query_radius,
    tombstone_array,
    tombstoned_mask,
)

__all__ = [
    "GTS",
    "PlanChooser",
    "execute_operation_batch",
    "stack_forest",
    "open_index_batch",
    "scan_caches",
    "search_indexes",
]

#: Default cache-table budget; the paper recommends ~5 KB (Section 6.2).
DEFAULT_CACHE_BYTES = 5 * 1024

#: Operation kinds :func:`execute_operation_batch` accepts, each with its
#: field count and the conversion of its scalar parameter (radius, ``k``,
#: delete id).
_CONVERT = {
    "range": (3, lambda op: query_radius(op[2])),
    "knn": (3, lambda op: query_k(op[2])),
    "insert": (2, lambda op: None),
    "delete": (2, lambda op: int(op[1])),
}


def _convert_op(pos: int, op) -> object:
    """Check one batch operation's shape and convert its scalar parameter.

    Every malformed operation — unknown kind, too few fields, a parameter
    that is not a valid radius, ``k`` or id — raises
    :class:`~repro.exceptions.QueryError` naming the operation's position.
    """
    kind = op[0] if len(op) else None
    if kind not in _CONVERT:
        raise QueryError(f"batch operation {pos}: unknown kind {kind!r}")
    fields, convert = _CONVERT[kind]
    if len(op) < fields:
        raise QueryError(
            f"batch operation {pos} ({kind!r}) needs {fields} fields, got {len(op)}"
        )
    try:
        return convert(op)
    except (QueryError, TypeError, ValueError) as exc:
        raise QueryError(f"batch operation {pos} ({kind!r}): {exc}") from exc


def _payload_key(payload):
    """Hashable identity of a query payload, or ``None`` if it is never merged.

    An ndarray is keyed on its exact bytes (with dtype and shape), so arrays
    that differ in any bit — ``0.0`` vs ``-0.0``, ``int64`` vs ``float64`` —
    stay apart; ``str``/``bytes``/``frozenset`` payloads are keyed on their
    value.  Every other payload (lists, object arrays, ...) gets no key.
    """
    if isinstance(payload, np.ndarray):
        if payload.dtype.hasobject:
            return None
        return (type(payload), payload.dtype, payload.shape, payload.tobytes())
    if isinstance(payload, (str, bytes, frozenset)):
        return (type(payload), payload)
    return None


def _answer_distinct(batch_call, queries: list, params: list, dtype) -> list:
    """One ``batch_call`` over the distinct ``(query, param)`` pairs.

    Queries with equal payload keys and equal radius/``k`` must get
    identical answers, so each is searched once; every duplicate receives its
    own copy of the answer list, so no two results alias.
    """
    slot_of: dict = {}
    slots: list[int] = []
    distinct: list[int] = []
    for i, (query, param) in enumerate(zip(queries, params)):
        key = _payload_key(query)
        slot = len(distinct) if key is None else slot_of.setdefault((key, param), len(distinct))
        if slot == len(distinct):
            distinct.append(i)
        slots.append(slot)
    answers = batch_call(
        [queries[i] for i in distinct], np.asarray([params[i] for i in distinct], dtype=dtype)
    )
    served = [False] * len(distinct)
    out = []
    for slot in slots:
        out.append(list(answers[slot]) if served[slot] else answers[slot])
        served[slot] = True
    return out


def execute_operation_batch(index, ops: Sequence[tuple]) -> list:
    """Run a mixed operation batch against any index exposing the GTS API.

    The shared implementation behind :meth:`GTS.execute_batch` and
    :meth:`repro.shard.ShardedGTS.execute_batch` — ``index`` only needs
    ``range_query_batch`` / ``knn_query_batch`` / ``insert`` / ``delete``.

    Inserts and deletes are barriers, applied in submission order.  Each
    update-free segment between them runs as at most one
    ``range_query_batch`` and one ``knn_query_batch`` call: queries do not
    change index state, so reordering them inside a segment cannot change an
    answer.  Inside each call, queries with the same payload and the same
    radius/``k`` are searched once (see :func:`_payload_key`).  Every
    operation's kind, field count and parameter are checked before anything
    runs (:func:`_convert_op`), so a malformed batch is rejected with the
    index and its stats untouched.
    Results come back in submission order, one entry per operation.
    """
    params = [_convert_op(pos, op) for pos, op in enumerate(ops)]
    results: list = [None] * len(ops)
    segment: dict[str, list[int]] = {"range": [], "knn": []}

    def run_segment() -> None:
        for kind, batch_call, dtype in (
            ("range", index.range_query_batch, np.float64),
            ("knn", index.knn_query_batch, np.int64),
        ):
            positions = segment[kind]
            if not positions:
                continue
            answers = _answer_distinct(
                batch_call, [ops[p][1] for p in positions], [params[p] for p in positions], dtype
            )
            for pos, answer in zip(positions, answers):
                results[pos] = answer
            positions.clear()

    for pos, op in enumerate(ops):
        if op[0] in segment:
            segment[op[0]].append(pos)
            continue
        run_segment()
        results[pos] = index.insert(op[1]) if op[0] == "insert" else index.delete(params[pos])
    run_segment()
    return results


def stack_forest(indexes: Sequence["GTS"], id_offsets: Sequence[int] = (0,)) -> Forest:
    """The forest of ``indexes``' live trees, index ``t``'s ids from ``id_offsets[t]``.

    Tiered indexes stack their ports' id→slot maps too.  The offsets must
    leave each index room for every id its store will hold while the forest
    is in use (cached inserts included).
    """
    slot_maps = None
    if indexes[0]._port is not None:
        slot_maps = [index._port.slot_of for index in indexes]
    return Forest([index._tree for index in indexes], id_offsets, slot_maps)


def open_index_batch(
    indexes: Sequence["GTS"],
    forest: Forest,
    queries: Sequence,
    radii: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
) -> SearchBatch:
    """Open a query batch over the trees of ``indexes`` as one ``forest``.

    ``forest`` is :func:`stack_forest` of the same indexes, current.  Each
    index's tombstones are stacked by its id offset and each tree reads its
    own store, port and device (:func:`~repro.core.search.open_batch`).
    The indexes share a metric and a prune mode.
    """
    first = indexes[0]
    offsets = forest.id_off
    if len(indexes) == 1:
        tombstones = tombstone_array(first._tombstones)
    else:
        # each index's ids lie in its own range, so the pieces stay sorted
        dead = [
            tombstone_array(index._tombstones) + off
            for index, off in zip(indexes, offsets)
            if index._tombstones
        ]
        tombstones = np.concatenate(dead) if dead else None
    return open_batch(
        forest,
        [(index._objects, index._port, index.device) for index in indexes],
        first.metric,
        queries,
        tombstones,
        first.prune_mode,
        radii=radii,
        k=k,
    )


def scan_caches(indexes: Sequence["GTS"], batch: SearchBatch) -> None:
    """Scan each index's cache table into the batch's accumulator.

    Each scan is one fused ``cache-scan`` kernel over the whole batch
    (DESIGN.md §9), launched on its index's device; index ``t``'s cached
    candidates are offered as its virtual queries and stacked ids, so they
    meet its tree candidates under each query's radius or running k-th
    bound.  Every search of an index — exact or approximate — ends here.
    """
    num_queries = batch.num_queries
    for t, index in enumerate(indexes):
        index._cache.range_scan_batch(
            index.metric,
            index._objects,
            batch.queries,
            batch.results,
            index.device,
            query_offset=t * num_queries,
            id_offset=batch.forest.id_off[t],
        )


def search_indexes(
    indexes: Sequence["GTS"],
    forest: Forest,
    queries: Sequence,
    radii: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    run: Callable[[SearchBatch], None] = descend_forest,
) -> BoundedTriples:
    """Search the trees of ``indexes`` as one ``forest``, then scan each cache
    table into the same accumulator, and return it.

    ``run`` answers the trees of the batch :func:`open_index_batch` opened:
    by default one descent serves every tree
    (:func:`~repro.core.search.descend_forest`); a single resident index
    passes its plan choice (:meth:`PlanChooser.run`).  Index ``t``'s
    answers are the accumulator's virtual queries ``t * len(queries) + q``
    and its ids are stacked ids, its own plus ``forest.id_off[t]``.  The
    cache scans (:func:`scan_caches`) run after the trees.
    """
    batch = open_index_batch(indexes, forest, queries, radii=radii, k=k)
    run(batch)
    scan_caches(indexes, batch)
    return batch.results


#: Evaluated share of the tree's objects per query (the last descent's
#: metric pairs over queries x tree objects) at or above which a kind's
#: batches skip the descent for the flat pass (DESIGN.md §8, "Plan choice").
FLAT_SHARE = 0.5

#: Flat batches of one kind after which one descent runs again, so a change
#: of radius or ``k`` that lets the tree prune brings the descent back.
FLAT_RUN = 15

#: The plans :class:`PlanChooser` chooses between.
PLANS = ("descent", "flat")


class PlanChooser:
    """Per query kind, the plan of a resident single-tree index's next batch.

    The plan is the level-synchronous descent
    (:func:`~repro.core.search.descend_forest`) or the flat pass
    (:func:`~repro.core.search.verify_flat`), which verifies every indexed
    object for every query.  Their answers are identical; the choice is made
    from counts alone, never from a clock, so a repeated request stream
    repeats its plans and its simulated accounting.  Each descent records
    its *evaluated share*: the metric's pairs during the descent over
    (queries x tree objects).  A kind runs flat while its last share is at
    least :data:`FLAT_SHARE`, and descends again after :data:`FLAT_RUN`
    flat batches in a row to re-measure.  Without a share — the first batch
    of a kind, and the first after :meth:`reset`, which every tree install
    calls — it descends.  A tiered batch always descends: the flat pass
    would fault every block.  :attr:`counts` holds, per kind, how many
    batches each plan served.
    """

    def __init__(self) -> None:
        #: batches served per kind and plan (plain counters, no effect)
        self.counts = {kind: dict.fromkeys(PLANS, 0) for kind in ("range", "knn")}
        #: a plan every resident batch runs, for tests only; None chooses
        self.forced: Optional[str] = None
        self.reset()

    def reset(self) -> None:
        """Forget every share: the next batch of each kind descends."""
        self._share = {"range": None, "knn": None}
        self._flat_run = {"range": 0, "knn": 0}

    def choose(self, kind: str, tiered: bool) -> str:
        """The plan of the next batch of ``kind`` (``"range"`` or ``"knn"``)."""
        if tiered:
            return "descent"
        if self.forced is not None:
            return self.forced
        share = self._share[kind]
        if share is None or share < FLAT_SHARE or self._flat_run[kind] >= FLAT_RUN:
            return "descent"
        return "flat"

    def run(self, batch: SearchBatch) -> None:
        """Answer the tree part of an opened single-tree batch under the
        chosen plan, and record what it showed.  An empty batch runs
        nothing and is not counted."""
        num_queries = batch.num_queries
        if num_queries == 0:
            return
        kind = "range" if batch.results.k is None else "knn"
        plan = self.choose(kind, batch.tiered)
        if plan == "flat":
            verify_flat(batch)
            self._flat_run[kind] += 1
        else:
            before = batch.metric.pair_count
            descend_forest(batch)
            pairs = batch.metric.pair_count - before
            self._share[kind] = pairs / (num_queries * batch.forest.trees[0].num_objects)
            self._flat_run[kind] = 0
        self.counts[kind][plan] += 1


class GTS:
    """GPU-based Tree index for Similarity search (simulated-GPU edition).

    Parameters
    ----------
    metric:
        Distance metric of the metric space.
    node_capacity:
        Fan-out ``Nc`` of the tree (the paper's tuning knob, default 20).
    device:
        Simulated GPU to run on; a default 11 GB / 4096-core device is
        created when omitted.
    cache_capacity_bytes:
        Byte budget of the streaming-update cache table.
    pivot_strategy:
        Pivot selection strategy (``"fft"``, ``"random"``, ``"center"``).
    prune_mode:
        ``"two-sided"`` (default) or ``"one-sided"`` pruning (ablation).
    seed:
        Seed of the construction RNG (root pivot choice), for reproducibility.
    tier:
        When given, the index runs in **tiered mode** (DESIGN.md §7): the
        object store stays in simulated host memory, split into blocks, and
        a :class:`~repro.tier.BlockPager` stages blocks into a device pool
        bounded by the :class:`~repro.tier.TierConfig`'s budget on demand.
        Query/update answers are identical to the fully-resident index; only
        the charged transfer time (and the device-memory footprint) changes.
    """

    def __init__(
        self,
        metric: Metric,
        node_capacity: int = 20,
        device: Optional[Device] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_BYTES,
        pivot_strategy: str = "fft",
        prune_mode: str = "two-sided",
        seed: int = 17,
        tier: Optional[TierConfig] = None,
    ):
        if node_capacity < 2:
            raise IndexError_(f"node capacity must be at least 2, got {node_capacity}")
        self.metric = metric
        self.node_capacity = int(node_capacity)
        self.device = device or Device(DeviceSpec())
        self.pivot_strategy = pivot_strategy
        self.prune_mode = PruneMode.from_name(prune_mode)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.tier_config: Optional[TierConfig] = tier
        self._pager = None
        #: device-read port of a tiered index (a ``PagedObjects``), else None
        self._port = None
        #: device allocation of a tiered store's pinned pivot rows, else None
        self._pinned_rows = None

        #: the host object store (a ColumnarStore or a ListStore), tiered or
        #: not: the one owner of every row and its byte count
        self._objects = ListStore()
        #: ids inside the live tree, and their membership over the store's
        #: ids at install (an id appended later is cached, never indexed)
        self._indexed_ids = np.zeros(0, dtype=np.int64)
        self._indexed_mask = np.zeros(0, dtype=bool)
        #: store bytes of ``_indexed_ids``, summed at each install and
        #: after a store rewrite (the only times either changes)
        self._indexed_nbytes = 0
        self._tombstones: set[int] = set()
        self._tree: Optional[TreeStructure] = None
        #: the forest of ``_tree`` alone, which the search descends
        self._stack: Optional[Forest] = None
        self._build_result: Optional[BuildResult] = None
        self._allocations: list = []
        self._cache = CacheTable(cache_capacity_bytes, device=self.device)
        self._automatic_rebuild_count = 0
        self._forced_rebuild_count = 0
        self._maintenance = None
        #: the per-batch choice between the descent and the flat pass
        self._planner = PlanChooser()

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def build(cls, objects: Sequence, metric: Metric, **options) -> "GTS":
        """Build a GTS index over ``objects`` and return it.

        ``options`` are the constructor's keyword parameters.
        """
        index = cls(metric, **options)
        index.bulk_load(objects)
        return index

    def bulk_load(self, objects: Sequence) -> BuildResult:
        """(Re)initialise the index with ``objects`` as its full content.

        Runs the level-synchronous parallel construction (Algorithms 1-3,
        Section 4.1-4.3).  Object ``i`` of ``objects`` receives object id
        ``i``; any previous content, cache entries and tombstones are
        dropped first.  Returns the construction's
        :class:`~repro.core.construction.BuildResult` (simulated time,
        distance computations, allocations).
        """
        if len(objects) == 0:
            raise IndexError_("cannot bulk load an empty object collection")
        if self._maintenance is not None:
            self._maintenance.abort()
        self._release_index()
        self._release_tier()
        # Vector datasets stay one contiguous matrix end-to-end (a
        # ColumnarStore); everything else falls back to a ListStore.
        self._objects = make_object_store(objects)
        if self.tier_config is not None:
            self._init_tier()
        return self._rebuild_over(np.arange(len(self._objects), dtype=np.int64))

    def _init_tier(self) -> None:
        """Block the host object store and open the pager and its read port.

        The store starts in the identity layout (slot = id); the first tree
        install replaces it with the tree's leaf-clustered layout.
        ``_objects`` stays the host store itself.
        """
        from ..tier.pager import BlockPager
        from ..tier.store import PagedObjects, TieredObjectStore

        store = TieredObjectStore(self._objects, self.tier_config.block_bytes)
        self._check_block_budget(store)
        self._pager = BlockPager(self.device, store, self.tier_config)
        self._port = PagedObjects(store, self._pager)

    def _check_block_budget(self, store) -> None:
        """Fail fast when the pool cannot hold the largest block.

        Blocks are sized by the *average* payload, so variable-length data
        (strings) can produce blocks larger than block_bytes — and a layout
        change regroups objects into blocks of different payloads.  Checked
        at every layout install, so the error surfaces at build time instead
        of mid-descent.
        """
        from ..exceptions import TierError

        max_block = store.largest_block_nbytes()
        if max_block > self.tier_config.memory_budget_bytes:
            raise TierError(
                f"tier memory budget ({self.tier_config.memory_budget_bytes} B) "
                f"cannot hold the largest object block ({max_block} B; average-"
                f"sized blocks target {self.tier_config.block_bytes} B); raise "
                "memory_budget_bytes or shrink block_bytes"
            )

    def _install_layout(self, tree: TreeStructure) -> None:
        """Page the tiered store in ``tree``'s leaf-clustered block layout.

        Resident blocks hold the previous layout's slot ranges, so every one
        is invalidated.  The tree's distinct internal-node pivots become the
        store's pinned prefix and are staged on the device here, so no
        descent level ever pages them (DESIGN.md §7).
        """
        from ..tier.store import leaf_clustered_order

        store = self._pager.store
        for block_id in self._pager.resident_blocks:
            self._pager.invalidate(block_id)
        store.set_layout(*leaf_clustered_order(tree, len(store)))
        self._check_block_budget(store)
        self._stage_pinned()

    def _stage_pinned(self) -> None:
        """Stage the store's pinned rows on the device: one H2D transfer.

        The pinned table is one allocation in the ``"tree"`` pool, outside
        the pager's budget and its counters, charged under
        :data:`~repro.tier.pager.PINNED_H2D_LABEL` with one
        ``fault_latency``.  A table of the same size is rewritten in place;
        any other replaces the one held.
        """
        from ..tier.pager import PINNED_H2D_LABEL

        store = self._pager.store
        nbytes = self._objects.nbytes(store.pinned_ids) if store.pinned else 0
        if self._pinned_rows is not None and self._pinned_rows.nbytes != nbytes:
            self.device.free(self._pinned_rows)
            self._pinned_rows = None
        if nbytes == 0:
            return
        if self._pinned_rows is None:
            self._pinned_rows = self.device.allocate(nbytes, "tier-pinned-rows", pool="tree")
        self.device.transfer_to_device(
            nbytes, label=PINNED_H2D_LABEL, latency=self.tier_config.fault_latency
        )

    def _release_tier(self) -> None:
        """Free the staged blocks and the pinned table (index close or reload)."""
        if self._pager is not None:
            self._pager.release()
        if self._pinned_rows is not None:
            self.device.free(self._pinned_rows)
            self._pinned_rows = None

    def _tree_build(self, ids: np.ndarray) -> TreeBuild:
        """A construction of a tree over ``ids`` with this index's settings."""
        return TreeBuild(
            self._objects,
            ids,
            self.metric,
            self.node_capacity,
            self.device,
            rng=self._rng,
            pivot_strategy=self.pivot_strategy,
            # Tiered mode never materialises the full object store on the
            # device: construction faults blocks through the port instead,
            # and only the tree storage is allocated, by _install.
            allocate_storage=self._port is None,
            port=self._port,
        )

    def _install(self, result: BuildResult, ids: np.ndarray, tombstones: set) -> BuildResult:
        """Make ``result``'s tree the live tree over ``ids`` and ``tombstones``.

        The one place the live tree changes — builds, rebuilds, generation
        swaps and index loads all end here.  The previous tree's device
        storage is freed first.  Tiered indexes then re-page the store in the
        new tree's layout (staging its pinned pivot rows) and allocate the
        tree storage, which their construction did not stage.  The plan
        choice forgets what the old tree showed, so the new tree's first
        batch of each kind descends.
        """
        self._release_index()
        self._planner.reset()
        if self.tier_config is not None:
            self._install_layout(result.tree)
            result.allocations.append(
                self.device.allocate(result.tree.storage_bytes(), "gts-index", pool="tree")
            )
        self._tree = result.tree
        self._build_result = result
        self._allocations = result.allocations
        self._indexed_ids = ids
        self._indexed_mask = np.zeros(len(self._objects), dtype=bool)
        self._indexed_mask[ids] = True
        self._indexed_nbytes = self._objects.nbytes(ids)
        self._tombstones = tombstones
        return result

    def _rebuild_over(self, ids: np.ndarray) -> BuildResult:
        """Stop-the-world: replace the tree with a fresh one over ``ids``.

        The cache is emptied and the old tree freed *before* the build, so a
        blocking rebuild never holds two trees on the device.
        """
        self._cache.clear()
        self._release_index()
        build = self._tree_build(ids)
        build.run()
        return self._install(build.result(), ids, set())

    def _release_index(self) -> None:
        for alloc in self._allocations:
            self.device.free(alloc)
        self._allocations = []
        self._tree = None
        self._stack = None
        self._build_result = None

    def close(self) -> None:
        """Free every device allocation held by the index."""
        if self._maintenance is not None:
            self._maintenance.abort()
        self._release_index()
        self._release_tier()
        self._cache.release()

    # ------------------------------------------------------------ properties
    @property
    def tree(self) -> TreeStructure:
        """The underlying flat tree structure (read-only use only)."""
        self._require_built()
        return self._tree

    @property
    def height(self) -> int:
        """Height ``h`` of the tree (leaves live at level ``h``)."""
        self._require_built()
        return self._tree.height

    @property
    def num_objects(self) -> int:
        """Number of live (visible) objects: indexed - deleted + cached."""
        return len(self._indexed_ids) - len(self._tombstones) + len(self._cache)

    @property
    def live_nbytes(self) -> int:
        """Bytes the live objects take in the object store (what a shard's
        load is): indexed minus tombstoned, plus cached."""
        store = self._objects
        return (
            self._indexed_nbytes
            - store.nbytes(self._tombstones)
            + self._cache.used_bytes(store)
        )

    @property
    def num_indexed(self) -> int:
        """Number of objects inside the tree (including tombstoned slots)."""
        return len(self._indexed_ids)

    @property
    def cache_size(self) -> int:
        """Number of objects currently buffered in the cache table."""
        return len(self._cache)

    @property
    def rebuild_count(self) -> int:
        """Total rebuilds of any kind: ``automatic + forced``.

        Kept as the sum for backwards compatibility; use
        :attr:`automatic_rebuild_count` for overflow-triggered rebuilds and
        :attr:`forced_rebuild_count` for explicit :meth:`rebuild` /
        :meth:`batch_update` reconstructions.
        """
        return self._automatic_rebuild_count + self._forced_rebuild_count

    @property
    def automatic_rebuild_count(self) -> int:
        """Rebuilds streaming-update cache overflows triggered (Section 4.4),
        including non-blocking generation swaps completed by the maintenance
        subsystem."""
        return self._automatic_rebuild_count

    @property
    def forced_rebuild_count(self) -> int:
        """Explicitly requested reconstructions (:meth:`rebuild`, non-empty
        :meth:`batch_update`)."""
        return self._forced_rebuild_count

    @property
    def plan_counts(self) -> dict:
        """Query batches served per kind and plan, as
        ``{"range": {"descent": n, "flat": m}, "knn": {...}}`` (a copy).

        The flat plan verifies every indexed object; a resident index runs
        it for a kind while its tree cannot prune (:class:`PlanChooser`).
        """
        return {kind: dict(plans) for kind, plans in self._planner.counts.items()}

    @property
    def tiered(self) -> bool:
        """True when the index pages its object store (tiered mode)."""
        return self.tier_config is not None

    @property
    def pager(self):
        """The :class:`~repro.tier.BlockPager` of a tiered index (else None)."""
        return self._pager

    @property
    def storage_bytes(self) -> int:
        """Bytes of index storage (node list + table list)."""
        self._require_built()
        return self._tree.storage_bytes()

    @property
    def build_result(self) -> BuildResult:
        """Timing/statistics of the most recent construction."""
        self._require_built()
        return self._build_result

    def get_object(self, obj_id: int):
        """Return the object registered under ``obj_id``.

        A host-side read: in tiered mode the primary copy lives in host
        memory, so this never faults a block onto the device.  Cached
        objects are read from the store too, which holds every insert.
        """
        obj_id = int(obj_id)
        if 0 <= obj_id < len(self._objects):
            return self._objects[obj_id]
        raise IndexError_(f"unknown object id {obj_id}")

    def is_live(self, obj_id: int) -> bool:
        """True when ``obj_id`` is visible to queries: a known id (below the
        store's length) that is cached, or indexed and not tombstoned."""
        obj_id = int(obj_id)
        if obj_id in self._cache:
            return True
        if not 0 <= obj_id < len(self._indexed_mask):
            return False
        return bool(self._indexed_mask[obj_id]) and obj_id not in self._tombstones

    def __len__(self) -> int:
        return self.num_objects

    def _require_built(self) -> None:
        if self._tree is None:
            raise IndexError_("the index has not been built yet; call bulk_load() first")

    # -------------------------------------------------------------- queries
    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Answer a single metric range query ``MRQ(query, radius)``.

        Convenience wrapper over :meth:`range_query_batch` with a batch of
        one — the underlying algorithm (Algorithm 4, Section 5.1) is always
        the batch algorithm.  Returns ``(object_id, distance)`` pairs sorted
        by ``(distance, object_id)``; ids map back to objects via
        :meth:`get_object`.
        """
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Answer a batch of metric range queries concurrently (Algorithm 4).

        The batch descends the tree level-synchronously with Lemma 5.1
        pruning; when a level's projected intermediate table would overflow
        device memory the batch is split into sequentially processed groups
        (the two-stage strategy of Section 5.2).  While the last descent of
        a range batch evaluated at least half of the indexed objects per
        query, a resident index verifies every indexed object in one flat
        pass instead, with identical answers (:class:`PlanChooser`).

        Parameters
        ----------
        queries:
            Query objects from the same metric space as the indexed objects.
        radii:
            A scalar radius shared by all queries or one value per query.

        Returns
        -------
        One list per query, in query order.  Each list holds
        ``(object_id, distance)`` pairs — ``object_id`` the persistent
        integer id assigned at insertion, ``distance`` a float with
        ``distance <= radius`` — sorted by ``(distance, object_id)``.
        Answers are exact: they merge the tree's results with the
        cache-table's (Section 4.4) and never contain deleted objects.
        """
        self._require_built()
        return self._accumulate(queries, radii=query_radii(radii, len(queries))).answers()

    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Answer a single metric k-nearest-neighbour query ``MkNNQ(query, k)``.

        Convenience wrapper over :meth:`knn_query_batch` with a batch of one
        (Algorithm 5, Section 5.2).  Returns at most ``k``
        ``(object_id, distance)`` pairs sorted by ``(distance, object_id)``.
        """
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Answer a batch of metric kNN queries concurrently (Algorithm 5).

        The very descent of :meth:`range_query_batch` (or its flat pass),
        with each query's fixed radius replaced by a bound that only
        shrinks: the distance of its current k-th candidate (Lemma 5.2
        pruning).  The cache table's objects are then offered to the same
        per-query candidate pool, and each query keeps its ``k`` smallest
        by ``(distance, object_id)``.

        Parameters
        ----------
        queries:
            Query objects from the same metric space as the indexed objects.
        k:
            A scalar shared by all queries or one value per query; each
            must be a positive integer (``8.0`` and NumPy integers are
            fine, ``2.7`` raises :class:`~repro.exceptions.QueryError`).

        Returns
        -------
        One list per query, in query order: up to ``k``
        ``(object_id, distance)`` pairs sorted by ``(distance, object_id)``.
        The returned distances are the true k smallest among live objects
        (cache-table entries included, deleted objects excluded); when
        several objects tie at the k-th distance an arbitrary subset of the
        tied objects completes the answer.
        """
        self._require_built()
        return self._accumulate(queries, k=query_ks(k, len(queries))).answers()

    def _accumulate(
        self,
        queries: Sequence,
        radii: Optional[np.ndarray] = None,
        k: Optional[np.ndarray] = None,
    ) -> BoundedTriples:
        """Search the tree under checked ``radii`` or ``k``, then scan the cache
        table into the same accumulator, and return it: the forest descent
        over this index's one tree or the flat pass, whichever the plan
        choice picks for the kind (:class:`PlanChooser`)."""
        return search_indexes(
            [self], self._forest(), queries, radii=radii, k=k, run=self._planner.run
        )

    def _forest(self) -> Forest:
        """The forest of the live tree alone, restacked when the tree changed."""
        if self._stack is None or self._stack.trees[0] is not self._tree:
            # a layout is only installed with a new tree
            self._stack = stack_forest([self])
        return self._stack

    def execute_batch(self, ops: Sequence[tuple]) -> list:
        """Execute a heterogeneous batch of operations in submission order.

        This is the mixed-batch entry point the serving layer
        (:class:`repro.service.GTSService`) dispatches micro-batches through.
        Each operation is a tuple whose first element names its kind:

        ``("range", query, radius)``
            A metric range query; its result is a ``(object_id, distance)``
            list as returned by :meth:`range_query`.
        ``("knn", query, k)``
            A metric kNN query; result as returned by :meth:`knn_query`.
        ``("insert", obj)``
            A streaming insert; the result is the new object id.
        ``("delete", obj_id)``
            A streaming delete; the result is ``None``.

        Inserts and deletes act as barriers: a query submitted after an
        insert/delete observes it, one submitted before does not, exactly as
        if every operation had been issued sequentially.  Between two
        barriers, all range queries ride one call of the paper's batch
        algorithm (Algorithm 4) and all kNN queries one more (Algorithm 5),
        with per-query radii/``k``, however the two kinds interleave.
        Queries with the same payload and the same radius/``k`` are searched
        once and each receives its own copy of the answer.  A malformed
        operation (unknown kind, missing field, invalid radius, ``k`` or id)
        rejects the whole batch before any of it runs.  Results come
        back in submission order, one entry per operation; see
        :func:`execute_operation_batch`.
        """
        self._require_built()
        return execute_operation_batch(self, ops)

    # -------------------------------------------------------------- updates
    def insert(self, obj) -> int:
        """Insert one object (streaming update, Section 4.4); returns its id.

        Object ids are assigned in insertion order (the new id is always
        ``num_indexed + cached`` inserts so far), are stable for the life of
        the index, and are what every query reports in its
        ``(object_id, distance)`` pairs.

        The object lands in the device-resident cache table in ``O(1)`` and
        is immediately visible to queries (their answers merge the tree's
        results with a cache scan).  When the cache exceeds its byte budget
        (``cache_capacity_bytes``, default ~5 KB per Section 6.2) the whole
        index is automatically rebuilt with the parallel construction
        algorithm (Algorithms 1-3), folding cached objects into the tree and
        clearing the cache — observable via :attr:`automatic_rebuild_count`.
        With incremental maintenance enabled
        (:meth:`enable_incremental_maintenance`) the overflow only schedules
        a non-blocking generation-swap rebuild instead (DESIGN.md §9): the
        insert returns immediately and the reconstruction proceeds in
        bounded slices driven by :meth:`run_maintenance_slice`.

        An object too large to ever fit the cache budget is rejected with
        :class:`~repro.exceptions.UpdateError` before any state changes or
        simulated time is charged (it could otherwise never be folded out,
        forcing a futile rebuild on every subsequent insert).  An insert is
        sized as the row the object store will hold, so a list inserted into
        a vector index costs what the equal NumPy row costs.
        """
        self._require_built()
        # Validate before charging or touching the store: a rejected insert
        # must be stats-neutral and must not consume an object id (the
        # append itself rejects a row the store cannot hold).
        nbytes = self._objects.stored_nbytes(obj)
        self._cache.ensure_fits(nbytes)
        obj_id = len(self._objects)
        self._append(obj)
        # O(1) append: ship the object to the device-resident cache table
        self.device.transfer_to_device(nbytes)
        self.device.launch_kernel(work_items=1, op_cost=1.0, label="cache-append")
        self._cache.insert(obj_id)
        if self._cache.is_full(self._objects):
            if self._maintenance is not None:
                self._maintenance.notify_overflow()
            else:
                self._automatic_rebuild_count += 1
                self._rebuild_over(self._fold_ids()[0])
        return obj_id

    def _insert_nbytes(self, obj) -> int:
        """Bytes ``obj`` takes once stored, after checking it can be inserted.

        Raises what :meth:`insert` would: :class:`~repro.exceptions.UpdateError`
        when the object can never fit the cache budget, then
        :class:`~repro.exceptions.IndexError_` when the store cannot hold
        it (``stored_row``), so a compound update can check before any
        state changes.
        """
        nbytes = self._objects.stored_nbytes(obj)
        self._cache.ensure_fits(nbytes)
        self._objects.stored_row(obj)
        return nbytes

    def _append(self, obj) -> None:
        """Append ``obj`` to the host store and drop the device copies it made stale.

        On a tiered index, an append that rewrote the store's rows (a dtype
        change) leaves every resident block and the pinned rows stale, so
        the pinned rows are staged again; any other leaves only the tail
        block's.  A rewrite may change every row's size, so the
        indexed rows' byte sum is taken again; every other byte count is
        answered by the store from its rows.
        """
        if self._pager is None:
            rewrote = self._objects.append(obj)
        else:
            tail, rewrote = self._pager.store.append(obj)
            for block_id in self._pager.resident_blocks if rewrote else (tail,):
                self._pager.invalidate(block_id)
            if rewrote:
                self._stage_pinned()
        if rewrote:
            self._indexed_nbytes = self._objects.nbytes(self._indexed_ids)

    def delete(self, obj_id: int) -> None:
        """Delete one object by id (streaming update, Section 4.4).

        Cached objects are removed immediately; indexed objects are
        tombstoned in the table list in ``O(1)`` and filtered from every
        query answer until the next rebuild physically drops them.  Deleting
        an unknown id, or a known id that is not live (:meth:`is_live`),
        raises :class:`~repro.exceptions.UpdateError`; the id itself is
        never reused.
        """
        self._require_built()
        obj_id = int(obj_id)
        # Validate before charging: a rejected delete must not advance the
        # simulated clock or pollute ExecutionStats.
        if not 0 <= obj_id < len(self._objects):
            raise UpdateError(f"unknown object id {obj_id}")
        if not self.is_live(obj_id):
            raise UpdateError(f"object {obj_id} has already been deleted")
        # O(1): dropping the cached slot, or locating the indexed slot and
        # flipping its tombstone mark, is one device write
        self.device.launch_kernel(work_items=1, op_cost=1.0, label="tombstone-mark")
        if not self._cache.remove(obj_id):
            self._tombstones.add(obj_id)

    def update(self, obj_id: int, new_obj) -> int:
        """Modify an object: delete the old version, insert the new one.

        Following the paper's modification semantics (Section 4.4), the new
        version gets a *fresh* object id (returned); ``obj_id`` becomes a
        tombstone.  Validated atomically: a replacement too large for the
        cache budget, or one the object store cannot hold, is rejected up
        front, before the old version is touched.
        """
        self._require_built()
        self._insert_nbytes(new_obj)
        self.delete(obj_id)
        return self.insert(new_obj)

    def rebuild(self) -> BuildResult:
        """Rebuild the tree from all live objects (Algorithms 1-3).

        Folds the cache table's objects into the tree, physically drops
        tombstoned objects, and clears both — the same reconstruction
        :meth:`insert` triggers automatically on cache overflow
        (Section 4.4), requested explicitly here (counted under
        :attr:`forced_rebuild_count`).  Object ids survive rebuilds
        unchanged.  Any in-flight maintenance generation is discarded: the
        forced rebuild folds everything the generation would have.
        """
        self._require_built()
        if self._maintenance is not None:
            self._maintenance.abort()
        self._forced_rebuild_count += 1
        return self._rebuild_over(self._fold_ids()[0])

    def _fold_ids(self) -> tuple[np.ndarray, list[int]]:
        """The rebuild fold set: live indexed ids then cached ids, in order.

        The single source of truth for what a rebuild indexes — shared by
        the stop-the-world path and the maintenance generation snapshot, so
        both produce identical trees over identical state.
        """
        live = self._indexed_ids
        dead = tombstoned_mask(live, tombstone_array(self._tombstones))
        if dead is not None:
            live = live[~dead]
        cached = self._cache.object_ids()
        return np.concatenate([live, np.asarray(cached, dtype=np.int64)]), cached

    def batch_update(self, inserts: Sequence = (), deletes: Sequence[int] = ()) -> BuildResult:
        """Apply a bulk update (Section 4.4, "Batch Updates").

        Deletions and insertions are applied to the object store, then the
        whole index is reconstructed — the paper's strategy for large update
        volumes, which its Fig. 5 shows to be the GPU-friendly choice.  The
        reconstruction counts under :attr:`forced_rebuild_count`; a call
        with both sequences empty is a free no-op (no rebuild, no simulated
        time, counters untouched) returning the standing build result.
        Every delete and insert is checked before anything changes, so a
        rejected call leaves the index and its stats as they were.
        """
        self._require_built()
        inserts = list(inserts)
        delete_set = {int(d) for d in deletes}
        if not inserts and not delete_set:
            # zero-cost result over the standing tree: no construction ran
            return BuildResult(tree=self._tree)
        unknown = sorted(d for d in delete_set if not 0 <= d < len(self._objects))
        if unknown:
            raise UpdateError(f"cannot delete unknown object ids: {unknown}")
        already_deleted = sorted(d for d in delete_set if not self.is_live(d))
        if already_deleted:
            raise UpdateError(f"objects have already been deleted: {already_deleted}")
        for obj in inserts:
            self._objects.stored_row(obj)
        if self._maintenance is not None:
            self._maintenance.abort()
        for obj_id in delete_set:
            self._cache.remove(obj_id)
        # tombstone the deletes so the fold skips them; the rebuild then
        # drops every tombstone
        self._tombstones |= delete_set
        live, _ = self._fold_ids()
        first_new = len(self._objects)
        for obj in inserts:
            self._append(obj)
        new_ids = np.arange(first_new, len(self._objects), dtype=np.int64)
        self._forced_rebuild_count += 1
        return self._rebuild_over(np.concatenate([live, new_ids]))

    # ---------------------------------------------------------- maintenance
    def enable_incremental_maintenance(self, config=None):
        """Switch cache-overflow rebuilds to non-blocking generation swaps.

        After this call a cache overflow inside :meth:`insert` only marks
        the index *maintenance-due*; the replacement tree is then built in
        bounded slices by :meth:`run_maintenance_slice` (which the serving
        layer schedules between micro-batches) and swapped in atomically,
        with queries answered from the old tree + cache table throughout —
        answers stay byte-identical to the stop-the-world path (DESIGN.md
        §9).  Returns the :class:`~repro.core.maintenance.IncrementalMaintenance`
        controller; calling again replaces the configuration (aborting any
        in-flight generation).
        """
        from .maintenance import IncrementalMaintenance

        if self._maintenance is not None:
            self._maintenance.abort()
        self._maintenance = IncrementalMaintenance(self, config)
        return self._maintenance

    @property
    def maintenance(self):
        """The incremental-maintenance controller, or None (blocking mode)."""
        return self._maintenance

    @property
    def maintenance_enabled(self) -> bool:
        """True when cache overflows schedule non-blocking rebuilds."""
        return self._maintenance is not None

    @property
    def maintenance_due(self) -> bool:
        """True when a maintenance slice would make progress."""
        return self._maintenance is not None and self._maintenance.due

    def run_maintenance_slice(self):
        """Advance a due generation rebuild by one bounded slice.

        Returns the slice's :class:`~repro.core.maintenance.SliceReport`
        (``swapped=True`` on the slice that installs the new generation), or
        None when no maintenance is due or enabled.
        """
        if self._maintenance is None:
            return None
        return self._maintenance.run_slice()

    # ------------------------------------------------------------ persistence
    def save(self, path) -> "Path":
        """Serialise the built index (tree, objects, cache, config) to ``path``.

        See :func:`repro.core.persistence.save_index` for the file format.
        """
        from .persistence import save_index

        return save_index(self, path)

    @classmethod
    def load(cls, path, metric: Optional[Metric] = None, device: Optional[Device] = None) -> "GTS":
        """Load an index previously written by :meth:`save`.

        The metric is re-created from the registry name stored in the archive
        unless an explicit ``metric`` is given (required for custom metrics).
        """
        from .persistence import load_index

        return load_index(path, metric=metric, device=device)

    # ------------------------------------------------------------ cost model
    def distance_distribution(self, sample_size: int = 128) -> DistanceDistribution:
        """Estimate the dataset's pairwise-distance distribution (for tuning).

        Host-side sampling — reads the host copy of the store, no faulting.
        """
        live = [
            self._objects[int(i)] for i in self._indexed_ids if int(i) not in self._tombstones
        ]
        return estimate_distance_distribution(live, self.metric, sample_size=sample_size, rng=self._rng)

    def recommend_node_capacity(
        self,
        radius: float,
        candidates: Sequence[int] = (10, 20, 40, 80, 160, 320),
        sample_size: int = 128,
    ) -> int:
        """Recommend a node capacity for the given query radius (Section 5.3)."""
        dist = self.distance_distribution(sample_size=sample_size)
        return recommend_node_capacity(
            n=self.num_objects,
            device=self.device.spec,
            sigma=dist.std,
            radius=radius,
            candidates=candidates,
            metric_unit_cost=self.metric.unit_cost,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = "built" if self._tree is not None else "empty"
        return (
            f"GTS({built}, objects={self.num_objects}, Nc={self.node_capacity}, "
            f"metric={self.metric.name!r})"
        )
