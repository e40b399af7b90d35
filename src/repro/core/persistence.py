"""Saving and loading GTS indexes.

A GTS index is cheap to rebuild (that is the point of the paper's
construction algorithm), but a production deployment still wants to ship a
built index between processes — e.g. build once on a large machine, then
serve queries elsewhere without paying the construction distance
computations again.  This module serialises everything the index needs into
one compressed ``.npz`` container:

* the flat tree structure (node list + table list) as plain NumPy arrays;
* the object store — natively for NumPy-array datasets, pickled inside the
  archive for list datasets such as strings;
* the bookkeeping state: indexed ids, tombstones, cached (not yet indexed)
  objects, and the configuration knobs (node capacity, pivot strategy,
  prune mode, cache budget).

The distance metric itself is *not* serialised: metrics can wrap arbitrary
user code.  Instead the metric's registry name is stored and the metric is
re-created through :func:`repro.metrics.get_metric` at load time; passing an
explicit ``metric=`` to :func:`load_index` overrides that lookup (and is the
only option for unregistered custom metrics).

Loading registers the index storage and the indexed objects on the target
simulated device through the same staging a build uses, so memory accounting
behaves exactly as if the index had been built there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from ..exceptions import IndexError_, MetricError
from ..gpusim.device import Device
from ..metrics.base import Metric
from ..metrics.registry import get_metric
from .construction import BuildResult
from .nodes import TreeStructure
from .objectstore import ColumnarStore, ListStore, make_object_store, rows_matrix

__all__ = ["save_index", "load_index", "INDEX_FORMAT_VERSION"]

#: Version stamp written into every archive; bumped on incompatible changes.
#: Version 2 added the construction ``seed`` and RNG state to the meta block;
#: version 3 added the tiered-memory config (``tier``) so an out-of-core
#: index reloads in the same mode it was saved in.  Versions 1 and 2 are
#: still read (their indexes load fully resident with default/seed
#: fallbacks, the old behaviour).
INDEX_FORMAT_VERSION = 3

#: Archive versions :func:`load_index` understands.
_READABLE_FORMAT_VERSIONS = (1, 2, 3)

#: Maps metric instance names to metric-registry keys for round-tripping.
_METRIC_NAME_TO_KEY = {
    "l1-norm": "l1",
    "l2-norm": "l2",
    "linf-norm": "linf",
    "angular": "angular",
    "edit-distance": "edit",
    "hamming": "hamming",
    "jaccard": "jaccard",
}


def _metric_registry_key(metric: Metric) -> Optional[str]:
    return _METRIC_NAME_TO_KEY.get(metric.name)


def save_index(index, path) -> Path:
    """Serialise a built :class:`~repro.core.gts.GTS` index to ``path``.

    Returns the path written (with the ``.npz`` suffix NumPy appends when it
    is missing).
    """
    from .gts import GTS  # local import to avoid a circular dependency

    if not isinstance(index, GTS):
        raise IndexError_(f"save_index expects a GTS index, got {type(index).__name__}")
    index._require_built()
    path = Path(path)
    tree = index.tree
    # the host object store (tiered too): serialisation faults no device block
    host_objects = index._objects
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "metric_name": index.metric.name,
        "metric_key": _metric_registry_key(index.metric),
        "node_capacity": index.node_capacity,
        "pivot_strategy": index.pivot_strategy,
        "prune_mode": "two-sided" if index.prune_mode.two_sided else "one-sided",
        "cache_capacity_bytes": index._cache.capacity_bytes,
        # The seed alone is not enough for post-load determinism: builds
        # consume the RNG, so the live generator state must round-trip for a
        # loaded index's next rebuild to match the never-saved index's.
        "seed": index.seed,
        "rng_state": index._rng.bit_generator.state,
        "height": tree.height,
        "num_objects": tree.num_objects,
        "rebuild_count": index.rebuild_count,
        "automatic_rebuild_count": index.automatic_rebuild_count,
        "forced_rebuild_count": index.forced_rebuild_count,
        "objects_kind": _objects_kind(host_objects),
        "tier": index.tier_config.as_dict() if index.tier_config is not None else None,
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        "pivot": tree.pivot,
        "pos": tree.pos,
        "size": tree.size,
        "min_dis": tree.min_dis,
        "max_dis": tree.max_dis,
        "obj_ids": tree.obj_ids,
        "obj_dis": tree.obj_dis,
        "indexed_ids": index._indexed_ids,
        "tombstones": np.asarray(sorted(index._tombstones), dtype=np.int64),
        "cache_ids": np.asarray(index._cache.object_ids(), dtype=np.int64),
    }
    if meta["objects_kind"] == "array":
        matrix = rows_matrix(host_objects)
        if matrix is None:
            matrix = np.stack([np.asarray(o) for o in host_objects])
        arrays["objects_array"] = matrix
    else:
        # the trailing None stops NumPy from stacking uniform rows into a 2-d
        # array, keeping one object per slot for arbitrary (string, ...) data
        arrays["objects_pickled"] = np.asarray(list(host_objects) + [None], dtype=object)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def _objects_kind(objects) -> str:
    """"array" when every object is an identically-shaped NumPy row, else "list"."""
    if isinstance(objects, ColumnarStore) or isinstance(objects, np.ndarray):
        return "array"
    if objects and all(isinstance(o, np.ndarray) for o in objects):
        signatures = {(o.shape, o.dtype.str) for o in objects}
        if len(signatures) == 1:
            return "array"
    return "list"


def load_index(path, metric: Optional[Metric] = None, device: Optional[Device] = None):
    """Load a GTS index previously written by :func:`save_index`.

    Parameters
    ----------
    path:
        Archive produced by :func:`save_index`.
    metric:
        Distance metric to attach; when omitted, the metric is re-created
        from its registry name stored in the archive.
    device:
        Simulated device to register the index on; a default device is
        created when omitted.
    """
    from .gts import GTS  # local import to avoid a circular dependency

    path = Path(path)
    if not path.exists():
        raise IndexError_(f"index archive not found: {path}")
    with np.load(path, allow_pickle=True) as archive:
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        if meta.get("format_version") not in _READABLE_FORMAT_VERSIONS:
            raise IndexError_(
                f"unsupported index format version {meta.get('format_version')!r}; "
                f"this build reads versions {_READABLE_FORMAT_VERSIONS}"
            )
        if metric is None:
            key = meta.get("metric_key")
            if not key:
                raise MetricError(
                    f"the archive's metric {meta.get('metric_name')!r} is not in the metric "
                    "registry; pass metric=... to load_index()"
                )
            metric = get_metric(key)
        if meta["objects_kind"] == "array":
            # re-create the contiguous columnar store (copies out of the npz)
            objects = make_object_store(archive["objects_array"])
        else:
            objects = ListStore(archive["objects_pickled"][:-1])
        tree = TreeStructure(
            node_capacity=int(meta["node_capacity"]),
            height=int(meta["height"]),
            num_objects=int(meta["num_objects"]),
            pivot=archive["pivot"].copy(),
            pos=archive["pos"].copy(),
            size=archive["size"].copy(),
            min_dis=archive["min_dis"].copy(),
            max_dis=archive["max_dis"].copy(),
            obj_ids=archive["obj_ids"].copy(),
            obj_dis=archive["obj_dis"].copy(),
        )
        indexed_ids = archive["indexed_ids"].copy()
        tombstones = set(int(i) for i in archive["tombstones"])
        cache_ids = [int(i) for i in archive["cache_ids"]]

    from ..tier.config import TierConfig

    tier_meta = meta.get("tier")
    index = GTS(
        metric=metric,
        node_capacity=int(meta["node_capacity"]),
        device=device,
        cache_capacity_bytes=int(meta["cache_capacity_bytes"]),
        pivot_strategy=meta["pivot_strategy"],
        prune_mode=meta["prune_mode"],
        seed=int(meta.get("seed", 17)),
        tier=TierConfig.from_dict(tier_meta) if tier_meta else None,
    )
    if meta.get("rng_state") is not None:
        index._rng.bit_generator.state = meta["rng_state"]
    index._objects = objects
    if index.tier_config is not None:
        index._init_tier()
    # Older archives carry only the summed count; treat it as automatic (the
    # historical docstring's semantics) so the sum round-trips either way.
    index._forced_rebuild_count = int(meta.get("forced_rebuild_count", 0))
    index._automatic_rebuild_count = int(
        meta.get(
            "automatic_rebuild_count",
            int(meta.get("rebuild_count", 0)) - index._forced_rebuild_count,
        )
    )

    # register the storage on the device exactly as a build over the same
    # ids would, upload the saved tree in place of constructing it, and
    # install it: the tiered layout is a pure function of the tree and the
    # store length, so a load stages the pinned pivot rows and no block
    build = index._tree_build(indexed_ids)
    build.stage()
    index.device.transfer_to_device(tree.storage_bytes())
    result = BuildResult(tree=tree, allocations=build.allocations)
    index._install(result, indexed_ids, tombstones)

    # host-side read: repopulating the cache faults no tiered block
    for obj_id in cache_ids:
        index._cache.insert(obj_id)
    return index
