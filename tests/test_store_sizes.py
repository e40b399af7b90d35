"""Every byte count the index reports equals a brute-force sum over stored rows.

The object store owns each row's size; the cache table's used bytes, the
shards' loads and the tiered blocks' sizes are all derived from it.  Seeded
random insert / delete / update / batch_update sequences run over a
resident, a tiered and a 2-shard size-balanced index, and after every
operation each figure is compared with ``max(1, objects_nbytes([row]))``
summed over the ids it covers.  Columnar stores are driven through dtype
promotions (float32 -> float64, which widens the rows, and int64 -> float64,
which does not); after each one, no block staged before it may still be
resident.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EuclideanDistance, ShardedGTS
from repro.core.construction import objects_nbytes
from repro.metrics import EditDistance
from repro.tier import TierConfig


def _float32_rows(rng):
    base = rng.normal(scale=4.0, size=(300, 2)).astype(np.float32)

    def fresh():
        row = rng.normal(scale=4.0, size=2)
        # a third of the inserts are not exact in float32: they promote
        return row if rng.random() < 0.3 else row.astype(np.float32).tolist()

    return base, fresh, EuclideanDistance(), TierConfig(memory_budget_bytes=512, block_bytes=64)


def _int64_rows(rng):
    base = rng.integers(-40, 40, size=(300, 2)).astype(np.int64)

    def fresh():
        row = rng.integers(-40, 40, size=2)
        return row + 0.5 if rng.random() < 0.15 else row

    return base, fresh, EuclideanDistance(), TierConfig(memory_budget_bytes=1024, block_bytes=128)


def _words(rng, word_list):
    def fresh():
        word = word_list[int(rng.integers(len(word_list)))]
        return word[: int(rng.integers(0, len(word) + 1))]  # empty words included

    tier = TierConfig(memory_budget_bytes=4096, block_bytes=128)
    return list(word_list), fresh, EditDistance(expected_length=8), tier


def _build(kind, base, metric, tier):
    options = dict(node_capacity=8, seed=5, cache_capacity_bytes=256)
    if kind == "sharded":
        return ShardedGTS.build(base, metric, num_shards=2, assignment="size-balanced", **options)
    return GTS.build(base, metric, tier=tier if kind == "tiered" else None, **options)


def _row_sizes(gts: GTS, ids) -> int:
    store = gts._objects
    return sum(max(1, objects_nbytes([store[int(i)]])) for i in ids)


def _live_ids(gts: GTS) -> list[int]:
    return [i for i in range(len(gts._objects)) if gts.is_live(i)]


def _check_sizes(gts: GTS) -> None:
    assert gts._cache.used_bytes(gts._objects) == _row_sizes(gts, gts._cache.object_ids())
    assert gts.live_nbytes == _row_sizes(gts, _live_ids(gts))
    if gts.pager is not None:
        blocks = gts.pager.store
        for block_id in range(blocks.num_blocks):
            expected = _row_sizes(gts, blocks.block_object_ids(block_id))
            assert blocks.block_nbytes(block_id) == expected


def _staged(gts: GTS) -> list:
    """The device copies a tiered index holds (its pager's allocations)."""
    return [] if gts.pager is None else list(gts.pager._resident.values())


@pytest.mark.parametrize("kind", ["resident", "tiered", "sharded"])
@pytest.mark.parametrize("data", ["float32", "int64", "words"])
def test_sizes_equal_brute_force(kind, data, word_list):
    rng = np.random.default_rng(29)
    if data == "words":
        base, fresh, metric, tier = _words(rng, word_list)
    else:
        base, fresh, metric, tier = (_float32_rows if data == "float32" else _int64_rows)(rng)
    index = _build(kind, base, metric, tier)
    shards = index.shards if kind == "sharded" else [index]
    promotions = staged_promotions = 0
    for _ in range(60):
        index.knn_query(fresh(), 3)  # stage blocks of a tiered index
        next_id = index._next_id if kind == "sharded" else len(index._objects)
        live = [i for i in range(next_id) if index.is_live(i)]
        dtypes = [getattr(g._objects, "dtype", None) for g in shards]
        staged = [_staged(g) for g in shards]
        op = rng.random()
        if op < 0.45:
            index.insert(fresh())
        elif op < 0.7:
            index.delete(int(rng.choice(live)))
        elif op < 0.9:
            index.update(int(rng.choice(live)), fresh())
        else:
            deletes = rng.choice(live, size=int(rng.integers(0, 4)), replace=False)
            index.batch_update([fresh() for _ in range(int(rng.integers(1, 4)))], deletes.tolist())
        for gts, dtype, before in zip(shards, dtypes, staged):
            _check_sizes(gts)
            if getattr(gts._objects, "dtype", None) != dtype:
                promotions += 1
                staged_promotions += bool(before)
                after = _staged(gts)
                assert not any(old is new for old in before for new in after)
        if kind == "sharded":
            assert index.shard_load_bytes == [_row_sizes(g, _live_ids(g)) for g in shards]
    if data != "words":
        assert promotions >= 1
        assert staged_promotions >= 1 or kind != "tiered"
    index.close()


@pytest.mark.parametrize("data", ["float32", "words"])
def test_live_nbytes_is_summed_once_per_install(data, word_list, monkeypatch):
    """``live_nbytes`` equals the full recount through inserts, deletes, an
    install and a dtype promotion, and no insert re-sums the indexed rows:
    they change only at an install, and their sizes only at a rewrite."""
    rng = np.random.default_rng(31)
    if data == "words":
        base, fresh, metric, _ = _words(rng, word_list)
        promote = None
    else:
        base = rng.normal(size=(200, 2)).astype(np.float32)
        fresh = lambda: rng.normal(size=2).astype(np.float32).tolist()  # noqa: E731
        promote = [0.1, 0.2]  # not exact in float32: the rows widen to float64
    index = GTS.build(base, metric if data == "words" else EuclideanDistance(),
                      node_capacity=8, seed=5, cache_capacity_bytes=4096)
    store = index._objects
    indexed = len(index._indexed_ids)
    sums = []
    real_nbytes = type(store).nbytes

    def counting(self, ids=None):
        if ids is not None and len(ids) == indexed:
            sums.append(len(ids))
        return real_nbytes(self, ids)

    monkeypatch.setattr(type(store), "nbytes", counting)

    def recount():
        full = (
            real_nbytes(store, index._indexed_ids)
            - real_nbytes(store, index._tombstones)
            + index._cache.used_bytes(store)
        )
        assert index.live_nbytes == full == _row_sizes(index, _live_ids(index))

    for step in range(12):
        index.insert(fresh())
        if step % 3 == 0:
            index.delete(int(rng.choice([i for i in range(len(store)) if index.is_live(i)])))
        recount()
    assert sums == []  # the inserts never gathered the indexed rows' sizes
    index.rebuild()  # an install over the folded ids
    recount()
    if promote is not None:
        index.insert(promote)
        assert store.dtype == np.float64
        recount()
    index.close()
