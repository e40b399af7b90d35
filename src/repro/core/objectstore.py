"""Host object stores: a columnar matrix for vectors, a list for everything else.

The paper's batch algorithms owe their throughput to *layout*: FAISS-style
engines keep every vector in one contiguous ``(n, d)`` matrix so a level's
candidate gather is a single strided copy and the distance evaluation is one
matrix-shaped pass.  :class:`ColumnarStore` keeps that layout end-to-end:

* the primary copy is a C-contiguous NumPy matrix (``float64``/``float32``
  or integer rows, whatever the dataset arrived in);
* streaming inserts append in amortised O(1) by doubling a capacity buffer,
  so object ids remain row positions forever;
* :meth:`ColumnarStore.gather` turns a candidate id list into one
  fancy-index copy — the host-side analogue of a coalesced device gather —
  which is what the fused segmented distance kernels consume.

Non-vector datasets (strings, sets, ragged point sets) live in a
:class:`ListStore`: the Python rows plus one int64 byte cost per row.
:func:`make_object_store` decides which kind applies.

**One interface.**  Both kinds answer ``len``, integer indexing, iteration
and ``gather(ids)``, validate a prospective row (``stored_row``) and own
every byte count: ``nbytes(ids)``, ``stored_nbytes(obj)`` and
``row_sizes()``, a row costing ``max(1, payload)`` bytes.  ``append``
reports whether it rewrote the existing rows (a columnar dtype change),
which makes every device copy of them stale.  The cache table's used
bytes, a shard's load and a tiered block's size are each ``nbytes`` of
some ids, asked when needed and never copied; a new store kind implements
this interface and nothing in the cache, tier or shard code changes.

Every store here is a host store: an index — tiered ones included — keeps
one as its object store, and :func:`segmented_distances` reads it without
any device accounting.  A tiered index charges its device reads separately,
through its port (:class:`~repro.tier.store.PagedObjects`), before its
kernels read rows here.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..exceptions import IndexError_
from ..metrics.base import Metric

__all__ = [
    "ColumnarStore",
    "ListStore",
    "make_object_store",
    "payload_nbytes",
    "gather_rows",
    "rows_matrix",
    "segmented_distances",
    "GATHER_CHUNK_ELEMENTS",
]

#: Chunk budget (in gathered matrix elements, ~4 MB of float64) of the host
#: gather-and-evaluate pipeline: each chunk of candidate rows is gathered and
#: immediately consumed by the distance pass while still cache-resident,
#: instead of streaming one level-sized gather through DRAM twice.  Purely a
#: host-side blocking factor — chunking never changes kernel accounting,
#: pager traffic order, or a single bit of the results.
GATHER_CHUNK_ELEMENTS = 512 * 1024


def payload_nbytes(obj) -> int:
    """Payload bytes of one object: a string's length, an array's ``nbytes``,
    8 for anything else (a number, a set, ...)."""
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return 8


class ColumnarStore:
    """Growable contiguous ``(n, d)`` matrix of fixed-dimension vectors.

    Object id ``i`` is row ``i``.  The store keeps a capacity buffer that is
    doubled on demand, so :meth:`append` (the streaming-insert path) never
    moves existing ids and costs amortised O(1).
    """

    __slots__ = ("_data", "_size", "_digest_cache")

    def __init__(self, matrix) -> None:
        matrix = np.array(matrix, copy=True)
        if matrix.ndim != 2:
            raise IndexError_(
                f"a columnar store needs an (n, d) matrix, got shape {matrix.shape}"
            )
        self._data = np.ascontiguousarray(matrix)
        self._size = int(matrix.shape[0])
        self._digest_cache: dict = {}

    # ------------------------------------------------------------- geometry
    @property
    def matrix(self) -> np.ndarray:
        """Contiguous ``(len(self), d)`` view of the live rows."""
        return self._data[: self._size]

    @property
    def dim(self) -> int:
        """Number of coordinates per object."""
        return int(self._data.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def row_nbytes(self) -> int:
        """Bytes of one object row."""
        return int(self._data.shape[1] * self._data.itemsize)

    def __len__(self) -> int:
        return self._size

    # ---------------------------------------------------------- byte counts
    def nbytes(self, ids=None) -> int:
        """Bytes of the rows ``ids`` (every row when None): arithmetic on a length."""
        data = self._data
        return max(1, data.shape[1] * data.itemsize) * (self._size if ids is None else len(ids))

    def row_sizes(self) -> np.ndarray:
        """Every row's bytes, as one int64 array."""
        return np.full(self._size, max(1, self.row_nbytes), dtype=np.int64)

    def stored_nbytes(self, obj) -> int:
        """Bytes ``obj`` takes once appended: its :meth:`stored_row`'s.

        An object that is no row of the store (the append will reject it)
        keeps its own :func:`payload_nbytes`, so an oversized one is still
        refused by a byte budget first.
        """
        try:
            return max(1, self.stored_row(obj).nbytes)
        except IndexError_:
            return max(1, payload_nbytes(obj))

    # -------------------------------------------------------------- access
    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.matrix[index]
        i = int(index)
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError_(f"object id {index} outside the store (size {self._size})")
        return self._data[i]

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self._size):
            yield self._data[i]

    def gather(self, ids) -> np.ndarray:
        """Return the rows with the given ids as one contiguous matrix.

        A single fancy-index copy — the layout the vectorised
        ``Metric.pairwise_segmented`` implementations expect.
        """
        return self.matrix[np.asarray(ids, dtype=np.int64)]

    def metric_digest(self, metric):
        """Cached ``Metric.store_digest`` over the live rows.

        The cache is keyed by metric name and remembers how many rows it
        covers.  The digest is a per-row function of the data, so after
        appends only the new rows are digested and concatenated onto the
        cached prefix: the per-row precomputation — e.g. the angular
        metric's row norms — is paid once per row, not once per query batch
        after every insert.  A dtype promotion in :meth:`append` drops the
        cache.
        """
        cached = self._digest_cache.get(metric.name)
        if cached is not None and cached[0] == self._size:
            return cached[1]
        if cached is not None and cached[1] is not None:
            covered, prefix = cached
            digest = np.concatenate(
                (prefix, metric.store_digest(self._data[covered : self._size]))
            )
        else:
            digest = metric.store_digest(self.matrix)
        self._digest_cache[metric.name] = (self._size, digest)
        return digest

    def stored_row(self, obj) -> np.ndarray:
        """``obj`` as the row :meth:`append` stores: same shape, store dtype.

        The store never silently narrows the *incoming* object: a row whose
        values are not exactly representable in the current dtype (a float
        insert into an int-backed store, a float64 insert into a float32
        store) comes back in ``np.promote_types`` of the two, and appending
        it promotes the whole matrix first, so the new row is stored
        bit-exactly.  Existing rows convert under standard NumPy casting —
        value-preserving for every realistic mix (the lone exception being
        int64 magnitudes beyond 2**53 promoted to float64, which no common
        dtype can hold exactly).
        """
        row = np.asarray(obj)
        if row.shape != (self._data.shape[1],):
            raise IndexError_(
                f"cannot append an object of shape {np.shape(obj)} to a columnar "
                f"store of {self._data.shape[1]}-dimensional rows"
            )
        if np.can_cast(row.dtype, self._data.dtype):
            return row.astype(self._data.dtype, copy=False)
        try:
            cast = row.astype(self._data.dtype)
            exact = np.array_equal(cast, row, equal_nan=row.dtype.kind == "f")
        except (TypeError, ValueError) as exc:
            raise IndexError_(
                f"cannot append an object of dtype {row.dtype} to a columnar "
                f"store of dtype {self._data.dtype}"
            ) from exc
        return cast if exact else row.astype(np.promote_types(self._data.dtype, row.dtype))

    # ------------------------------------------------------------ mutation
    def append(self, obj) -> bool:
        """Append one object row (streaming insert); amortised O(1).

        The row is :meth:`stored_row`'s; a row of another dtype promotes the
        matrix (and drops the digest cache) first.  Returns whether it did:
        the dtype changed, so every existing row was rewritten — whether or
        not its width changed (int64 -> float64 keeps 8 bytes a value).
        """
        row = self.stored_row(obj)
        rewrote = row.dtype != self._data.dtype
        if rewrote:
            # only the live rows: the spare capacity is uninitialised memory
            self._data = self._data[: self._size].astype(row.dtype)
            self._digest_cache.clear()
        if self._size == self._data.shape[0]:
            capacity = max(4, 2 * self._data.shape[0])
            grown = np.empty((capacity, self._data.shape[1]), dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size] = row
        self._size += 1
        return rewrote

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarStore({self._size}x{self._data.shape[1]}, {self._data.dtype})"


class ListStore:
    """Python rows of a non-vector dataset, each with its byte cost.

    Object id ``i`` is row ``i``.  A row's cost — its :func:`payload_nbytes`,
    at least 1 — is computed once, when the row arrives, into an int64 array
    grown by doubling like :class:`ColumnarStore`'s matrix.  A Python row
    never changes, so its cost never goes stale, and :meth:`nbytes` is one
    NumPy gather-sum.
    """

    __slots__ = ("_rows", "_costs")

    def __init__(self, rows: Sequence = ()) -> None:
        self._rows = list(rows)
        self._costs = np.fromiter(
            map(self.stored_nbytes, self._rows), dtype=np.int64, count=len(self._rows)
        )

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def gather(self, ids) -> list:
        """The rows with the given ids, as a list."""
        rows = self._rows
        return [rows[i] for i in np.asarray(ids, dtype=np.int64).tolist()]

    def nbytes(self, ids=None) -> int:
        """Bytes of the rows ``ids`` (every row when None): one gather-sum."""
        costs = self._costs[: len(self._rows)]
        if ids is None:
            return int(np.add.reduce(costs))
        if len(ids) == 0:
            return 0
        if not isinstance(ids, np.ndarray):
            ids = np.fromiter(ids, dtype=np.int64, count=len(ids))
        return int(np.add.reduce(costs.take(ids)))

    def row_sizes(self) -> np.ndarray:
        """Every row's bytes, as one int64 array."""
        return self._costs[: len(self._rows)].copy()

    def stored_nbytes(self, obj) -> int:
        """Bytes ``obj`` takes once appended."""
        return max(1, payload_nbytes(obj))

    def stored_row(self, obj):
        """``obj`` itself: a list store holds any object as it is."""
        return obj

    def append(self, obj) -> bool:
        """Append one row and its cost; amortised O(1).  Never rewrites the
        existing rows, so always returns False."""
        n = len(self._rows)
        if n == len(self._costs):
            grown = np.empty(max(4, 2 * n), dtype=np.int64)
            grown[:n] = self._costs
            self._costs = grown
        self._costs[n] = self.stored_nbytes(obj)
        self._rows.append(obj)
        return False


def make_object_store(objects: Sequence):
    """Choose the storage representation for a dataset.

    * an ``(n, d)`` numeric NumPy array, a list of identically-shaped 1-d
      numeric rows, or a list of equal-length lists or tuples of numbers,
      becomes a :class:`ColumnarStore` (the fast path every vector metric
      rides) — Python numbers get NumPy's default dtype, as ``np.array``
      gives them;
    * anything else (strings, sets, ragged data) is copied into a
      :class:`ListStore`, the fully general representation.
    """
    if isinstance(objects, ColumnarStore):
        return ColumnarStore(objects.matrix)
    if isinstance(objects, np.ndarray):
        if objects.ndim == 2 and objects.dtype.kind in "fiu":
            return ColumnarStore(objects)
        return ListStore(objects[i] for i in range(len(objects)))
    items = [objects[i] for i in range(len(objects))]
    if not items:
        return ListStore()
    if all(isinstance(o, np.ndarray) and o.ndim == 1 and o.dtype.kind in "fiu" for o in items):
        signatures = {(o.shape, o.dtype.str) for o in items}
        if len(signatures) == 1:
            return ColumnarStore(np.stack(items))
    elif all(type(o) in (list, tuple) for o in items) and len({len(o) for o in items}) == 1:
        try:
            matrix = np.array(items)
        except (TypeError, ValueError):  # ragged nesting below the rows
            return ListStore(items)
        if matrix.ndim == 2 and matrix.dtype.kind in "fiu":
            return ColumnarStore(matrix)
    return ListStore(items)


def rows_matrix(objects):
    """Return the contiguous matrix behind a store when one exists, else None."""
    matrix = getattr(objects, "matrix", None)
    return matrix if isinstance(matrix, np.ndarray) else None


def gather_rows(objects, ids: np.ndarray):
    """Gather rows by id from any store representation.

    Stores exposing a ``gather`` method answer through it (one fancy-index
    copy for columnar stores; a tiered port additionally charges its block
    faults), raw arrays through a fancy index, lists through a per-id
    comprehension.
    """
    gather = getattr(objects, "gather", None)
    if gather is not None:
        return gather(ids)
    if isinstance(objects, np.ndarray):
        return objects[np.asarray(ids, dtype=np.int64)]
    return [objects[int(i)] for i in np.asarray(ids, dtype=np.int64)]


def segmented_distances(
    metric: Metric,
    objects: Sequence,
    query_objects: Sequence,
    boundaries: np.ndarray,
    obj_ids: np.ndarray,
    settled_pairs: int = 0,
) -> np.ndarray:
    """Gather candidate rows by id and evaluate the per-query segments.

    The one reader of stored rows: the construction mapping phase (pivots
    as queries), the pivot distances and leaf verification of the search,
    and the cache-table scan all turn candidate ids into exact distances
    here, so a new store kind plugs into this function alone.  Segment
    ``i`` — ``obj_ids[boundaries[i]:boundaries[i + 1]]`` — is evaluated
    against ``query_objects[i]``.  ``objects`` is a host store: a tiered
    caller has already faulted ``obj_ids`` through its port, so this
    function charges no device traffic.

    A columnar store is read in cache-sized chunks of whole segments (at
    most ``GATHER_CHUNK_ELEMENTS`` gathered elements; a larger segment is a
    chunk of its own): each chunk is gathered and handed, with its slice of
    the store's per-row metric digest, to ``Metric.pairwise_segmented``
    while the rows are still cache-resident.  Any other store is one chunk.
    Chunking is invisible to the results and the simulated device: only
    the host wall-clock changes.

    ``settled_pairs`` — candidates a bound filter already dropped — are
    counted with the first ``Metric.pairwise_segmented`` call (see there).
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    n = len(obj_ids)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        if settled_pairs:
            empty = np.zeros(1, dtype=np.int64)
            metric.pairwise_segmented([], [], empty, settled_pairs=settled_pairs)
        return out
    matrix = objects if isinstance(objects, np.ndarray) else rows_matrix(objects)
    budget = n
    if matrix is not None and matrix.ndim == 2:
        budget = max(1, GATHER_CHUNK_ELEMENTS // max(1, matrix.shape[1]))
    # per-row auxiliaries (e.g. angular row norms), cached per store
    # generation and gathered alongside the rows
    metric_digest = getattr(objects, "metric_digest", None)
    digest = None if metric_digest is None else metric_digest(metric)
    seg, num_segments = 0, len(boundaries) - 1
    while seg < num_segments:
        # greedy chunks of whole segments: each runs to the last segment end
        # within ``budget`` rows of its start (a larger segment runs alone)
        lo = int(boundaries[seg])
        if n - lo <= budget:
            end = num_segments
        else:
            end = max(seg + 1, int(np.searchsorted(boundaries, lo + budget, "right")) - 1)
        hi = int(boundaries[end])
        chunk_ids = obj_ids[lo:hi]
        out[lo:hi] = metric.pairwise_segmented(
            query_objects[seg:end],
            gather_rows(objects, chunk_ids),
            boundaries[seg : end + 1] - lo,
            object_digest=None if digest is None else digest[chunk_ids],
            settled_pairs=settled_pairs,
        )
        settled_pairs = 0
        seg = end
    return out
