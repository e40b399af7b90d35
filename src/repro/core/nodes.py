"""Flat, table-based storage of the GTS tree (node list + table list).

The paper's key structural idea (Section 4.2) is that the tree is *not*
stored as linked nodes: all nodes live in one contiguous **node list** whose
IDs follow full multi-way-tree numbering, and the objects with their
distances to the partitioning pivots live in one contiguous **table list**
kept only for the leaf level.  Nodes of one level therefore occupy one
contiguous slice of the node list, which is what allows a single kernel to
process every node of a level at once.

This module holds that storage as a :class:`TreeStructure` of parallel NumPy
arrays plus the ID arithmetic (Eq. 1 of the paper, translated to 0-based
indexing):

* root id is ``0``;
* the ``j``-th child of node ``i`` is ``i * Nc + j + 1``;
* level ``l`` starts at ``(Nc**l - 1) // (Nc - 1)`` and holds ``Nc**l`` slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import IndexError_

__all__ = ["TreeStructure", "tree_height", "total_nodes", "level_start", "level_size"]

#: Sentinel pivot value for leaf nodes ("pivot: NULL" in Fig. 3 of the paper).
NO_PIVOT = -1


def tree_height(num_objects: int, node_capacity: int) -> int:
    """Return the height bound ``h = ⌈log_Nc(|O| + 1)⌉ - 1`` (Algorithm 1, line 1).

    ``h`` is the number of partitioning rounds; leaves live at level ``h``.
    A dataset that fits in a single node yields ``h = 0`` (the root is the
    only, possibly over-full, leaf).
    """
    if num_objects < 0:
        raise IndexError_("num_objects must be non-negative")
    if node_capacity < 2:
        raise IndexError_(f"node capacity must be at least 2, got {node_capacity}")
    if num_objects <= 1:
        return 0
    h = int(np.ceil(np.log(num_objects + 1) / np.log(node_capacity))) - 1
    # Guard against floating point edge cases (e.g. exactly Nc**k objects).
    while node_capacity ** (h + 1) < num_objects + 1:
        h += 1
    while h > 0 and node_capacity ** h >= num_objects + 1:
        h -= 1
    return max(h, 0)


def total_nodes(height: int, node_capacity: int) -> int:
    """Number of node slots in a full ``Nc``-ary tree of the given height."""
    return (node_capacity ** (height + 1) - 1) // (node_capacity - 1)


def level_start(level: int, node_capacity: int) -> int:
    """Index of the first node slot of ``level`` in the node list."""
    return (node_capacity ** level - 1) // (node_capacity - 1)


def level_size(level: int, node_capacity: int) -> int:
    """Number of node slots at ``level``."""
    return node_capacity ** level


@dataclass
class TreeStructure:
    """The node list and table list of one built GTS index.

    Attributes
    ----------
    node_capacity:
        ``Nc``, the fan-out of every internal node.
    height:
        ``h``; leaves are the nodes at level ``h``.
    pivot:
        ``int64[num_nodes]`` — object id of the node's pivot, ``NO_PIVOT`` for
        leaves and empty slots.
    pos / size:
        ``int64[num_nodes]`` — the slice ``[pos, pos + size)`` of the table
        list holding the node's objects.
    min_dis / max_dis:
        ``float64[num_nodes]`` — minimum / maximum distance from the *parent's*
        pivot to the node's objects (the paper stores ``min_dis``; ``max_dis``
        adds the symmetric bound for two-sided pruning).
    obj_ids:
        ``int64[n]`` — the table list's object column: object ids in leaf order.
    obj_dis:
        ``float64[n]`` — the table list's distance column: each object's
        distance to the pivot of its leaf's parent (the final-stage table of
        Fig. 3).
    """

    node_capacity: int
    height: int
    num_objects: int
    pivot: np.ndarray
    pos: np.ndarray
    size: np.ndarray
    min_dis: np.ndarray
    max_dis: np.ndarray
    obj_ids: np.ndarray
    obj_dis: np.ndarray

    # ------------------------------------------------------------ factories
    @classmethod
    def empty(cls, num_objects: int, node_capacity: int) -> "TreeStructure":
        """Allocate zeroed storage sized for ``num_objects`` and ``node_capacity``."""
        height = tree_height(num_objects, node_capacity)
        n_nodes = total_nodes(height, node_capacity)
        return cls(
            node_capacity=node_capacity,
            height=height,
            num_objects=num_objects,
            pivot=np.full(n_nodes, NO_PIVOT, dtype=np.int64),
            pos=np.zeros(n_nodes, dtype=np.int64),
            size=np.zeros(n_nodes, dtype=np.int64),
            min_dis=np.full(n_nodes, np.inf, dtype=np.float64),
            max_dis=np.full(n_nodes, -np.inf, dtype=np.float64),
            obj_ids=np.zeros(num_objects, dtype=np.int64),
            obj_dis=np.zeros(num_objects, dtype=np.float64),
        )

    # --------------------------------------------------------- ID arithmetic
    @property
    def num_nodes(self) -> int:
        """Number of node slots (including empty ones of the full tree)."""
        return len(self.pivot)

    def children_of(self, node_id: int) -> np.ndarray:
        """Return the ``Nc`` child slot ids of ``node_id`` (Eq. 1, 0-based)."""
        base = node_id * self.node_capacity + 1
        return np.arange(base, base + self.node_capacity, dtype=np.int64)

    def parent_of(self, node_id: int) -> int:
        """Return the parent slot id of ``node_id`` (root has no parent)."""
        if node_id <= 0:
            raise IndexError_("the root node has no parent")
        return (node_id - 1) // self.node_capacity

    def level_of(self, node_id: int) -> int:
        """Return the level of ``node_id`` (root is level 0)."""
        level = 0
        while level_start(level + 1, self.node_capacity) <= node_id:
            level += 1
        return level

    def level_slice(self, level: int) -> slice:
        """Return the slice of node slots making up ``level``."""
        start = level_start(level, self.node_capacity)
        return slice(start, start + level_size(level, self.node_capacity))

    def is_leaf_level(self, level: int) -> bool:
        """True when ``level`` is the last (leaf) level."""
        return level >= self.height

    # ------------------------------------------------------------ accessors
    def node_objects(self, node_id: int) -> np.ndarray:
        """Return the object ids stored under ``node_id`` (leaf order)."""
        p = int(self.pos[node_id])
        s = int(self.size[node_id])
        return self.obj_ids[p : p + s]

    def active_nodes(self, level: int) -> np.ndarray:
        """Return the ids of the non-empty nodes at ``level``."""
        sl = self.level_slice(level)
        ids = np.arange(sl.start, sl.stop, dtype=np.int64)
        return ids[self.size[sl] > 0]

    def leaves(self) -> np.ndarray:
        """Return the ids of the non-empty leaf nodes."""
        return self.active_nodes(self.height)

    def iter_levels(self) -> Iterator[int]:
        """Iterate over the levels from the root down to the leaves."""
        return iter(range(self.height + 1))

    # ------------------------------------------------------------ invariants
    def storage_bytes(self) -> int:
        """Bytes of index storage: node list + table list (Section 4.5)."""
        node_bytes = (
            self.pivot.nbytes
            + self.pos.nbytes
            + self.size.nbytes
            + self.min_dis.nbytes
            + self.max_dis.nbytes
        )
        table_bytes = self.obj_ids.nbytes + self.obj_dis.nbytes
        return int(node_bytes + table_bytes)

    def check_invariants(self) -> None:
        """Verify the structural invariants of the index; raise on violation.

        Checked properties (used heavily by the test-suite):

        * the table list is a permutation of the indexed object ids;
        * every non-empty node's slice nests inside its parent's slice;
        * children of one node partition the parent's slice without overlap;
        * ``min_dis <= max_dis`` for every non-empty non-root node;
        * leaves (and only slots past the leaf level) have no pivot.
        """
        n = self.num_objects
        if sorted(self.obj_ids.tolist()) != sorted(set(self.obj_ids.tolist())):
            raise IndexError_("table list contains duplicate object ids")
        if int(self.size[0]) != n:
            raise IndexError_("root size does not match the number of objects")
        for level in self.iter_levels():
            for node_id in self.active_nodes(level):
                p, s = int(self.pos[node_id]), int(self.size[node_id])
                if p < 0 or p + s > n:
                    raise IndexError_(f"node {node_id} slice [{p},{p + s}) out of range")
                if level > 0:
                    parent = self.parent_of(int(node_id))
                    pp, ps = int(self.pos[parent]), int(self.size[parent])
                    if not (pp <= p and p + s <= pp + ps):
                        raise IndexError_(
                            f"node {node_id} slice not nested in parent {parent}"
                        )
                    if self.min_dis[node_id] > self.max_dis[node_id]:
                        raise IndexError_(f"node {node_id} has min_dis > max_dis")
                if not self.is_leaf_level(level):
                    if s > 0 and self.pivot[node_id] == NO_PIVOT:
                        raise IndexError_(f"internal node {node_id} has no pivot")
                else:
                    if self.pivot[node_id] != NO_PIVOT:
                        raise IndexError_(f"leaf node {node_id} has a pivot")
            if level > 0:
                # children of each parent must tile the parent's slice
                for parent in self.active_nodes(level - 1):
                    kids = self.children_of(int(parent))
                    kid_total = int(self.size[kids].sum())
                    if not self.is_leaf_level(level - 1) and kid_total != int(self.size[parent]):
                        raise IndexError_(
                            f"children of node {parent} cover {kid_total} objects, "
                            f"expected {int(self.size[parent])}"
                        )
