"""Shard-assignment policies for the multi-device sharded index.

A policy decides which shard owns each object the moment it enters the
index — at bulk load and for every streaming insert.  Two properties matter:

* **Determinism.**  Assignment is a pure function of the object's global id,
  the object itself and the shards' current loads, so two indexes built from
  the same stream place every object identically (what lets the tests and
  benchmarks compare a sharded index against a single-device one).
* **Balance.**  Scatter-gather query time is the *makespan* over shards, so
  the slowest (largest) shard sets the pace; the closer the shards' sizes,
  the closer the speedup curve gets to ideal.

``round-robin`` balances object *counts* and is the right default for
fixed-size objects (vectors).  ``size-balanced`` balances payload *bytes*,
which matters for variable-size objects such as strings, where equal counts
can still leave one shard with most of the distance-computation work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import IndexError_

__all__ = [
    "AssignmentPolicy",
    "RoundRobinPolicy",
    "SizeBalancedPolicy",
    "ASSIGNMENT_POLICIES",
    "make_assignment_policy",
]


class AssignmentPolicy:
    """Decides which shard owns a newly added object."""

    name = "abstract"

    def assign(self, obj_id: int, obj, loads: Sequence[float]) -> int:
        """Return the shard index (``0 .. len(loads)-1``) that gets ``obj``.

        ``loads`` holds each shard's current payload bytes; policies that do
        not need it (round-robin) only use its length.
        """
        raise NotImplementedError

    def partition(self, objects: Sequence, nbytes: np.ndarray, num_shards: int) -> np.ndarray:
        """Owning shard of every object of a bulk load into empty shards.

        Object ``i`` has global id ``i`` and load ``nbytes[i]`` (its payload
        bytes, at least 1).  Must equal calling :meth:`assign` for each
        object in id order while adding each object's load to its shard,
        which is what this default does; a policy with a closed form
        overrides it with array code, taken only while its own
        :meth:`assign` is in force.
        """
        loads = [0.0] * int(num_shards)
        owner = np.empty(len(objects), dtype=np.int64)
        for gid, size in enumerate(nbytes.tolist()):
            sid = self.assign(gid, objects[gid], loads)
            owner[gid] = sid
            loads[sid] += size
        return owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RoundRobinPolicy(AssignmentPolicy):
    """Cycle through the shards in global-id order (balances object counts)."""

    name = "round-robin"

    def assign(self, obj_id: int, obj, loads: Sequence[float]) -> int:
        return int(obj_id) % len(loads)

    def partition(self, objects: Sequence, nbytes: np.ndarray, num_shards: int) -> np.ndarray:
        if type(self).assign is not RoundRobinPolicy.assign:
            return super().partition(objects, nbytes, num_shards)
        return np.arange(len(objects), dtype=np.int64) % int(num_shards)


class SizeBalancedPolicy(AssignmentPolicy):
    """Send each object to the currently lightest shard (balances bytes)."""

    name = "size-balanced"

    def assign(self, obj_id: int, obj, loads: Sequence[float]) -> int:
        return min(range(len(loads)), key=lambda s: (loads[s], s))


#: Policy-name -> class registry (the CLI's ``--shard-policy`` choices).
ASSIGNMENT_POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    SizeBalancedPolicy.name: SizeBalancedPolicy,
}


def make_assignment_policy(name: str) -> AssignmentPolicy:
    """Instantiate a registered assignment policy by name."""
    try:
        return ASSIGNMENT_POLICIES[name]()
    except KeyError:
        raise IndexError_(
            f"unknown assignment policy {name!r}; "
            f"choose from {sorted(ASSIGNMENT_POLICIES)}"
        ) from None
