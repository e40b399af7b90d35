"""Pivot selection strategies for GTS construction.

The paper (Section 4.3, Algorithm 2) selects one pivot per node with the FFT
(farthest-first traversal) heuristic [27]: the new pivot is the object
farthest from the already-chosen pivots, and the very first pivot is random
because — citing [62] — no strategy for the initial pivot dominates.

During GTS construction the distances from every object to its *parent's*
pivot are already sitting in the table list, so the farthest-first choice for
a node costs no extra distance computations: it is simply the object of the
node with the largest stored distance.  The root has no parent, hence the
random first pivot.

Strategies implemented:

``fft``
    The paper's default, as described above.
``random``
    A uniformly random object of the node (baseline for the ablation bench).
``center``
    The object with the *smallest* stored distance (an intentionally poor
    choice, useful to show that pivot quality matters).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..exceptions import ConstructionError

__all__ = ["PivotSelector", "get_pivot_selector", "available_pivot_strategies"]


class PivotSelector:
    """Callable that picks one pivot position inside a node's table slice.

    Parameters passed on every call:

    ``local_dis``
        The stored distances of the node's objects to the parent pivot
        (all zeros at the root where no parent exists).
    ``is_root``
        Whether the node is the root (no meaningful ``local_dis``).
    ``rng``
        The construction's random generator (for reproducibility).

    Returns the *local offset* of the chosen pivot within the node's slice.

    Construction asks for a whole level at once through
    :meth:`select_level`; its default calls the selector once per node, in
    node order, so a subclass only has to define ``__call__``.
    """

    name = "abstract"

    def __call__(self, local_dis: np.ndarray, is_root: bool, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def select_level(
        self, level_dis: np.ndarray, sizes: np.ndarray, is_root: bool, rng: np.random.Generator
    ) -> np.ndarray:
        """Local pivot offsets of every node of one level.

        ``level_dis`` concatenates the nodes' stored distances in node order
        and ``sizes`` holds each node's object count; the result holds one
        offset per node, each relative to the start of its node's slice.
        """
        ends = np.cumsum(sizes).tolist()
        starts = [0] + ends[:-1]
        return np.array(
            [self(level_dis[s:e], is_root, rng) for s, e in zip(starts, ends)], dtype=np.int64
        )


class FFTPivotSelector(PivotSelector):
    """Farthest-first traversal pivot choice (the paper's default)."""

    name = "fft"

    def __call__(self, local_dis: np.ndarray, is_root: bool, rng: np.random.Generator) -> int:
        if len(local_dis) == 0:
            raise ConstructionError("cannot select a pivot in an empty node")
        if is_root:
            return int(rng.integers(0, len(local_dis)))
        return int(np.argmax(local_dis))

    def select_level(
        self, level_dis: np.ndarray, sizes: np.ndarray, is_root: bool, rng: np.random.Generator
    ) -> np.ndarray:
        """Every node's ``argmax`` at once: one segment max, then the first
        position of each segment that attains it (``np.argmax``'s tie and NaN
        rules).  The root level keeps the per-node random draw."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if is_root or len(sizes) == 0:
            return super().select_level(level_dis, sizes, is_root, rng)
        if (sizes <= 0).any():
            raise ConstructionError("cannot select a pivot in an empty node")
        starts = np.cumsum(sizes) - sizes
        seg_max = np.repeat(np.maximum.reduceat(level_dis, starts), sizes)
        hits = np.flatnonzero((level_dis == seg_max) | np.isnan(level_dis))
        seg = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)[hits]
        first = hits[np.concatenate(([True], seg[1:] != seg[:-1]))]
        return first - starts


class RandomPivotSelector(PivotSelector):
    """Uniformly random pivot choice."""

    name = "random"

    def __call__(self, local_dis: np.ndarray, is_root: bool, rng: np.random.Generator) -> int:
        if len(local_dis) == 0:
            raise ConstructionError("cannot select a pivot in an empty node")
        return int(rng.integers(0, len(local_dis)))


class CenterPivotSelector(PivotSelector):
    """Anti-FFT choice: the object closest to the parent pivot."""

    name = "center"

    def __call__(self, local_dis: np.ndarray, is_root: bool, rng: np.random.Generator) -> int:
        if len(local_dis) == 0:
            raise ConstructionError("cannot select a pivot in an empty node")
        if is_root:
            return int(rng.integers(0, len(local_dis)))
        return int(np.argmin(local_dis))


_STRATEGIES: Dict[str, Callable[[], PivotSelector]] = {
    "fft": FFTPivotSelector,
    "random": RandomPivotSelector,
    "center": CenterPivotSelector,
}


def available_pivot_strategies() -> list[str]:
    """Return the names of the registered pivot-selection strategies."""
    return sorted(_STRATEGIES)


def get_pivot_selector(name: str) -> PivotSelector:
    """Return a fresh pivot selector registered under ``name``."""
    key = name.strip().lower()
    try:
        return _STRATEGIES[key]()
    except KeyError:
        raise ConstructionError(
            f"unknown pivot strategy {name!r}; available: {', '.join(available_pivot_strategies())}"
        ) from None
