"""Dataset abstraction shared by the generators and the evaluation harness.

A :class:`Dataset` bundles the generated objects, the metric they live under
and bookkeeping used by the experiment runner (name, cardinality, a seed for
reproducibility).  The paper's five datasets are real corpora (Words, T-Loc,
Vector, DNA, Color); the generators in this package synthesise stand-ins with
the same metric, dimensionality/length profile and clustering character —
DESIGN.md §2 records the substitution.

Generators are deterministic functions of ``(cardinality, seed)`` so every
test and benchmark can regenerate exactly the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import DatasetError
from ..metrics.base import Metric

__all__ = ["Dataset", "make_duplicates"]


@dataclass
class Dataset:
    """A generated dataset plus the metric it is searched under."""

    name: str
    objects: Sequence
    metric: Metric
    seed: int
    description: str = ""
    #: the cardinality of the real dataset this one stands in for
    paper_cardinality: int = 0
    #: dimensionality (vectors) or maximum length (strings)
    dimensionality: int = 0

    def __post_init__(self) -> None:
        if len(self.objects) == 0:
            raise DatasetError(f"dataset {self.name!r} generated no objects")

    @property
    def cardinality(self) -> int:
        """Number of generated objects."""
        return len(self.objects)

    def subsample(self, fraction: float, seed: int | None = None) -> "Dataset":
        """Return a new dataset holding a random ``fraction`` of the objects.

        Used by the cardinality-scalability experiment (Fig. 11), which varies
        the dataset between 20 % and 100 % of its full size.
        """
        if not 0 < fraction <= 1:
            raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        count = max(1, int(round(len(self.objects) * fraction)))
        idx = np.sort(rng.choice(len(self.objects), size=count, replace=False))
        if isinstance(self.objects, np.ndarray):
            objects = self.objects[idx]
        else:
            objects = [self.objects[int(i)] for i in idx]
        return Dataset(
            name=f"{self.name}@{int(fraction * 100)}%",
            objects=objects,
            metric=type(self.metric)() if not hasattr(self.metric, "expected_length")
            else type(self.metric)(expected_length=self.metric.expected_length),
            seed=self.seed,
            description=self.description,
            paper_cardinality=self.paper_cardinality,
            dimensionality=self.dimensionality,
        )

    def sample_queries(self, count: int, seed: int | None = None, perturb: bool = True) -> list:
        """Draw ``count`` query objects from the dataset's distribution.

        Queries are dataset objects, optionally perturbed (vectors get small
        Gaussian noise; strings get a single random edit) so that queries are
        near, but not exactly equal to, indexed objects — the usual set-up for
        similarity-search benchmarks.
        """
        rng = np.random.default_rng((self.seed * 7919 + 13) if seed is None else seed)
        idx = rng.integers(0, len(self.objects), size=count)
        queries = []
        for i in idx:
            obj = self.objects[int(i)]
            if not perturb:
                queries.append(obj)
            elif isinstance(obj, str):
                queries.append(_perturb_string(obj, rng))
            else:
                arr = np.asarray(obj, dtype=np.float64)
                scale = 0.01 * (np.abs(arr).mean() + 1e-9)
                queries.append(arr + rng.normal(0.0, scale, size=arr.shape))
        return queries

    def __len__(self) -> int:
        return len(self.objects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.name!r}, n={self.cardinality}, metric={self.metric.name!r})"
        )


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _perturb_string(s: str, rng: np.random.Generator) -> str:
    """Apply one random edit (insert / delete / substitute) to a string."""
    if not s:
        return rng.choice(list(_ALPHABET))
    op = int(rng.integers(0, 3))
    pos = int(rng.integers(0, len(s)))
    letter = _ALPHABET[int(rng.integers(0, len(_ALPHABET)))]
    if op == 0:  # substitute
        return s[:pos] + letter + s[pos + 1 :]
    if op == 1:  # insert
        return s[:pos] + letter + s[pos:]
    return s[:pos] + s[pos + 1 :] or letter  # delete (never return empty)


def make_duplicates(dataset: Dataset, distinct_fraction: float, seed: int = 97) -> Dataset:
    """Return a dataset of the same size with only ``distinct_fraction`` unique objects.

    Implements the "distinct data proportion" knob of Fig. 10: the remaining
    objects are exact copies of randomly chosen kept objects, so the overall
    cardinality is unchanged but duplicate keys abound.
    """
    if not 0 < distinct_fraction <= 1:
        raise DatasetError(f"distinct_fraction must be in (0, 1], got {distinct_fraction}")
    rng = np.random.default_rng(seed)
    n = len(dataset.objects)
    keep = max(1, int(round(n * distinct_fraction)))
    kept_idx = rng.choice(n, size=keep, replace=False)
    copies_idx = rng.choice(kept_idx, size=n - keep, replace=True)
    all_idx = np.concatenate([kept_idx, copies_idx])
    rng.shuffle(all_idx)
    if isinstance(dataset.objects, np.ndarray):
        objects = dataset.objects[all_idx]
    else:
        objects = [dataset.objects[int(i)] for i in all_idx]
    return Dataset(
        name=f"{dataset.name}-distinct{int(distinct_fraction * 100)}",
        objects=objects,
        metric=dataset.metric,
        seed=dataset.seed,
        description=f"{dataset.description} (distinct fraction {distinct_fraction:.0%})",
        paper_cardinality=dataset.paper_cardinality,
        dimensionality=dataset.dimensionality,
    )
