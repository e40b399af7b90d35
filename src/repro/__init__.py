"""repro — reproduction of "GTS: GPU-based Tree Index for Fast Similarity Search".

The package implements the GTS index and everything it is evaluated against
in the SIGMOD 2024 paper, on top of a simulated GPU substrate:

* :mod:`repro.metrics` — distance metrics for general metric spaces;
* :mod:`repro.gpusim` — the simulated GPU / CPU execution substrates;
* :mod:`repro.core` — the GTS index (construction, batch MRQ/MkNNQ, updates,
  cost model);
* :mod:`repro.baselines` — the CPU and GPU competitors of the paper;
* :mod:`repro.approx` — approximate search on the GTS tree (beam search and
  a learned leaf router), the paper's stated follow-up direction;
* :mod:`repro.datasets` — synthetic stand-ins for the paper's five datasets;
* :mod:`repro.evalsuite` — workloads, runners and reporting for every table
  and figure of the paper's evaluation;
* :mod:`repro.service` — the concurrent query-serving layer (micro-batching
  scheduler, open-loop client workloads, latency reports);
* :mod:`repro.shard` — the multi-device sharded index (scatter-gather
  scale-out across several simulated GPUs);
* :mod:`repro.tier` — the out-of-core tiered memory subsystem (host-resident
  blocked object store + device-pool demand pager), for datasets larger
  than device memory.

Quickstart::

    import numpy as np
    from repro import GTS, EuclideanDistance

    points = np.random.default_rng(0).normal(size=(10_000, 2))
    index = GTS.build(points, EuclideanDistance(), node_capacity=20)
    print(index.knn_query(points[0], k=5))
"""

from .approx import ApproximateGTS, LearnedLeafRouter
from .core import GTS, MultiColumnGTS
from .core.searchcommon import PruneMode
from .exceptions import (
    BaselineError,
    ConstructionError,
    DatasetError,
    DeviceError,
    DeviceMemoryError,
    HostMemoryError,
    IndexError_,
    KernelError,
    MemoryDeadlockError,
    MetricError,
    QueryError,
    ReproError,
    UnsupportedMetricError,
    UpdateError,
)
from .exceptions import MemoryLeakError, TierError
from .gpusim import CPUExecutor, CPUSpec, Device, DeviceSpec
from .shard import ShardedGTS, make_assignment_policy
from .tier import BlockPager, TierConfig, TieredObjectStore
from .service import (
    DeadlineAwarePolicy,
    GreedyBatchPolicy,
    GTSService,
    WorkloadSpec,
    generate_workload,
)
from .metrics import (
    AngularDistance,
    ChebyshevDistance,
    EditDistance,
    EuclideanDistance,
    HammingDistance,
    ManhattanDistance,
    Metric,
    MinkowskiDistance,
    get_metric,
)

__version__ = "1.0.0"

__all__ = [
    "GTS",
    "MultiColumnGTS",
    "ShardedGTS",
    "make_assignment_policy",
    "TierConfig",
    "TieredObjectStore",
    "BlockPager",
    "ApproximateGTS",
    "LearnedLeafRouter",
    "PruneMode",
    "GTSService",
    "GreedyBatchPolicy",
    "DeadlineAwarePolicy",
    "WorkloadSpec",
    "generate_workload",
    "Device",
    "DeviceSpec",
    "CPUExecutor",
    "CPUSpec",
    "Metric",
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
    "MinkowskiDistance",
    "AngularDistance",
    "EditDistance",
    "HammingDistance",
    "get_metric",
    "ReproError",
    "MetricError",
    "DeviceError",
    "DeviceMemoryError",
    "HostMemoryError",
    "MemoryDeadlockError",
    "MemoryLeakError",
    "TierError",
    "KernelError",
    "IndexError_",
    "ConstructionError",
    "UpdateError",
    "QueryError",
    "DatasetError",
    "BaselineError",
    "UnsupportedMetricError",
    "__version__",
]
