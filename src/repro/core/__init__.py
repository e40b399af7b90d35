"""Core GTS index: structure, construction, queries, updates, cost model."""

from .cache_table import CacheTable
from .construction import BuildResult, TreeBuild, build_tree
from .cost_model import (
    DistanceDistribution,
    estimate_construction_cost,
    estimate_distance_distribution,
    estimate_query_cost,
    recommend_node_capacity,
    survival_probability,
)
from .encoding import decode_distances, encode_distances
from .gts import GTS
from .maintenance import IncrementalMaintenance, MaintenanceConfig, SliceReport
from .multimetric import MultiColumnGTS
from .nodes import TreeStructure, level_size, level_start, total_nodes, tree_height
from .objectstore import ColumnarStore, ListStore, make_object_store
from .persistence import INDEX_FORMAT_VERSION, load_index, save_index
from .pivots import available_pivot_strategies, get_pivot_selector
from .search import batch_knn_query, batch_range_query
from .searchcommon import PruneMode

__all__ = [
    "GTS",
    "MultiColumnGTS",
    "ColumnarStore",
    "ListStore",
    "make_object_store",
    "TreeStructure",
    "save_index",
    "load_index",
    "INDEX_FORMAT_VERSION",
    "BuildResult",
    "TreeBuild",
    "build_tree",
    "batch_range_query",
    "batch_knn_query",
    "CacheTable",
    "MaintenanceConfig",
    "IncrementalMaintenance",
    "SliceReport",
    "PruneMode",
    "encode_distances",
    "decode_distances",
    "tree_height",
    "total_nodes",
    "level_start",
    "level_size",
    "get_pivot_selector",
    "available_pivot_strategies",
    "DistanceDistribution",
    "estimate_distance_distribution",
    "estimate_query_cost",
    "estimate_construction_cost",
    "recommend_node_capacity",
    "survival_probability",
]
