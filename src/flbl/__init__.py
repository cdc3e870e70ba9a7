"""Fault-tolerant connectivity labels for undirected graphs.

Build short per-vertex/per-edge labels so that connectivity and
component-count queries under up to f edge faults are answered from the
labels of the failed edges and query endpoints alone.
"""

from .graph import (
    Degree3Reduction,
    FaultSet,
    Graph,
    GraphParseError,
    load_graph,
    oracle_components,
    reduce_degree3,
)
from .hierarchy import (
    EdgeLevelAssignment,
    build_edge_hierarchy,
    edge_separator,
    verify_edge_expanding,
)
from .euler import (
    EulerFrame,
    WeightedTour,
    dyadic_cover,
)
from .codeshares import CodeShare, decode, encode
from .labels_simple import SchemeMeta, build_simple_labels, query_simple
from .labels_sqrt import build_sqrt_labels, compute_lge, distribute_shares, query_sqrt
from .labels_rand import (
    SingletonSeed,
    build_rand_long,
    build_rand_short,
    query_rand_long,
    query_rand_short,
    sample_bit,
)
from .build import BuildResult, build_scheme, to_label_file
from . import labelfile
