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
    bfs_components,
    dump_graph,
    load_graph,
    oracle_components,
    oracle_connected,
    reduce_degree3,
)
from .hierarchy import (
    EdgeLevelAssignment,
    VertexLevelAssignment,
    build_edge_hierarchy,
    build_vertex_hierarchy,
    edge_separator,
    export_edge_hierarchy,
    export_vertex_hierarchy,
    verify_edge_expanding,
    verify_edge_hierarchy,
    verify_vertex_expanding,
    verify_vertex_hierarchy,
    vertex_separator,
)
from .euler import (
    EulerFrame,
    WeightedTour,
    ball,
    dyadic_cover,
    tours_for_level,
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
from .steiner import (
    SteinerTree,
    ToughnessCertificate,
    expanding_implies_tough_check,
    low_degree_steiner,
    ni_forests,
    ni_sparsify,
    toughness,
)
from .build import BuildResult, build_scheme, to_label_file
from . import labelfile
