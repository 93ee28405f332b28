"""Power-law random intersection graphs.

Vertices carry heavy-tailed weights; each vertex holds a uniform random
attribute set whose size tracks its weight, and two vertices are adjacent
when their sets intersect.  The package generates such graphs at scale,
measures distances against loglog-type bounds, navigates to and from the
weight hierarchy's hub, and replays the supporting concentration bounds
numerically.
"""

import importlib.resources
import json

from .graphgen import BipartiteIncidence, generate
from .graphops import (
    ComponentLabeling,
    DistanceResult,
    TraversalCore,
    bfs_distance,
    components,
    degrees,
    distances_from,
    nearest_of,
    nearest_routes,
    neighbors,
    unique_edges,
)
from .harness import ConfigError, ExperimentConfig
from .hubnav import (
    CertificateRecord,
    LadderError,
    LayerDecomposition,
    LayerThresholds,
    decompose,
    escape_bfs,
    hub_climb,
    loglog_certificate,
    thresholds,
)
from .model import (
    ModelParams,
    TailLaw,
    VertexWeights,
    default_attribute_count,
    iterated_log,
    realized_weights,
    sample_tilde_weights,
    trial_rng,
)
from .storage import GraphFormatError, file_checksum, read_graph, write_graph
from .verify import (
    BoundReport,
    HypergeomTable,
    check_conditional_overlap,
    check_intersection_bounds,
    check_tail_mass,
    check_union_coverage,
    degree_tail_report,
    no_overlap_probability,
    wilson_interval,
)

__version__ = "0.1.0"


def report_schema() -> dict:
    """The JSON schema that all report fragments validate against."""
    ref = importlib.resources.files(__package__).joinpath("report_schema.json")
    return json.loads(ref.read_text())


__all__ = [
    "__version__",
    "report_schema",
    "BipartiteIncidence",
    "BoundReport",
    "CertificateRecord",
    "ComponentLabeling",
    "ConfigError",
    "DistanceResult",
    "ExperimentConfig",
    "GraphFormatError",
    "HypergeomTable",
    "LadderError",
    "LayerDecomposition",
    "LayerThresholds",
    "ModelParams",
    "TailLaw",
    "TraversalCore",
    "VertexWeights",
    "bfs_distance",
    "check_conditional_overlap",
    "check_intersection_bounds",
    "check_tail_mass",
    "check_union_coverage",
    "components",
    "decompose",
    "default_attribute_count",
    "degree_tail_report",
    "degrees",
    "distances_from",
    "escape_bfs",
    "file_checksum",
    "generate",
    "hub_climb",
    "iterated_log",
    "loglog_certificate",
    "nearest_of",
    "nearest_routes",
    "neighbors",
    "no_overlap_probability",
    "read_graph",
    "realized_weights",
    "sample_tilde_weights",
    "thresholds",
    "trial_rng",
    "unique_edges",
    "wilson_interval",
    "write_graph",
]
