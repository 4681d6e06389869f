"""Strong orientations of bridgeless graphs with certified diameter bounds.

The package grows a small dominating core whose size is controlled by the
minimum degree and girth, orients it, and extends the orientation outward so
the directed diameter stays within a provable bound; exhaustive-search
references and replayable traces back every claim at test scale.
"""

from .bounds import BoundReport, degree_only_bound, diameter_bound, min_ball_size, path_scale
from .errors import (
    BudgetExceededError,
    CertifiedFailureError,
    GraphFormatError,
    IncompleteOrientationError,
    InfeasibleSpecError,
    OrientationConflictError,
    PreconditionError,
)
from .extension import extend_orientation
from .generators import (
    FamilySpec,
    circulant_graph,
    complete_graph,
    corpus,
    cycle_graph,
    generate,
    petersen_graph,
    random_bridgeless,
    theta_graph,
    triangle_chain,
)
from .graph import (
    Graph,
    diameter,
    format_graph,
    girth,
    is_bridgeless_connected,
    min_degree,
    parse_graph,
)
from .growth import GrowthResult, grow_core
from .oracle import OracleResult, exact_oriented_diameter
from .orientation import (
    Orientation,
    directed_diameter,
    format_orientation,
    is_strong,
    parse_orientation,
    strong_orientation,
)
from .pipeline import PipelineResult, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "CertifiedFailureError",
    "FamilySpec",
    "Graph",
    "GraphFormatError",
    "GrowthResult",
    "IncompleteOrientationError",
    "InfeasibleSpecError",
    "OracleResult",
    "Orientation",
    "OrientationConflictError",
    "PipelineResult",
    "PreconditionError",
    "circulant_graph",
    "complete_graph",
    "corpus",
    "cycle_graph",
    "degree_only_bound",
    "diameter",
    "diameter_bound",
    "directed_diameter",
    "exact_oriented_diameter",
    "extend_orientation",
    "format_graph",
    "format_orientation",
    "generate",
    "girth",
    "grow_core",
    "is_bridgeless_connected",
    "is_strong",
    "min_ball_size",
    "min_degree",
    "parse_graph",
    "parse_orientation",
    "path_scale",
    "petersen_graph",
    "random_bridgeless",
    "run_pipeline",
    "strong_orientation",
    "theta_graph",
    "triangle_chain",
]
