"""Curvature-dimension bounds and heat-semigroup estimates on finite weighted graphs."""

__version__ = "0.1.0"

from .graph import (
    Ball,
    GraphFormatError,
    WeightedGraph,
    ball2,
    load_graph,
    load_vertex_function,
    save_graph,
    save_vertex_function,
)
from .operators import (
    LocalForms,
    gamma,
    gamma2,
    laplacian,
    local_forms,
)
from .curvature import (
    CurvatureInternalError,
    CurvatureResult,
    IsolatedVertexError,
    curvature_all,
    curvature_at,
    min_curvature,
)
from .semigroup import SpectralDecomposition, decompose, heat_apply
from .verify import (
    VerificationRecord,
    VerificationReport,
    cdn_bound,
    gradient_estimate,
    run_verification,
    function_corpus,
)

__all__ = [
    "Ball",
    "CurvatureInternalError",
    "CurvatureResult",
    "GraphFormatError",
    "IsolatedVertexError",
    "LocalForms",
    "SpectralDecomposition",
    "VerificationRecord",
    "VerificationReport",
    "WeightedGraph",
    "ball2",
    "cdn_bound",
    "curvature_all",
    "curvature_at",
    "gamma",
    "gamma2",
    "gradient_estimate",
    "heat_apply",
    "laplacian",
    "load_graph",
    "load_vertex_function",
    "local_forms",
    "min_curvature",
    "run_verification",
    "save_graph",
    "save_vertex_function",
    "function_corpus",
    "decompose",
]
