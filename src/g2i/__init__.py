"""g2i: attributed graphs to per-node multi-channel images, a CNN classifier
over those images, and Shapley attributions mapped back to named features."""

from .community import association_matrix, community_count, fit_communities
from .graph import AttributedGraph, generate_sbm, load_graph, split_dataset
from .imaging import build_feature_layout, build_structural_layout, render_all
from .transport import resolve_assignment, sinkhorn, solve_gw

__all__ = [
    "AttributedGraph",
    "association_matrix",
    "build_feature_layout",
    "build_structural_layout",
    "community_count",
    "fit_communities",
    "generate_sbm",
    "load_graph",
    "render_all",
    "resolve_assignment",
    "sinkhorn",
    "solve_gw",
    "split_dataset",
]

__version__ = "0.1.0"
