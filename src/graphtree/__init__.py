"""Graphon-based hierarchical graph clustering.

Core pieces: step graphons (graphon), exact mergeons and cluster trees
(mergeon), W-random graph sampling (sampling), neighborhood smoothing
estimators (smoothing), single linkage (linkage), file formats (graph_io),
and the experiment harness (experiments).
"""

from .errors import ValidationError
from .experiments import (
    BUILTIN_GRAPHONS,
    ExperimentConfig,
    RECORD_HEADER,
    RunRecord,
    load_graph_file,
    resolve_graphon,
    run_dataset_clustering,
    run_synthetic_experiment,
    separated_three_block_graphon,
    three_group_graphon,
)
from .graph_io import (
    load_adjacency_csv,
    load_edge_list,
    load_gml_subset,
    load_matrix_csv,
    save_adjacency_csv,
    save_edge_list,
    save_matrix_csv,
)
from .graphon import (
    BlockPartition,
    StepGraphon,
    load_step_graphon,
    step_graphon_from_dict,
    step_graphon_to_dict,
)
from .linkage import (
    Dendrogram,
    dendrogram_merge_matrix,
    single_linkage,
)
from .mergeon import (
    cluster_tree_of,
    merge_distortion,
    mergeon_eval_matrix,
    step_mergeon,
)
from .sampling import (
    derive_seed,
    edge_probabilities,
    sample_graph,
    sample_latents,
)
from .smoothing import (
    SmoothingConfig,
    column_distance_matrix,
    estimate_edge_probabilities,
    estimate_modified,
    estimate_original,
    estimation_errors,
)

__version__ = "0.1.0"

__all__ = [
    "ValidationError",
    "BlockPartition",
    "StepGraphon",
    "load_step_graphon",
    "step_graphon_from_dict",
    "step_graphon_to_dict",
    "step_mergeon",
    "cluster_tree_of",
    "mergeon_eval_matrix",
    "merge_distortion",
    "derive_seed",
    "sample_latents",
    "edge_probabilities",
    "sample_graph",
    "SmoothingConfig",
    "estimate_modified",
    "estimate_original",
    "estimate_edge_probabilities",
    "column_distance_matrix",
    "estimation_errors",
    "Dendrogram",
    "single_linkage",
    "dendrogram_merge_matrix",
    "load_edge_list",
    "save_edge_list",
    "load_adjacency_csv",
    "save_adjacency_csv",
    "load_matrix_csv",
    "save_matrix_csv",
    "load_gml_subset",
    "BUILTIN_GRAPHONS",
    "three_group_graphon",
    "separated_three_block_graphon",
    "resolve_graphon",
    "ExperimentConfig",
    "RunRecord",
    "RECORD_HEADER",
    "run_synthetic_experiment",
    "run_dataset_clustering",
    "load_graph_file",
    "__version__",
]
