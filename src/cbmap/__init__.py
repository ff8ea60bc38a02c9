"""Clustering-based manifold approximation and projection.

Embeds data by matching Gaussian cluster memberships between the original
space and a low-dimensional space, giving PCA-like global structure with
cluster-aware local detail, plus an out-of-sample transform.
"""

from .clustering import ClusterAssignment, KmeansConfig, assign_labels, kmeans_fit
from .datasets import (
    LabeledDataset,
    load_csv,
    make_cuboids,
    make_s_curve,
    make_severed_sphere,
    make_swiss_roll,
    write_csv,
)
from .embedder import (
    CbmapConfig,
    CbmapModel,
    FitResult,
    fit,
    load_model,
    save_model,
    transform,
)
from .linalg_core import (
    PcaModel,
    euclidean_distance_matrix,
    pca_fit,
    pca_transform,
    zscore_normalize,
)
from .metrics import HoldoutSpec, MetricReport, evaluate, global_score, knn_accuracy

__version__ = "0.1.0"

__all__ = [
    "CbmapConfig",
    "CbmapModel",
    "ClusterAssignment",
    "FitResult",
    "HoldoutSpec",
    "KmeansConfig",
    "LabeledDataset",
    "MetricReport",
    "PcaModel",
    "__version__",
    "assign_labels",
    "euclidean_distance_matrix",
    "evaluate",
    "fit",
    "global_score",
    "kmeans_fit",
    "knn_accuracy",
    "load_csv",
    "load_model",
    "make_cuboids",
    "make_s_curve",
    "make_severed_sphere",
    "make_swiss_roll",
    "pca_fit",
    "pca_transform",
    "save_model",
    "transform",
    "write_csv",
    "zscore_normalize",
]
