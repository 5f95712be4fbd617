"""Multi-view modularity clustering of sparse similarity graphs."""

from .graph import Clustering, GraphUsageError, ViewGraph
from .views import ViewMatrix, auto_k, cosine_similarity, knn_graph, tfidf
from .modularity import maximize, rb_modularity
from .driver import (
    MvmcConfig,
    MvmcTrace,
    Propensities,
    edge_propensities,
    run_mvmc,
    update_resolution,
    update_weights,
)
from .compare import (
    DUMMY_LABEL,
    LabeledClustering,
    adjusted_rand_index,
    agglomerative_meta_cluster,
    average_linkage_merges,
    cross_level,
    pairwise_ari_matrix,
    write_ari_matrix,
    write_dendrogram,
)
from .ensemble import (
    average_internal_ari,
    build_object_cluster_graph,
    ensemble_cluster,
    filter_small_clusters,
)
from .ingest import DailyViews, build_daily_views, preprocess_text
from .analytics import top_user_score, top_users, unique_user_ratio

__all__ = [
    "Clustering",
    "GraphUsageError",
    "ViewGraph",
    "ViewMatrix",
    "auto_k",
    "cosine_similarity",
    "knn_graph",
    "tfidf",
    "maximize",
    "rb_modularity",
    "MvmcConfig",
    "MvmcTrace",
    "Propensities",
    "edge_propensities",
    "run_mvmc",
    "update_resolution",
    "update_weights",
    "DUMMY_LABEL",
    "LabeledClustering",
    "adjusted_rand_index",
    "agglomerative_meta_cluster",
    "average_linkage_merges",
    "cross_level",
    "pairwise_ari_matrix",
    "write_ari_matrix",
    "write_dendrogram",
    "average_internal_ari",
    "build_object_cluster_graph",
    "ensemble_cluster",
    "filter_small_clusters",
    "DailyViews",
    "build_daily_views",
    "preprocess_text",
    "top_user_score",
    "top_users",
    "unique_user_ratio",
]

__version__ = "0.1.0"
