"""Column matching and semantic type discovery (Section V-B)."""

from .baselines import (
    CLASSIFIER_FACTORIES,
    SatoFeaturizer,
    SherlockFeaturizer,
    evaluate_feature_baseline,
    pair_features,
)
from .clustering import (
    ClusterReport,
    cluster_columns,
    cluster_purity,
    discover_types,
    find_subtype_clusters,
)

__all__ = [
    "CLASSIFIER_FACTORIES",
    "ClusterReport",
    "SatoFeaturizer",
    "SherlockFeaturizer",
    "cluster_columns",
    "cluster_purity",
    "discover_types",
    "evaluate_feature_baseline",
    "find_subtype_clusters",
    "pair_features",
]
