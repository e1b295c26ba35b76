"""DynamicC core: the paper's primary contribution."""

from repro.evolution import EvolutionLog, MergeOp, SplitOp

from .config import DynamicCConfig
from .density import DBSCANBatchAdapter, DensityObjective, make_dynamic_dbscan
from .dynamicc import DynamicC, ObservationStats, RoundStats
from .features import (
    MERGE_FEATURE_NAMES,
    SPLIT_FEATURE_NAMES,
    ClusterFeatures,
    cluster_features,
    features_of_members,
    merged_features,
)
from .merge import MergeOutcome, merge_algorithm
from .model import DynamicCModel, FitReport
from .sampling import sample_negatives
from .split import SplitOutcome, rank_split_candidates, split_algorithm
from .training import (
    RoundSamples,
    TrainingBuffer,
    collect_round_samples,
    select_theta,
)
from .transformation import (
    derive_transformation,
    replay_transformation,
    two_phase_transformation,
)

__all__ = [
    "ClusterFeatures",
    "DBSCANBatchAdapter",
    "DensityObjective",
    "DynamicC",
    "DynamicCConfig",
    "DynamicCModel",
    "EvolutionLog",
    "FitReport",
    "MERGE_FEATURE_NAMES",
    "MergeOp",
    "MergeOutcome",
    "ObservationStats",
    "RoundSamples",
    "RoundStats",
    "SPLIT_FEATURE_NAMES",
    "SplitOp",
    "SplitOutcome",
    "TrainingBuffer",
    "cluster_features",
    "collect_round_samples",
    "derive_transformation",
    "features_of_members",
    "make_dynamic_dbscan",
    "merge_algorithm",
    "merged_features",
    "rank_split_candidates",
    "replay_transformation",
    "sample_negatives",
    "select_theta",
    "split_algorithm",
    "two_phase_transformation",
]
