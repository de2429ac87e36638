"""Weighted rank fusion and ensemble selection for top-N recommenders."""

__version__ = "0.1.0"

from recfuse.core import (
    FoldSplit,
    IdIndex,
    Interaction,
    InteractionDataset,
    ModelWeights,
    PredictionMatrix,
    ScoredItem,
)
from recfuse.metrics import dcg, idcg, ndcg_model, ndcg_user
from recfuse.fusion import FusedList, fuse_all, fuse_user, normalize_scores
from recfuse.selection import (
    SelectionTrace,
    compute_weights,
    evaluate_ensemble,
    exhaustive_select,
    greedy_select,
)
from recfuse.harness import ExperimentConfig, confidence_interval, pct_vs_ppl, run_experiment

__all__ = [
    "ExperimentConfig",
    "FoldSplit",
    "FusedList",
    "IdIndex",
    "Interaction",
    "InteractionDataset",
    "ModelWeights",
    "PredictionMatrix",
    "ScoredItem",
    "SelectionTrace",
    "compute_weights",
    "confidence_interval",
    "dcg",
    "evaluate_ensemble",
    "exhaustive_select",
    "fuse_all",
    "fuse_user",
    "greedy_select",
    "idcg",
    "ndcg_model",
    "ndcg_user",
    "normalize_scores",
    "pct_vs_ppl",
    "run_experiment",
]
