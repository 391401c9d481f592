"""Context-aware entity typing over knowledge graphs.

Infers missing (entity, type) memberships by scoring each neighbor of an
entity independently (N2T), optionally scoring the aggregate of all
neighbors (Agg2T), and fusing the candidate scores per type with
exponentially weighted pooling. Known types are injected into the graph as
``has_type`` edges so they can serve as evidence for the missing ones.
"""

from .checkpoint import ChecksumError, load_checkpoint, save_checkpoint
from .data import ParseError, TypingDataset, assemble, load_pairs, load_triples
from .ranking import MetricsReport, evaluate, rank_one
from .explain import Explanation, ExplanationRow, explain, neighbor_profile
from .graph import (
    HAS_TYPE,
    AugmentedGraph,
    EmptyCorpusError,
    Neighbor,
    UnknownNameError,
    Vocab,
    build_graph,
    build_vocab,
)
from .loss import (
    GradientSet,
    bce_loss,
    finite_diff_oracle,
    fna_loss,
    max_relative_error,
    sigmoid_probs,
)
from .optim import AdamState, NumericError, adam_step, init_params
from .kernel import ScoreBundle, score_all_neighbors
from .scoring import ParameterSet, pool
from .train import FitResult, TrainConfig, fit, format_log, sample_neighbors, train_epoch

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AugmentedGraph",
    "ChecksumError",
    "EmptyCorpusError",
    "Explanation",
    "ExplanationRow",
    "FitResult",
    "GradientSet",
    "HAS_TYPE",
    "MetricsReport",
    "Neighbor",
    "NumericError",
    "ParameterSet",
    "ParseError",
    "ScoreBundle",
    "TrainConfig",
    "TypingDataset",
    "UnknownNameError",
    "Vocab",
    "adam_step",
    "assemble",
    "bce_loss",
    "build_graph",
    "build_vocab",
    "evaluate",
    "explain",
    "finite_diff_oracle",
    "fit",
    "fna_loss",
    "format_log",
    "init_params",
    "load_checkpoint",
    "load_pairs",
    "load_triples",
    "max_relative_error",
    "neighbor_profile",
    "pool",
    "rank_one",
    "sample_neighbors",
    "save_checkpoint",
    "score_all_neighbors",
    "sigmoid_probs",
    "train_epoch",
    "__version__",
]
