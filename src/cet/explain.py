"""Interpretable inference reports.

For an (entity, type) query, every information source that fed the pooled
score is listed with its candidate score and pooling weight: one row per
neighbor plus one "Aggregation" row for the mean-of-neighbors route. A
second view profiles a single neighbor: the types it argues for most
strongly on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AugmentedGraph, Vocab
from .scoring import ParameterSet, candidate_matrix, pool

__all__ = [
    "ExplanationRow",
    "Explanation",
    "explain",
    "neighbor_profile",
    "source_label",
    "format_explanation",
    "explanation_tsv",
]

AGGREGATION_LABEL = "Aggregation"


@dataclass(frozen=True)
class ExplanationRow:
    source: str
    score: float
    weight: float


@dataclass
class Explanation:
    """Ranked information sources behind one (entity, type) score."""

    entity: str
    type_name: str
    pooled_score: float
    rows: list[ExplanationRow]


def source_label(vocab: Vocab, rel: int, inv: bool, is_type: bool, tgt: int) -> str:
    """Human-readable "(relation, target)" label for a neighbor edge."""
    relation = vocab.relation_names[rel]
    if inv:
        relation = f"inverse of {relation}"
    target = vocab.type_names[tgt] if is_type else vocab.entity_names[tgt]
    return f"({relation}, {target})"


def explain(
    params: ParameterSet,
    graph: AugmentedGraph,
    vocab: Vocab,
    entity: str,
    type_name: str,
    alpha: float,
    top_k: int = 3,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> Explanation:
    """Rank all information sources for one (entity, type) query.

    Scores every neighbor, unmasked, for the queried type only, and pools
    that column with ``pool``, so the pooled score shown here is the one
    evaluation ranks with, up to float rounding: NaN when any candidate is not
    finite, with NaN weights when every candidate is -inf. ``top_k`` larger
    than the number of sources returns them all.
    """
    entity_id = vocab.id_of("entity", entity)
    type_id = vocab.id_of("type", type_name)
    neighbors = graph.neighbor_arrays(entity_id)
    if len(neighbors[0]) == 0:
        raise ValueError(f"entity {entity_id} is isolated; no neighbors to score")
    scores = candidate_matrix(
        params, *neighbors, use_agg2t=use_agg2t, use_activation=use_activation,
        columns=[type_id],
    )[:, 0]
    if np.isneginf(scores).all():
        # A diverged model, not a mask: nothing is left for ``pool`` to weigh.
        pooled_score, weights = np.nan, np.full(len(scores), np.nan)
    else:
        pooled_score, weights = pool(scores, alpha)
    if not np.isfinite(scores).all():
        pooled_score = np.nan  # as evaluation pools it; ``pool`` would mask a -inf
    labels = [AGGREGATION_LABEL] if use_agg2t else []
    labels += [source_label(vocab, *edge) for edge in zip(*(a.tolist() for a in neighbors))]
    order = np.argsort(-scores, kind="stable")
    rows = [
        ExplanationRow(labels[i], float(scores[i]), float(weights[i]))
        for i in order[: max(top_k, 0)]
    ]
    return Explanation(
        entity=entity,
        type_name=type_name,
        pooled_score=pooled_score,
        rows=rows,
    )


def neighbor_profile(
    params: ParameterSet,
    vocab: Vocab,
    edge: tuple[int, bool, bool, int],
    top_k: int = 3,
    *,
    use_activation: bool = True,
) -> list[tuple[str, float]]:
    """Types most strongly indicated by one (relation, inverted, target_is_type, target) edge."""
    if top_k <= 0:
        return []
    scores = candidate_matrix(
        params, *(np.array([v]) for v in edge), use_agg2t=False, use_activation=use_activation
    )[0]
    order = np.argsort(-scores, kind="stable")[:top_k]
    return [(vocab.type_names[i], float(scores[i])) for i in order]


def format_explanation(expl: Explanation) -> str:
    lines = [
        f"entity\t{expl.entity}",
        f"type\t{expl.type_name}",
        f"pooled_score\t{expl.pooled_score:.6f}",
        "",
        "rank\tsource\tscore\tweight",
    ]
    for rank, row in enumerate(expl.rows, start=1):
        lines.append(f"{rank}\t{row.source}\t{row.score:.6f}\t{row.weight:.6f}")
    return "\n".join(lines) + "\n"


def explanation_tsv(expl: Explanation) -> str:
    lines = [
        f"{rank}\t{row.source}\t{row.score:.6f}\t{row.weight:.6f}"
        for rank, row in enumerate(expl.rows, start=1)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
