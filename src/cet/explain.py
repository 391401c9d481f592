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

from .graph import AugmentedGraph, Neighbor, Vocab
from .scoring import ParameterSet, pool_weights, score_all_neighbors, score_neighbor_arrays

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


def source_label(vocab: Vocab, nb: Neighbor) -> str:
    """Human-readable "(relation, target)" label for a neighbor edge."""
    relation = vocab.relation_names[nb.relation]
    if nb.inverted:
        relation = f"inverse of {relation}"
    target = (
        vocab.type_names[nb.target] if nb.target_is_type else vocab.entity_names[nb.target]
    )
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

    Uses the unmasked all-neighbors inference path, so the pooled score
    shown here matches evaluation. ``top_k`` larger than the number of
    sources returns them all.
    """
    entity_id = vocab.entity(entity)
    type_id = vocab.type(type_name)
    bundle = score_all_neighbors(
        params,
        graph,
        entity_id,
        alpha,
        use_agg2t=use_agg2t,
        use_activation=use_activation,
    )
    # Weights of the queried column only, not of the whole candidate matrix.
    col = slice(type_id, type_id + 1)
    scores = bundle.candidate_scores[:, type_id]
    weights = pool_weights(
        bundle.candidate_scores[:, col], None, alpha, bundle.col_max[col], bundle.denom[col]
    )[:, 0]
    rel, inv, is_type, tgt = (a.tolist() for a in graph.neighbor_arrays(entity_id))
    labels = [AGGREGATION_LABEL] if use_agg2t else []
    labels += [source_label(vocab, Neighbor(*edge)) for edge in zip(rel, inv, tgt, is_type)]
    order = np.argsort(-scores, kind="stable")
    rows = [
        ExplanationRow(labels[i], float(scores[i]), float(weights[i]))
        for i in order[: max(top_k, 0)]
    ]
    return Explanation(
        entity=entity,
        type_name=type_name,
        pooled_score=float(bundle.pooled[type_id]),
        rows=rows,
    )


def neighbor_profile(
    params: ParameterSet,
    vocab: Vocab,
    nb: Neighbor,
    top_k: int = 3,
    *,
    use_activation: bool = True,
) -> list[tuple[str, float]]:
    """Types most strongly indicated by a single neighbor, best first."""
    if top_k <= 0:
        return []
    edge = (nb.relation, nb.inverted, nb.target_is_type, nb.target)
    # One N2T row and no Agg2T row: pooling returns the row at any alpha.
    bundle = score_neighbor_arrays(
        params, *(np.array([v]) for v in edge), 1.0, use_agg2t=False, use_activation=use_activation
    )
    scores = bundle.candidate_scores[0]
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
