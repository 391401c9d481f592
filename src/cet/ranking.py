"""Filtered ranking evaluation: MR, MRR and Hits@1/3/10.

Every entity of a split is scored once with its full neighbor list (no
sampling, no masking), in degree buckets of padded entities, one
forward-only kernel call per bucket; each of its queried types is then
ranked against all types minus the entity's other known types. Ties receive
their mean occupied rank, so evaluation is deterministic without a tie-break
coin flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TypingDataset
from .graph import AugmentedGraph
from .kernel import _degree_buckets, score_all_neighbors
from .scoring import ParameterSet

__all__ = ["MetricsReport", "rank_one", "evaluate"]


@dataclass
class MetricsReport:
    """Aggregate ranking metrics plus the per-sample ranks they came from."""

    mr: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    ranks: list[tuple[int, int, float]] | None = None  # (entity, type, rank)

    def lines(self) -> list[str]:
        return [
            f"mr\t{self.mr:.6f}",
            f"mrr\t{self.mrr:.6f}",
            f"hits1\t{self.hits1:.6f}",
            f"hits3\t{self.hits3:.6f}",
            f"hits10\t{self.hits10:.6f}",
        ]


def rank_one(pooled: np.ndarray, gold: int, filter_types: set[int] | None = None) -> float:
    """Filtered fractional rank of ``gold`` within a score vector.

    Candidates are all types except the filter set minus the gold itself.
    The rank is 1 + (number of strictly greater candidates) + (ties) / 2,
    or NaN when any candidate score is NaN, so a numeric failure never reads
    as a rank.
    """
    scores = np.asarray(pooled)
    if not 0 <= gold < len(scores):
        raise ValueError(f"gold type {gold} out of range [0, {len(scores)})")
    keep = np.ones(len(scores), dtype=bool)
    if filter_types:
        keep[list(filter_types)] = False
    keep[gold] = True
    kept = scores[keep]
    if np.isnan(kept).any():
        return float("nan")
    gold_score = scores[gold]
    greater = int((kept > gold_score).sum())
    ties = int((kept == gold_score).sum()) - 1
    return 1.0 + greater + ties / 2.0


def _metrics(ranks: np.ndarray) -> tuple[float, float, float, float, float]:
    return (
        float(ranks.mean()),
        float((1.0 / ranks).mean()),
        float((ranks <= 1).mean()),
        float((ranks <= 3).mean()),
        float((ranks <= 10).mean()),
    )


def evaluate(
    params: ParameterSet,
    graph: AugmentedGraph,
    dataset: TypingDataset,
    split: str,
    alpha: float,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
    filtered: bool = True,
    keep_ranks: bool = True,
) -> MetricsReport:
    """Rank every (entity, type) pair of a split and aggregate the metrics.

    Entities are scored once and the vector reused for all their queried
    types. They are sorted by degree and cut into the degree buckets of
    mask-mode training (``kernel._degree_buckets``); each bucket is one
    ``score_all_neighbors`` call, the forward-only kernel with its lanes on
    every core, whose pooled rows are ranked as returned. Isolated entities
    (possible only without type edges) fall back to the bias vector. Every
    query of an entity whose pooled scores are not all finite gets rank NaN,
    so a numeric failure makes MR and MRR NaN rather than a wrong number.
    ``filtered=False`` is a debugging mode that skips the known-type removal.
    """
    pairs = dataset.split(split)
    if not pairs:
        raise ValueError(f"split {split!r} is empty")

    by_entity: dict[int, list[int]] = {}
    for idx, (entity, _) in enumerate(pairs):
        by_entity.setdefault(entity, []).append(idx)

    ranks = np.empty(len(pairs))

    def rank_entity(entity: int, pooled: np.ndarray) -> None:
        indices = by_entity[entity]
        if not np.isfinite(pooled).all():
            ranks[indices] = np.nan
            return
        known = dataset.known_types.get(entity) if filtered else None
        for idx in indices:
            ranks[idx] = rank_one(pooled, pairs[idx][1], known)

    scorable = [entity for entity in by_entity if graph.degree(entity) > 0]
    degrees = np.array([graph.degree(entity) for entity in scorable])
    order = np.argsort(degrees, kind="stable")
    for bucket in _degree_buckets(degrees[order]):
        entities = [scorable[i] for i in order[bucket]]
        pooled = score_all_neighbors(
            params, graph, entities, alpha, use_agg2t=use_agg2t, use_activation=use_activation
        ).pooled
        for entity, row in zip(entities, pooled):
            rank_entity(entity, row)
    for entity in by_entity:
        if graph.degree(entity) == 0:
            rank_entity(entity, params.b)

    mr, mrr, hits1, hits3, hits10 = _metrics(ranks)
    per_sample = None
    if keep_ranks:
        per_sample = [(entity, gold, float(rank)) for (entity, gold), rank in zip(pairs, ranks)]
    return MetricsReport(mr=mr, mrr=mrr, hits1=hits1, hits3=hits3, hits10=hits10, ranks=per_sample)
