"""Filtered ranking evaluation: MR, MRR and Hits@1/3/10.

Every entity of a split is scored once with its full neighbor list (no
sampling, no masking), in degree buckets of padded entities, one
forward-only kernel call per bucket, the buckets spread over the cores one
per thread; each of its queried types is then ranked against all types
minus the entity's other known types. Ties receive
their mean occupied rank, so evaluation is deterministic without a tie-break
coin flip. A bucket's queries are ranked together against its pooled block:
two comparisons of every row with its gold scores count the greater and
tied types, and the known types are taken back out of the counts through
flat (query, type) pairs. ``rank_one`` ranks one query the plain way; the
tests check the bucket ranking against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import TypingDataset, _flat_pairs
from . import kernel
from .graph import AugmentedGraph
from .kernel import _bucket_rows, _degree_buckets, score_all_neighbors
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
        names = ("mr", "mrr", "hits1", "hits3", "hits10")
        return [f"{name}\t{getattr(self, name):.6f}" for name in names]


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
    types. They are cut into the degree buckets of mask-mode training
    (``kernel._degree_buckets``), and each bucket is one lane of
    ``kernel._run_lanes``, largest padded bucket first: up to
    ``kernel._THREADS`` threads take the next bucket as they come free, each
    in one slab of its own for the whole pass. A thread scores its bucket
    with one forward-only ``score_all_neighbors`` call and ranks the block as
    returned, all its queries at once into their own slots, so at most one
    block per thread exists at a time. Isolated entities (possible only
    without type edges) fall back to the bias vector, ranked the same way.
    Every query of an entity whose pooled scores are not all finite gets rank
    NaN, so a numeric failure makes MR and MRR NaN rather than a wrong number.
    ``filtered=False`` is a debugging mode that skips the known-type removal.
    """
    pairs = dataset.split(split)
    if not pairs:
        raise ValueError(f"split {split!r} is empty")

    by_entity: dict[int, list[int]] = {}
    for idx, (entity, _) in enumerate(pairs):
        by_entity.setdefault(entity, []).append(idx)
    gold_types = np.array([gold for _, gold in pairs], dtype=np.int64)
    ranks = np.empty(len(pairs))

    def rank_rows(entities: list[int], pooled: np.ndarray) -> None:
        """Rank every query of ``entities`` against its entity's row of ``pooled``."""
        rows, idx = _flat_pairs([by_entity[entity] for entity in entities])
        golds = gold_types[idx]
        gold = pooled[rows, golds]
        greater, ties = np.empty((2, len(idx)), dtype=np.int64)
        # The queries' rows are compared a kernel block's worth of cells at a
        # time, so ranking adds no (queries, types) array to the bucket's own.
        step = max(1, kernel._CELLS // pooled.shape[1])
        for lo in range(0, len(idx), step):
            part = slice(lo, lo + step)
            scores, against = pooled[rows[part]], gold[part, None]
            greater[part] = np.count_nonzero(scores > against, axis=1)
            ties[part] = np.count_nonzero(scores == against, axis=1)
        ties -= 1  # less the gold itself
        if filtered:
            # The (query, type) pairs of each query's other known types,
            # taken back out of the counts.
            known = [dataset.known_types.get(entity, ()) for entity in entities]
            pair_q, pair_t = _flat_pairs([known[row] for row in rows.tolist()])
            other = pair_t != golds[pair_q]
            pair_q, pair_t = pair_q[other], pair_t[other]
            known_scores = pooled[rows[pair_q], pair_t]
            greater -= np.bincount(pair_q[known_scores > gold[pair_q]], minlength=len(idx))
            ties -= np.bincount(pair_q[known_scores == gold[pair_q]], minlength=len(idx))
        rank = 1.0 + greater + ties / 2.0
        rank[~np.isfinite(pooled).all(axis=1)[rows]] = np.nan
        ranks[idx] = rank

    routes = dict(use_agg2t=use_agg2t, use_activation=use_activation)

    def score_and_rank(entities: list[int], lane: int, slab: np.ndarray) -> None:
        bundle = score_all_neighbors(params, graph, entities, alpha, slab=slab, **routes)
        rank_rows(entities, bundle.pooled)

    queried = np.fromiter(by_entity, dtype=np.int64, count=len(by_entity))
    degrees = graph.degrees(queried)
    scorable, scored_degrees = queried[degrees > 0], degrees[degrees > 0]
    # Largest padded bucket first, one lane each: no thread ends the pass on a big one.
    rows = partial(_bucket_rows, scored_degrees)
    buckets = sorted(_degree_buckets(scored_degrees), key=rows, reverse=True)
    if buckets:
        new_slab = partial(kernel._slab, rows(buckets[0]), params.num_types, params.dtype)
        lanes = [scorable[b].tolist() for b in buckets]
        kernel._run_lanes(lanes, score_and_rank, len(lanes), new_slab)
    isolated = queried[degrees == 0].tolist()
    if isolated:
        rank_rows(isolated, np.broadcast_to(params.b, (len(isolated), len(params.b))))

    mr, mrr, hits1, hits3, hits10 = _metrics(ranks)
    per_sample = None
    if keep_ranks:
        per_sample = [(entity, gold, float(rank)) for (entity, gold), rank in zip(pairs, ranks)]
    kernel._malloc_trim(0)  # the pass's free pages, wherever they lie in the heap
    return MetricsReport(mr=mr, mrr=mrr, hits1=hits1, hits3=hits3, hits10=hits10, ranks=per_sample)
