"""Candidate type scores and their exponentially weighted pooling.

Each neighbor of a central entity yields an independent score row over all
types (the N2T route); optionally the mean of all neighbor representations
yields one more row (the Agg2T route). The per-type final score is a
softmax-weighted average over the candidate column: a smooth stand-in for
the column maximum whose sharpness is controlled by ``alpha``, chosen so
that every candidate still receives gradient.

A neighbor's representation follows the translation rule ``target - rel``
for forward edges; inverse relations share the forward embedding with a
flipped sign, so inverted edges use ``target + rel``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import AugmentedGraph, Neighbor

__all__ = [
    "ParameterSet",
    "ScoreBundle",
    "AGGREGATION",
    "neighbor_reps",
    "pool",
    "pool_columns",
    "score_all_neighbors",
    "score_neighbor_arrays",
]

AGGREGATION = "aggregation"


@dataclass
class ParameterSet:
    """All trainable tensors of the model.

    ``type_emb`` holds types in their role as neighbor nodes; it is distinct
    from the classifier rows of ``W``, which score types as labels. When
    ``agg_W``/``agg_b`` are None the aggregated route shares the classifier
    of the per-neighbor route.
    """

    entity_emb: np.ndarray  # (num_entities, k)
    relation_emb: np.ndarray  # (num_relations, k); row 0 is has_type
    type_emb: np.ndarray  # (num_types, k)
    W: np.ndarray  # (num_types, k)
    b: np.ndarray  # (num_types,)
    agg_W: np.ndarray | None = None
    agg_b: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.entity_emb.shape[1]

    @property
    def num_types(self) -> int:
        return self.W.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.entity_emb.dtype

    @property
    def separate_heads(self) -> bool:
        return self.agg_W is not None

    def agg_head(self) -> tuple[np.ndarray, np.ndarray]:
        if self.agg_W is not None:
            assert self.agg_b is not None
            return self.agg_W, self.agg_b
        return self.W, self.b

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            entity_emb=self.entity_emb.copy(),
            relation_emb=self.relation_emb.copy(),
            type_emb=self.type_emb.copy(),
            W=self.W.copy(),
            b=self.b.copy(),
            agg_W=None if self.agg_W is None else self.agg_W.copy(),
            agg_b=None if self.agg_b is None else self.agg_b.copy(),
        )

    def astype(self, dtype) -> "ParameterSet":
        return ParameterSet(
            entity_emb=self.entity_emb.astype(dtype),
            relation_emb=self.relation_emb.astype(dtype),
            type_emb=self.type_emb.astype(dtype),
            W=self.W.astype(dtype),
            b=self.b.astype(dtype),
            agg_W=None if self.agg_W is None else self.agg_W.astype(dtype),
            agg_b=None if self.agg_b is None else self.agg_b.astype(dtype),
        )


def target_embeddings(params: ParameterSet, is_type, target) -> np.ndarray:
    """Gather target-node embeddings, mixing the entity and type tables.

    Works for any leading shape of ``is_type``/``target``.
    """
    is_type = np.asarray(is_type)
    target = np.asarray(target)
    ent = params.entity_emb[np.where(is_type, 0, target)]
    typ = params.type_emb[np.where(is_type, target, 0)]
    return np.where(is_type[..., None], typ, ent)


def neighbor_reps(params: ParameterSet, rel, inv, is_type, tgt) -> np.ndarray:
    """Translation representations for a batch of neighbor edges."""
    rel_vec = params.relation_emb[np.asarray(rel)]
    tgt_vec = target_embeddings(params, is_type, tgt)
    inv = np.asarray(inv)
    return np.where(inv[..., None], tgt_vec + rel_vec, tgt_vec - rel_vec)


def _activate(x: np.ndarray, use_activation: bool) -> np.ndarray:
    return np.maximum(x, 0) if use_activation else x


def pool(values, alpha: float) -> tuple[float, np.ndarray]:
    """Exponentially weighted pooling of one candidate column.

    Entries equal to ``-inf`` are masked: they get weight exactly 0 and do
    not enter the softmax. Weights are computed in max-shifted form.
    """
    if alpha <= 0:
        raise ValueError("pooling temperature alpha must be positive")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("pool expects a non-empty 1-d candidate vector")
    live = ~np.isneginf(x)
    if not live.any():
        raise ValueError("all pooling candidates are masked")
    xs = x[live]
    scaled = alpha * xs
    w = np.exp(scaled - scaled.max())
    w /= w.sum()
    weights = np.zeros_like(x)
    weights[live] = w
    return float(w @ xs), weights


def pool_columns(
    scores: np.ndarray, masked: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise pooling of a (rows, types) candidate matrix.

    Masked entries are short-circuited to weight 0 before exponentiation, so
    no -inf arithmetic occurs. Columns with every row masked pool to -inf
    with all-zero weights; such columns carry no information and are dropped
    from the loss downstream.
    """
    scaled = np.where(masked, -np.inf, alpha * scores)
    col_max = scaled.max(axis=0)
    dead = ~np.isfinite(col_max)
    shift = np.where(dead, 0.0, col_max)
    expw = np.exp(scaled - shift)
    denom = expw.sum(axis=0)
    denom = np.where(denom == 0, 1.0, denom)
    weights = expw / denom
    pooled = (weights * scores).sum(axis=0)
    if dead.any():
        pooled = pooled.astype(scores.dtype, copy=True)
        pooled[dead] = -np.inf
    return pooled.astype(scores.dtype, copy=False), weights.astype(scores.dtype, copy=False)


@dataclass
class ScoreBundle:
    """Forward state for one scored entity, kept for backprop and reporting.

    Row 0 of ``candidate_scores`` is the aggregated route when ``has_agg``;
    the remaining rows follow the neighbor order of the arrays. ``masked``
    marks entries excluded from pooling (weight exactly 0).
    """

    relation: np.ndarray  # (m,)
    inverted: np.ndarray  # (m,)
    target_is_type: np.ndarray  # (m,)
    target: np.ndarray  # (m,)
    has_agg: bool
    use_activation: bool
    alpha: float
    reps: np.ndarray  # (m, k)
    activated: np.ndarray  # (m, k)
    h: np.ndarray | None  # (k,)
    h_activated: np.ndarray | None
    candidate_scores: np.ndarray  # (rows, L)
    masked: np.ndarray  # (rows, L) bool
    weights: np.ndarray  # (rows, L)
    pooled: np.ndarray  # (L,)
    params: ParameterSet

    @property
    def num_neighbors(self) -> int:
        return len(self.relation)

    def neighbor(self, i: int) -> Neighbor:
        return Neighbor(
            int(self.relation[i]),
            bool(self.inverted[i]),
            int(self.target[i]),
            bool(self.target_is_type[i]),
        )

    @property
    def sources(self) -> list:
        """Row-aligned source descriptors: AGGREGATION marker, then neighbors."""
        rows: list = [AGGREGATION] if self.has_agg else []
        rows.extend(self.neighbor(i) for i in range(self.num_neighbors))
        return rows


def score_neighbor_arrays(
    params: ParameterSet,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
    alpha: float,
    mask_labels: Iterable[int] | None = None,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> ScoreBundle:
    """Score one entity from its neighbor edges, given as parallel arrays.

    ``mask_labels`` enables the self-evidence mask: every forward has_type
    row is blanked at its own type column, and the aggregated row is blanked
    at the given training labels, so a known type cannot predict itself.
    """
    m = len(rel)
    if m == 0:
        raise ValueError("cannot score an entity with no neighbors")
    reps = neighbor_reps(params, rel, inv, is_type, tgt)
    activated = _activate(reps, use_activation)
    n2t = activated @ params.W.T + params.b

    if use_agg2t:
        h = reps.mean(axis=0)
        h_act = _activate(h, use_activation)
        agg_w, agg_b = params.agg_head()
        agg_row = h_act @ agg_w.T + agg_b
        candidates = np.concatenate([agg_row[None, :], n2t], axis=0)
    else:
        h = h_act = None
        candidates = n2t

    masked = np.zeros(candidates.shape, dtype=bool)
    if mask_labels is not None:
        offset = 1 if use_agg2t else 0
        type_rows = np.nonzero(is_type & ~inv)[0]
        masked[type_rows + offset, tgt[type_rows]] = True
        labels = list(mask_labels)
        if use_agg2t and labels:
            masked[0, labels] = True

    pooled, weights = pool_columns(candidates, masked, alpha)
    return ScoreBundle(
        relation=rel,
        inverted=inv,
        target_is_type=is_type,
        target=tgt,
        has_agg=use_agg2t,
        use_activation=use_activation,
        alpha=alpha,
        reps=reps,
        activated=activated,
        h=h,
        h_activated=h_act,
        candidate_scores=candidates,
        masked=masked,
        weights=weights,
        pooled=pooled,
        params=params,
    )


def score_all_neighbors(
    params: ParameterSet,
    graph: AugmentedGraph,
    entity: int,
    alpha: float,
    mask_labels: Iterable[int] | None = None,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> ScoreBundle:
    """Score one entity using its full neighbor list (the inference path)."""
    neighbors = graph.neighbor_arrays(entity)
    if len(neighbors[0]) == 0:
        raise ValueError(f"entity {entity} is isolated; no neighbors to score")
    return score_neighbor_arrays(
        params, *neighbors, alpha, mask_labels, use_agg2t=use_agg2t, use_activation=use_activation
    )
