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

Scoring one entity allocates a single (rows, types) candidate matrix: the
N2T and Agg2T rows are written into it in place. Pooling streams that
matrix in row chunks through a small scratch buffer (the column max first,
then the exponential sums; see ``pool_columns``), so a hub entity costs one
matrix, not several. Pooling returns the column max and denominator with
the pooled scores, so ``pool_weights`` can derive the weights of any column
slice later; explanations derive only the queried column.

This per-entity forward serves evaluation and explanation, and is the
function the finite-difference oracle differentiates. Training runs its own
batched kernel, ``train.backward``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import AugmentedGraph

__all__ = [
    "ParameterSet",
    "ScoreBundle",
    "neighbor_reps",
    "pool",
    "pool_columns",
    "pool_weights",
    "score_all_neighbors",
    "score_neighbor_arrays",
]

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


# Scratch cells (rows * types) of one row chunk in ``pool_columns``: small
# enough to stay in cache, large enough that the per-chunk Python cost is
# negligible against the arithmetic.
_POOL_CELLS = 1 << 18


def pool_columns(
    scores: np.ndarray, masked: np.ndarray | None, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise pooling of a (rows, types) candidate matrix.

    Returns ``(pooled, col_max, denom)``: the weight of a live entry is
    ``exp(alpha * x - alpha * col_max) / denom`` (``pool_weights`` derives
    them), and ``pooled`` is the weighted column sum. Entries marked in
    ``masked`` (None: none) get weight exactly 0. A column with every row
    masked, or every entry -inf, is dead: it pools to -inf, with ``col_max``
    0 and ``denom`` 1 so that its weights derive as 0, and the loss drops
    it. A NaN or +inf live entry makes its column pool to NaN.

    The matrix is streamed in row chunks of about ``_POOL_CELLS`` cells
    through one scratch buffer, so no other full-size array is allocated:
    one pass takes the column max, one sums the exponentials, and one sums
    the weighted scores, recomputing the exponentials only when the matrix
    spans more than one chunk.
    """
    rows, cols = scores.shape
    step = max(1, _POOL_CELLS // cols)
    chunks = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]
    buf = np.empty((chunks[0].stop, cols), dtype=scores.dtype)
    col_max = np.full(cols, -np.inf, dtype=scores.dtype)
    for c in chunks:
        x = scores[c]
        if masked is not None:
            x = buf[: len(x)]
            np.copyto(x, scores[c])
            x[masked[c]] = -np.inf
        np.maximum(col_max, x.max(axis=0), out=col_max)
    dead = np.isneginf(col_max)
    col_max[dead] = 0
    scaled_max = alpha * col_max

    def exps(c: slice) -> np.ndarray:
        e = buf[: c.stop - c.start]
        np.multiply(scores[c], alpha, out=e)
        e -= scaled_max
        if masked is not None:
            e[masked[c]] = -np.inf
        return np.exp(e, out=e)

    denom = np.zeros(cols, dtype=scores.dtype)
    for c in chunks:
        denom += exps(c).sum(axis=0)
    denom[dead] = 1
    pooled = np.zeros(cols, dtype=scores.dtype)
    for c in chunks:
        e = buf if len(chunks) == 1 else exps(c)
        e /= denom
        e *= scores[c]
        pooled += e.sum(axis=0)
    pooled[dead] = -np.inf
    return pooled, col_max, denom


def pool_weights(
    scores: np.ndarray,
    masked: np.ndarray | None,
    alpha: float,
    col_max: np.ndarray,
    denom: np.ndarray,
) -> np.ndarray:
    """The (rows, types) pooling weights behind ``pool_columns``' result."""
    weights = alpha * scores
    weights -= alpha * col_max
    if masked is not None:
        weights[masked] = -np.inf
    np.exp(weights, out=weights)
    weights /= denom
    return weights


@dataclass
class ScoreBundle:
    """Forward state for one scored entity, kept for ranking and reporting.

    Row 0 of ``candidate_scores`` is the aggregated route when Agg2T is on;
    the remaining rows follow the neighbor order of the arrays. ``masked``
    marks entries excluded from pooling (weight exactly 0); it is None when
    nothing is masked. ``col_max`` and ``denom`` come from ``pool_columns``;
    ``pool_weights`` turns them into the pooling weights of any columns.
    """

    candidate_scores: np.ndarray  # (rows, L)
    masked: np.ndarray | None  # (rows, L) bool
    pooled: np.ndarray  # (L,)
    col_max: np.ndarray  # (L,)
    denom: np.ndarray  # (L,)


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
    offset = 1 if use_agg2t else 0
    dtype = np.result_type(activated, params.W)
    candidates = np.empty((m + offset, params.num_types), dtype=dtype)
    n2t = candidates[offset:]
    np.matmul(activated, params.W.T, out=n2t)
    n2t += params.b

    if use_agg2t:
        agg_w, agg_b = params.agg_head()
        np.matmul(_activate(reps.mean(axis=0), use_activation), agg_w.T, out=candidates[0])
        candidates[0] += agg_b

    masked = None
    if mask_labels is not None:
        masked = np.zeros(candidates.shape, dtype=bool)
        type_rows = np.nonzero(is_type & ~inv)[0]
        masked[type_rows + offset, tgt[type_rows]] = True
        labels = list(mask_labels)
        if use_agg2t and labels:
            masked[0, labels] = True

    pooled, col_max, denom = pool_columns(candidates, masked, alpha)
    return ScoreBundle(candidates, masked, pooled, col_max, denom)


def score_all_neighbors(
    params: ParameterSet,
    graph: AugmentedGraph,
    entity: int,
    alpha: float,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> ScoreBundle:
    """Score one entity using its full neighbor list (the inference path)."""
    neighbors = graph.neighbor_arrays(entity)
    if len(neighbors[0]) == 0:
        raise ValueError(f"entity {entity} is isolated; no neighbors to score")
    return score_neighbor_arrays(
        params, *neighbors, alpha, use_agg2t=use_agg2t, use_activation=use_activation
    )
