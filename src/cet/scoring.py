"""Model parameters, neighbor representations, candidate scores and pooling.

Each neighbor of a central entity yields an independent score row over all
types (the N2T route); optionally the mean of all neighbor representations
yields one more row (the Agg2T route). The per-type final score is a
softmax-weighted average over the candidate column: a smooth stand-in for
the column maximum whose sharpness is controlled by ``alpha``, chosen so
that every candidate still receives gradient.

A neighbor's representation follows the translation rule ``target - rel``
for forward edges; inverse relations share the forward embedding with a
flipped sign, so inverted edges use ``target + rel``.

Training and inference score and pool in type blocks, in ``kernel.backward``.
This module keeps the plain forms that check it: ``candidate_matrix`` builds
one entity's (rows, types) candidate scores and the scalar ``pool`` pools
one column. The finite-difference oracle ``loss.loss_of_entity`` runs on
them, and ``explain`` reports one column or one row of them.
``candidate_matrix`` keeps the Agg2T row first (row 0), the order ``explain``
reports and the oracle masks; the kernel puts it last, which pooling does not
see.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["ParameterSet", "candidate_matrix", "neighbor_reps", "pool"]

@dataclass
class ParameterSet:
    """All trainable tensors of the model.

    ``type_emb`` holds types in their role as neighbor nodes; it is distinct
    from the classifier rows of ``W``, which score types as labels. When
    ``agg_W``/``agg_b`` are None the aggregated route shares the classifier
    of the per-neighbor route. Each field's ``shape`` metadata names its
    dimensions; the field order is the checkpoint's tensor order.
    """

    entity_emb: np.ndarray = field(metadata={"shape": ("entities", "k")})
    relation_emb: np.ndarray = field(metadata={"shape": ("relations", "k")})  # row 0 is has_type
    type_emb: np.ndarray = field(metadata={"shape": ("types", "k")})
    W: np.ndarray = field(metadata={"shape": ("types", "k")})
    b: np.ndarray = field(metadata={"shape": ("types",)})
    agg_W: np.ndarray | None = field(default=None, metadata={"shape": ("types", "k")})
    agg_b: np.ndarray | None = field(default=None, metadata={"shape": ("types",)})

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

    def named(self):
        """(name, tensor) of every tensor present, in field order."""
        for f in fields(self):
            if (tensor := getattr(self, f.name)) is not None:
                yield f.name, tensor

    def _map(self, fn) -> "ParameterSet":
        return ParameterSet(**{name: fn(tensor) for name, tensor in self.named()})

    def copy(self) -> "ParameterSet":
        return self._map(np.copy)

    def astype(self, dtype) -> "ParameterSet":
        return self._map(lambda a: a.astype(dtype))


def neighbor_reps(params: ParameterSet, rel, inv, is_type, tgt) -> np.ndarray:
    """Translation representations for a batch of neighbor edges, of any
    leading shape: the target's embedding (entity or type table) minus the
    relation's, plus it for inverted edges."""
    is_type, tgt = np.asarray(is_type), np.asarray(tgt)
    reps = params.entity_emb[np.where(is_type, 0, tgt)]
    reps[is_type] = params.type_emb[tgt[is_type]]
    rel_vec = params.relation_emb[np.asarray(rel)]
    rel_vec[np.asarray(inv)] *= -1  # target + rel is target - (-rel), bit for bit
    reps -= rel_vec
    return reps


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


def candidate_matrix(
    params: ParameterSet, rel, inv, is_type, tgt, *,
    use_agg2t: bool = True, use_activation: bool = True, columns=slice(None),
) -> np.ndarray:
    """One entity's candidate scores: (rows, types), or the ``columns`` given.

    Row 0 is the aggregated route when Agg2T is on; the remaining rows follow
    the neighbor order of the arrays.
    """
    reps = neighbor_reps(params, rel, inv, is_type, tgt)
    scores = _activate(reps, use_activation) @ params.W[columns].T + params.b[columns]
    if not use_agg2t:
        return scores
    agg_w, agg_b = (params.agg_W, params.agg_b) if params.separate_heads else (params.W, params.b)
    agg = _activate(reps.mean(axis=0), use_activation) @ agg_w[columns].T + agg_b[columns]
    return np.vstack([agg, scores])
