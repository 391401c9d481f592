"""Multi-label losses over pooled scores, and the finite-difference oracle.

Two losses are supported. Plain binary cross-entropy treats every type the
entity is not labeled with as a negative. The false-negative-aware variant
keeps the positive term but weights each negative term by ``beta * p * (1-p)``,
which shrinks the influence both of confident negatives (likely missing true
facts) and of easy ones.

``_loss_terms`` gives each loss together with its derivative in the pooled
scores; the batch kernel ``kernel.backward`` carries that derivative by hand
through the softmax pooling, the classifier, the activation and the
neighbor representations to the embedding rows. ``finite_diff_oracle``
verifies that kernel: it takes central differences, over every touched
scalar parameter, of ``loss_of_entity``. That forward takes the unmasked
candidate matrix of the reference forward ``scoring.candidate_matrix``,
applies the mask-mode self-evidence mask itself, and pools each column with
the scalar ``scoring.pool``, so it shares no masking or pooling code with the
kernel.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .scoring import ParameterSet, candidate_matrix, pool

__all__ = [
    "GradientSet",
    "sigmoid",
    "softplus",
    "sigmoid_probs",
    "bce_loss",
    "fna_loss",
    "finite_diff_oracle",
    "max_relative_error",
]

LOSS_KINDS = ("bce", "fna")


def _as_float(x) -> np.ndarray:
    """``x`` as an array, keeping a floating dtype and promoting others to float64."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(float)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), overflow-safe, in the input's float dtype."""
    x = _as_float(x)
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable on both tails, in the input's float dtype."""
    x = _as_float(x)
    t = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + t)
    return np.where(x >= 0, r, t * r)


def sigmoid_probs(pooled: np.ndarray) -> np.ndarray:
    """Per-type membership probabilities from pooled scores."""
    return sigmoid(pooled)


def _positive_mask(num_types: int, positives: Iterable[int]) -> np.ndarray:
    mask = np.zeros(num_types, dtype=bool)
    idx = list(positives)
    if idx:
        mask[idx] = True
    return mask


def _loss_terms(
    pooled: np.ndarray, positives, loss_kind: str, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row loss and d(loss)/d(pooled) over the last (type) axis.

    ``pooled`` is (..., L); ``positives`` indexes its positive entries, as a
    boolean mask of the same shape or a tuple of index arrays. The loss has
    the leading shape and both results keep the input's float dtype.
    Positive columns contribute -log p; negative columns contribute
    -log(1-p), weighted by beta*p*(1-p) for the false-negative-aware loss.
    -inf (fully masked) entries contribute neither loss nor gradient; a NaN
    entry makes the loss NaN.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    x = _as_float(pooled)
    live = ~np.isneginf(x)
    all_live = bool(live.all())
    if not all_live:
        x = np.where(live, x, 0)
    p = sigmoid(x)
    sp = softplus(x)  # -log(1-p)
    # Every column is first taken as a negative; the few positives are
    # overwritten after.
    if loss_kind == "bce":
        terms, grad = sp, p
    else:
        weight = beta * p * (1.0 - p)
        terms = weight * sp
        grad = weight * (p + (1.0 - 2.0 * p) * sp)
    grad[positives] = p[positives] - 1.0
    terms[positives] = softplus(-x[positives])
    if not all_live:
        terms[~live] = 0
        grad[~live] = 0
    return terms.sum(axis=-1), grad


def bce_loss(pooled: np.ndarray, positives: Iterable[int]) -> float:
    """Binary cross-entropy over all types; non-positives count as negatives."""
    pos_mask = _positive_mask(len(pooled), positives)
    loss, _ = _loss_terms(pooled, pos_mask, "bce", 0.0)
    return float(loss)


def fna_loss(pooled: np.ndarray, positives: Iterable[int], beta: float) -> float:
    """False-negative-aware loss: negatives down-weighted by beta*p*(1-p)."""
    pos_mask = _positive_mask(len(pooled), positives)
    loss, _ = _loss_terms(pooled, pos_mask, "fna", beta)
    return float(loss)


@dataclass
class GradientSet:
    """Dense classifier gradients plus sparse per-row embedding gradients.

    Sparse maps only ever hold rows referenced in the forward pass that
    produced them.
    """

    W: np.ndarray
    b: np.ndarray
    agg_W: np.ndarray | None = None
    agg_b: np.ndarray | None = None
    entity_rows: dict[int, np.ndarray] = field(default_factory=dict)
    relation_rows: dict[int, np.ndarray] = field(default_factory=dict)
    type_rows: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def zeros_like(cls, params: ParameterSet) -> "GradientSet":
        return cls(
            W=np.zeros_like(params.W),
            b=np.zeros_like(params.b),
            agg_W=None if params.agg_W is None else np.zeros_like(params.agg_W),
            agg_b=None if params.agg_b is None else np.zeros_like(params.agg_b),
        )

    def named_dense(self):
        yield "W", self.W
        yield "b", self.b
        if self.agg_W is not None:
            yield "agg_W", self.agg_W
            yield "agg_b", self.agg_b

    def named_sparse(self):
        yield "entity_emb", self.entity_rows
        yield "relation_emb", self.relation_rows
        yield "type_emb", self.type_rows


def loss_of_entity(
    params: ParameterSet,
    neighbors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    positives: Iterable[int],
    loss_kind: str,
    beta: float,
    alpha: float,
    self_mask: bool = False,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> float:
    """Forward-only loss for one entity; the function the oracle differentiates.

    ``neighbors`` holds the (relation, inverted, target_is_type, target)
    arrays of the scored edges. ``self_mask`` applies the self-evidence mask
    of mask-mode training: every forward has_type row is blanked (set to
    -inf) at its own type and the Agg2T row at the positives, so a known
    type cannot predict itself. Each column is pooled by ``pool``; a column
    with every entry blanked pools to -inf, which the loss drops.
    """
    positives = list(positives)
    scores = candidate_matrix(
        params, *neighbors, use_agg2t=use_agg2t, use_activation=use_activation
    )
    if self_mask:
        _, inv, is_type, tgt = neighbors
        own = np.flatnonzero(is_type & ~inv)
        scores[own + (1 if use_agg2t else 0), tgt[own]] = -np.inf
        if use_agg2t:
            scores[0, positives] = -np.inf
    pooled = np.array(
        [-np.inf if np.isneginf(col).all() else pool(col, alpha)[0] for col in scores.T]
    )
    loss, _ = _loss_terms(pooled, _positive_mask(len(pooled), positives), loss_kind, beta)
    return float(loss)


def finite_diff_oracle(
    params: ParameterSet,
    entities: list[tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], Iterable[int]]],
    loss_kind: str,
    beta: float,
    step: float = 1e-5,
    *,
    alpha: float,
    self_mask: bool = False,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> GradientSet:
    """Central-difference gradients of a batch's summed loss.

    ``entities`` lists one (neighbors, positives) pair per entity, each
    scored on its own by ``loss_of_entity``; with ``self_mask`` every entity
    is masked at its own positives, as in mask-mode training. Every
    parameter the forward touches is differentiated. Intended for float64
    parameter sets; at the default step the truncation error is O(step^2).
    """
    entities = [(neighbors, list(positives)) for neighbors, positives in entities]
    routes = dict(use_agg2t=use_agg2t, use_activation=use_activation)
    work = params.copy()

    def loss_at() -> float:
        return sum(
            loss_of_entity(work, neighbors, positives, loss_kind, beta, alpha, self_mask,
                           **routes)
            for neighbors, positives in entities
        )

    def diff(arr: np.ndarray, index) -> float:
        orig = arr[index]
        arr[index] = orig + step
        up = loss_at()
        arr[index] = orig - step
        down = loss_at()
        arr[index] = orig
        return (up - down) / (2.0 * step)

    grads = GradientSet.zeros_like(params)
    for name, out in grads.named_dense():
        table = getattr(work, name)
        for index in np.ndindex(table.shape):
            out[index] = diff(table, index)

    rel, _, is_type, tgt = (np.concatenate(a) for a in zip(*(n for n, _ in entities)))
    for rows, table, touched in (
        (grads.entity_rows, work.entity_emb, tgt[~is_type]),
        (grads.type_rows, work.type_emb, tgt[is_type]),
        (grads.relation_rows, work.relation_emb, rel),
    ):
        for row in np.unique(touched).tolist():
            rows[row] = np.array([diff(table, (row, j)) for j in range(params.k)])
    return grads


def max_relative_error(
    analytic: GradientSet, reference: GradientSet, floor: float = 1e-8
) -> float:
    """Largest elementwise |analytic - reference| / max(|reference|, floor), or
    inf when any compared entry of either is not finite."""
    worst = 0.0

    def compare(a: np.ndarray, r: np.ndarray) -> float:
        if not (np.isfinite(a).all() and np.isfinite(r).all()):
            return np.inf  # max() would pass over a NaN
        denom = np.maximum(np.abs(r), floor)
        return float((np.abs(a - r) / denom).max()) if a.size else 0.0

    for (_, a), (_, r) in zip(analytic.named_dense(), reference.named_dense()):
        worst = max(worst, compare(a, r))
    for (_, a_rows), (_, r_rows) in zip(analytic.named_sparse(), reference.named_sparse()):
        for row in set(a_rows) | set(r_rows):
            a = a_rows.get(row)
            r = r_rows.get(row)
            if a is None:
                a = np.zeros_like(r)
            if r is None:
                r = np.zeros_like(a)
            worst = max(worst, compare(a, r))
    return worst
