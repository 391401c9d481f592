"""Multi-label losses over pooled scores and their exact analytic gradients.

Two losses are supported. Plain binary cross-entropy treats every type the
entity is not labeled with as a negative. The false-negative-aware variant
keeps the positive term but weights each negative term by ``beta * p * (1-p)``,
which shrinks the influence both of confident negatives (likely missing true
facts) and of easy ones.

The backward pass differentiates the full composition by hand: loss ->
pooled scores -> softmax pooling (including the dependence of the weights on
their inputs) -> candidate rows -> linear layer -> activation -> neighbor
representations -> embedding rows. A central finite-difference oracle over
every touched scalar parameter verifies it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .scoring import ParameterSet, ScoreBundle, score_neighbor_arrays

__all__ = [
    "GradientSet",
    "sigmoid",
    "softplus",
    "sigmoid_probs",
    "log_sigmoid",
    "log1m_sigmoid",
    "bce_loss",
    "fna_loss",
    "backward",
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


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -softplus(-_as_float(x))


def log1m_sigmoid(x: np.ndarray) -> np.ndarray:
    return -softplus(_as_float(x))


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


def _add_row(rows: dict[int, np.ndarray], idx: int, grad: np.ndarray) -> None:
    if idx in rows:
        rows[idx] = rows[idx] + grad
    else:
        rows[idx] = grad.copy()


def backward(
    bundle: ScoreBundle,
    positives: Iterable[int],
    loss_kind: str = "bce",
    beta: float = 1.0,
) -> tuple[float, GradientSet]:
    """Loss and exact gradients for one scored entity.

    The pooled-score derivative uses the full softmax Jacobian,
    d pooled / d candidate = w * (1 + alpha * (candidate - pooled)),
    so every unmasked candidate receives gradient, not only the maximum.
    """
    params = bundle.params
    pooled = bundle.pooled
    pos_mask = _positive_mask(len(pooled), positives)
    loss, dpooled = _loss_terms(pooled, pos_mask, loss_kind, beta)
    loss = float(loss)

    candidates = bundle.candidate_scores
    weights = bundle.weights
    live_cols = ~np.isneginf(pooled)
    dcand = np.zeros_like(candidates)
    dcand[:, live_cols] = (
        dpooled[live_cols]
        * weights[:, live_cols]
        * (1.0 + bundle.alpha * (candidates[:, live_cols] - pooled[live_cols]))
    )

    grads = GradientSet.zeros_like(params)
    offset = 1 if bundle.has_agg else 0
    dn2t = dcand[offset:]

    # Per-neighbor route: rows share W and b.
    grads.W += dn2t.T @ bundle.activated
    grads.b += dn2t.sum(axis=0)
    dreps = dn2t @ params.W
    if bundle.use_activation:
        dreps = dreps * (bundle.reps > 0)

    if bundle.has_agg:
        dagg = dcand[0]
        h_act = bundle.h_activated
        if params.separate_heads:
            grads.agg_W += np.outer(dagg, h_act)
            grads.agg_b += dagg
        else:
            grads.W += np.outer(dagg, h_act)
            grads.b += dagg
        agg_w, _ = params.agg_head()
        dh = dagg @ agg_w
        if bundle.use_activation:
            dh = dh * (bundle.h > 0)
        dreps = dreps + dh[None, :] / bundle.num_neighbors

    sign = np.where(bundle.inverted, 1.0, -1.0).astype(dreps.dtype)
    for j in range(bundle.num_neighbors):
        g = dreps[j]
        if bundle.target_is_type[j]:
            _add_row(grads.type_rows, int(bundle.target[j]), g)
        else:
            _add_row(grads.entity_rows, int(bundle.target[j]), g)
        _add_row(grads.relation_rows, int(bundle.relation[j]), sign[j] * g)
    return loss, grads


def loss_of_entity(
    params: ParameterSet,
    neighbors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    positives: Iterable[int],
    loss_kind: str,
    beta: float,
    alpha: float,
    mask_labels: Iterable[int] | None = None,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> float:
    """Forward-only loss for one entity; the function the oracle differentiates.

    ``neighbors`` holds the (relation, inverted, target_is_type, target)
    arrays of the scored edges.
    """
    bundle = score_neighbor_arrays(
        params,
        *neighbors,
        alpha,
        mask_labels,
        use_agg2t=use_agg2t,
        use_activation=use_activation,
    )
    pos_mask = _positive_mask(len(bundle.pooled), positives)
    loss, _ = _loss_terms(bundle.pooled, pos_mask, loss_kind, beta)
    return float(loss)


def finite_diff_oracle(
    params: ParameterSet,
    neighbors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    positives: Iterable[int],
    loss_kind: str,
    beta: float,
    step: float = 1e-5,
    *,
    alpha: float,
    mask_labels: Iterable[int] | None = None,
    use_agg2t: bool = True,
    use_activation: bool = True,
) -> GradientSet:
    """Central-difference gradients over every parameter the forward touches.

    Intended for float64 parameter sets; at the default step the truncation
    error is O(step^2).
    """
    positives = list(positives)
    work = params.copy()

    def loss_at() -> float:
        return loss_of_entity(
            work,
            neighbors,
            positives,
            loss_kind,
            beta,
            alpha,
            mask_labels,
            use_agg2t=use_agg2t,
            use_activation=use_activation,
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

    for name, arr in (("W", work.W), ("agg_W", work.agg_W)):
        if arr is None:
            continue
        out = grads.W if name == "W" else grads.agg_W
        for i in range(arr.shape[0]):
            for j in range(arr.shape[1]):
                out[i, j] = diff(arr, (i, j))
    for name, arr in (("b", work.b), ("agg_b", work.agg_b)):
        if arr is None:
            continue
        out = grads.b if name == "b" else grads.agg_b
        for i in range(arr.shape[0]):
            out[i] = diff(arr, i)

    rel, _, is_type, tgt = neighbors
    for rows, table, touched in (
        (grads.entity_rows, work.entity_emb, tgt[~is_type]),
        (grads.type_rows, work.type_emb, tgt[is_type]),
        (grads.relation_rows, work.relation_emb, rel),
    ):
        for row in np.unique(touched).tolist():
            vec = np.zeros(params.k, dtype=table.dtype)
            for j in range(params.k):
                vec[j] = diff(table, (row, j))
            rows[row] = vec
    return grads


def max_relative_error(
    analytic: GradientSet, reference: GradientSet, floor: float = 1e-8
) -> float:
    """Largest elementwise |analytic - reference| / max(|reference|, floor)."""
    worst = 0.0

    def compare(a: np.ndarray, r: np.ndarray) -> float:
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
