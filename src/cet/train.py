"""Minibatch training: neighbor sampling, epoch loop, periodic validation.

Training iterates over entities that have at least one training label and at
least one neighbor. In the default mode each entity is scored from a fixed
number of neighbors drawn uniformly with replacement; the alternative mask
mode scores from all neighbors and blanks self-revealing candidates instead.
One Adam step is taken per batch on the batch-summed gradients.

Sampled batches are uniform in shape, so their forward/backward runs through
a vectorized kernel; a per-entity reference path covers mask mode and serves
as the correctness anchor for the kernel. Pooling is a softmax over each type
column and both losses are sums over type columns, so the kernel walks the
types in blocks: each block is scored, pooled, differentiated and written to
its own rows of the classifier gradients before the next one starts. Only the
neighbor-representation gradient accumulates across blocks. Memory per batch
is therefore bounded by the block, not by the number of types, and all
arithmetic stays in the parameters' dtype (float32 in training, float64 under
gradient checking). The block holds about ``_CELLS`` candidate cells.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .data import TypingDataset
from .ranking import evaluate
from .graph import AugmentedGraph, Neighbor, Vocab
from .loss import GradientSet, _loss_terms, backward
from .optim import AdamState, NumericError, adam_step, init_params
from .scoring import ParameterSet, neighbor_reps, score_all_neighbors

log = logging.getLogger(__name__)

__all__ = ["TrainConfig", "FitResult", "sample_neighbors", "train_epoch", "fit", "format_log"]


@dataclass
class TrainConfig:
    """Hyperparameters and architecture toggles for one training run."""

    dim: int = 100
    alpha: float = 0.5
    beta: float = 4.0
    lr: float = 0.001
    batch_size: int = 128
    sample_size: int = 10
    max_epochs: int = 1000
    eval_every: int = 25
    loss_kind: str = "fna"
    use_agg2t: bool = True
    use_tan: bool = True
    mask_mode: bool = False
    use_activation: bool = True
    separate_heads: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.alpha <= 0 or self.lr <= 0:
            raise ValueError("dim, alpha and lr must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.batch_size < 1 or self.sample_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size, sample_size and eval_every must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.loss_kind not in ("bce", "fna"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def sample_neighbors(
    graph: AugmentedGraph, entity: int, sample_size: int, rng: np.random.Generator
) -> list[Neighbor]:
    """Draw ``sample_size`` neighbors i.i.d. uniformly with replacement."""
    degree = graph.degree(entity)
    if degree == 0:
        raise ValueError(f"entity {entity} is isolated; cannot sample neighbors")
    idx = rng.integers(0, degree, size=sample_size)
    rel, inv, is_type, tgt = graph.neighbor_arrays(entity)
    return [
        Neighbor(int(rel[i]), bool(inv[i]), int(tgt[i]), bool(is_type[i])) for i in idx
    ]


def _positive_pairs(
    entities: list[int], dataset: TypingDataset
) -> tuple[np.ndarray, np.ndarray]:
    """(batch row, type) pairs of the entities' training labels, unique and ordered by type."""
    labels = [dataset.positives(entity) for entity in entities]
    rows = np.repeat(np.arange(len(entities)), [len(types) for types in labels])
    cols = np.fromiter(itertools.chain.from_iterable(labels), dtype=np.int64, count=len(rows))
    key = np.unique(cols * len(entities) + rows)
    return key % len(entities), key // len(entities)


# Candidate cells (batch * candidate rows * types) in one type block of the
# sampled kernel, which sets the block width; the kernel's working slabs
# scale with it.
_CELLS = 1 << 19


def _batch_forward_backward(
    params: ParameterSet,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
    positives: tuple[np.ndarray, np.ndarray],
    alpha: float,
    loss_kind: str,
    beta: float,
    use_agg2t: bool,
    use_activation: bool,
) -> tuple[np.ndarray, GradientSet]:
    """Vectorized loss + gradients for a uniform sampled batch.

    Array arguments have shape (batch, sample_size); ``positives`` holds the
    (batch row, type) index pairs of the labels, ordered by type, as
    ``_positive_pairs`` builds them. Types are processed in blocks (see the
    module docstring); only ``dreps`` and ``dh`` sum across blocks. Mirrors
    the per-entity backward exactly, up to float summation order.
    """
    batch, m = rel.shape
    num_types = params.num_types
    reps = neighbor_reps(params, rel, inv, is_type, tgt)  # (B, m, k)
    activated = np.maximum(reps, 0) if use_activation else reps
    flat_z = activated.reshape(batch * m, -1)
    # Scores are kept as s = alpha * (x - b): the column bias b shifts every
    # row of a column alike and cancels in the softmax weights, so the
    # weights are exp(s - max s), pooled = mean_w(s) / alpha + b, and
    # 1 + alpha * (x - pooled) = s + 1 - mean_w(s).
    scaled_z = alpha * flat_z
    if use_agg2t:
        h = reps.mean(axis=1)  # (B, k)
        h_act = np.maximum(h, 0) if use_activation else h
        scaled_h = alpha * h_act
        agg_w, agg_b = params.agg_head()
    rows = m + 1 if use_agg2t else m
    width = max(1, _CELLS // (batch * rows))

    grads = GradientSet.zeros_like(params)
    if use_agg2t:
        agg_gw = grads.agg_W if params.separate_heads else grads.W
        dh = np.zeros_like(h)
    losses = np.zeros(batch)
    pos_rows, pos_cols = positives
    dreps = np.zeros_like(flat_z)
    slab = np.empty((2, batch * m * min(width, num_types)), dtype=flat_z.dtype)
    for s in range(0, num_types, width):
        e = min(s + width, num_types)
        score, expw = (buf[: batch * m * (e - s)].reshape(batch * m, e - s) for buf in slab)
        score3, expw3 = score.reshape(batch, m, e - s), expw.reshape(batch, m, e - s)
        w_blk = params.W[s:e]
        np.matmul(scaled_z, w_blk.T, out=score)
        top = score3.max(axis=1)  # (B, cols)
        if use_agg2t:
            agg = scaled_h @ agg_w[s:e].T
            if params.separate_heads:
                agg += alpha * (agg_b[s:e] - params.b[s:e])
            np.maximum(top, agg, out=top)
            agg_exp = np.exp(agg - top)
        np.subtract(score3, top[:, None, :], out=expw3)
        np.exp(expw, out=expw)
        denom = expw3.sum(axis=1)
        score *= expw
        mean_s = score3.sum(axis=1)
        if use_agg2t:
            denom += agg_exp
            mean_s += agg_exp * agg
        mean_s /= denom

        lo, hi = np.searchsorted(pos_cols, (s, e))
        block_loss, dpooled = _loss_terms(
            mean_s / alpha + params.b[s:e],
            (pos_rows[lo:hi], pos_cols[lo:hi] - s),
            loss_kind,
            beta,
        )
        losses += block_loss
        # d(loss)/d(x) = dpooled * w * (1 + alpha * (x - pooled))
        #              = (dpooled / denom) * exp(s - max s) * (s + 1 - mean_w(s)).
        gain = dpooled / denom
        shift = 1.0 - mean_s
        expw3 *= shift[:, None, :]
        expw += score
        expw3 *= gain[:, None, :]
        dn2t = expw  # d(loss)/d(N2T score), (B*m, cols)
        np.matmul(dn2t.T, flat_z, out=grads.W[s:e])
        dreps += dn2t @ w_blk
        # A bias shared by every row of a column moves the pooled score one
        # for one, so its gradient is the batch sum of dpooled.
        grads.b[s:e] = dpooled.sum(axis=0)
        if use_agg2t:
            agg += shift
            agg *= agg_exp
            agg *= gain  # d(loss)/d(Agg2T score), (B, cols)
            agg_gw[s:e] += agg.T @ h_act
            dh += agg @ agg_w[s:e]
            if params.separate_heads:
                grads.agg_b[s:e] = agg.sum(axis=0)
                grads.b[s:e] -= grads.agg_b[s:e]

    dreps = dreps.reshape(batch, m, -1)
    if use_activation:
        dreps *= reps > 0
    if use_agg2t:
        if use_activation:
            dh *= h > 0
        dreps += dh[:, None, :] / m

    sign = np.where(inv, 1.0, -1.0).astype(dreps.dtype)
    drel = dreps * sign[..., None]

    def scatter(rows: dict[int, np.ndarray], idx: np.ndarray, grad: np.ndarray) -> None:
        if idx.size == 0:
            return
        uniq, inverse = np.unique(idx, return_inverse=True)
        acc = np.zeros((len(uniq), grad.shape[-1]), dtype=grad.dtype)
        np.add.at(acc, inverse, grad)
        for pos, row in enumerate(uniq.tolist()):
            if row in rows:
                rows[row] = rows[row] + acc[pos]
            else:
                rows[row] = acc[pos]

    flat_is_type = is_type.ravel()
    flat_tgt = tgt.ravel()
    flat_dreps = dreps.reshape(batch * m, -1)
    scatter(grads.entity_rows, flat_tgt[~flat_is_type], flat_dreps[~flat_is_type])
    scatter(grads.type_rows, flat_tgt[flat_is_type], flat_dreps[flat_is_type])
    scatter(grads.relation_rows, rel.ravel(), drel.reshape(batch * m, -1))
    return losses, grads


def _trainable_entities(graph: AugmentedGraph, dataset: TypingDataset) -> tuple[list[int], int]:
    trainable = []
    skipped = 0
    for entity in sorted(dataset.train_types):
        if graph.degree(entity) > 0:
            trainable.append(entity)
        else:
            skipped += 1
    return trainable, skipped


def train_epoch(
    params: ParameterSet,
    state: AdamState,
    graph: AugmentedGraph,
    dataset: TypingDataset,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass over all trainable entities; returns the mean loss."""
    trainable, _ = _trainable_entities(graph, dataset)
    if not trainable:
        raise ValueError("no trainable entities: every labeled entity is isolated")
    order = rng.permutation(len(trainable))
    total_loss = 0.0
    count = 0

    for start in range(0, len(order), config.batch_size):
        batch = [trainable[i] for i in order[start : start + config.batch_size]]
        if config.mask_mode:
            losses, grads = _masked_batch(params, graph, dataset, batch, config)
        else:
            losses, grads = _sampled_batch(params, graph, dataset, batch, config, rng)
        if not np.isfinite(losses).all():
            bad = batch[int(np.nonzero(~np.isfinite(losses))[0][0])]
            raise NumericError(f"non-finite loss for entity {bad}")
        adam_step(params, state, grads)
        total_loss += float(losses.sum())
        count += len(batch)
    return total_loss / count


def _sampled_batch(params, graph, dataset, batch, config, rng):
    m = config.sample_size
    rel = np.empty((len(batch), m), dtype=np.int32)
    inv = np.empty((len(batch), m), dtype=bool)
    is_type = np.empty((len(batch), m), dtype=bool)
    tgt = np.empty((len(batch), m), dtype=np.int32)
    for row, entity in enumerate(batch):
        degree = graph.degree(entity)
        idx = rng.integers(0, degree, size=m)
        e_rel, e_inv, e_is_type, e_tgt = graph.neighbor_arrays(entity)
        rel[row] = e_rel[idx]
        inv[row] = e_inv[idx]
        is_type[row] = e_is_type[idx]
        tgt[row] = e_tgt[idx]
    positives = _positive_pairs(batch, dataset)
    return _batch_forward_backward(
        params,
        rel,
        inv,
        is_type,
        tgt,
        positives,
        config.alpha,
        config.loss_kind,
        config.beta,
        config.use_agg2t,
        config.use_activation,
    )


def _masked_batch(params, graph, dataset, batch, config):
    losses = np.empty(len(batch), dtype=float)
    grads = GradientSet.zeros_like(params)
    for row, entity in enumerate(batch):
        labels = dataset.positives(entity)
        bundle = score_all_neighbors(
            params,
            graph,
            entity,
            config.alpha,
            mask_labels=labels,
            use_agg2t=config.use_agg2t,
            use_activation=config.use_activation,
        )
        loss, entity_grads = backward(bundle, labels, config.loss_kind, config.beta)
        losses[row] = loss
        grads.accumulate(entity_grads)
    return losses, grads


@dataclass
class FitResult:
    """Outcome of a training run: chosen parameters plus the epoch log."""

    params: ParameterSet
    log: list[tuple[int, float, float | None]]
    best_epoch: int | None
    best_valid_mrr: float | None
    skipped_isolated: int = 0


def format_log(records: list[tuple[int, float, float | None]]) -> str:
    """Render epoch records as `epoch<TAB>loss<TAB>valid_mrr` lines."""
    lines = []
    for epoch, loss, mrr in records:
        mrr_text = "" if mrr is None else f"{mrr:.6f}"
        lines.append(f"{epoch}\t{loss:.6f}\t{mrr_text}")
    return "\n".join(lines) + ("\n" if lines else "")


def fit(
    vocab: Vocab,
    graph: AugmentedGraph,
    dataset: TypingDataset,
    config: TrainConfig,
    *,
    eval_threads: int = 1,
) -> FitResult:
    """Train for up to ``max_epochs`` epochs, validating every ``eval_every``.

    The returned parameters are the snapshot with the best validation MRR;
    if validation never ran (short budgets), the final parameters are
    returned instead. `max_epochs=0` returns the freshly initialized model.
    """
    params = init_params(
        vocab, config.dim, config.seed, separate_heads=config.separate_heads
    )
    state = AdamState(params, config.lr)
    rng = np.random.default_rng(config.seed)
    _, skipped = _trainable_entities(graph, dataset)
    if skipped:
        log.info("skipping %d labeled entities with no neighbors", skipped)

    records: list[tuple[int, float, float | None]] = []
    best_mrr = -np.inf
    best_epoch: int | None = None
    best_params: ParameterSet | None = None

    for epoch in range(1, config.max_epochs + 1):
        loss = train_epoch(params, state, graph, dataset, config, rng)
        mrr: float | None = None
        if epoch % config.eval_every == 0:
            report = evaluate(
                params,
                graph,
                dataset,
                "valid",
                config.alpha,
                use_agg2t=config.use_agg2t,
                use_activation=config.use_activation,
                threads=eval_threads,
                keep_ranks=False,
            )
            mrr = report.mrr
            if mrr > best_mrr:
                best_mrr = mrr
                best_epoch = epoch
                best_params = params.copy()
        records.append((epoch, loss, mrr))
        log.info(
            "epoch %d: loss %.6f%s",
            epoch,
            loss,
            "" if mrr is None else f", valid MRR {mrr:.6f}",
        )

    if best_params is None:
        best_params = params
        best_mrr_out = None
    else:
        best_mrr_out = float(best_mrr)
    return FitResult(
        params=best_params,
        log=records,
        best_epoch=best_epoch,
        best_valid_mrr=best_mrr_out,
        skipped_isolated=skipped,
    )
