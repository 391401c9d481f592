"""Minibatch training: neighbor sampling, epoch loop, periodic validation.

Training iterates over entities that have at least one training label and at
least one neighbor. In the default mode each entity is scored from a fixed
number of neighbors drawn uniformly with replacement; the alternative mask
mode scores from all neighbors and blanks self-revealing candidates instead.
One Adam step is taken per batch on the batch-summed gradients.

Neighbors are (relation, inverted, target_is_type, target) arrays
throughout. Both modes run one kernel, ``backward``, over (batch, rows)
neighbor arrays. A sampled batch stacks one ``sample_neighbors`` draw per
entity, fills every row and needs neither padding nor masks. A mask-mode
batch is sorted by degree and cut into buckets of at most ``_BUCKET_ROWS``
padded rows, one kernel call each; short neighbor lists are padded with
copies of their first edge, which a validity mask gives pooling weight 0 and
keeps out of the Agg2T mean. The self-evidence mask blanks each has_type row
at its own type and the Agg2T row at the entity's labels; a column with
every row blanked pools to -inf and drops out of the loss.

Pooling is a softmax over each type column and both losses are sums over
type columns, so the kernel walks the types in blocks: each block is scored,
pooled, differentiated and added to its own rows of the classifier
gradients on its own. Only the losses and the neighbor-representation
gradient accumulate across blocks; the latter is scattered into the sparse
embedding rows once per batch. Memory per call is therefore bounded by the
block, not by the number of types, and all arithmetic stays in the
parameters' dtype (float32 in training, float64 under gradient checking).
The block holds about ``_CELLS`` candidate cells.

The blocks of one call are dealt to ``_LANES`` lanes, block i to lane
i % ``_LANES``. Blocks write disjoint rows of the classifier gradients, so
only the losses and the representation gradients are shared; each lane sums
those into accumulators of its own, and the lanes are added in lane order at
the end. The result is therefore bit-identical whatever the number of
threads that ran the lanes: up to ``_THREADS``, the calling thread included,
with the others started once per batch. Each thread takes the next lane not
yet taken until none is left, so a thread whose core is busy with another
process takes fewer lanes instead of holding up the call; there are more
lanes than threads so that there is work left to take. ``_THREADS`` is one
per usable core, at most ``_LANES``, when BLAS is pinned to one thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` all
1), else 1, because BLAS threads and lane threads on the same cores only
slow each other down. ``_LANES`` stays fixed whatever the core count, since
it fixes the summation order and so the bits of a seeded run. The calling
thread allocates every lane's accumulators and every thread's slab, so that
no worker thread's malloc arena keeps a slab's memory after the call.

This kernel is the only backward pass: gradient checking differentiates the
same ``_sampled_batch`` and ``_masked_batch`` calls that training makes,
against finite differences of ``loss.loss_of_entity``. That oracle scores
one entity with the unmasked inference forward, applies the self-evidence
mask itself and pools each column with the scalar ``scoring.pool``.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

from .data import TypingDataset
from .ranking import evaluate
from .graph import AugmentedGraph, Vocab
from .loss import LOSS_KINDS, GradientSet, _loss_terms
from .optim import AdamState, NumericError, adam_step, init_params
# score_all_neighbors is unused here; the benchmark hooks it on this module.
from .scoring import ParameterSet, neighbor_reps, score_all_neighbors  # noqa: F401

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
        if not all(math.isfinite(x) for x in (self.alpha, self.beta, self.lr)):
            raise ValueError("alpha, beta and lr must be finite")
        if self.dim <= 0 or self.alpha <= 0 or self.lr <= 0:
            raise ValueError("dim, alpha and lr must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.batch_size < 1 or self.sample_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size, sample_size and eval_every must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def sample_neighbors(
    graph: AugmentedGraph, entity: int, sample_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``sample_size`` neighbors i.i.d. uniformly with replacement.

    Returns the drawn edges as (relation, inverted, target_is_type, target)
    arrays, like ``AugmentedGraph.neighbor_arrays``.
    """
    degree = graph.degree(entity)
    if degree == 0:
        raise ValueError(f"entity {entity} is isolated; cannot sample neighbors")
    idx = rng.integers(0, degree, size=sample_size)
    return tuple(a[idx] for a in graph.neighbor_arrays(entity))


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
# kernel, which sets the block width; the kernel's working slabs scale with it.
_CELLS = 1 << 19

# Padded neighbor rows (entities * largest degree) in one degree bucket of a
# mask-mode batch. Each bucket is one kernel call, so smaller buckets pad
# less but pay the per-call cost more often.
_BUCKET_ROWS = 512

# Lanes of one kernel call: type block i belongs to lane i % _LANES. A lane
# sums its own blocks' losses and representation gradients; the lanes are
# then added in lane order, so the result does not depend on how many
# threads ran them. Threads take lanes as they come free, and more lanes than
# cores let a thread that is slowed take fewer. With 2 lanes on 2 threads a
# preempted thread held up the whole call. Beside a process that kept one of
# two cores half busy, FB-shape sampled batches took a median 43.6-44.3 ms
# with interquartile range 8.6-11.3 ms at 2 lanes, against 41.4-43.0 and
# 5.7-9.2 ms at 8; on an idle host both took 35.7 ms (2-vCPU Xeon VM).
_LANES = 8


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that may run lanes, the calling thread included: one per usable
# core, up to one per lane. Only when BLAS is pinned to one thread, because a
# BLAS that runs a thread per core already uses them and lanes on top of it
# oversubscribe the cores; any other setting runs every lane on the caller.
_BLAS_PINNED = all(
    os.environ.get(name) == "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
)
_THREADS = min(_LANES, _usable_cores()) if _BLAS_PINNED else 1


def _lane_workers() -> ThreadPoolExecutor:
    """Threads that run lanes beside the caller, for the kernel calls of one batch.

    The executor starts them on the first call that needs them, so with
    ``_THREADS`` = 1 it starts none; leaving its ``with`` block joins them.
    Mask mode makes about 20 kernel calls per batch, and starting the worker
    per call instead was measured 8% slower there (2-vCPU Xeon VM).
    """
    return ThreadPoolExecutor(max(1, _THREADS - 1), thread_name_prefix="cet-lane")


def _run_lanes(
    run_lane: Callable[[int, np.ndarray], None],
    lanes: int,
    workers: ThreadPoolExecutor | None,
    new_slab: Callable[[], np.ndarray],
) -> None:
    """Call ``run_lane(lane, slab)`` once for every lane: on the caller and, up
    to ``_THREADS`` threads in all, on ``workers``.

    Each thread takes the next lane not yet taken until none is left, so a
    thread that is slowed (another process on its core) takes fewer lanes
    instead of holding the others up. Each thread has its own slab, made by
    ``new_slab`` on the calling thread.
    """
    threads = min(lanes, _THREADS) if workers is not None else 1
    slabs = [new_slab() for _ in range(threads)]
    queue = iter(range(lanes))  # shared: next() runs under the GIL, so each lane is taken once

    def share(slab: np.ndarray) -> None:
        for lane in queue:
            run_lane(lane, slab)

    futures = [workers.submit(share, slab) for slab in slabs[1:]]
    try:
        share(slabs[0])
    finally:
        wait(futures)  # no worker may still write into the caller's arrays
    for future in futures:
        future.result()


def backward(
    params: ParameterSet,
    grads: GradientSet,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
    positives: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    valid: np.ndarray | None = None,
    self_mask: bool = False,
    workers: ThreadPoolExecutor | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entity losses and d(loss)/d(neighbor representation) for one batch.

    Array arguments have shape (batch, rows); ``positives`` holds the
    (batch row, type) index pairs of the labels, ordered by type, as
    ``_positive_pairs`` builds them. ``valid`` marks the real neighbor rows
    of a padded batch. Padded rows must copy a real row of their entity, so
    that they never raise a column's maximum; they take no pooling weight,
    stay out of the Agg2T mean, and their returned gradient is meaningless.
    ``self_mask`` blanks every forward has_type row at its own type and the
    Agg2T row at the labels. The classifier gradients are added into
    ``grads``; the embedding rows are left to ``_scatter_rows``. Types are
    processed in blocks, dealt to lanes (see the module docstring); the
    lanes run on the calling thread and, when given, on ``workers``. Each
    entity's loss equals ``loss.loss_of_entity`` on its real rows with the
    same ``self_mask``, up to float rounding.
    """
    batch, m = rel.shape
    num_types = params.num_types
    alpha, use_agg2t, use_activation = config.alpha, config.use_agg2t, config.use_activation
    reps = neighbor_reps(params, rel, inv, is_type, tgt)  # (B, m, k)
    activated = np.maximum(reps, 0) if use_activation else reps
    flat_z = activated.reshape(batch * m, -1)
    # Scores are kept as s = alpha * (x - b): the column bias b shifts every
    # row of a column alike and cancels in the softmax weights, so the
    # weights are exp(s - max s), pooled = mean_w(s) / alpha + b, and
    # 1 + alpha * (x - pooled) = s + 1 - mean_w(s).
    scaled_z = alpha * flat_z
    if valid is None:
        count = m
    else:
        count = valid.sum(axis=1, keepdims=True).astype(reps.dtype)
        pad = np.flatnonzero(~valid)
    if use_agg2t:
        h = reps.mean(axis=1) if valid is None else (reps * valid[..., None]).sum(axis=1) / count
        h_act = np.maximum(h, 0) if use_activation else h
        scaled_h = alpha * h_act
        agg_w, agg_b = params.agg_head()
        agg_gw = grads.agg_W if params.separate_heads else grads.W
    if self_mask:
        # Forward has_type rows (padding copies included), ordered by type.
        own = np.flatnonzero(is_type & ~inv)
        own_cols = tgt.ravel()[own]
        by_col = np.argsort(own_cols, kind="stable")
        own, own_cols = own[by_col], own_cols[by_col]
    rows = m + 1 if use_agg2t else m
    width = max(1, _CELLS // (batch * rows))
    blocks = range(0, num_types, width)
    pos_rows, pos_cols = positives
    # Each lane's accumulators, allocated by this thread like the slabs (see
    # the module docstring): losses, dreps and dh.
    lanes = [
        (np.zeros(batch), np.zeros_like(flat_z), np.zeros_like(h) if use_agg2t else None)
        for _ in range(min(_LANES, len(blocks)))
    ]

    def new_slab() -> np.ndarray:
        """Score/exp scratch for one thread."""
        return np.empty((2, batch * m * min(width, num_types)), dtype=flat_z.dtype)

    def run_lane(lane: int, slab: np.ndarray) -> None:
        losses, dreps, dh = lanes[lane]
        for s in blocks[lane::_LANES]:
            e = min(s + width, num_types)
            score, expw = (buf[: batch * m * (e - s)].reshape(batch * m, e - s) for buf in slab)
            score3, expw3 = score.reshape(batch, m, e - s), expw.reshape(batch, m, e - s)
            lo, hi = np.searchsorted(pos_cols, (s, e))
            labels = (pos_rows[lo:hi], pos_cols[lo:hi] - s)
            w_blk = params.W[s:e]
            np.matmul(scaled_z, w_blk.T, out=score)
            if self_mask:
                a, z = np.searchsorted(own_cols, (s, e))
                blank = (own[a:z], own_cols[a:z] - s)
                score[blank] = -np.inf
            top = score3.max(axis=1)  # (B, cols)
            if use_agg2t:
                agg = scaled_h @ agg_w[s:e].T
                if params.separate_heads:
                    agg += alpha * (agg_b[s:e] - params.b[s:e])
                if self_mask:
                    agg[labels] = -np.inf
                np.maximum(top, agg, out=top)
            if self_mask:
                # A column with every row blanked gets weight 0 everywhere and
                # pools to -inf, which the loss drops.
                dead = np.isneginf(top)
                top[dead] = 0
            if use_agg2t:
                agg_exp = np.exp(agg - top)
                if self_mask:
                    agg[labels] = 0
            np.subtract(score3, top[:, None, :], out=expw3)
            np.exp(expw, out=expw)
            if valid is not None:
                expw[pad] = 0
            if self_mask:
                score[blank] = 0  # weight 0 already; keeps -inf * 0 out of the sums
            denom = expw3.sum(axis=1)
            score *= expw
            mean_s = score3.sum(axis=1)
            if use_agg2t:
                denom += agg_exp
                mean_s += agg_exp * agg
            if self_mask:
                denom[dead] = 1
            mean_s /= denom

            pooled = mean_s / alpha + params.b[s:e]
            if self_mask:
                pooled[dead] = -np.inf
            block_loss, dpooled = _loss_terms(pooled, labels, config.loss_kind, config.beta)
            losses += block_loss
            # d(loss)/d(x) = dpooled * w * (1 + alpha * (x - pooled))
            #              = (dpooled / denom) * exp(s - max s) * (s + 1 - mean_w(s)).
            gain = dpooled / denom
            shift = 1.0 - mean_s
            expw3 *= shift[:, None, :]
            expw += score
            expw3 *= gain[:, None, :]
            dn2t = expw  # d(loss)/d(N2T score), (B*m, cols)
            grads.W[s:e] += dn2t.T @ flat_z
            dreps += dn2t @ w_blk
            # A bias shared by every row of a column moves the pooled score one
            # for one, so its gradient is the batch sum of dpooled.
            db = dpooled.sum(axis=0)
            if use_agg2t:
                agg += shift
                agg *= agg_exp
                agg *= gain  # d(loss)/d(Agg2T score), (B, cols)
                agg_gw[s:e] += agg.T @ h_act
                dh += agg @ agg_w[s:e]
                if params.separate_heads:
                    agg_db = agg.sum(axis=0)
                    grads.agg_b[s:e] += agg_db
                    db -= agg_db
            grads.b[s:e] += db

    _run_lanes(run_lane, len(lanes), workers, new_slab)
    # Lane order, whatever ran them: the sums do not depend on the workers.
    losses, dreps, dh = lanes[0]
    for lane_losses, lane_dreps, lane_dh in lanes[1:]:
        losses += lane_losses
        dreps += lane_dreps
        if use_agg2t:
            dh += lane_dh

    dreps = dreps.reshape(batch, m, -1)
    if use_activation:
        dreps *= reps > 0
    if use_agg2t:
        if use_activation:
            dh *= h > 0
        dreps += (dh / count)[:, None, :]
    return losses, dreps


def _scatter_rows(
    grads: GradientSet,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
    dreps: np.ndarray,
) -> None:
    """Sum per-edge representation gradients into the sparse row maps.

    Arguments are flat over the batch's edges, with ``dreps`` of shape
    (edges, k). The row maps must be empty: each table gets one
    ``np.unique``/``np.add.at`` pass.
    """
    sign = np.where(inv, 1.0, -1.0).astype(dreps.dtype)
    for rows, idx, grad in (
        (grads.entity_rows, tgt[~is_type], dreps[~is_type]),
        (grads.type_rows, tgt[is_type], dreps[is_type]),
        (grads.relation_rows, rel, dreps * sign[:, None]),
    ):
        if idx.size:
            uniq, inverse = np.unique(idx, return_inverse=True)
            acc = np.zeros((len(uniq), grad.shape[-1]), dtype=grad.dtype)
            np.add.at(acc, inverse, grad)
            rows.update(zip(uniq.tolist(), acc))


def _degree_buckets(degrees: np.ndarray):
    """Slices of ascending ``degrees`` whose padded size fits ``_BUCKET_ROWS``.

    An entity whose degree alone exceeds the budget gets a bucket of its own.
    """
    start = 0
    for i in range(1, len(degrees) + 1):
        if i == len(degrees) or (i - start + 1) * degrees[i] > _BUCKET_ROWS:
            yield slice(start, i)
            start = i


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
    draws = (sample_neighbors(graph, entity, config.sample_size, rng) for entity in batch)
    arrays = [np.stack(column) for column in zip(*draws)]
    grads = GradientSet.zeros_like(params)
    with _lane_workers() as workers:
        losses, dreps = backward(
            params, grads, *arrays, _positive_pairs(batch, dataset), config, workers=workers
        )
    _scatter_rows(grads, *(a.ravel() for a in arrays), dreps.reshape(arrays[0].size, -1))
    return losses, grads


def _masked_batch(params, graph, dataset, batch, config):
    """All neighbors of each entity, in degree buckets padded to their largest degree."""
    degrees = np.array([graph.degree(entity) for entity in batch])
    order = np.argsort(degrees, kind="stable")
    losses = np.empty(len(batch))
    grads = GradientSet.zeros_like(params)
    edges = []
    with _lane_workers() as workers:
        for bucket in _degree_buckets(degrees[order]):
            members = order[bucket]
            width = degrees[members[-1]]
            valid = np.arange(width) < degrees[members][:, None]
            # Padding repeats each entity's first edge.
            pick = np.where(valid, np.arange(width), 0)
            columns = zip(*(graph.neighbor_arrays(batch[i]) for i in members))
            arrays = [np.stack([a[p] for a, p in zip(col, pick)]) for col in columns]
            entities = [batch[i] for i in members]
            bucket_losses, dreps = backward(
                params, grads, *arrays, _positive_pairs(entities, dataset), config,
                valid=valid, self_mask=True, workers=workers,
            )
            losses[members] = bucket_losses
            edges.append([a[valid] for a in arrays] + [dreps[valid]])
    _scatter_rows(grads, *(np.concatenate(parts) for parts in zip(*edges)))
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
                keep_ranks=False,
            )
            mrr = report.mrr
            if not np.isfinite(mrr):
                raise NumericError(f"non-finite validation MRR {mrr} at epoch {epoch}")
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
