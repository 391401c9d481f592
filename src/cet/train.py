"""Minibatch training: neighbor sampling, epoch loop, periodic validation.

Training iterates over entities that have at least one training label and at
least one neighbor. In the default mode each entity is scored from a fixed
number of neighbors drawn uniformly with replacement; the alternative mask
mode scores from all neighbors and blanks self-revealing candidates instead.
One Adam step is taken per batch on the batch-summed gradients.

Neighbors are (relation, inverted, target_is_type, target) arrays
throughout, read for the whole batch by ``AugmentedGraph.gather``. Both modes
take one path, ``_train_batch``: the batch is cut into buckets of (batch,
rows) neighbor arrays with a ``valid`` mask of their real rows, the
type-blocked kernel ``kernel.backward`` runs once per bucket, and the
representation gradients of the valid rows are scattered into the sparse
embedding rows once per batch. A sampled batch is one bucket, one
``sample_neighbors`` draw that fills every row, so its mask is all true. A
mask-mode batch is cut by ``kernel._degree_buckets`` into buckets of
ascending degree, at most ``kernel._BUCKET_ROWS`` padded rows each, with
short neighbor lists padded by copies of their first edge
(``kernel._padded_neighbors``, which evaluation shares) and the
self-evidence mask on. A sampled batch's kernel call runs its lanes on the
threads; a mask-mode batch deals its buckets to them instead, one bucket per
thread at a time, with the bits of the buckets run one after another. Both
use the same threads for every batch.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .data import TypingDataset
from .ranking import evaluate
from .graph import AugmentedGraph, Vocab
from . import kernel
# backward is called through this module's name, so that patching
# cet.train.backward reaches every training batch; score_all_neighbors is
# unused here, and only the benchmark's hook on this module looks it up.
from .kernel import _degree_buckets, _padded_neighbors, backward
from .kernel import score_all_neighbors  # noqa: F401
from .loss import LOSS_KINDS, GradientSet
from .optim import AdamState, NumericError, adam_step, init_params
from .scoring import ParameterSet

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
        if self.max_epochs < 0 or self.seed < 0:
            raise ValueError("max_epochs and seed must be >= 0")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def sample_neighbors(
    graph: AugmentedGraph, entities: list[int], sample_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``sample_size`` neighbors of each entity i.i.d. uniformly with replacement.

    Returns (relation, inverted, target_is_type, target) arrays of shape
    (entities, sample_size), drawn by one broadcast ``rng.integers`` call as
    one ``rng.integers(0, degree, size=sample_size)`` per entity would.
    """
    degrees = graph.degrees(entities)
    if not degrees.all():
        raise ValueError(f"entity {entities[degrees.argmin()]} is isolated; cannot sample neighbors")
    picks = rng.integers(0, degrees[:, None], size=(len(degrees), sample_size))
    return graph.gather(entities, picks)


def _positive_pairs(
    entities: list[int], dataset: TypingDataset
) -> tuple[np.ndarray, np.ndarray]:
    """(batch row, type) pairs of the entities' training labels, unique and ordered by type."""
    labels = [dataset.positives(entity) for entity in entities]
    rows = np.repeat(np.arange(len(entities)), [len(types) for types in labels])
    cols = np.fromiter(itertools.chain.from_iterable(labels), dtype=np.int64, count=len(rows))
    key = np.unique(cols * len(entities) + rows)
    return key % len(entities), key // len(entities)


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
    (edges, k). The row maps must be empty: each table gets one ``np.unique``
    and one 1-D ``np.add.at`` at the flat cells ``row * k + j`` of its sum,
    which adds each cell's edges in edge order, as a row-wise call does.
    """
    sign = np.where(inv, 1.0, -1.0).astype(dreps.dtype)
    k = dreps.shape[-1]
    for rows, idx, grad in (
        (grads.entity_rows, tgt[~is_type], dreps[~is_type]),
        (grads.type_rows, tgt[is_type], dreps[is_type]),
        (grads.relation_rows, rel, dreps * sign[:, None]),
    ):
        if idx.size:
            uniq, inverse = np.unique(idx, return_inverse=True)
            acc = np.zeros((len(uniq), k), dtype=grad.dtype)
            np.add.at(acc.reshape(-1), (inverse[:, None] * k + np.arange(k)).ravel(), grad.ravel())
            rows.update(zip(uniq.tolist(), acc))


def _trainable_entities(graph: AugmentedGraph, dataset: TypingDataset) -> tuple[list[int], int]:
    """The labeled entities with neighbors, in id order, and the count of those without."""
    labeled = np.array(sorted(dataset.train_types), dtype=np.int64)
    connected = graph.degrees(labeled) > 0
    return labeled[connected].tolist(), int((~connected).sum())


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
        losses, grads = _train_batch(params, graph, dataset, batch, config, rng)
        if not np.isfinite(losses).all():
            bad = batch[int(np.nonzero(~np.isfinite(losses))[0][0])]
            raise NumericError(f"non-finite loss for entity {bad}")
        adam_step(params, state, grads)
        total_loss += float(losses.sum())
        count += len(batch)
    return total_loss / count


# Buckets that threads may run ahead of the earliest one not yet folded, beyond
# one per thread, so that a thread slowed on an early bucket holds the others
# up less. Each bucket in flight keeps a set of classifier gradients; at 45,182
# types and dimension 100 a set is 18.3 MB (36.5 MB with separate heads), so
# two threads keep at most 73 MB (146 MB) of sets. On FB-shape mask-mode
# batches (2-vCPU Xeon VM), 2 ran about 10% faster than 0 and within noise of
# 6 (medians of five alternated runs of 12 batches).
_FOLD_AHEAD = 2


def _train_batch(params, graph, dataset, batch, config, rng):
    """One batch's per-entity losses and its summed gradients.

    A sampled batch is one ``sample_neighbors`` draw with every row valid,
    one kernel call whose lanes run on the threads. A mask-mode batch draws
    nothing from ``rng``; it is cut into ``_degree_buckets``, dealt to the
    threads one bucket per task (``_masked_buckets``). The representation
    gradients of the valid rows are scattered once, in bucket order.
    """
    grads = GradientSet.zeros_like(params)
    if config.mask_mode:
        losses, edges = _masked_buckets(params, graph, dataset, batch, config, grads)
    else:
        arrays = sample_neighbors(graph, batch, config.sample_size, rng)
        valid = np.ones(arrays[0].shape, dtype=bool)
        positives = _positive_pairs(batch, dataset)
        losses, dreps = backward(params, grads, *arrays, positives, config, valid)
        edges = [[a[valid] for a in arrays] + [dreps[valid]]]
    _scatter_rows(grads, *(np.concatenate(parts) for parts in zip(*edges)))
    return losses, grads


def _masked_buckets(params, graph, dataset, batch, config, grads):
    """A mask-mode batch's losses and each bucket's (edge arrays, representation
    gradients) of its valid rows, in bucket order; its classifier gradients are
    added into ``grads``.

    Up to ``kernel._THREADS`` threads take the buckets in ascending degree
    order, one ``kernel._run_tasks`` task each, and each thread runs its
    bucket's kernel call, one pass over its type blocks, in a slab of its own
    for the whole batch. A bucket's classifier products go to a
    ``_BucketFolds`` set and reach ``grads`` in bucket order, so the bits are
    those of the buckets run one after another, whatever the number of
    threads.
    """
    degrees = graph.degrees(batch)
    buckets = list(_degree_buckets(degrees))
    losses = np.empty(len(batch))
    edges = [None] * len(buckets)
    folds = _BucketFolds(grads, params, len(buckets))

    def run_bucket(i: int, slab: np.ndarray) -> None:
        try:
            entities = [batch[j] for j in buckets[i]]
            arrays, valid = _padded_neighbors(graph, entities)
            positives = _positive_pairs(entities, dataset)
            part = folds.take(i)
            if part is None:  # a bucket failed
                return
            losses[buckets[i]], dreps = backward(
                params, part, *arrays, positives, config, valid, self_mask=True, slab=slab
            )
        except BaseException:
            folds.fail()  # later buckets may be waiting for this one to fold
            raise
        folds.finish(i)
        edges[i] = [a[valid] for a in arrays] + [dreps[valid]]

    rows = max(len(b) * (degrees[b[-1]] + 1) for b in buckets)  # the largest, Agg2T row included
    new_slab = partial(kernel._slab, rows, params.num_types, params.dtype)
    kernel._run_tasks(run_bucket, range(len(buckets)), new_slab)
    return losses, edges


class _BucketFolds:
    """The classifier gradients of a mask-mode batch's buckets, added into the
    batch's ``GradientSet`` in bucket order.

    Bucket i adds its products into a zeroed ``GradientSet`` of its own, set
    i % ``bound``. As soon as every earlier bucket is folded, its set is added
    into the batch's and zeroed for bucket i + ``bound``. Each cell of the
    batch's gradients therefore gets every bucket's product in bucket order,
    as when the buckets ran one after another (0 + x == x). Bucket i waits for
    its set until bucket i - ``bound`` is folded, so a slow early bucket
    cannot pile up later ones: at most ``bound`` sets exist, and the earliest
    bucket not yet folded never waits. The sets are allocated by the calling
    thread. ``bound`` is ``kernel._THREADS`` + ``_FOLD_AHEAD``.
    """

    def __init__(self, total: GradientSet, params: ParameterSet, buckets: int):
        self.total = total
        bound = min(buckets, kernel._THREADS + _FOLD_AHEAD)
        self.parts = [GradientSet.zeros_like(params) for _ in range(bound)]
        self.folded = 0  # buckets folded so far, the earliest first
        self.finished = set()  # buckets finished, not yet folded
        self.failed = False
        self.turn = threading.Condition()

    def take(self, i: int) -> GradientSet | None:
        """Bucket i's zeroed set, once bucket i - bound is folded; None once a bucket failed."""
        with self.turn:
            self.turn.wait_for(lambda: self.failed or i < self.folded + len(self.parts))
            return None if self.failed else self.parts[i % len(self.parts)]

    def finish(self, i: int) -> None:
        """Mark bucket i done, and fold every finished bucket whose turn has come."""
        with self.turn:
            self.finished.add(i)
            while self.folded in self.finished:
                self.finished.remove(self.folded)
                part = self.parts[self.folded % len(self.parts)]
                for (_, total), (_, own) in zip(self.total.named_dense(), part.named_dense()):
                    total += own
                    own.fill(0)
                self.folded += 1
            self.turn.notify_all()

    def fail(self) -> None:
        """Release every bucket waiting for a set: none of them will run."""
        with self.turn:
            self.failed = True
            self.turn.notify_all()


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
    if config.max_epochs >= config.eval_every and not dataset.split("valid"):
        raise ValueError("split 'valid' is empty")  # as evaluate would, but before any epoch
    # Without Agg2T nothing reads a separate head, so none is made.
    params = init_params(
        vocab, config.dim, config.seed, separate_heads=config.separate_heads and config.use_agg2t
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
