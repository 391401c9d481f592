"""Minibatch training: neighbor sampling, epoch loop, periodic validation.

Training iterates over entities that have at least one training label and at
least one neighbor. In the default mode each entity is scored from a fixed
number of neighbors drawn uniformly with replacement; the alternative mask
mode scores from all neighbors and blanks self-revealing candidates instead.
One Adam step is taken per batch on the batch-summed gradients.

Neighbors are (relation, inverted, target_is_type, target) arrays
throughout. Both modes run the type-blocked kernel ``kernel.backward`` over
(batch, rows) neighbor arrays and scatter its representation gradients into
the sparse embedding rows once per batch. A sampled batch stacks one
``sample_neighbors`` draw per entity, fills every row and needs neither
padding nor masks. A mask-mode batch is sorted by degree and cut into
buckets of at most ``kernel._BUCKET_ROWS`` padded rows, one kernel call
each, with short neighbor lists padded by copies of their first edge
(``kernel._padded_neighbors``, which evaluation shares) and the
self-evidence mask on. The kernel runs its lanes on its own threads, the
same ones for every batch.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import TypingDataset
from .ranking import evaluate
from .graph import AugmentedGraph, Vocab
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
    losses, dreps = backward(params, grads, *arrays, _positive_pairs(batch, dataset), config)
    _scatter_rows(grads, *(a.ravel() for a in arrays), dreps.reshape(arrays[0].size, -1))
    return losses, grads


def _masked_batch(params, graph, dataset, batch, config):
    """All neighbors of each entity, in degree buckets padded to their largest degree."""
    degrees = np.array([graph.degree(entity) for entity in batch])
    order = np.argsort(degrees, kind="stable")
    losses = np.empty(len(batch))
    grads = GradientSet.zeros_like(params)
    edges = []
    for bucket in _degree_buckets(degrees[order]):
        members = order[bucket]
        entities = [batch[i] for i in members]
        arrays, valid = _padded_neighbors(graph, entities)
        bucket_losses, dreps = backward(
            params, grads, *arrays, _positive_pairs(entities, dataset), config,
            valid=valid, self_mask=True,
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
