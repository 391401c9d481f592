"""The type-blocked kernel that trains and infers, and the bucket scorer on it.

``backward`` runs over (batch, rows) neighbor arrays, given as (relation,
inverted, target_is_type, target). Pooling is a softmax over each type
column and both losses are sums over type columns, so the kernel walks the
types in blocks of about ``_CELLS`` candidate cells: each block is scored,
pooled, differentiated and added to its own rows of the classifier
gradients on its own. Only the losses and the neighbor-representation
gradient accumulate across blocks. Memory per call is therefore bounded by
the block, not by the number of types, and all arithmetic stays in the
parameters' dtype (float32 in training, float64 under gradient checking).
A block lives in two slabs: one holds the scores, shifted in place by each
column's maximum (u = s - max s), and the other their weights exp(u). The
softmax denominators and the weighted mean of u are one reduction each, and
in training the score slab becomes the gradient of the N2T scores in place.
Forward only, a candidate cell costs the N2T product and five elementwise
passes (maximum, shift, exp, sum, weighted sum), none of them into a new
array of the block's size; training adds three passes and the two backward
products.

The Agg2T route is one more candidate row, as in the paper: with it on, an
entity with m neighbor rows has m + 1, the last being the mean of its valid
neighbor representations. Every block step above runs over all the rows at
once, and the Agg2T row's representation gradient goes back to the neighbor
rows divided by their count. The row comes last so that each column's
denominator adds the N2T weights and then the Agg2T one, and so that the
neighbor rows are a leading slice of the block (``scoring.candidate_matrix``
keeps it at row 0; pooling does not depend on the order). Separate heads keep
that block and treat the row apart only where it is scored: ``W``'s products
run over every row, ``agg_W``/``agg_b`` re-score the Agg2T rows and take their
gradient, and those rows of the score gradient are zeroed before ``W``'s
backward products.

Without labels and gradients the kernel runs forward only: each block is
scored and pooled into its columns of a (batch, types) result, every block
in order on the calling thread. Inference runs that mode:
``score_all_neighbors`` scores a degree bucket of entities in one call,
padded as mask-mode training pads them (``_degree_buckets``,
``_padded_neighbors``, one ``AugmentedGraph.gather``), so the N2T product
has hundreds of rows even when each entity has few, and a hub costs the
blocks' slabs, not a (rows, types) candidate matrix. ``ranking.evaluate``
spreads its buckets over the cores instead, one bucket per thread.

Threads take tasks with ``_run_tasks``: the lanes of a sampled training
batch's kernel call, and the degree buckets of a mask-mode training batch
(``train._masked_buckets``) or of an evaluation pass, one bucket per task,
each bucket's kernel call making one pass over its blocks on its thread. Only
a training call that deals its lanes to the threads has lanes: its blocks go
to ``_LANES`` lanes, block i to lane i % ``_LANES``. Blocks write disjoint
rows of the classifier gradients, so only the losses and the representation
gradients are shared; each lane sums those into accumulators of its own, and
the lanes are added in lane order at the end. A pooled score is computed per
column, so a bucket's block does not depend on the thread or the block width
either. Every result is therefore bit-identical whatever the number of
threads that ran the tasks: up to ``_THREADS``, the calling thread included,
with the others taken from ``_WORKERS``, one pool for the whole process,
whose threads start on first use and then wait, idle, for the next call (with
``_THREADS`` = 1 none ever starts). Each thread takes the next task not yet
taken until none is left, so a thread whose core is busy with another process
takes fewer tasks instead of holding up the call; there are more lanes than
threads so that there is work left to take. ``_THREADS`` is one per usable
core, at most ``_LANES``, when BLAS is pinned to one thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` all
1), else 1, because BLAS threads and task threads on the same cores only slow
each other down. ``_LANES`` stays fixed whatever the core count, since it
fixes the summation order and so the bits of a seeded run. The thread that
deals the tasks allocates every thread's slab (``evaluate`` and a mask-mode
batch one per thread for the whole pass or batch), and a kernel call that
deals lanes allocates their accumulators, so that no worker thread's malloc
arena keeps a slab's memory after the call; an evaluation pass then returns
its free pages. A mask-mode bucket's kernel call allocates its one pair of
accumulators on the thread that runs it.

This kernel is the only backward pass and the only pooled forward:
gradient checking differentiates the training batches that call it against
finite differences of ``loss.loss_of_entity``. That oracle scores one entity
with the reference forward ``scoring.candidate_matrix``, applies the
self-evidence mask itself and pools each column with the scalar
``scoring.pool``.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from functools import cached_property, partial
from types import SimpleNamespace

import numpy as np

from .graph import AugmentedGraph
from .loss import GradientSet, _loss_terms
from .scoring import ParameterSet, candidate_matrix, neighbor_reps

__all__ = ["ScoreBundle", "backward", "score_all_neighbors"]

# Candidate cells (batch * candidate rows * types) in one type block of the
# kernel, which sets the block width; the kernel's working slabs scale with it.
_CELLS = 1 << 19

# Lanes of a training kernel call without a slab, the only call whose blocks
# go to the threads: type block i belongs to lane i % _LANES.
# A lane sums its own blocks' losses and representation gradients; the lanes
# are then added in lane order, so the result does not depend on how many
# threads ran them. Threads take lanes as they come free, and more lanes than
# cores let a thread that is slowed take fewer. With 2 lanes on 2 threads a
# preempted thread held up the whole call. Beside a process that kept one of
# two cores half busy, FB-shape sampled batches took a median 43.6-44.3 ms
# with interquartile range 8.6-11.3 ms at 2 lanes, against 41.4-43.0 and
# 5.7-9.2 ms at 8; on an idle host both took 35.7 ms (2-vCPU Xeon VM).
_LANES = 8

# Padded neighbor rows (entities * largest degree) in one degree bucket, for
# mask-mode training batches and evaluation passes alike. Each bucket is one
# kernel call, so smaller buckets pad less but pay the per-call cost more
# often. 512, 1,024 and 2,048 timed within noise of each other on FB-shape
# evaluation passes and mask-mode batches (2-vCPU Xeon VM).
_BUCKET_ROWS = 512


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that may run lanes or buckets, the calling thread included: one per
# usable core, up to one per lane, only when BLAS is pinned (module docstring).
_BLAS_PINNED = all(
    os.environ.get(name) == "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
)
_THREADS = min(_LANES, _usable_cores()) if _BLAS_PINNED else 1

# glibc's malloc_trim(pad) gives the free pages of every C heap back to the OS;
# freed arrays otherwise stay resident until they border the top of their heap.
_malloc_trim = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "malloc_trim", lambda pad: 0)
_malloc_trim.argtypes = [ctypes.c_size_t]  # it returns an int, ctypes' default (the no-op ignores both)


# Threads that run tasks beside the caller, for every kernel call and
# evaluation pass of the process. An executor starts a thread only when no
# idle one can take the work, so each call reuses the threads of the last:
# starting the threads per call instead was measured 8% slower in mask mode,
# about 20 kernel calls per batch (2-vCPU Xeon VM). Idle threads are joined
# at interpreter exit.
def _new_workers() -> None:
    global _WORKERS
    _WORKERS = ThreadPoolExecutor(_LANES - 1, thread_name_prefix="cet-lane")


_new_workers()
if hasattr(os, "register_at_fork"):
    # A forked child has none of the parent's threads, but its copy of the
    # pool counts them as idle and would leave the child's lanes queued forever.
    os.register_at_fork(after_in_child=_new_workers)


def _slab(rows: int, num_types: int, dtype) -> np.ndarray:
    """One thread's score/exp scratch, for any call of up to ``rows`` candidate rows in all."""
    return np.empty((2, max(rows, min(_CELLS, rows * num_types))), dtype=dtype)


def _run_tasks(run_task: Callable, tasks: Sequence, new_slab: Callable[[], np.ndarray]) -> None:
    """Call ``run_task(task, slab)`` once for every task: on the caller and, up
    to ``_THREADS`` threads in all, on ``_WORKERS``.

    Each thread takes the next task not yet taken until none is left, so a
    thread that is slowed (another process on its core) takes fewer tasks
    instead of holding the others up. Each thread has its own slab, made by
    ``new_slab`` on the calling thread. Once a task raises, no thread takes
    another, and the first exception is raised again when every thread has
    finished the task it holds.
    """
    slabs = [new_slab() for _ in range(min(len(tasks), _THREADS))]
    queue = iter(tasks)  # shared: next() runs under the GIL, so each task is taken once
    errors = []

    def share(slab: np.ndarray) -> None:
        for task in queue:
            if errors:
                return
            try:
                run_task(task, slab)
            except BaseException as exc:
                errors.append(exc)

    # Each worker runs in a copy of the caller's context, so that the caller's
    # np.errstate holds on every task.
    futures = [_WORKERS.submit(copy_context().run, share, slab) for slab in slabs[1:]]
    try:
        share(slabs[0])
    finally:
        for future in futures:  # no worker may still write into the caller's arrays
            future.result()
    if errors:
        raise errors[0]


def _degree_buckets(degrees: np.ndarray):
    """Positions into ``degrees`` by stable ascending degree, cut to fit ``_BUCKET_ROWS``.

    An entity whose degree alone exceeds the budget gets a bucket of its own.
    """
    order = np.argsort(degrees, kind="stable")
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or (i - start + 1) * degrees[order[i]] > _BUCKET_ROWS:
            yield order[start:i]
            start = i


def _padded_neighbors(
    graph: AugmentedGraph, entities: list[int]
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The entities' neighbor arrays stacked to (entities, largest degree), padded
    with each entity's first edge as ``backward`` requires, and the ``valid`` mask."""
    degrees = graph.degrees(entities)
    if not degrees.all():
        raise ValueError(f"entity {entities[degrees.argmin()]} is isolated; no neighbors to score")
    valid = np.arange(degrees.max()) < degrees[:, None]
    return graph.gather(entities, np.where(valid, np.arange(degrees.max()), 0)), valid


def backward(
    params: ParameterSet,
    grads: GradientSet | None,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
    positives: tuple[np.ndarray, np.ndarray] | None,
    config,
    valid: np.ndarray,
    self_mask: bool = False,
    slab: np.ndarray | None = None,
):
    """Per-entity losses and d(loss)/d(neighbor representation) for one batch,
    or with ``grads`` None the pooled (batch, types) scores alone.

    Array arguments have shape (batch, m); ``positives`` holds the
    (batch row, type) index pairs of the labels, ordered by type, as
    ``train._positive_pairs`` builds them. ``config`` is a ``TrainConfig``;
    forward only, it needs just ``alpha``, ``use_agg2t`` and
    ``use_activation``, ``positives`` is unused and ``self_mask`` must be off.
    ``valid``, required on every call, marks the real neighbor rows; it is
    all true when no row is padded, as in a sampled batch. Padded rows must
    copy a real row of their entity, so that they never raise a column's
    maximum; they take no pooling weight, stay out of the Agg2T mean, and
    their returned gradient is meaningless. ``self_mask`` blanks
    every forward has_type row at its own type and the Agg2T row at the
    labels. The classifier gradients are added into ``grads``; the embedding
    rows are left to the caller. Types are processed in blocks. A training
    call without a ``slab`` deals them to lanes that run on the threads (see
    the module docstring); any other call runs every block in order on the
    calling thread, in ``slab`` if given, into one set of sums. Each entity's
    loss equals ``loss.loss_of_entity`` on its real rows with the same
    ``self_mask``, and its pooled scores equal ``scoring.pool`` of each column
    of ``scoring.candidate_matrix``, up to float rounding.

    With Agg2T on, each entity has rows = m + 1 candidate rows, the Agg2T
    row last (see the module docstring).
    """
    batch, m = rel.shape
    num_types = params.num_types
    alpha, use_agg2t, use_activation = config.alpha, config.use_agg2t, config.use_activation
    training = grads is not None
    separate = use_agg2t and params.separate_heads
    z = neighbor_reps(params, rel, inv, is_type, tgt)  # (B, m, k)
    if use_agg2t:
        count = valid.sum(axis=1, keepdims=True).astype(z.dtype)
        mean = (z * valid[..., None]).sum(axis=1) / count
        z = np.concatenate([z, mean[:, None]], axis=1)  # (B, rows, k)
        valid = np.pad(valid, ((0, 0), (0, 1)), constant_values=True)
    rows = z.shape[1]
    activated = np.maximum(z, 0) if use_activation else z
    flat_z = activated.reshape(batch * rows, -1)
    # Scores are kept as s = alpha * (x - b): the column bias b shifts every
    # row of a column alike and cancels in the softmax weights. Pooling works
    # on the shifted u = s - max s, in place: the weights are exp(u), pooled
    # = (mean_w(u) + max s) / alpha + b, and 1 + alpha * (x - pooled) =
    # u + 1 - mean_w(u).
    scaled_z = alpha * flat_z
    pad = np.flatnonzero(~valid)
    if training:
        pos_rows, pos_cols = positives
    if self_mask:
        # Blanked cells, ordered by type: forward has_type rows (padding
        # copies included) at their own type, and the Agg2T row at the labels.
        own = np.flatnonzero(is_type & ~inv)
        blank_rows = own // m * rows + own % m
        blank_cols = tgt.ravel()[own]
        if use_agg2t:
            blank_rows = np.concatenate([blank_rows, pos_rows * rows + m])
            blank_cols = np.concatenate([blank_cols, pos_cols])
        by_col = np.argsort(blank_cols, kind="stable")
        blank_rows, blank_cols = blank_rows[by_col], blank_cols[by_col]
    width = max(1, _CELLS // (batch * rows))
    blocks = range(0, num_types, width)
    if training:
        # Each lane's accumulators, allocated by this thread like the slabs
        # (see the module docstring): losses and dz. A call given a slab runs
        # on one thread, so it makes one pass, one lane.
        lanes = [
            (np.zeros(batch), np.zeros_like(flat_z))
            for _ in range(min(_LANES if slab is None else 1, len(blocks)))
        ]
    else:
        out = np.empty((batch, num_types), dtype=flat_z.dtype)
    new_slab = partial(_slab, batch * rows, num_types, flat_z.dtype)

    def run_lane(lane: int, slab: np.ndarray) -> None:
        for s in blocks[lane :: len(lanes)] if training else blocks:
            e = min(s + width, num_types)
            cols = e - s
            score3, expw3 = (buf[: batch * rows * cols].reshape(batch, rows, cols) for buf in slab)
            score, expw = score3.reshape(batch * rows, cols), expw3.reshape(batch * rows, cols)
            w_blk = params.W[s:e]
            np.matmul(scaled_z, w_blk.T, out=score)
            if separate:
                score[m::rows] = scaled_z[m::rows] @ params.agg_W[s:e].T
                score[m::rows] += alpha * (params.agg_b[s:e] - params.b[s:e])
            if self_mask:
                lo, hi = np.searchsorted(blank_cols, (s, e))
                blank = (blank_rows[lo:hi], blank_cols[lo:hi] - s)
                score[blank] = -np.inf
            top = score3.max(axis=1)  # (B, cols)
            if self_mask:
                # A column with every row blanked gets weight 0 everywhere and
                # pools to -inf, which the loss drops.
                dead = np.isneginf(top)
                top[dead] = 0
            # From here on the slab holds u = s - max s, and the weights exp(u).
            score3 -= top[:, None, :]
            np.exp(score, out=expw)
            expw[pad] = 0
            if self_mask:
                score[blank] = 0  # weight 0 already; keeps -inf * 0 out of the sums
            denom = np.add.reduce(expw3, axis=1)
            mean_u = np.einsum("bmc,bmc->bc", expw3, score3)
            if self_mask:
                denom[dead] = 1
            mean_u /= denom
            pooled = top if training else out[:, s:e]
            np.add(mean_u, top, out=pooled)
            pooled /= alpha
            pooled += params.b[s:e]
            if not training:
                continue
            if self_mask:
                pooled[dead] = -np.inf
            losses, dz = lanes[lane]
            lo, hi = np.searchsorted(pos_cols, (s, e))
            labels = (pos_rows[lo:hi], pos_cols[lo:hi] - s)
            block_loss, dpooled = _loss_terms(pooled, labels, config.loss_kind, config.beta)
            losses += block_loss
            # d(loss)/d(x) = dpooled * w * (1 + alpha * (x - pooled))
            #              = (dpooled / denom) * exp(u) * (u + 1 - mean_w(u)).
            score3 += (1.0 - mean_u)[:, None, :]
            score *= expw
            score3 *= (dpooled / denom)[:, None, :]
            dscore = score  # d(loss)/d(candidate score), (B*rows, cols)
            # A bias shared by every row of a column moves the pooled score one
            # for one, so its gradient is the batch sum of dpooled.
            db = dpooled.sum(axis=0)
            if separate:
                dagg = dscore[m::rows]
                grads.agg_W[s:e] += dagg.T @ flat_z[m::rows]
                dz[m::rows] += dagg @ params.agg_W[s:e]
                agg_db = dagg.sum(axis=0)
                grads.agg_b[s:e] += agg_db
                db -= agg_db
                dagg[:] = 0  # the shared products below must not see it
            grads.W[s:e] += dscore.T @ flat_z
            dz += dscore @ w_blk
            grads.b[s:e] += db

    if training and slab is None:
        _run_tasks(run_lane, range(len(lanes)), new_slab)
    else:
        run_lane(0, new_slab() if slab is None else slab)
        if not training:
            return out
    # Lane order, whatever ran them: the sums do not depend on the threads.
    losses, dz = lanes[0]
    for lane_losses, lane_dz in lanes[1:]:
        losses += lane_losses
        dz += lane_dz

    dz = dz.reshape(batch, rows, -1)
    if use_activation:
        dz *= z > 0
    if use_agg2t:
        dz[:, :m] += (dz[:, m] / count)[:, None, :]
    return losses, dz[:, :m]


class ScoreBundle:
    """Scored entities: their pooled scores, and their candidate scores on demand.

    ``pooled`` (entities, types) is the kernel's. ``candidate_scores``
    (entities, rows, types) is computed by ``scoring.candidate_matrix`` on
    first access, from the parameters as they are then, with -inf rows past
    an entity's own. Row 0 is the aggregated route when Agg2T is on, and the
    remaining rows follow the neighbor order of the arrays. Inference never
    reads it.
    """

    def __init__(self, pooled: np.ndarray, candidates: Callable[[], np.ndarray]):
        self.pooled = pooled
        self._candidates = candidates

    @cached_property
    def candidate_scores(self) -> np.ndarray:
        return self._candidates()


def _candidate_stack(params, graph, entities, **routes) -> np.ndarray:
    """The entities' candidate matrices, stacked with -inf rows past each one's end."""
    matrices = [candidate_matrix(params, *graph.neighbor_arrays(e), **routes) for e in entities]
    rows = max(map(len, matrices))
    return np.stack(
        [np.pad(m, ((0, rows - len(m)), (0, 0)), constant_values=-np.inf) for m in matrices]
    )


def score_all_neighbors(
    params: ParameterSet,
    graph: AugmentedGraph,
    entities: list[int],
    alpha: float,
    *,
    use_agg2t: bool = True,
    use_activation: bool = True,
    slab: np.ndarray | None = None,
) -> ScoreBundle:
    """Score entities from their full neighbor lists (the inference path).

    One forward-only kernel call over the ``_padded_neighbors`` of the
    entities, on the calling thread, in ``slab`` if given (see ``backward``);
    ``pooled`` has one row per entity, in the order given, equal to the
    entity scored alone up to float rounding.
    """
    routes = dict(use_agg2t=use_agg2t, use_activation=use_activation)
    arrays, valid = _padded_neighbors(graph, entities)
    config = SimpleNamespace(alpha=alpha, **routes)
    pooled = backward(params, None, *arrays, None, config, valid=valid, slab=slab)
    return ScoreBundle(pooled, partial(_candidate_stack, params, graph, list(entities), **routes))
