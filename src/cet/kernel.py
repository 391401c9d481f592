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

Without labels and gradients the kernel runs forward only: each block is
scored and pooled into its columns of a (batch, types) result. Inference
runs that mode: ``score_all_neighbors`` scores a degree bucket of entities
in one call, padded as mask-mode training pads them (``_degree_buckets``,
``_padded_neighbors``), so the N2T product has hundreds of rows even when
each entity has few, and a hub costs the blocks' slabs, not a (rows,
types) candidate matrix. A bucket is still cut into at least
``_FORWARD_BLOCKS`` blocks to spread over two cores.

The blocks of one call are dealt to ``_LANES`` lanes, block i to lane i %
``_LANES``. Blocks write disjoint rows of the classifier gradients, so only
the losses and the representation gradients are shared; each lane sums those
into accumulators of its own, and the lanes are added in lane order at the
end. The result is therefore bit-identical whatever the number of threads
that ran the lanes: up to ``_THREADS``, the calling thread included, with
the others taken from ``_WORKERS``, one pool for the whole process, whose
threads start on first use and then wait, idle, for the next call (with
``_THREADS`` = 1 none ever starts). Each thread takes the next lane not yet
taken until none is left, so a thread whose core is busy with another
process takes fewer lanes instead of holding up the call; there are more
lanes than threads so that there is work left to take. ``_THREADS`` is one
per usable core, at most ``_LANES``, when BLAS is pinned to one thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` all
1), else 1, because BLAS threads and lane threads on the same cores only
slow each other down. ``_LANES`` stays fixed whatever the core count, since
it fixes the summation order and so the bits of a seeded run. The calling
thread allocates every lane's accumulators and every thread's slab, so that
no worker thread's malloc arena keeps a slab's memory after the call.

This kernel is the only backward pass and the only pooled forward:
gradient checking differentiates the training batches that call it against
finite differences of ``loss.loss_of_entity``. That oracle scores one entity
with the reference forward ``scoring.candidate_matrix``, applies the
self-evidence mask itself and pools each column with the scalar
``scoring.pool``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, wait
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

# Padded neighbor rows (entities * largest degree) in one degree bucket, for
# mask-mode training batches and evaluation passes alike. Each bucket is one
# kernel call, so smaller buckets pad less but pay the per-call cost more
# often. 512, 1,024 and 2,048 timed within noise of each other on FB-shape
# evaluation passes and mask-mode batches (2-vCPU Xeon VM).
_BUCKET_ROWS = 512

# Forward-only calls cut the types into at least this many blocks, so that
# an entity of a few rows spreads over two cores. At 8 blocks a 50-row
# entity's NumPy calls were so short that its two threads mostly waited on
# each other for the interpreter lock: an FB-shape evaluation pass of 600
# entities took a median 1.55 s, against 1.23 s at 2 and 1.62 s on one
# thread (2-vCPU Xeon VM). Fixed whatever the core count, like _LANES.
_FORWARD_BLOCKS = 2


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


# Threads that run lanes beside the caller, for every kernel call of the
# process. An executor starts a thread only when no idle one can take the
# work, so each call reuses the threads of the last: starting the threads
# per call instead was measured 8% slower in mask mode, about 20 kernel calls
# per batch (2-vCPU Xeon VM). Idle threads are joined at interpreter exit.
def _new_workers() -> None:
    global _WORKERS
    _WORKERS = ThreadPoolExecutor(_LANES - 1, thread_name_prefix="cet-lane")


_new_workers()
if hasattr(os, "register_at_fork"):
    # A forked child has none of the parent's threads, but its copy of the
    # pool counts them as idle and would leave the child's lanes queued forever.
    os.register_at_fork(after_in_child=_new_workers)


def _run_lanes(
    run_lane: Callable[[int, np.ndarray], None],
    lanes: int,
    new_slab: Callable[[], np.ndarray],
) -> None:
    """Call ``run_lane(lane, slab)`` once for every lane: on the caller and, up
    to ``_THREADS`` threads in all, on ``_WORKERS``.

    Each thread takes the next lane not yet taken until none is left, so a
    thread that is slowed (another process on its core) takes fewer lanes
    instead of holding the others up. Each thread has its own slab, made by
    ``new_slab`` on the calling thread.
    """
    threads = min(lanes, _THREADS)
    slabs = [new_slab() for _ in range(threads)]
    queue = iter(range(lanes))  # shared: next() runs under the GIL, so each lane is taken once

    def share(slab: np.ndarray) -> None:
        for lane in queue:
            run_lane(lane, slab)

    # Each worker runs in a copy of the caller's context, so that the caller's
    # np.errstate holds on every lane.
    futures = [_WORKERS.submit(copy_context().run, share, slab) for slab in slabs[1:]]
    try:
        share(slabs[0])
    finally:
        wait(futures)  # no worker may still write into the caller's arrays
    for future in futures:
        future.result()


def _degree_buckets(degrees: np.ndarray):
    """Slices of ascending ``degrees`` whose padded size fits ``_BUCKET_ROWS``.

    An entity whose degree alone exceeds the budget gets a bucket of its own.
    """
    start = 0
    for i in range(1, len(degrees) + 1):
        if i == len(degrees) or (i - start + 1) * degrees[i] > _BUCKET_ROWS:
            yield slice(start, i)
            start = i


def _padded_neighbors(
    graph: AugmentedGraph, entities: list[int]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The entities' neighbor arrays stacked to (entities, largest degree), padded
    with each entity's first edge as ``backward`` requires, and the ``valid`` mask."""
    neighbors = [graph.neighbor_arrays(entity) for entity in entities]
    degrees = np.array([len(rel) for rel, *_ in neighbors])
    if not degrees.all():
        raise ValueError(f"entity {entities[degrees.argmin()]} is isolated; no neighbors to score")
    valid = np.arange(degrees.max()) < degrees[:, None]
    pick = np.where(valid, np.arange(degrees.max()), 0)
    return [np.stack([a[p] for a, p in zip(col, pick)]) for col in zip(*neighbors)], valid


def backward(
    params: ParameterSet,
    grads: GradientSet | None,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
    positives: tuple[np.ndarray, np.ndarray] | None,
    config,
    valid: np.ndarray | None = None,
    self_mask: bool = False,
):
    """Per-entity losses and d(loss)/d(neighbor representation) for one batch,
    or with ``grads`` None the pooled (batch, types) scores alone.

    Array arguments have shape (batch, rows); ``positives`` holds the
    (batch row, type) index pairs of the labels, ordered by type, as
    ``train._positive_pairs`` builds them. ``config`` is a ``TrainConfig``;
    forward only, it needs just ``alpha``, ``use_agg2t`` and
    ``use_activation``, ``positives`` is unused and ``self_mask`` must be off.
    ``valid`` marks the real neighbor rows of a padded batch. Padded rows
    must copy a real row of their entity, so that they never raise a
    column's maximum; they take no pooling weight, stay out of the Agg2T
    mean, and their returned gradient is meaningless. ``self_mask`` blanks
    every forward has_type row at its own type and the Agg2T row at the
    labels. The classifier gradients are added into ``grads``; the embedding
    rows are left to the caller. Types are processed in blocks, dealt to
    lanes (see the module docstring). Each entity's loss equals
    ``loss.loss_of_entity`` on its real rows with the same ``self_mask``, and
    its pooled scores equal ``scoring.pool`` of each column of
    ``scoring.candidate_matrix``, up to float rounding.
    """
    batch, m = rel.shape
    num_types = params.num_types
    alpha, use_agg2t, use_activation = config.alpha, config.use_agg2t, config.use_activation
    training = grads is not None
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
        if training:
            agg_gw = grads.agg_W if params.separate_heads else grads.W
    if self_mask:
        # Forward has_type rows (padding copies included), ordered by type.
        own = np.flatnonzero(is_type & ~inv)
        own_cols = tgt.ravel()[own]
        by_col = np.argsort(own_cols, kind="stable")
        own, own_cols = own[by_col], own_cols[by_col]
    rows = m + 1 if use_agg2t else m
    width = max(1, _CELLS // (batch * rows))
    if not training:
        width = min(width, -(-num_types // _FORWARD_BLOCKS))
        out = np.empty((batch, num_types), dtype=flat_z.dtype)
    blocks = range(0, num_types, width)
    num_lanes = min(_LANES, len(blocks))
    if training:
        pos_rows, pos_cols = positives
        # Each lane's accumulators, allocated by this thread like the slabs
        # (see the module docstring): losses, dreps and dh.
        lanes = [
            (np.zeros(batch), np.zeros_like(flat_z), np.zeros_like(h) if use_agg2t else None)
            for _ in range(num_lanes)
        ]

    def new_slab() -> np.ndarray:
        """Score/exp scratch for one thread."""
        return np.empty((2, batch * m * min(width, num_types)), dtype=flat_z.dtype)

    def run_lane(lane: int, slab: np.ndarray) -> None:
        for s in blocks[lane::_LANES]:
            e = min(s + width, num_types)
            score, expw = (buf[: batch * m * (e - s)].reshape(batch * m, e - s) for buf in slab)
            score3, expw3 = score.reshape(batch, m, e - s), expw.reshape(batch, m, e - s)
            if training:
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
            if not training:
                out[:, s:e] = pooled
                continue
            if self_mask:
                pooled[dead] = -np.inf
            losses, dreps, dh = lanes[lane]
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

    _run_lanes(run_lane, num_lanes, new_slab)
    if not training:
        return out
    # Lane order, whatever ran them: the sums do not depend on the threads.
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
) -> ScoreBundle:
    """Score entities from their full neighbor lists (the inference path).

    One forward-only kernel call over the ``_padded_neighbors`` of the
    entities; ``pooled`` has one row per entity, in the order given, equal to
    the entity scored alone up to float rounding.
    """
    routes = dict(use_agg2t=use_agg2t, use_activation=use_activation)
    arrays, valid = _padded_neighbors(graph, entities)
    config = SimpleNamespace(alpha=alpha, **routes)
    pooled = backward(params, None, *arrays, None, config, valid=valid)
    return ScoreBundle(pooled, partial(_candidate_stack, params, graph, list(entities), **routes))
