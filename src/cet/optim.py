"""Parameter initialization and Adam updates with lazy sparse rows.

Embedding tables are updated only where a batch produced gradients; moments
of untouched rows are left alone (no bias-correction catch-up), which keeps
step cost proportional to the rows a batch actually touches. Classifier
tensors are always dense-updated.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Vocab
from .loss import GradientSet
from .scoring import ParameterSet

__all__ = ["NumericError", "AdamState", "init_params", "adam_step"]


class NumericError(RuntimeError):
    """A non-finite value surfaced where training cannot continue."""


def init_params(
    vocab: Vocab,
    k: int,
    seed: int,
    *,
    dtype=np.float32,
    separate_heads: bool = False,
) -> ParameterSet:
    """Draw all embeddings and W uniformly from [-10/k, 10/k]; zero biases.

    The same seed reproduces the parameter set bit for bit. Draw order is
    entity, relation, type, W (then the separate aggregation head if any).
    """
    if k <= 0:
        raise ValueError("embedding dimension must be positive")
    rng = np.random.default_rng(seed)
    bound = 10.0 / k

    def draw(rows: int) -> np.ndarray:
        return rng.uniform(-bound, bound, size=(rows, k)).astype(dtype)

    params = ParameterSet(
        entity_emb=draw(vocab.num_entities),
        relation_emb=draw(vocab.num_relations),
        type_emb=draw(vocab.num_types),
        W=draw(vocab.num_types),
        b=np.zeros(vocab.num_types, dtype=dtype),
    )
    if separate_heads:
        params.agg_W = draw(vocab.num_types)
        params.agg_b = np.zeros(vocab.num_types, dtype=dtype)
    return params


class AdamState:
    """First/second moment tensors congruent to a ParameterSet, plus the step count."""

    def __init__(
        self,
        params: ParameterSet,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.named()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.named()}


# Elements in one slice of the dense Adam update. A slice's rows of the
# tensor, its moments, its gradient and two scratch rows, six times 128 KB in
# float32, stay in cache from one operation of the formula to the next, where
# a whole YAGO43kET-shape W (45,182 x 100, 18 MB) goes through memory once
# per operation. A slice is about 330 rows of W at dim 100, near the kernel's
# block width of 372 types on a sampled YAGO43kET-shape batch.
_SLICE_CELLS = 1 << 15


def _check_finite(name: str, grad: np.ndarray) -> None:
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient for tensor {name!r}")


def adam_step(params: ParameterSet, state: AdamState, grads: GradientSet) -> None:
    """One bias-corrected Adam update, in place.

    Dense tensors (W, b and the optional aggregation head) always update;
    embedding rows update only where ``grads`` carries them. Untouched rows
    and their moments are left bitwise unchanged. Every gradient is checked
    for its target's shape and finite first: a ``ValueError`` or
    ``NumericError`` leaves the parameters, the moments and ``state.t`` as
    they were. The update is elementwise, so it runs on slices of about
    ``_SLICE_CELLS`` elements through one scratch pair, with the same bits
    whatever the slicing.
    """
    # (name, tensor, m, v, grad): whole dense tensors, and the touched rows of
    # each embedding table and its moments as gathered copies, written back
    # after the update. A row map's ids and rows become one array each, in
    # insertion order, then go into id order by one argsort.
    updates = [
        (name, getattr(params, name), state.m[name], state.v[name], grad)
        for name, grad in grads.named_dense()
    ]
    gathered = []
    for name, rows in grads.named_sparse():
        if not rows:
            continue
        tensors = getattr(params, name), state.m[name], state.v[name]
        ids = np.fromiter(rows, dtype=np.int64, count=len(rows))
        try:
            grad = np.array(list(rows.values()), dtype=params.dtype)
        except ValueError as err:
            raise ValueError(f"gradient rows of unequal shapes for tensor {name!r}") from err
        order = np.argsort(ids, kind="stable")
        idx, grad = ids[order], grad[order]
        touched = [tensor[idx] for tensor in tensors]
        updates.append((name, *touched, grad))
        gathered.append((idx, tensors, touched))
    for name, target, *_, grad in updates:
        if grad.shape != target.shape:
            raise ValueError(f"gradient shape {grad.shape} for tensor {name!r} of {target.shape}")
        _check_finite(name, grad)

    state.t += 1
    lr, b1, b2, eps = state.lr, state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    slices = []
    for _, *arrays in updates:
        rows = max(1, _SLICE_CELLS // math.prod(arrays[0].shape[1:]))
        slices += [
            [a[lo : lo + rows] for a in arrays] for lo in range(0, len(arrays[0]), rows)
        ]
    width = max(target.size for target, *_ in slices)
    scratch = np.empty((2, width), dtype=params.dtype)
    for target, m, v, grad in slices:
        tmp, step = (buf[: target.size].reshape(target.shape) for buf in scratch)
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(grad, 1.0 - b2, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        tmp += eps
        np.divide(m, bc1, out=step)
        step *= lr
        target -= np.divide(step, tmp, out=step)
    for idx, tensors, touched in gathered:
        for tensor, part in zip(tensors, touched):
            tensor[idx] = part
