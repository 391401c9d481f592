"""Parameter initialization and Adam updates with lazy sparse rows.

Embedding tables are updated only where a batch produced gradients; moments
of untouched rows are left alone (no bias-correction catch-up), which keeps
step cost proportional to the rows a batch actually touches. Classifier
tensors are always dense-updated.
"""

from __future__ import annotations

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


def _check_finite(name: str, grad: np.ndarray) -> None:
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient for tensor {name!r}")


def adam_step(params: ParameterSet, state: AdamState, grads: GradientSet) -> None:
    """One bias-corrected Adam update, in place.

    Dense tensors (W, b and the optional aggregation head) always update;
    embedding rows update only where ``grads`` carries them. Untouched rows
    and their moments are left bitwise unchanged.
    """
    state.t += 1
    lr, b1, b2, eps = state.lr, state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t

    def update(
        name: str, target: np.ndarray, m: np.ndarray, v: np.ndarray, grad: np.ndarray
    ) -> None:
        """The update of ``target`` and its moments ``m`` and ``v``, in place,
        through two scratch buffers."""
        _check_finite(name, grad)
        tmp, step = np.empty_like(target), np.empty_like(target)
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

    for name, grad in grads.named_dense():
        update(name, getattr(params, name), state.m[name], state.v[name], grad)

    for name, rows in grads.named_sparse():
        if not rows:
            continue
        tensors = getattr(params, name), state.m[name], state.v[name]
        idx = np.sort(np.fromiter(rows.keys(), dtype=np.int64, count=len(rows)))
        grad = np.stack([rows[int(i)] for i in idx]).astype(tensors[0].dtype, copy=False)
        # The touched rows of the table and its moments, updated as gathered
        # copies and written back.
        touched = [tensor[idx] for tensor in tensors]
        update(name, *touched, grad)
        for tensor, part in zip(tensors, touched):
            tensor[idx] = part
