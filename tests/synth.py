"""Synthetic corpora and helpers shared across the test suite."""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

import cet.kernel
import cet.train
from cet import assemble, build_graph
from cet.checkpoint import MAGIC
from cet.loss import GradientSet
from cet.train import TrainConfig


def tiny_corpus():
    """A handful of hand-checkable names."""
    triples = [("a", "r", "b"), ("b", "s", "c"), ("a", "r", "c")]
    train = [("a", "t1"), ("b", "t2"), ("a", "t2")]
    valid = [("c", "t1")]
    test = [("b", "t1")]
    return triples, train, valid, test


def hub_marker_corpus(
    n_entities: int = 200,
    n_relations: int = 4,
    n_types: int = 8,
    p_member: float = 0.3,
    seed: int = 7,
):
    """A graph where each type is pinned to exactly one outgoing edge shape.

    The first ``n_types`` entities act as hub targets; a regular entity has
    type ``t<j>`` exactly when it carries the edge (r<j mod R>, h<j>). Splits
    are drawn per pair at 70/15/15 with every type forced into train.
    """
    rng = np.random.default_rng(seed)
    hubs = [f"h{j}" for j in range(n_types)]
    regular = [f"e{i}" for i in range(n_entities - n_types)]

    triples = []
    labeled = []
    for name in regular:
        member = rng.random(n_types) < p_member
        if not member.any():
            member[rng.integers(n_types)] = True
        for j in np.flatnonzero(member):
            triples.append((name, f"r{j % n_relations}", hubs[j]))
            labeled.append((name, f"t{j}"))

    train, valid, test = [], [], []
    for pair in labeled:
        roll = rng.random()
        if roll < 0.7:
            train.append(pair)
        elif roll < 0.85:
            valid.append(pair)
        else:
            test.append(pair)
    # Unseen types would be dropped at assembly; force each into train.
    seen = {t for _, t in train}
    for split in (valid, test):
        for pair in list(split):
            if pair[1] not in seen:
                split.remove(pair)
                train.append(pair)
                seen.add(pair[1])
    return triples, train, valid, test


def edges(rel, inv, is_type, tgt):
    """Neighbor arrays, in the graph's dtypes, from four equal-length lists."""
    return (
        np.array(rel, dtype=np.int32),
        np.array(inv, dtype=bool),
        np.array(is_type, dtype=bool),
        np.array(tgt, dtype=np.int32),
    )


def sample_each(graph, entities, sample_size, rng):
    """The per-entity sampler that ``train.sample_neighbors`` batches, as a reference.

    One ``rng.integers(0, degree, size=sample_size)`` per entity, in order,
    indexing its ``neighbor_arrays``; returns one (relation, inverted,
    target_is_type, target) tuple per entity.
    """
    draws = []
    for entity in entities:
        idx = rng.integers(0, graph.degree(entity), size=sample_size)
        draws.append(tuple(a[idx] for a in graph.neighbor_arrays(entity)))
    return draws


def assembled(corpus, include_type_edges: bool = True):
    triples, train, valid, test = corpus
    vocab, dataset = assemble(triples, train, valid, test)
    graph = build_graph(vocab, triples, train, include_type_edges=include_type_edges)
    return vocab, dataset, graph, triples, train


def micro_instance(seed: int = 0, k: int = 3):
    """One small random graph plus float64 parameters, for gradient tests."""
    from cet.gradcheck import _draw_params, _random_instance

    rng = np.random.default_rng(seed)
    vocab, graph, dataset, entity = _random_instance(rng)
    params = _draw_params(vocab, k, rng, separate_heads=False)
    return vocab, graph, entity, dataset.positives(entity), params, rng


def one_type_instance(seed: int, k: int = 3):
    """Entity "a" with one relational neighbor, labeled with the only type, t0.

    Under the self-evidence mask the relational row is the one live
    candidate of t0's column. Parameters are float64, as for gradient tests.
    """
    from cet import build_vocab
    from cet.gradcheck import _draw_params

    triples, pairs = [("a", "r", "b")], [("a", "t0")]
    vocab = build_vocab(triples, pairs)
    graph = build_graph(vocab, triples, pairs)
    params = _draw_params(vocab, k, np.random.default_rng(seed), separate_heads=False)
    return vocab, graph, params


def kernel_gradients(params, neighbors, positives, config, self_mask=False):
    """One entity's loss and gradients from the training kernel, in one type block.

    ``neighbors`` holds the entity's (relation, inverted, target_is_type,
    target) arrays; ``config`` gives the loss and the routes.
    """
    grads = GradientSet.zeros_like(params)
    labels = np.unique(np.asarray(list(positives), dtype=np.int64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cet.kernel, "_CELLS", 1 << 62)
        losses, dreps = cet.kernel.backward(
            params, grads, *(a[None] for a in neighbors), (np.zeros_like(labels), labels),
            config, np.ones((1, len(neighbors[0])), dtype=bool), self_mask=self_mask,
        )
    cet.train._scatter_rows(grads, *neighbors, dreps[0])
    return float(losses[0]), grads


def kernel_pooled(params, neighbors, alpha, *, use_agg2t=True, use_activation=True):
    """One entity's pooled (types,) scores from the forward-only kernel.

    ``neighbors`` holds the entity's (relation, inverted, target_is_type,
    target) arrays, scored as a batch of one with no padding.
    """
    config = TrainConfig(alpha=alpha, use_agg2t=use_agg2t, use_activation=use_activation)
    valid = np.ones((1, len(neighbors[0])), dtype=bool)
    return cet.kernel.backward(params, None, *(a[None] for a in neighbors), None, config, valid)[0]


def _resign_header(path, keys, edit):
    """Call ``edit(node, keys[-1])`` on the checkpoint header's node at
    ``keys[:-1]``, then write the header back and re-sign the file."""
    payload = path.read_bytes()[len(MAGIC) : -8]
    (header_len,) = struct.unpack_from("<Q", payload, 0)
    header = json.loads(payload[8 : 8 + header_len])
    node = header
    for key in keys[:-1]:
        node = node[key]
    edit(node, keys[-1])
    header_bytes = json.dumps(header).encode()
    payload = struct.pack("<Q", len(header_bytes)) + header_bytes + payload[8 + header_len :]
    path.write_bytes(MAGIC + payload + hashlib.blake2b(payload, digest_size=8).digest())


def drop_header_key(path, keys):
    """Delete ``header[keys[0]][keys[1]]...`` from a checkpoint and re-sign it."""
    _resign_header(path, keys, dict.pop)


def edit_header_key(path, keys, change):
    """Set ``header[keys[0]][keys[1]]...`` of a checkpoint to ``change`` of its
    value and re-sign it."""
    _resign_header(path, keys, lambda node, key: node.__setitem__(key, change(node[key])))
