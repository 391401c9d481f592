"""Synthetic corpora shared across the test suite."""

from __future__ import annotations

import numpy as np

from cet import assemble, build_graph


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


def assembled(corpus, include_type_edges: bool = True):
    triples, train, valid, test = corpus
    vocab, dataset = assemble(triples, train, valid, test)
    graph = build_graph(vocab, triples, train, include_type_edges=include_type_edges)
    return vocab, dataset, graph, triples, train


def micro_instance(seed: int = 0, k: int = 3):
    """One small random graph plus float64 parameters, for gradient tests."""
    from cet.gradcheck import _draw_params, _random_instance

    rng = np.random.default_rng(seed)
    vocab, graph, entity, positives = _random_instance(rng)
    params = _draw_params(vocab, k, rng, separate_heads=False)
    return vocab, graph, entity, positives, params, rng
