"""A frozen copy of the name-tuple set-up path: the oracle for the id-column path.

Rows are tuples of name strings; repeats are dropped by hashing the tuples
(``_dedupe``), the vocabulary by hashing every name, and ``build_graph``
resolves every name of every row again before dropping repeats on integer
keys. Slow and memory-hungry, but simple enough to trust; the equivalence
tests in ``test_setup_equivalence.py`` compare the library against it.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from cet.data import ParseError, TypingDataset
from cet.graph import (
    HAS_TYPE,
    HAS_TYPE_ID,
    AugmentedGraph,
    EmptyCorpusError,
    UnknownNameError,
    Vocab,
)

log = logging.getLogger("cet.graph")


def _dedupe(items: list) -> tuple[list, int]:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out, len(items) - len(out)


def _read_rows(path: str | Path, width: int) -> list[tuple[str, ...]]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            fields = [f.strip() for f in line.split("\t")]
            if len(fields) != width or not all(fields):
                raise ParseError(
                    f"{path}:{lineno}: expected {width} tab-separated fields, "
                    f"got {len(fields)}"
                )
            rows.append(tuple(fields))
    return rows


def load_triples(path):
    return _read_rows(path, 3)


def load_pairs(path):
    return _read_rows(path, 2)


def build_vocab(triples, pairs) -> Vocab:
    if not pairs:
        raise EmptyCorpusError("no typed (entity, type) pairs in the input corpus")
    entities: dict[str, int] = {}
    relations: dict[str, int] = {HAS_TYPE: HAS_TYPE_ID}
    types: dict[str, int] = {}
    for head, rel, tail in triples:
        if rel == HAS_TYPE:
            raise ValueError(f"relation name {HAS_TYPE!r} is reserved")
        if head not in entities:
            entities[head] = len(entities)
        if rel not in relations:
            relations[rel] = len(relations)
        if tail not in entities:
            entities[tail] = len(entities)
    for entity, type_name in pairs:
        if entity not in entities:
            entities[entity] = len(entities)
        if type_name not in types:
            types[type_name] = len(types)
    return Vocab(entity_ids=entities, relation_ids=relations, type_ids=types)


def assemble(triples, train_pairs, valid_pairs, test_pairs) -> tuple[Vocab, TypingDataset]:
    triples, dup_triples = _dedupe(triples)
    train_pairs, dup_train = _dedupe(train_pairs)
    valid_pairs, dup_valid = _dedupe(valid_pairs)
    test_pairs, dup_test = _dedupe(test_pairs)

    vocab = build_vocab(triples, train_pairs)

    train = [(vocab.entity_ids[e], vocab.type_ids[t]) for e, t in train_pairs]
    train_set = set(train)

    def resolve_eval(pairs, taken):
        resolved = []
        unseen = unknown = cross = 0
        for e, t in pairs:
            if e not in vocab.entity_ids:
                unknown += 1
                continue
            if t not in vocab.type_ids:
                unseen += 1
                continue
            pair = (vocab.entity_ids[e], vocab.type_ids[t])
            if pair in taken:
                cross += 1
                continue
            resolved.append(pair)
        return resolved, unseen, unknown, cross

    valid, unseen_v, unknown_v, cross_v = resolve_eval(valid_pairs, train_set)
    test, unseen_t, unknown_t, cross_t = resolve_eval(test_pairs, train_set | set(valid))

    known_types: dict[int, set[int]] = {}
    train_types: dict[int, list[int]] = {}
    for e, t in train:
        known_types.setdefault(e, set()).add(t)
        train_types.setdefault(e, []).append(t)
    for e, t in valid + test:
        known_types.setdefault(e, set()).add(t)

    drop_counts = {
        "duplicate_triples": dup_triples,
        "duplicate_pairs": dup_train + dup_valid + dup_test,
        "unseen_type": unseen_v + unseen_t,
        "unknown_entity": unknown_v + unknown_t,
        "cross_split_duplicates": cross_v + cross_t,
    }
    dataset = TypingDataset(
        train=train, valid=valid, test=test, known_types=known_types,
        train_types=train_types, drop_counts=drop_counts,
    )
    return vocab, dataset


def _ids(kind, lookups, count):
    try:
        return np.fromiter(lookups, dtype=np.int32, count=count)
    except KeyError as err:
        raise UnknownNameError(f"unknown {kind} {err.args[0]!r}") from None


def _resolve_triples(vocab, triples):
    n = len(triples)
    ent, rel = vocab.entity_ids, vocab.relation_ids
    return (
        _ids("entity", (ent[h] for h, _, _ in triples), n),
        _ids("relation", (rel[r] for _, r, _ in triples), n),
        _ids("entity", (ent[t] for _, _, t in triples), n),
    )


def _resolve_pairs(vocab, pairs):
    n = len(pairs)
    ent, typ = vocab.entity_ids, vocab.type_ids
    return (
        _ids("entity", (ent[e] for e, _ in pairs), n),
        _ids("type", (typ[t] for _, t in pairs), n),
    )


def _first_occurrences(keys):
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return slice(None)
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def _pack_csr(num_nodes, node, rel, inv, is_type, tgt):
    order = np.argsort(node, kind="stable")
    counts = np.bincount(node, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, rel[order], inv[order], is_type[order], tgt[order]


def build_graph(vocab, triples, train_pairs, include_type_edges=True) -> AugmentedGraph:
    heads, rels, tails = _resolve_triples(vocab, triples)
    keep = _first_occurrences(
        (heads.astype(np.int64) * vocab.num_relations + rels) * vocab.num_entities + tails
    )
    heads, rels, tails = heads[keep], rels[keep], tails[keep]
    if include_type_edges:
        pair_ents, pair_types = _resolve_pairs(vocab, train_pairs)
        keep_pairs = _first_occurrences(pair_ents.astype(np.int64) * vocab.num_types + pair_types)
        pair_ents, pair_types = pair_ents[keep_pairs], pair_types[keep_pairs]
    else:
        pair_ents = pair_types = np.empty(0, dtype=np.int32)
    n, p = len(heads), len(pair_ents)
    dup_triples = len(triples) - n
    dup_pairs = len(train_pairs) - p if include_type_edges else 0
    if dup_triples or dup_pairs:
        log.warning("dropped %d duplicate triples and %d duplicate pairs", dup_triples, dup_pairs)

    node = np.empty(2 * n + p, dtype=np.int64)
    rel = np.empty(2 * n + p, dtype=np.int32)
    inv = np.empty(2 * n + p, dtype=bool)
    is_type = np.zeros(2 * n + p, dtype=bool)
    tgt = np.empty(2 * n + p, dtype=np.int32)
    node[0 : 2 * n : 2] = heads
    node[1 : 2 * n : 2] = tails
    rel[0 : 2 * n : 2] = rels
    rel[1 : 2 * n : 2] = rels
    inv[0 : 2 * n : 2] = False
    inv[1 : 2 * n : 2] = True
    tgt[0 : 2 * n : 2] = tails
    tgt[1 : 2 * n : 2] = heads
    node[2 * n :] = pair_ents
    rel[2 * n :] = HAS_TYPE_ID
    inv[2 * n :] = False
    is_type[2 * n :] = True
    tgt[2 * n :] = pair_types

    return AugmentedGraph(
        num_entities=vocab.num_entities,
        entity_csr=_pack_csr(vocab.num_entities, node, rel, inv, is_type, tgt),
        num_edges_original=n,
        num_type_edges=p,
    )
