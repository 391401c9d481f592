"""Vocabulary and augmented-graph construction.

The scoring graph is the input knowledge graph after two augmentations:
every known (entity, type) pair becomes an edge through the reserved
``has_type`` relation, and every edge gains an inverted twin, so that the
whole neighborhood of a node is visible from its outgoing adjacency alone.
Only entity adjacency is stored, as CSR arrays: type nodes live in their
own index space and are never scored, so their inverse ``has_type`` edges
are only counted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

HAS_TYPE = "has_type"
HAS_TYPE_ID = 0

__all__ = [
    "HAS_TYPE",
    "HAS_TYPE_ID",
    "EmptyCorpusError",
    "UnknownNameError",
    "Neighbor",
    "Vocab",
    "AugmentedGraph",
    "build_vocab",
    "build_graph",
]


class EmptyCorpusError(ValueError):
    """The corpus has no typed pairs, so there is nothing to learn."""


class UnknownNameError(LookupError):
    """An input name does not resolve against the vocabulary."""


@dataclass(frozen=True)
class Neighbor:
    """One outgoing edge as a value: relation id, direction flag and target node.

    Scoring works on the edge arrays of ``AugmentedGraph.neighbor_arrays``;
    this form labels the sources of an explanation.

    ``target`` indexes the type table when ``target_is_type`` is set (which
    happens exactly for forward ``has_type`` edges) and the entity table
    otherwise.
    """

    relation: int
    inverted: bool
    target: int
    target_is_type: bool = False


@dataclass(frozen=True)
class Vocab:
    """Dense name <-> id maps for entities, relations and types.

    Ids are assigned in first-appearance order, which makes construction
    deterministic. Relation id 0 is always the reserved ``has_type``
    relation; relations read from data start at 1.
    """

    entity_ids: dict[str, int]
    relation_ids: dict[str, int]
    type_ids: dict[str, int]

    def __post_init__(self) -> None:
        if self.relation_ids.get(HAS_TYPE) != HAS_TYPE_ID:
            raise ValueError(f"relation {HAS_TYPE!r} must be present at id {HAS_TYPE_ID}")
        if not self.type_ids:
            raise EmptyCorpusError("vocabulary contains no types")

    @property
    def num_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def num_relations(self) -> int:
        return len(self.relation_ids)

    @property
    def num_types(self) -> int:
        return len(self.type_ids)

    @cached_property
    def entity_names(self) -> list[str]:
        return list(self.entity_ids)

    @cached_property
    def relation_names(self) -> list[str]:
        return list(self.relation_ids)

    @cached_property
    def type_names(self) -> list[str]:
        return list(self.type_ids)

    @classmethod
    def from_names(
        cls, entity_names: list[str], relation_names: list[str], type_names: list[str]
    ) -> "Vocab":
        return cls(
            entity_ids={n: i for i, n in enumerate(entity_names)},
            relation_ids={n: i for i, n in enumerate(relation_names)},
            type_ids={n: i for i, n in enumerate(type_names)},
        )

    def entity(self, name: str) -> int:
        try:
            return self.entity_ids[name]
        except KeyError:
            raise UnknownNameError(f"unknown entity {name!r}") from None

    def type(self, name: str) -> int:
        try:
            return self.type_ids[name]
        except KeyError:
            raise UnknownNameError(f"unknown type {name!r}") from None


def build_vocab(
    triples: list[tuple[str, str, str]], pairs: list[tuple[str, str]]
) -> Vocab:
    """Assign dense ids to all names occurring in ``triples`` and ``pairs``.

    Entities are numbered in order of first appearance (triples first, then
    pair entities); relations likewise, after the reserved ``has_type`` slot;
    types in order of first appearance in ``pairs``.
    """
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


class AugmentedGraph:
    """Immutable outgoing adjacency of the augmented graph, CSR-packed.

    Per-node neighbor order follows input order, so graph construction is
    reproducible and sampling under a fixed seed replays exactly.
    """

    def __init__(
        self,
        num_entities: int,
        entity_csr: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        num_edges_original: int,
        num_type_edges: int,
    ):
        self.num_entities = num_entities
        self._offsets, self._rel, self._inv, self._is_type, self._tgt = entity_csr
        self.num_edges_original = num_edges_original
        self.num_type_edges = num_type_edges

    @property
    def num_directed_edges(self) -> int:
        """Entity edges plus the inverse has_type edges on type nodes."""
        return len(self._rel) + self.num_type_edges

    def _check_entity(self, entity: int) -> None:
        if not 0 <= entity < self.num_entities:
            raise IndexError(f"entity index {entity} out of range [0, {self.num_entities})")

    def degree(self, entity: int) -> int:
        self._check_entity(entity)
        return int(self._offsets[entity + 1] - self._offsets[entity])

    def neighbor_arrays(
        self, entity: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Array views (relation, inverted, target_is_type, target) of one node's edges."""
        self._check_entity(entity)
        lo, hi = self._offsets[entity], self._offsets[entity + 1]
        return (
            self._rel[lo:hi],
            self._inv[lo:hi],
            self._is_type[lo:hi],
            self._tgt[lo:hi],
        )


def _resolve_triples(
    vocab: Vocab, triples: list[tuple[str, str, str]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(triples)
    heads = np.empty(n, dtype=np.int32)
    rels = np.empty(n, dtype=np.int32)
    tails = np.empty(n, dtype=np.int32)
    ent, rel = vocab.entity_ids, vocab.relation_ids
    for i, (h, r, t) in enumerate(triples):
        try:
            heads[i] = ent[h]
        except KeyError:
            raise UnknownNameError(f"unknown entity {h!r}") from None
        try:
            rels[i] = rel[r]
        except KeyError:
            raise UnknownNameError(f"unknown relation {r!r}") from None
        try:
            tails[i] = ent[t]
        except KeyError:
            raise UnknownNameError(f"unknown entity {t!r}") from None
    return heads, rels, tails


def _resolve_pairs(
    vocab: Vocab, pairs: list[tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    n = len(pairs)
    ents = np.empty(n, dtype=np.int32)
    typs = np.empty(n, dtype=np.int32)
    ent, typ = vocab.entity_ids, vocab.type_ids
    for i, (e, t) in enumerate(pairs):
        try:
            ents[i] = ent[e]
        except KeyError:
            raise UnknownNameError(f"unknown entity {e!r}") from None
        try:
            typs[i] = typ[t]
        except KeyError:
            raise UnknownNameError(f"unknown type {t!r}") from None
    return ents, typs


def _first_occurrences(keys: np.ndarray) -> np.ndarray | slice:
    """Index of the first occurrence of each distinct key, in input order.

    With no repeats, the usual case, that is every row: a plain sort finds
    out at a fraction of the cost of the first-occurrence pass.
    """
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return slice(None)
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def _pack_csr(
    num_nodes: int,
    node: np.ndarray,
    rel: np.ndarray,
    inv: np.ndarray,
    is_type: np.ndarray,
    tgt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # Stable sort by node keeps per-node edges in input order.
    order = np.argsort(node, kind="stable")
    counts = np.bincount(node, minlength=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, rel[order], inv[order], is_type[order], tgt[order]


def build_graph(
    vocab: Vocab,
    triples: list[tuple[str, str, str]],
    train_pairs: list[tuple[str, str]],
    include_type_edges: bool = True,
) -> AugmentedGraph:
    """Build the augmented adjacency from triples and training-split pairs.

    Every triple (s, r, o) contributes a forward edge on s and an inverted
    edge on o. When ``include_type_edges`` is set, every (e, t) pair
    contributes a forward ``has_type`` edge on e; its inverted twin on the
    type node t is counted but not stored. Repeats of a triple, or of a pair
    when type edges are built, are dropped with a warning; the first
    occurrence keeps its place.
    """
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
        log.warning(
            "dropped %d duplicate triples and %d duplicate pairs", dup_triples, dup_pairs
        )

    # Interleave forward/inverted edge events so per-node order mirrors the
    # order edges appear in the input.
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
