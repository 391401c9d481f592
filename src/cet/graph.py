"""Name tables, vocabulary and augmented-graph construction.

``NameRows`` keep rows of names as id columns: an int32 code per field into
the rows' own name tables, so each name of each row is hashed once. The rest
of set-up is array work, or vocabulary-sized work on the tables; repeated
rows are found once per file, on packed integer keys.

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
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

log = logging.getLogger(__name__)

HAS_TYPE = "has_type"
HAS_TYPE_ID = 0

__all__ = [
    "HAS_TYPE",
    "HAS_TYPE_ID",
    "EmptyCorpusError",
    "ParseError",
    "UnknownNameError",
    "NameRows",
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


class ParseError(ValueError):
    """A data file line does not have the expected tab-separated shape."""


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

    def id_of(self, kind: str, name: str) -> int:
        """The id of an ``entity``, ``relation`` or ``type`` name."""
        try:
            return getattr(self, f"{kind}_ids")[name]
        except KeyError:
            raise UnknownNameError(f"unknown {kind} {name!r}") from None


def _row_keys(codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """One int64 key per row of ``codes``, equal exactly when the rows are equal.

    Column j is a digit of radix ``sizes[j]``. Should the radix product reach
    2**63, the key so far is first replaced by its rank (< the row count).
    """
    keys, span = np.zeros(len(codes), dtype=np.int64), 1
    for column, size in zip(codes.T, sizes):
        if span * size >= 2**63:
            distinct, keys = np.unique(keys, return_inverse=True)
            span = len(distinct)
        keys, span = keys * size + column, span * size
    return keys


class _Table(dict):
    """Codes of names in first-appearance order; a new name gets the next code."""

    def __missing__(self, name: str) -> int:
        self[name] = code = len(self)
        return code


# One loop per row width: unpacking into locals costs about what keeping a
# tuple of names per row did; a loop generic over the fields runs 1.5-2x slower.
def _code_triples(rows: Iterable[Sequence[str]], where: object) -> "NameRows":
    entities, relations, codes = _Table(), _Table(), array("i")
    push = codes.append
    for line, fields in enumerate(rows, start=1):
        head, rel, tail = fields if len(fields) == 3 else ("", "", "")
        head, rel, tail = head.strip(), rel.strip(), tail.strip()
        if head and rel and tail:
            push(entities[head])
            push(relations[rel])
            push(entities[tail])
        elif "".join(fields).strip():  # not a blank line
            raise ParseError(f"{where}:{line}: expected 3 tab-separated fields, got {len(fields)}")
    tables = {"entity": list(entities), "relation": list(relations)}
    return NameRows(codes, ("entity", "relation", "entity"), tables)


def _code_pairs(rows: Iterable[Sequence[str]], where: object) -> "NameRows":
    entities, types, codes = _Table(), _Table(), array("i")
    push = codes.append
    for line, fields in enumerate(rows, start=1):
        entity, type_name = fields if len(fields) == 2 else ("", "")
        entity, type_name = entity.strip(), type_name.strip()
        if entity and type_name:
            push(entities[entity])
            push(types[type_name])
        elif "".join(fields).strip():
            raise ParseError(f"{where}:{line}: expected 2 tab-separated fields, got {len(fields)}")
    return NameRows(codes, ("entity", "type"), {"entity": list(entities), "type": list(types)})


class NameRows:
    """Rows of names as an int32 code array into per-kind name tables.

    ``codes[i, j]`` indexes ``tables[kinds[j]]``, the names of that kind in
    order of first appearance; columns of one kind share a table. ``len()``
    counts the rows read, repeats included; iterating yields name tuples.
    """

    def __init__(self, codes: array, kinds: tuple[str, ...], tables: dict[str, list[str]]):
        self.codes = np.frombuffer(codes, dtype=np.int32).reshape(-1, len(kinds))
        self.kinds = kinds
        self.tables = tables

    @classmethod
    def of(cls, rows: "Rows", width: int, where: object = "<rows>") -> "NameRows":
        """``rows`` (a file's lines split at tabs, or name tuples) as NameRows.

        Fields are stripped, blank rows skipped, malformed ones a ParseError.
        """
        if isinstance(rows, NameRows):
            return rows
        return (_code_triples if width == 3 else _code_pairs)(rows, where)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        columns = [self.tables[kind] for kind in self.kinds]
        for row in self.codes.tolist():
            yield tuple(names[code] for names, code in zip(columns, row))

    @cached_property
    def first(self) -> np.ndarray | slice:
        """The rows that repeat no earlier row, in input order.

        With no repeats, the usual case, that is every row: a plain sort finds
        out at a fraction of the cost of the first-occurrence pass.
        """
        keys = _row_keys(self.codes, [len(self.tables[kind]) for kind in self.kinds])
        ordered = np.sort(keys)
        if not (ordered[1:] == ordered[:-1]).any():
            return slice(None)
        return np.sort(np.unique(keys, return_index=True)[1])

    @property
    def repeats(self) -> int:
        return 0 if isinstance(self.first, slice) else len(self) - len(self.first)

    def ids(self, vocab: Vocab, strict: bool = True) -> np.ndarray:
        """The vocabulary id of every code, -1 for a name the vocabulary lacks.

        If ``strict``, the first such name of the first column with one raises.
        """
        to_id = {
            kind: np.fromiter(map(getattr(vocab, f"{kind}_ids").get, names, repeat(-1)),
                              dtype=np.int32, count=len(names))
            for kind, names in self.tables.items()
        }
        ids = np.empty_like(self.codes)
        for j, kind in enumerate(self.kinds):
            ids[:, j] = to_id[kind][self.codes[:, j]]
            unknown = ids[:, j] < 0
            if strict and unknown.any():
                name = self.tables[kind][self.codes[unknown.argmax(), j]]
                raise UnknownNameError(f"unknown {kind} {name!r}")
        return ids


Rows = NameRows | Sequence[tuple[str, ...]]  # as loaded, or name tuples


def build_vocab(triples: Rows, pairs: Rows) -> Vocab:
    """Assign dense ids to all names occurring in ``triples`` and ``pairs``.

    Entities are numbered in order of first appearance (triples first, then
    pair entities); relations likewise, after the reserved ``has_type`` slot;
    types in order of first appearance in ``pairs``. Only the name tables
    are read, so the work is vocabulary-sized.
    """
    triples, pairs = NameRows.of(triples, 3), NameRows.of(pairs, 2)
    if not len(pairs):
        raise EmptyCorpusError("no typed (entity, type) pairs in the input corpus")
    if HAS_TYPE in triples.tables["relation"]:
        raise ValueError(f"relation name {HAS_TYPE!r} is reserved")
    return Vocab.from_names(
        list(dict.fromkeys(triples.tables["entity"] + pairs.tables["entity"])),
        [HAS_TYPE, *triples.tables["relation"]],
        pairs.tables["type"],
    )


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
        return self._rel[lo:hi], self._inv[lo:hi], self._is_type[lo:hi], self._tgt[lo:hi]


def build_graph(
    vocab: Vocab, triples: Rows, train_pairs: Rows, include_type_edges: bool = True
) -> AugmentedGraph:
    """Build the augmented adjacency from triples and training-split pairs.

    Every triple (s, r, o) contributes a forward edge on s and an inverted
    edge on o. When ``include_type_edges`` is set, every (e, t) pair
    contributes a forward ``has_type`` edge on e; its inverted twin on the
    type node t is counted but not stored. Repeats of a triple, or of a pair
    when type edges are built, are dropped with a warning; the first
    occurrence keeps its place.
    """
    triples = NameRows.of(triples, 3)
    pairs = NameRows.of(train_pairs if include_type_edges else [], 2)
    edges, typed = (rows.ids(vocab)[rows.first] for rows in (triples, pairs))
    if triples.repeats or pairs.repeats:
        log.warning(
            "dropped %d duplicate triples and %d duplicate pairs", triples.repeats, pairs.repeats
        )

    # Interleave each triple's forward (head, tail) and inverted (tail, head)
    # edge, so per-node order mirrors the input order; type edges follow.
    n, p = len(edges), len(typed)
    node = np.concatenate([edges[:, ::2].ravel(), typed[:, 0]])
    rel = np.concatenate([np.repeat(edges[:, 1], 2), np.full(p, HAS_TYPE_ID, dtype=np.int32)])
    inv = np.concatenate([np.tile([False, True], n), np.zeros(p, dtype=bool)])
    is_type = np.arange(2 * n + p) >= 2 * n
    tgt = np.concatenate([edges[:, ::-2].ravel(), typed[:, 1]])
    # CSR by node; the stable sort keeps each node's edges in that order.
    order = np.argsort(node, kind="stable")
    offsets = np.zeros(vocab.num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(node, minlength=vocab.num_entities), out=offsets[1:])
    return AugmentedGraph(
        num_entities=vocab.num_entities,
        entity_csr=(offsets, rel[order], inv[order], is_type[order], tgt[order]),
        num_edges_original=n,
        num_type_edges=p,
    )
