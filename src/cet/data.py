"""Dataset files: TSV loading, split assembly and the evaluation filter map.

Expected layout under a data directory:

    train.txt               head<TAB>relation<TAB>tail
    Entity_Type_train.txt   entity<TAB>type
    Entity_Type_valid.txt   entity<TAB>type
    Entity_Type_test.txt    entity<TAB>type

Each file is read straight into id columns (``NameRows``), with no Python
object per row. ``assemble`` builds the vocabulary from the files' name
tables, maps codes to ids through vocabulary-sized arrays and drops repeats
in one pass per file, which ``build_graph`` reuses.

The assembled labels keep no Python object per pair or per entity either.
Each split is a ``PairList``, a read-only sequence of (entity, type) tuples
over an (n, 2) int32 array. ``train_types`` and ``known_types`` are
``TypeMap`` views, read-only mappings over one shared CSR (``TypeGroups``):
the labelled entities in first-appearance order, each one's bounds, and one
int32 array of types, grouped by entity with the training types first.
Reading a view builds the tuple, list or set of Python ints it stands for,
so code that takes plain lists and dicts takes these as well.
"""

from __future__ import annotations

import logging
import operator
from collections.abc import Iterator, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .graph import NameRows, ParseError, Rows, Vocab, build_vocab

log = logging.getLogger(__name__)

__all__ = [
    "ParseError",
    "TypingDataset",
    "load_triples",
    "load_pairs",
    "assemble",
    "default_paths",
]

TRIPLES_FILE = "train.txt"
TRAIN_PAIRS_FILE = "Entity_Type_train.txt"
VALID_PAIRS_FILE = "Entity_Type_valid.txt"
TEST_PAIRS_FILE = "Entity_Type_test.txt"


def load_triples(path: str | Path) -> NameRows:
    """Read (head, relation, tail) triples, one per non-empty line."""
    with open(path, encoding="utf-8") as handle:
        return NameRows.of(map(str.split, handle, repeat("\t")), 3, path)


def load_pairs(path: str | Path) -> NameRows:
    """Read (entity, type) pairs, one per non-empty line."""
    with open(path, encoding="utf-8") as handle:
        return NameRows.of(map(str.split, handle, repeat("\t")), 2, path)


@dataclass
class TypingDataset:
    """Per-split (entity id, type id) pairs plus the evaluation filter map.

    ``known_types`` maps each entity to the union of its types across all
    three splits; the ranking protocol removes these (minus the queried
    type) from the candidate list. The library reads the fields only as
    sequences and mappings: ``assemble`` fills them with array-backed views,
    and plain lists and dicts serve as well.
    """

    train: Sequence[tuple[int, int]]
    valid: Sequence[tuple[int, int]]
    test: Sequence[tuple[int, int]]
    known_types: Mapping[int, AbstractSet[int]]
    train_types: Mapping[int, Sequence[int]]
    drop_counts: dict[str, int] = field(default_factory=dict)

    def split(self, name: str) -> Sequence[tuple[int, int]]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None

    def positives(self, entity: int) -> Sequence[int]:
        """Training-split types of an entity (empty list if it has none)."""
        return self.train_types.get(entity, [])


def _flat_pairs(groups: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(position, id) int64 arrays of every id of ``groups``, group by group in order."""
    positions = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    ids = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=len(positions))
    return positions, ids


# Rows per ``.tolist()`` while a PairList is iterated: the column lists of one
# chunk take about 2.5 MB, where those of a whole YAGO43kET-size split would
# take tens of MB.
_CHUNK = 1 << 15


def _tuples(pairs: np.ndarray) -> Iterator[tuple[int, int]]:
    return zip(*pairs.T.tolist())


class PairList(Sequence):
    """A read-only list of (entity, type) tuples over an (n, 2) int32 array.

    Iteration converts the array a chunk of columns at a time and zips them:
    each pass costs about what building the list of tuples would, not one
    ``__getitem__`` per pair. It compares equal to a list of the same tuples,
    and ``+`` concatenates into a list.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: np.ndarray):
        self._pairs = pairs
        pairs.flags.writeable = False

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(_tuples(self._pairs[index]))
        return tuple(self._pairs[operator.index(index)].tolist())

    def __iter__(self) -> Iterator[tuple[int, int]]:
        pairs = self._pairs
        return chain.from_iterable(
            _tuples(pairs[lo : lo + _CHUNK]) for lo in range(0, len(pairs), _CHUNK)
        )

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, PairList)) else NotImplemented

    __hash__ = None  # like a list's

    def __add__(self, other) -> list[tuple[int, int]]:
        return [*self, *other] if isinstance(other, (list, PairList)) else NotImplemented

    def __radd__(self, other) -> list[tuple[int, int]]:  # list + PairList, as in a + b + c
        return [*other, *self] if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"PairList({list(self)!r})"


@dataclass(frozen=True)
class TypeGroups:
    """Every labelled entity's types in one CSR, which ``train_types`` and
    ``known_types`` share.

    Group ``g`` belongs to entity ``entities[g]``, the groups in order of
    their entity's first appearance. Its types are
    ``types[indptr[g]:indptr[g + 1]]``, the training ones first, up to
    ``train_ends[g]``. ``slot`` maps an entity id to its group, -1 if the
    entity has none. Every array is int32 except the two bounds, and none is
    writeable.
    """

    entities: np.ndarray
    indptr: np.ndarray
    train_ends: np.ndarray
    types: np.ndarray
    slot: np.ndarray

    def __post_init__(self):
        for array in (self.entities, self.indptr, self.train_ends, self.types, self.slot):
            array.flags.writeable = False


class TypeMap(Mapping):
    """A read-only dict view of a ``TypeGroups``: each entity whose group has
    types before ``ends`` maps to those types, as a new ``kind`` (list or set)
    of Python ints. Keys are in first-appearance order; any other key, a
    negative or too large id or a non-integer, is missing.
    """

    __slots__ = ("_groups", "_ends", "_kind", "_keys")

    def __init__(self, groups: TypeGroups, ends: np.ndarray, kind: type):
        self._groups, self._ends, self._kind = groups, ends, kind
        self._keys = groups.entities[ends > groups.indptr[:-1]]

    def _bounds(self, entity) -> tuple[int, int]:
        """``entity``'s slice of the type array; empty if it is not a key."""
        try:
            entity = operator.index(entity)
        except TypeError:
            return 0, 0
        slot = self._groups.slot
        group = slot[entity] if 0 <= entity < len(slot) else -1
        return (0, 0) if group < 0 else (self._groups.indptr[group], self._ends[group])

    def __getitem__(self, entity):
        lo, hi = self._bounds(entity)
        if lo == hi:
            raise KeyError(entity)
        return self._kind(self._groups.types[lo:hi].tolist())

    def __contains__(self, entity) -> bool:
        lo, hi = self._bounds(entity)
        return hi > lo

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"TypeMap({dict(self)!r})"


def _group_types(pairs: np.ndarray, num_train: int) -> tuple[TypeMap, TypeMap]:
    """``train_types`` and ``known_types`` from the id pairs of all splits, train first.

    A stable sort by each pair's group, its entity's rank by first appearance,
    keeps each entity's types in input order, so its training types lead.
    """
    entities, first, inverse = np.unique(pairs[:, 0], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(entities), dtype=np.int32)
    rank[by_first] = np.arange(len(entities))
    group = rank[inverse]
    counts = np.bincount(group, minlength=len(entities))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    slot = np.full(entities[-1] + 1 if len(entities) else 0, -1, dtype=np.int32)
    slot[entities] = rank
    groups = TypeGroups(
        entities=entities[by_first],
        indptr=indptr,
        train_ends=indptr[:-1] + np.bincount(group[:num_train], minlength=len(entities)),
        types=pairs[np.argsort(group, kind="stable"), 1],
        slot=slot,
    )
    return TypeMap(groups, groups.train_ends, list), TypeMap(groups, indptr[1:], set)


def assemble(
    triples: Rows, train_pairs: Rows, valid_pairs: Rows, test_pairs: Rows
) -> tuple[Vocab, TypingDataset]:
    """Build the vocabulary and the resolved, filtered dataset.

    The vocabulary is built from triples and training pairs only. Validation
    and test pairs whose type never occurs in training (or whose entity is
    unknown) are dropped and counted, as are duplicates within a split and
    pairs repeated across splits.
    """
    triples = NameRows.of(triples, 3)
    files = [NameRows.of(rows, 2) for rows in (train_pairs, valid_pairs, test_pairs)]
    vocab = build_vocab(triples, files[0])
    train, *held_out = (rows.ids(vocab, strict=False)[rows.first] for rows in files)

    # Pairs as int64 keys. ``taken``, the sorted keys of the earlier splits,
    # is never empty: build_vocab refuses an empty training file.
    taken = np.sort(train[:, 0].astype(np.int64) * vocab.num_types + train[:, 1])
    kept, drops = [], np.zeros(4, dtype=np.int64)  # drops by reason, 0 = kept
    for pairs in held_out:
        keys = pairs[:, 0].astype(np.int64) * vocab.num_types + pairs[:, 1]
        at = np.minimum(np.searchsorted(taken, keys), len(taken) - 1)
        reason = np.select([pairs[:, 0] < 0, pairs[:, 1] < 0, taken[at] == keys], [1, 2, 3])
        drops += np.bincount(reason, minlength=4)
        kept.append(pairs[reason == 0])
        taken = np.sort(np.concatenate([taken, keys[reason == 0]]))
    valid, test = kept

    train_types, known_types = _group_types(np.concatenate([train, valid, test]), len(train))
    drop_counts = {
        "duplicate_triples": triples.repeats,
        "duplicate_pairs": sum(rows.repeats for rows in files),
        "unseen_type": int(drops[2]),
        "unknown_entity": int(drops[1]),
        "cross_split_duplicates": int(drops[3]),
    }
    dropped = sum(drop_counts.values())
    if dropped:
        log.info("assembly dropped %d input rows: %s", dropped, drop_counts)

    dataset = TypingDataset(
        train=PairList(train),
        valid=PairList(valid),
        test=PairList(test),
        known_types=known_types,
        train_types=train_types,
        drop_counts=drop_counts,
    )
    return vocab, dataset


def default_paths(data_dir: str | Path) -> dict[str, Path]:
    """Conventional file locations inside a dataset directory."""
    base = Path(data_dir)
    return {
        "triples": base / TRIPLES_FILE,
        "train": base / TRAIN_PAIRS_FILE,
        "valid": base / VALID_PAIRS_FILE,
        "test": base / TEST_PAIRS_FILE,
    }
