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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import repeat
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
    type) from the candidate list.
    """

    train: list[tuple[int, int]]
    valid: list[tuple[int, int]]
    test: list[tuple[int, int]]
    known_types: dict[int, set[int]]
    train_types: dict[int, list[int]]
    drop_counts: dict[str, int] = field(default_factory=dict)

    def split(self, name: str) -> list[tuple[int, int]]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None

    def positives(self, entity: int) -> list[int]:
        """Training-split types of an entity (empty list if it has none)."""
        return self.train_types.get(entity, [])


def _group_types(
    pairs: np.ndarray, num_train: int
) -> tuple[dict[int, list[int]], dict[int, set[int]]]:
    """``train_types`` and ``known_types`` from the id pairs of all splits, train first.

    A stable sort by entity keeps each entity's types in input order, so its
    training types lead its group. Both dicts key entities by first appearance.
    """
    order = np.argsort(pairs[:, 0], kind="stable")
    entities = pairs[order, 0]
    starts = np.flatnonzero(np.diff(entities, prepend=-1))
    mids = starts + np.add.reduceat((order < num_train).astype(np.int64), starts)  # train rows end
    ends = np.append(starts[1:], len(entities))
    by_first = np.argsort(order[starts])  # groups by first appearance
    types = pairs[order, 1].tolist()
    groups = list(zip(*(a[by_first].tolist() for a in (entities[starts], starts, mids, ends))))
    train_types = {e: types[lo:mid] for e, lo, mid, _ in groups if mid > lo}
    known_types = {e: set(types[lo:hi]) for e, lo, _, hi in groups}
    return train_types, known_types


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
        train=list(zip(*train.T.tolist())),
        valid=list(zip(*valid.T.tolist())),
        test=list(zip(*test.T.tolist())),
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
