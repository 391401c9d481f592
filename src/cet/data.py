"""Dataset files: TSV loading, split assembly and the evaluation filter map.

Expected layout under a data directory:

    train.txt               head<TAB>relation<TAB>tail
    Entity_Type_train.txt   entity<TAB>type
    Entity_Type_valid.txt   entity<TAB>type
    Entity_Type_test.txt    entity<TAB>type
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .graph import Vocab, build_vocab

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


class ParseError(ValueError):
    """A data file line does not have the expected tab-separated shape."""


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


def load_triples(path: str | Path) -> list[tuple[str, str, str]]:
    """Read (head, relation, tail) triples, one per non-empty line."""
    return _read_rows(path, 3)  # type: ignore[return-value]


def load_pairs(path: str | Path) -> list[tuple[str, str]]:
    """Read (entity, type) pairs, one per non-empty line."""
    return _read_rows(path, 2)  # type: ignore[return-value]


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


def assemble(
    triples: list[tuple[str, str, str]],
    train_pairs: list[tuple[str, str]],
    valid_pairs: list[tuple[str, str]],
    test_pairs: list[tuple[str, str]],
) -> tuple[Vocab, TypingDataset]:
    """Build the vocabulary and the resolved, filtered dataset.

    The vocabulary is built from triples and training pairs only. Validation
    and test pairs whose type never occurs in training (or whose entity is
    unknown) are dropped and counted, as are duplicates within a split and
    pairs repeated across splits.
    """
    triples, dup_triples = _dedupe(triples)
    train_pairs, dup_train = _dedupe(train_pairs)
    valid_pairs, dup_valid = _dedupe(valid_pairs)
    test_pairs, dup_test = _dedupe(test_pairs)

    vocab = build_vocab(triples, train_pairs)

    train = [(vocab.entity_ids[e], vocab.type_ids[t]) for e, t in train_pairs]
    train_set = set(train)

    def resolve_eval(pairs: list[tuple[str, str]], taken: set[tuple[int, int]]):
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
    test, unseen_t, unknown_t, cross_t = resolve_eval(
        test_pairs, train_set | set(valid)
    )

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
    dropped = sum(drop_counts.values())
    if dropped:
        log.info("assembly dropped %d input rows: %s", dropped, drop_counts)

    dataset = TypingDataset(
        train=train,
        valid=valid,
        test=test,
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
