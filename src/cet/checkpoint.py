"""Binary checkpoint format.

Layout: the 5-byte magic ``CETK1``, a little-endian u64 header length, a
UTF-8 JSON header (dimension, tensor counts, config echo and the three
vocabulary name tables), the parameter tensors as little-endian float32 in
``ParameterSet`` field order, and a trailing 64-bit checksum (blake2b,
8-byte digest) over everything between the magic and the checksum.
Save/load round-trips are byte-identical. A save writes a temporary sibling
file, syncs it to disk and renames it over the target, so a crash mid-save
leaves the previous checkpoint intact; on POSIX it then syncs the directory,
so a finished save also survives a power cut. Neither direction copies the
whole payload: a save writes and hashes the tensors' own buffers, and a load
hashes and reads the file's bytes through memoryview slices.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterable
from dataclasses import fields
from pathlib import Path

import numpy as np

from .graph import Vocab
from .scoring import ParameterSet

__all__ = ["ChecksumError", "save_checkpoint", "load_checkpoint", "MAGIC"]

MAGIC = b"CETK1"


class ChecksumError(RuntimeError):
    """The checkpoint payload does not match its recorded checksum."""


def _digest(parts: Iterable) -> bytes:
    """The checksum of the concatenated buffers ``parts``, fed one at a time."""
    hasher = hashlib.blake2b(digest_size=8)
    for part in parts:
        hasher.update(part)
    return hasher.digest()


def save_checkpoint(
    path: str | Path, params: ParameterSet, vocab: Vocab, config: dict | None = None
) -> None:
    """Write parameters, vocabulary and a config echo to ``path``."""
    header = {
        "k": params.k,
        "counts": {
            "entities": vocab.num_entities,
            "relations": vocab.num_relations,
            "types": vocab.num_types,
        },
        "separate_heads": params.separate_heads,
        "config": config or {},
        "entities": vocab.entity_names,
        "relations": vocab.relation_names,
        "types": vocab.type_names,
    }
    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode()

    parts = [struct.pack("<Q", len(header_bytes)), header_bytes]
    for _, arr in params.named():
        parts.append(np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8))

    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            for part in parts:
                handle.write(part)
            handle.write(_digest(parts))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if os.name == "posix":  # the rename is durable once its directory is synced
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def load_checkpoint(path: str | Path) -> tuple[ParameterSet, Vocab, dict]:
    """Read a checkpoint; raises ChecksumError on any payload corruption."""
    raw = memoryview(Path(path).read_bytes())
    if len(raw) < len(MAGIC) + 16 or raw[: len(MAGIC)] != MAGIC:
        raise ChecksumError(f"{path} is not a recognizable checkpoint")
    payload, checksum = raw[len(MAGIC) : -8], raw[-8:]
    if _digest([payload]) != checksum:
        raise ChecksumError(f"checksum mismatch in {path}")

    (header_len,) = struct.unpack_from("<Q", payload, 0)
    try:
        header = json.loads(str(payload[8 : 8 + header_len], "utf-8"))
        k, separate_heads, config = header["k"], header["separate_heads"], header["config"]
        dims = {key: header["counts"][key] for key in ("entities", "relations", "types")}
        vocab = Vocab.from_names(header["entities"], header["relations"], header["types"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ChecksumError(f"{path}: malformed checkpoint header: {exc}") from None
    # JSON's 3.0, "3" and true are not counts, though 3.0 == 3 and true == 1.
    if not (
        type(k) is int
        and all(type(count) is int for count in dims.values())
        and type(separate_heads) is bool
        and type(config) is dict
    ):
        raise ChecksumError(f"{path}: malformed checkpoint header: a field has the wrong type")
    if [vocab.num_entities, vocab.num_relations, vocab.num_types] != list(dims.values()):
        raise ChecksumError(f"{path}: header counts do not match vocabulary tables")
    dims["k"] = k

    offset = 8 + header_len
    tensors = {}
    for f in fields(ParameterSet):
        if f.default is None and not separate_heads:
            continue  # the separate aggregation head
        shape = tuple(dims[dim] for dim in f.metadata["shape"])
        size = int(np.prod(shape)) * 4
        chunk = payload[offset : offset + size]
        if len(chunk) != size:
            raise ChecksumError(f"{path}: truncated tensor {f.name!r}")
        tensors[f.name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise ChecksumError(f"{path}: trailing bytes after tensors")
    return ParameterSet(**tensors), vocab, config
