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
reads each tensor straight into its array and hashes it there.
"""

from __future__ import annotations

import hashlib
import json
import math
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
    """Read a checkpoint; raises ChecksumError on any payload corruption.

    The header's sizes are checked against the file's before any tensor is
    allocated; each tensor is read into its own array and hashed from there,
    and nothing is returned unless the checksum matches.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(len(MAGIC) + 8)
        if size < len(MAGIC) + 16 or head[: len(MAGIC)] != MAGIC:
            raise ChecksumError(f"{path} is not a recognizable checkpoint")
        (header_len,) = struct.unpack_from("<Q", head, len(MAGIC))
        header_bytes = handle.read(min(header_len, size))
        try:
            header = json.loads(str(header_bytes, "utf-8"))
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
        shapes = {
            f.name: tuple(dims[dim] for dim in f.metadata["shape"])
            for f in fields(ParameterSet)
            if f.default is not None or separate_heads  # else no separate aggregation head
        }
        tensor_bytes = sum(4 * math.prod(shape) for shape in shapes.values())
        if k < 0 or len(head) + header_len + tensor_bytes + 8 != size:
            raise ChecksumError(f"{path}: header sizes do not match the file's {size} bytes")
        tensors = {name: np.empty(shape, dtype="<f4") for name, shape in shapes.items()}

        def payload():
            yield head[len(MAGIC) :]
            yield header_bytes
            for tensor in tensors.values():  # a short read ends the file: no checksum follows
                buffer = tensor.reshape(-1).view(np.uint8)
                yield buffer[: handle.readinto(buffer)]

        if _digest(payload()) != handle.read(9):  # nine: a longer file does not match either
            raise ChecksumError(f"checksum mismatch in {path}")
    return ParameterSet(**tensors), vocab, config
