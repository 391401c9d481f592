"""Binary checkpoint format.

Layout: the 5-byte magic ``CETK1``, a little-endian u64 header length, a
UTF-8 JSON header (dimension, tensor counts, config echo and the three
vocabulary name tables), the parameter tensors as little-endian float32 in
a fixed order, and a trailing 64-bit checksum (blake2b, 8-byte digest) over
everything between the magic and the checksum. Save/load round-trips are
byte-identical. A save writes a temporary sibling file, syncs it to disk and
renames it over the target, so a crash mid-save leaves the previous
checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .graph import Vocab
from .scoring import ParameterSet

__all__ = ["ChecksumError", "save_checkpoint", "load_checkpoint", "MAGIC"]

MAGIC = b"CETK1"
_TENSOR_ORDER = ("entity_emb", "relation_emb", "type_emb", "W", "b")
_AGG_ORDER = ("agg_W", "agg_b")


class ChecksumError(RuntimeError):
    """The checkpoint payload does not match its recorded checksum."""


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


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

    tensor_names = _TENSOR_ORDER + (_AGG_ORDER if params.separate_heads else ())
    blob = bytearray()
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for name in tensor_names:
        arr = getattr(params, name)
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()

    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(blob)
            handle.write(_digest(bytes(blob)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[ParameterSet, Vocab, dict]:
    """Read a checkpoint; raises ChecksumError on any payload corruption."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 16 or not raw.startswith(MAGIC):
        raise ChecksumError(f"{path} is not a recognizable checkpoint")
    payload, checksum = raw[len(MAGIC) : -8], raw[-8:]
    if _digest(payload) != checksum:
        raise ChecksumError(f"checksum mismatch in {path}")

    (header_len,) = struct.unpack_from("<Q", payload, 0)
    try:
        header = json.loads(payload[8 : 8 + header_len].decode())
        k, separate_heads, config = header["k"], header["separate_heads"], header["config"]
        counts = [header["counts"][key] for key in ("entities", "relations", "types")]
        vocab = Vocab.from_names(header["entities"], header["relations"], header["types"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ChecksumError(f"{path}: malformed checkpoint header: {exc}") from None
    if [vocab.num_entities, vocab.num_relations, vocab.num_types] != counts:
        raise ChecksumError(f"{path}: header counts do not match vocabulary tables")

    num_entities, num_relations, num_types = counts
    shapes = {
        "entity_emb": (num_entities, k),
        "relation_emb": (num_relations, k),
        "type_emb": (num_types, k),
        "W": (num_types, k),
        "b": (num_types,),
        "agg_W": (num_types, k),
        "agg_b": (num_types,),
    }
    tensor_names = _TENSOR_ORDER + (_AGG_ORDER if separate_heads else ())
    offset = 8 + header_len
    tensors = {}
    for name in tensor_names:
        shape = shapes[name]
        size = int(np.prod(shape)) * 4
        chunk = payload[offset : offset + size]
        if len(chunk) != size:
            raise ChecksumError(f"{path}: truncated tensor {name!r}")
        tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise ChecksumError(f"{path}: trailing bytes after tensors")

    params = ParameterSet(
        entity_emb=tensors["entity_emb"],
        relation_emb=tensors["relation_emb"],
        type_emb=tensors["type_emb"],
        W=tensors["W"],
        b=tensors["b"],
        agg_W=tensors.get("agg_W"),
        agg_b=tensors.get("agg_b"),
    )
    return params, vocab, config
