"""Flat binary parameter checkpoints.

Layout: magic, little-endian uint64 header length, canonical-JSON header,
then the parameters' float64 little-endian data concatenated in the
header's order (names sorted).  The header carries the format number, the
caller's manifest (a JSON object: model config, vocabulary hash, config
hash) and each parameter's name and shape, so a checkpoint is
self-describing and byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointCorrupt
from .ioutil import atomic_write_bytes, canonical_json

MAGIC = b"SWCKPT1\n"
FORMAT = 1


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray],
                    manifest: dict) -> None:
    names = sorted(params)
    header = {
        "format": FORMAT,
        "manifest": manifest,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    header_bytes = canonical_json(header).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for n in names:
        blob += np.ascontiguousarray(params[n], dtype="<f8").tobytes()
    atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, checking the magic bytes, that the header parses
    as format ``FORMAT`` with a JSON-object manifest, distinct string
    parameter names and shapes of non-negative ints, that the payload
    holds exactly the listed parameters' bytes, and that every value is
    finite."""
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise CheckpointCorrupt(f"{path}: not a scenewise checkpoint")
    offset = len(MAGIC) + 8
    if len(raw) < offset:
        raise CheckpointCorrupt(f"{path}: truncated before the header length")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    if len(raw) < offset + header_len:
        raise CheckpointCorrupt(f"{path}: header of {header_len} bytes is "
                                f"truncated at {len(raw) - offset}")
    try:
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
        version, manifest = header["format"], header["manifest"]
        entries = [(e["name"], e["shape"]) for e in header["params"]]
    except (ValueError, KeyError, TypeError) as err:
        raise CheckpointCorrupt(f"{path}: unreadable header: {err}") from err
    if type(version) is not int or version != FORMAT:
        raise CheckpointCorrupt(f"{path}: header format {reprlib.repr(version)}, "
                                f"not {FORMAT}")
    if type(manifest) is not dict:
        raise CheckpointCorrupt(f"{path}: the manifest is not a JSON object")
    seen: set[str] = set()
    for name, shape in entries:
        if type(name) is not str:
            raise CheckpointCorrupt(f"{path}: parameter name {reprlib.repr(name)} "
                                    f"is not a string")
        if name in seen:
            raise CheckpointCorrupt(f"{path}: parameter {name!r} is listed twice")
        seen.add(name)
        if type(shape) is not list or not all(type(n) is int and n >= 0
                                              for n in shape):
            raise CheckpointCorrupt(f"{path}: parameter {reprlib.repr(name)} has "
                                    f"shape {reprlib.repr(shape)}, not a list "
                                    f"of non-negative ints")
    counts = [math.prod(shape) for _, shape in entries]
    offset += header_len
    expected = 8 * sum(counts)
    if len(raw) - offset != expected:
        raise CheckpointCorrupt(f"{path}: payload is {len(raw) - offset} bytes, "
                                f"the header lists {expected}")
    params: dict[str, np.ndarray] = {}
    for (name, shape), count in zip(entries, counts):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        params[name] = arr.reshape(shape).astype(np.float64)
        if not np.isfinite(params[name]).all():
            raise CheckpointCorrupt(f"{path}: parameter {name!r} holds a NaN "
                                    f"or infinite value")
    return params, manifest
