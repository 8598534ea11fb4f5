"""Small IO helpers: atomic writes, JSON artifacts, canonical JSON, hashing,
where a text file is not UTF-8 with the error that says so, and the
intervals a settings record's fields declare."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
import typing
from dataclasses import fields
from pathlib import Path
from typing import Iterator

from .errors import DataError


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def config_hash(config: dict) -> str:
    return sha256_hex(canonical_json(config))


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, obj) -> None:
    """A JSON artifact: indented, keys sorted, one trailing newline; a
    non-finite float is a ``ValueError`` rather than ``NaN`` or
    ``Infinity`` in the file."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def _line_breaks(data: bytes) -> int:
    """The line breaks in ``data`` as text mode counts them: ``\\r\\n``,
    a lone ``\\r`` and a lone ``\\n`` are one each."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def first_bad_byte(path: str | Path) -> str | None:
    """``line N: byte 0x.. is not UTF-8 text (reason)`` for the first byte
    of the file ``path`` that is not UTF-8, numbering lines as text mode
    does, or None if it has none.  It reads the file again in binary, a
    line at a time; a reader calls it only once decoding has failed."""
    number = 1
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as err:
                number += _line_breaks(raw[:err.start])
                return (f"line {number}: byte 0x{raw[err.start]:02x} is not "
                        f"UTF-8 text ({err.reason})")
            number += _line_breaks(raw)
    return None


def decode_error(path: str | Path) -> DataError:
    """The DataError for a file that is not UTF-8 text, naming ``path`` and
    :func:`first_bad_byte`'s line."""
    where = first_bad_byte(path)
    return DataError(f"{path} {where}" if where else f"{path}: not UTF-8 text")


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(number, line)`` for each line of the UTF-8 text file ``path``, less
    a leading byte-order mark, read as it is iterated; a byte that does not
    decode is :func:`decode_error`, raised only after every whole line
    before it has been yielded.

    Text mode decodes the file a chunk at a time, so a bad byte stops it
    before the lines of its chunk are yielded.  The file is then read
    again with each bad byte escaped, and the lines after those already
    yielded are yielded, numbered as text mode numbers them, up to the
    first that holds an escaped byte."""
    done = 0
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for done, line in enumerate(fh, 1):
                yield done, line
            return
        except UnicodeDecodeError:
            pass
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            if number > done:
                try:
                    # an escaped byte is a lone surrogate, which UTF-8 refuses
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    break
                yield number, line
    raise decode_error(path)


@functools.cache
def declared_intervals(cls) -> dict[str, tuple[type, str]]:
    """``{name: (kind, interval)}`` for each field of dataclass ``cls`` whose
    metadata declares an ``"interval"``, written as in mathematics:
    ``(0, 1]`` takes 1 but not 0, ``[1, inf)`` every value from 1 up.
    ``kind`` (int or float) is the field's type, or its entries' for a
    tuple, or the type beside ``None`` in an optional field."""
    hints = typing.get_type_hints(cls)
    return {f.name: (next(t for t in typing.get_args(hints[f.name])
                          or (hints[f.name],) if t is not type(None)),
                     f.metadata["interval"])
            for f in fields(cls) if "interval" in f.metadata}


def outside_interval(cls, name: str, value) -> str | None:
    """What field ``name`` of dataclass ``cls`` takes, as ``a finite float in
    [0, 1]``, when ``value`` (each entry of a tuple; ``None`` is no value)
    lies outside the interval the field declares; else None."""
    if name not in declared_intervals(cls) or value is None:
        return None
    kind, interval = declared_intervals(cls)[name]
    low, high = (float(end) for end in interval[1:-1].split(","))
    for entry in value if isinstance(value, tuple) else (value,):
        above = low < entry if interval[0] == "(" else low <= entry
        below = entry < high if interval[-1] == ")" else entry <= high
        if not (math.isfinite(entry) and above and below):
            return (f"a finite {kind.__name__} in {interval}"
                    + (" in each entry" if isinstance(value, tuple) else ""))
    return None


def check_intervals(record) -> None:
    """A ``ValueError`` naming the first field of dataclass instance
    ``record`` whose value lies outside the interval it declares (see
    :func:`outside_interval`); each settings record calls it when built."""
    cls = type(record)
    for name in declared_intervals(cls):
        value = getattr(record, name)
        if expected := outside_interval(cls, name, value):
            raise ValueError(f"{cls.__name__}.{name} must be {expected}, "
                             f"got {value!r}")
