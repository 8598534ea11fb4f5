import json
import struct

import numpy as np
import pytest

from scenewise.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from scenewise.errors import CheckpointCorrupt
from scenewise.ioutil import canonical_json, write_json


def test_checkpoint_round_trip(tmp_path):
    params = {
        "b.weights": np.arange(6, dtype=float).reshape(2, 3),
        "a.bias": np.array([0.5, -0.25]),
        "scalarish": np.array(3.0),
    }
    manifest = {"seed": 7, "vocabulary_hash": "abc", "model": {"kind": "x"}}
    path = tmp_path / "model.swck"
    save_checkpoint(path, params, manifest)
    loaded, loaded_manifest = load_checkpoint(path)
    assert loaded_manifest == manifest
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])
        assert loaded[name].shape == params[name].shape


def test_checkpoint_bytes_deterministic(tmp_path):
    params = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
    manifest = {"seed": 1}
    p1, p2 = tmp_path / "a.swck", tmp_path / "b.swck"
    save_checkpoint(p1, params, manifest)
    save_checkpoint(p2, {"w": params["w"].copy()}, dict(manifest))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.swck"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _rewritten(raw: bytes, change, keep_payload: bool = True) -> bytes:
    """``raw`` with its header JSON passed through ``change``."""
    start = len(MAGIC) + 8
    header_end = start + struct.unpack_from("<Q", raw, len(MAGIC))[0]
    header = json.loads(raw[start:header_end])
    change(header)
    header_bytes = canonical_json(header).encode("utf-8")
    return (MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes
            + (raw[header_end:] if keep_payload else b""))


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


def _set_shapes(*shapes):
    def change(header):
        for entry, shape in zip(header["params"], shapes):
            entry["shape"] = shape
    return change


def _set_names(*names):
    def change(header):
        for entry, name in zip(header["params"], names):
            entry["name"] = name
    return change


def _damage(raw: bytes, case: str) -> bytes:
    header_end = len(MAGIC) + 8 + struct.unpack_from("<Q", raw, len(MAGIC))[0]
    return {
        "trailing_bytes": lambda: raw + bytes(8),
        "truncated_payload": lambda: raw[:-8],
        "truncated_header": lambda: raw[:header_end - 5],
        "format_2": lambda: _rewritten(raw, _set("format", 2)),
        "format_true": lambda: _rewritten(raw, _set("format", True)),
        "no_format": lambda: _rewritten(raw, lambda header: header.pop("format")),
        # the element counts of shapes [-1] and [1] sum to the empty payload
        "negative_shape": lambda: _rewritten(raw, _set_shapes([-1], [1]),
                                             keep_payload=False),
        "float_shape": lambda: _rewritten(raw, _set_shapes([3.0], [2, 3])),
        "shape_not_list": lambda: _rewritten(raw, _set_shapes(3, [2, 3])),
        "manifest_7": lambda: _rewritten(raw, _set("manifest", 7)),
        "manifest_list": lambda: _rewritten(raw, _set("manifest", [1])),
        # the second array would silently replace the first
        "duplicate_name": lambda: _rewritten(raw, _set_names("w", "w")),
        "int_name": lambda: _rewritten(raw, _set_names(7, "w")),
    }[case]()


@pytest.mark.parametrize("case", ["trailing_bytes", "truncated_payload",
                                  "truncated_header", "format_2", "format_true",
                                  "no_format", "negative_shape", "float_shape",
                                  "shape_not_list", "manifest_7",
                                  "manifest_list", "duplicate_name",
                                  "int_name"])
def test_checkpoint_rejects_damage(tmp_path, case):
    path = tmp_path / "model.swck"
    save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(3)}, {"seed": 1})
    path.write_bytes(_damage(path.read_bytes(), case))
    named = {"duplicate_name": "parameter 'w'", "int_name": "name 7"}
    with pytest.raises(CheckpointCorrupt, match=named.get(case)):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_manifest_value_raises_and_writes_nothing(tmp_path, value):
    # JSON has no form for these; json.dumps would write Infinity or NaN
    with pytest.raises(ValueError):
        canonical_json({"stats": {"simplex_min_entry": value}})
    path = tmp_path / "model.swck"
    with pytest.raises(ValueError):
        save_checkpoint(path, {"w": np.zeros(2)}, {"stats": {"x": value}})
    # every JSON artifact (reports, manifests, synth's files) refuses them too
    with pytest.raises(ValueError):
        write_json(tmp_path / "report.json", {"cutoffs": {"100": {"f1": value}}})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, value):
    path = tmp_path / "model.swck"
    w = np.ones((2, 3))
    w[1, 2] = value
    save_checkpoint(path, {"b": np.zeros(3), "w": w}, {"seed": 1})
    with pytest.raises(CheckpointCorrupt, match=r"^.*model\.swck: parameter "
                       r"'w' holds a NaN or infinite value$"):
        load_checkpoint(path)
