"""The bytes of ``parse`` and ``ingest`` on a wide synthetic corpus, pinned.

The corpus has the shape of the ``boe_wide`` benchmark workload (10 to 20
scenes of 6 to 12 statements each).  The digests cover the TSV and quality
files of ``scenewise parse``, the manifest of ``scenewise ingest`` and every
compiled script's and logline's row ids, lengths, scenes, kinds and casts.
None of these outputs holds floating-point arithmetic, so the digests hold
on any platform; a change to the line scan or the tokenizer that moves one
bit of them fails here.
"""

import hashlib
import json

import pytest

from scenewise.cli import main
from scenewise.corpus import IngestConfig, ingest

INGEST_FLAGS = ["--min-count", "2", "--descriptor-min-movies", "3",
                "--descriptor-top-exclude", "25", "--seed", "4"]

PARSE_SHA256 = ("59d093fb8f1ae01a39ae899de6f9e381"
                "9a3273b099674c14006cf2834fdf4cc9")
MANIFEST_SHA256 = ("1024a062b210e803e497a0e0d8b62f25"
                   "89db18443c14aabb8c218e2ee5dbf03a")
COMPILED_SHA256 = ("f405d0beab7feada610e525bcb4ec038"
                   "b94182d7680c893cb5cfa7ab56dc8f6d")


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    synth = tmp_path_factory.mktemp("pinned") / "synth"
    assert main(["synth", "--out", str(synth), "--scripts", "20", "--tags", "3",
                 "--seed", "11", "--scenes-min", "10", "--scenes-max", "20",
                 "--statements-min", "6", "--statements-max", "12"]) == 0
    return synth


def test_parse_output_keeps_its_bytes(wide_corpus, tmp_path):
    out = tmp_path / "parsed"
    assert main(["parse", "--scripts", str(wide_corpus / "scripts"),
                 "--out", str(out)]) == 0
    digest = hashlib.sha256()
    files = sorted(out.iterdir())
    assert len(files) == 40
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == PARSE_SHA256


def test_ingest_manifest_keeps_its_bytes(wide_corpus, tmp_path):
    out = tmp_path / "manifest.json"
    assert main(["ingest", "--scripts", str(wide_corpus / "scripts"),
                 "--tags", str(wide_corpus / "tags.json"),
                 "--embeddings", str(wide_corpus / "embeddings.txt"),
                 "--out", str(out)] + INGEST_FLAGS) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MANIFEST_SHA256


def test_compiled_scripts_keep_their_bytes(wide_corpus):
    corpus, _ = ingest(wide_corpus / "scripts", wide_corpus / "tags.json",
                       wide_corpus / "embeddings.txt",
                       IngestConfig(min_count=2, descriptor_min_movies=3,
                                    descriptor_top_exclude=25, seed=4),
                       loglines_path=wide_corpus / "loglines.json")
    assert len(corpus.items) == 20
    digest = hashlib.sha256()
    for item in corpus.items:
        for script in (item.script, item.logline_script):
            digest.update(script.title.encode() + b"\0")
            for name in ("ids", "lengths", "scenes", "kinds"):
                array = getattr(script, name)
                digest.update(f"{name} {array.dtype.str} {array.shape}\0".encode())
                digest.update(array.tobytes())
            digest.update(json.dumps(script.characters).encode() + b"\0")
    assert digest.hexdigest() == COMPILED_SHA256
