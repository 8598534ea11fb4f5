"""The bytes of ``parse``, ``ingest`` and ``evaluate`` on synthetic
corpora, pinned.

The wide corpus has the shape of the ``boe_wide`` benchmark workload (10 to
20 scenes of 6 to 12 statements each).  Its digests cover the TSV and
quality files of ``scenewise parse``, the manifest of ``scenewise ingest``
and every compiled script's and logline's row ids, lengths, scenes, kinds
and casts.  None of these outputs holds floating-point arithmetic, so the
digests hold on any platform; a change to the line scan or the tokenizer
that moves one bit of them fails here.

The tagged corpus has 8 tags, so 28 tag pairs, and cutoffs 90 to 70 match
tags that cutoff 100 does not.  Its digests cover ``scenewise evaluate``'s
report with ``--tag-embeddings`` and four cutoffs, for a BoE, a GRU+Attn and
a loglines checkpoint trained on it: each F-1 there rests on thresholded
logits and on the percentiles of the tag space, so a change that moves a
prediction or a percentile fails here.  The loglines checkpoint's own bytes
are pinned too, so its parameter names, order and values cannot drift.

The trajectory digests cover ``scenewise trajectories`` from a raw play of
the wide corpus to its SVG and CSV bytes, for a plain and a recurrent
descriptor checkpoint trained on that corpus: annotated SVGs of a ``top:m``
and of a list selection, and CSVs smoothed over 5 and 9 scenes, so a change
on the path from the compile of the play through the descriptor weights,
the smoothing and the rescaling to the formatted points fails here.  The
exports keep their bytes with the corpus's embeddings file removed after
``descriptors``, since the checkpoint carries its descriptor words' vectors.

The loglines checkpoint's bytes and the trajectory exports hold trained
floats, so numpy's SIMD dispatch and OpenBLAS's kernels may move their
bits; ``PINNED_PLATFORM`` records the platform they were pinned on, and a
mismatch prints it beside the running one.
"""

import ctypes
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
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
# evaluate's report on the 8-tag corpus, after training each model
EVALUATE_SHA256 = {
    "boe": ("03be20e94f4669d736397255fb31d422"
            "1060714bd6d763a526420ff915961d1a"),
    "gru_attn": ("c0381414c25e8d0fc4393b05a852e12c"
                 "9fe0d2ed54c67af1b95f12c77da355f3"),
    "loglines": ("71256e178e546a6ab2c5a2727108fa24"
                 "7a8a0f6dd01427f2b92af066ea9fb9c8"),
}
# where the float-bearing digests (CHECKPOINT_SHA256, TRAJECTORY_SHA256)
# were pinned, as running_platform() reports it
PINNED_PLATFORM = {
    "numpy": "2.4.6",
    "cpu_features": "X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "openblas_core": "SkylakeX",
}


def openblas_core() -> str:
    """The kernel set each OpenBLAS library in this process runs, by its
    own report."""
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")}) \
        if maps.exists() else []
    cores = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                cores.append(fn().decode())
                break
    return " ".join(cores) or "unknown"


def running_platform() -> dict:
    """numpy's version, the SIMD targets its dispatch runs (its baseline and
    each enabled dispatch target) and OpenBLAS's kernel set."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {"numpy": np.__version__,
            "cpu_features": " ".join(umath.__cpu_baseline__ + enabled),
            "openblas_core": openblas_core()}


def platform_note() -> str:
    return f"pinned on {PINNED_PLATFORM}; running on {running_platform()}"


# the trained checkpoint itself: its manifest and every parameter's bytes
CHECKPOINT_SHA256 = {
    "loglines": ("e3b1dcab94705ca3486cc5124a670649"
                 "e2f0d7ac8eb547a67eb7be434cfb298e"),
}


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



@pytest.fixture(scope="module")
def tagged_corpus(tmp_path_factory):
    synth = tmp_path_factory.mktemp("tagged") / "synth"
    assert main(["synth", "--out", str(synth), "--scripts", "24", "--tags", "8",
                 "--signal", "0.6", "--seed", "5"]) == 0
    return synth


@pytest.mark.parametrize("model, flags", [
    ("boe", ["--encoder", "boe", "--epochs", "3"]),
    ("gru_attn", ["--encoder", "gru_attn", "--epochs", "2", "--hidden", "10"]),
    ("loglines", ["--variant", "loglines", "--epochs", "2", "--hidden", "10"]),
], ids=["boe", "gru_attn", "loglines"])
def test_evaluate_report_keeps_its_bytes(tagged_corpus, tmp_path, model, flags):
    common = ["--scripts", str(tagged_corpus / "scripts"),
              "--tags", str(tagged_corpus / "tags.json"),
              "--embeddings", str(tagged_corpus / "embeddings.txt")]
    if model == "loglines":
        common += ["--loglines", str(tagged_corpus / "loglines.json")]
    run = tmp_path / "run"
    assert main(["train", *common, "--attribute", "genre",
                 "--min-count", "2", "--seed", "4", *flags,
                 "--out", str(run)]) == 0
    checkpoint = run / "checkpoint.swck"
    out = run / "eval.json"
    assert main(["evaluate", *common, "--checkpoint", str(checkpoint),
                 "--split", "all",
                 "--tag-embeddings", str(tagged_corpus / "tag_embeddings.tsv"),
                 "--cutoffs", "100,90,80,70", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVALUATE_SHA256[model]
    if model in CHECKPOINT_SHA256:
        assert hashlib.sha256(checkpoint.read_bytes()).hexdigest() == \
            CHECKPOINT_SHA256[model], platform_note()


# one digest per descriptor model over the exports below, in order
TRAJECTORY_SHA256 = {
    "plain": ("ebef909f835100135b3145360d276ab0"
              "24f06505e353eddfbd184cce9bec1976"),
    "recurrent": ("2a9980d9ecc1f76955afc6453ee395fe"
                  "26941f82fc5a416d17c565c1db4eac9f"),
}
TRAJECTORY_EXPORTS = [
    ("svg", ["--descriptors", "top:3", "--annotate", "2:A",
             "--annotate", "9:B & <C>"]),
    ("svg", ["--descriptors", "0,2", "--window", "9", "--annotate", "2:B"]),
    ("csv", ["--descriptors", "top:3", "--window", "5"]),
    ("csv", ["--descriptors", "0,2", "--window", "9"]),
]


@pytest.mark.parametrize("model, flags", [
    ("plain", []),
    ("recurrent", ["--recurrent"]),
], ids=["plain", "recurrent"])
def test_trajectory_exports_keep_their_bytes(wide_corpus, tmp_path, model, flags):
    desc = train_descriptors(wide_corpus, tmp_path / "desc", flags)
    assert trajectory_digest(wide_corpus / "scripts", desc, tmp_path) == \
        TRAJECTORY_SHA256[model], platform_note()


def test_trajectories_read_no_embeddings_file(wide_corpus, tmp_path):
    # the checkpoint carries its descriptor words' vectors; the digest is
    # compared with the same run's, not the pinned one, so that it holds on
    # any platform, and test_trajectory_exports_keep_their_bytes[plain] pins
    # those bytes
    corpus = shutil.copytree(wide_corpus, tmp_path / "corpus")
    desc = train_descriptors(corpus, tmp_path / "desc", [])
    with_file = trajectory_digest(corpus / "scripts", desc, tmp_path)
    (corpus / "embeddings.txt").unlink()
    assert trajectory_digest(corpus / "scripts", desc, tmp_path) == with_file


def train_descriptors(corpus, out, flags):
    """The checkpoint of a small descriptor model trained on ``corpus``."""
    assert main(["descriptors", "--scripts", str(corpus / "scripts"),
                 "--embeddings", str(corpus / "embeddings.txt"),
                 "--tags", str(corpus / "tags.json"),
                 *INGEST_FLAGS, "--attribute", "genre", "--k", "4",
                 "--hidden", "8", "--epochs", "2", "--pretrain-epochs", "1",
                 "--negatives", "2", "--top-words", "3", *flags,
                 "--out", str(out)]) == 0
    return out / "descriptors.swck"


def trajectory_digest(scripts, checkpoint, tmp_path):
    """One digest over ``TRAJECTORY_EXPORTS`` of synth000, in order."""
    digest = hashlib.sha256()
    for n, (fmt, export_flags) in enumerate(TRAJECTORY_EXPORTS):
        out = tmp_path / f"traj{n}.{fmt}"
        assert main(["trajectories", "--scripts", str(scripts),
                     "--checkpoint", str(checkpoint),
                     "--title", "synth000", "--format", fmt, *export_flags,
                     "--out", str(out)]) == 0
        digest.update(out.name.encode() + b"\0" + out.read_bytes() + b"\0")
    return digest.hexdigest()


def test_platform_record_names_what_running_platform_reads():
    running = running_platform()
    assert list(running) == list(PINNED_PLATFORM)
    assert all(isinstance(v, str) and v for v in running.values())
    assert str(PINNED_PLATFORM) in platform_note()
