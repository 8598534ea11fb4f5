"""One row per defect of a script file, through every command that reads
scripts.

``ingest`` excludes a bad entry with a reason in its manifest, ``parse``
logs the same reason on its skip line and writes nothing for the entry, and
``trajectories`` stops with a ``DataError`` that holds the same reason; each
names the file.  A leading byte-order mark is no defect: each command reads
the marked file as the same file without it.
"""

import json
import shutil

import pytest

from scenewise.cli import main

INGEST_FLAGS = ["--min-count", "2", "--validation-fraction", "0.15",
                "--descriptor-min-movies", "2", "--descriptor-top-exclude", "30"]

# the bad entry's content (None: a directory) and the reason each command
# gives for it
DEFECTS = {
    "undecodable_byte": (b"INT. ROOM - DAY\n\nHe waits.\n\xff\n",
                         "undecodable: line 4: byte 0xff is not UTF-8 text "
                         "(invalid start byte)"),
    "zero_bytes": (b"", "empty: zzbad: no non-blank line"),
    "blank": (b"\n   \n\t\n", "empty: zzbad: no non-blank line"),
    "transitions_only": (b"FADE IN:\n\nCUT TO:\n", "no usable statements"),
    "page_marks_only": (b"12345\n---\n", "no usable statements"),
    "directory": (None, "not a regular file"),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A synthetic corpus and a descriptor checkpoint trained on it."""
    root = tmp_path_factory.mktemp("bad_input")
    synth = root / "synth"
    assert main(["synth", "--out", str(synth), "--scripts", "8", "--tags", "2",
                 "--signal", "1.0", "--seed", "13", "--scenes-min", "3",
                 "--scenes-max", "4", "--statements-min", "2",
                 "--statements-max", "4"]) == 0
    desc = root / "desc"
    assert main(["descriptors", *data_args(synth, synth / "scripts"),
                 *INGEST_FLAGS, "--attribute", "genre", "--k", "3",
                 "--hidden", "8", "--epochs", "1", "--pretrain-epochs", "1",
                 "--negatives", "2", "--top-words", "3", "--seed", "2",
                 "--out", str(desc)]) == 0
    return synth, desc / "descriptors.swck"


def data_args(synth, scripts):
    return ["--scripts", str(scripts), "--tags", str(synth / "tags.json"),
            "--embeddings", str(synth / "embeddings.txt")]


def copy_scripts(synth, tmp_path, name):
    scripts = tmp_path / name
    shutil.copytree(synth / "scripts", scripts)
    return scripts


def outputs(synth, checkpoint, scripts, out, title):
    """What ``ingest``, ``parse`` and ``trajectories`` write for ``scripts``:
    the manifest's bytes, each parsed file's name and bytes, and the SVG
    of ``title``."""
    manifest = out / "manifest.json"
    assert main(["ingest", *data_args(synth, scripts), *INGEST_FLAGS,
                 "--out", str(manifest)]) == 0
    parsed = out / "parsed"
    assert main(["parse", "--scripts", str(scripts), "--out", str(parsed)]) == 0
    svg = out / "traj.svg"
    assert main(["trajectories", "--checkpoint", str(checkpoint),
                 "--scripts", str(scripts),
                 "--embeddings", str(synth / "embeddings.txt"),
                 "--title", title, "--out", str(svg)]) == 0
    return (manifest.read_bytes(),
            [(p.name, p.read_bytes()) for p in sorted(parsed.iterdir())],
            svg.read_bytes())


@pytest.mark.parametrize("content, reason", DEFECTS.values(), ids=DEFECTS)
def test_every_command_gives_a_bad_script_the_same_reason(
        corpus, tmp_path, caplog, capsys, content, reason):
    synth, checkpoint = corpus
    scripts = copy_scripts(synth, tmp_path, "scripts")
    entry = scripts / "zzbad.txt"
    if content is None:
        entry.mkdir()
    else:
        entry.write_bytes(content)

    manifest = tmp_path / "manifest.json"
    assert main(["ingest", *data_args(synth, scripts), *INGEST_FLAGS,
                 "--out", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["excluded"] == [
        {"title": "zzbad", "reason": reason}]

    parsed = tmp_path / "parsed"
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(["parse", "--scripts", str(scripts),
                     "--out", str(parsed)]) == 0
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING"] == [f"skipping zzbad.txt: {reason}"]
    assert not list(parsed.glob("zzbad.*"))
    assert len(list(parsed.glob("*.tsv"))) == 8

    out = tmp_path / "traj.svg"
    capsys.readouterr()
    assert main(["trajectories", "--checkpoint", str(checkpoint),
                 "--scripts", str(scripts),
                 "--embeddings", str(synth / "embeddings.txt"),
                 "--title", "zzbad", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
        "error": "DataError", "message": f"{entry}: {reason}"}
    assert not out.exists()


def test_a_byte_order_mark_reads_as_the_same_script(corpus, tmp_path):
    synth, checkpoint = corpus
    plain = copy_scripts(synth, tmp_path, "plain")
    marked = copy_scripts(synth, tmp_path, "marked")
    script = marked / "synth000.txt"
    script.write_bytes(b"\xef\xbb\xbf" + script.read_bytes())
    (tmp_path / "plain_out").mkdir()
    (tmp_path / "marked_out").mkdir()
    assert outputs(synth, checkpoint, marked, tmp_path / "marked_out",
                   "synth000") == \
        outputs(synth, checkpoint, plain, tmp_path / "plain_out", "synth000")
