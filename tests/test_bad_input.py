"""One row per defect of an input file, through every command that reads it.

``ingest`` excludes a bad script entry with a reason in its manifest,
``parse`` logs the same reason on its skip line and writes nothing for the
entry, and ``trajectories`` stops with a ``DataError`` that holds the same
reason; each names the file.  A leading byte-order mark is no defect: each
command reads the marked file as the same file without it.  ``parse`` and
``ingest`` keep the same plays from the same directory, and each says why
it skips an entry.  A named input file that is missing or is a directory
stops the command with one JSON line, a ``DataError`` naming the flag and
the path.  Blank lines in an embeddings file are no defect: ``ingest``
reads it as the same file without them.  A tags entry of the wrong JSON
shape stops every command that reads the tags with one ``DataError``
naming the file.  With one of its input files truncated or one byte flipped,
``ingest`` exits 0 with the manifest a rerun writes, or 1 with one JSON
line.  So do ``trajectories`` and ``evaluate`` with one byte of their
trained checkpoint flipped, and what they write at exit 0 holds no NaN or
infinity.  Harmless damage to ``evaluate``'s tag embeddings (a byte-order
mark, CRLF line ends, blank lines of spaces and tabs or of nothing, no last
line break) leaves its report's bytes; one faulty line among it stops ``evaluate`` with one ``DataError``
naming the file and that line.
"""

import contextlib
import errno
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenewise import errors
from scenewise.cli import main
from scenewise.corpus import IngestConfig, ingest
from scenewise.ioutil import config_hash
from scenewise.parser import DEFAULT_SCENE_CAP, to_table

INGEST_FLAGS = ["--min-count", "2", "--validation-fraction", "0.15",
                "--descriptor-min-movies", "2", "--descriptor-top-exclude", "30"]
INGEST_CONFIG = IngestConfig(min_count=2, validation_fraction=0.15,
                             descriptor_min_movies=2, descriptor_top_exclude=30)

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
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(["ingest", *data_args(synth, scripts), *INGEST_FLAGS,
                     "--out", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["excluded"] == [
        {"title": "zzbad", "reason": reason}]
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING"] == [f"skipping zzbad: {reason}"]

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


def test_parse_and_ingest_keep_the_same_plays(corpus, tmp_path, caplog):
    synth, _ = corpus
    scripts = copy_scripts(synth, tmp_path, "scripts")
    for name, (content, _) in DEFECTS.items():
        entry = scripts / f"zz_{name}.txt"
        if content is None:
            entry.mkdir()
        else:
            entry.write_bytes(content)
    tags = json.loads((synth / "tags.json").read_text())
    untagged = sorted(tags)[0]
    del tags[untagged]
    (tmp_path / "tags.json").write_text(json.dumps(tags))

    caplog.clear()
    with caplog.at_level("WARNING"):
        held, manifest = ingest(scripts, tmp_path / "tags.json",
                                synth / "embeddings.txt", INGEST_CONFIG)
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING"] == [
        f"skipping {e['title']}: {e['reason']}" for e in manifest["excluded"]]
    assert len(manifest["excluded"]) == len(DEFECTS) + 1
    parsed = tmp_path / "parsed"
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(["parse", "--scripts", str(scripts),
                     "--out", str(parsed)]) == 0
    skipped = {r.getMessage() for r in caplog.records
               if r.levelname == "WARNING"}
    assert skipped == {f"skipping {e['title']}.txt: {e['reason']}"
                       for e in manifest["excluded"]
                       if e["reason"] != "missing tags"}
    assert len(skipped) == len(DEFECTS)

    plays = {it.title: it.screenplay for it in held.items}
    assert sorted(p.stem for p in parsed.glob("*.tsv")) == \
        sorted([*plays, untagged])
    cap_hash = config_hash({"cap": DEFAULT_SCENE_CAP})
    for title, play in plays.items():
        assert (parsed / f"{title}.tsv").read_text() == to_table(play), title
        assert json.loads((parsed / f"{title}.quality.json").read_text()) == \
            {**play.quality, "config_hash": cap_hash}, title


@pytest.fixture(scope="module")
def tag_checkpoint(corpus, tmp_path_factory):
    """A BoE tag checkpoint trained for one epoch on the corpus."""
    synth, _ = corpus
    run = tmp_path_factory.mktemp("bad_input_tags")
    assert main(["train", *data_args(synth, synth / "scripts"),
                 "--min-count", "2", "--validation-fraction", "0.15",
                 "--attribute", "genre", "--encoder", "boe", "--epochs", "1",
                 "--out", str(run)]) == 0
    return run / "checkpoint.swck"


def command_argv(command, synth, descriptors, tags, out):
    """A run of ``command`` that reads every input file it can name."""
    data = data_args(synth, synth / "scripts")
    return {
        "ingest": ["ingest", *data, *INGEST_FLAGS,
                   "--loglines", str(synth / "loglines.json"), "--out", str(out)],
        "train": ["train", *data, "--min-count", "2", "--attribute", "genre",
                  "--encoder", "boe", "--epochs", "1", "--out", str(out)],
        "descriptors": ["descriptors", *data, *INGEST_FLAGS, "--attribute",
                        "genre", "--epochs", "1", "--out", str(out)],
        "evaluate": ["evaluate", *data, "--checkpoint", str(tags),
                     "--tag-embeddings", str(synth / "tag_embeddings.tsv"),
                     "--out", str(out)],
        "trajectories": ["trajectories", "--checkpoint", str(descriptors),
                         "--scripts", str(synth / "scripts"),
                         "--title", "synth000", "--out", str(out)],
    }[command]


# (command, flag, defect of the flag's file)
MISSING_FILES = [
    ("ingest", "--tags", "missing"),
    ("ingest", "--tags", "directory"),
    ("ingest", "--embeddings", "missing"),
    ("ingest", "--loglines", "missing"),
    ("evaluate", "--checkpoint", "missing"),
    ("evaluate", "--checkpoint", "directory"),
    ("evaluate", "--tag-embeddings", "missing"),
    ("trajectories", "--checkpoint", "directory"),
]
STRERROR = {"missing": os.strerror(errno.ENOENT),
            "directory": os.strerror(errno.EISDIR)}


@pytest.mark.parametrize("command, flag, defect", MISSING_FILES,
                         ids=[f"{c}{f}_{d}" for c, f, d in MISSING_FILES])
def test_a_missing_or_directory_input_file_is_one_error_naming_it(
        corpus, tag_checkpoint, tmp_path, capsys, command, flag, defect):
    synth, descriptors = corpus
    bad = tmp_path / f"bad_{flag[2:]}"
    if defect == "directory":
        bad.mkdir()
    out = tmp_path / "out"
    argv = command_argv(command, synth, descriptors, tag_checkpoint,
                        out / "artifact")
    argv[argv.index(flag) + 1] = str(bad)
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "DataError", "message": f"{flag} {bad}: {STRERROR[defect]}"}
    assert not out.exists()


def test_embeddings_with_blank_lines_ingest_as_without(corpus, tmp_path):
    synth, _ = corpus
    rows = (synth / "embeddings.txt").read_text().splitlines(keepends=True)
    spaced = tmp_path / "embeddings.txt"
    spaced.write_text("\n" + "".join(row + "\n \t\n" * (i % 2)
                                     for i, row in enumerate(rows)) + "\n\n")
    plain_corpus, plain = ingest(synth / "scripts", synth / "tags.json",
                                 synth / "embeddings.txt", INGEST_CONFIG)
    spaced_corpus, manifest = ingest(synth / "scripts", synth / "tags.json",
                                     spaced, INGEST_CONFIG)
    assert manifest == plain
    assert spaced_corpus.embeddings.index == plain_corpus.embeddings.index
    assert spaced_corpus.embeddings.matrix.tobytes() == \
        plain_corpus.embeddings.matrix.tobytes()


# a title's tags given as a list, and an attribute's tags given as a string
WRONG_TAGS = {"title_list": ["fantasy"], "attribute_string": {"genre": "ember"}}


@pytest.mark.parametrize("command", ["ingest", "train", "evaluate",
                                     "descriptors"])
@pytest.mark.parametrize("entry", WRONG_TAGS.values(), ids=WRONG_TAGS)
def test_a_tags_entry_of_the_wrong_shape_is_one_error_naming_the_file(
        corpus, tag_checkpoint, tmp_path, command, entry):
    synth, descriptors = corpus
    tags = json.loads((synth / "tags.json").read_text())
    title = sorted(tags)[1]
    tags[title] = entry
    bad = tmp_path / "tags.json"
    bad.write_text(json.dumps(tags))
    out = tmp_path / "out"
    argv = command_argv(command, synth, descriptors, tag_checkpoint,
                        out / "artifact")
    argv[argv.index("--tags") + 1] = str(bad)
    code, err = run_main(argv)
    assert code == 1
    assert [json.loads(line) for line in err] == [{
        "error": "DataError",
        "message": f"{bad}: the tags of {title!r} are not an object mapping "
                   f"each attribute to a list of tag strings"}]
    assert not out.exists()


# ---------------------------------------------------------------------------
# property layer: one input file of ``ingest`` truncated or one byte flipped

INGEST_INPUTS = ["script", "tags.json", "loglines.json", "embeddings.txt"]


def run_main(argv):
    """``main``'s exit code and the lines it printed on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(derandomize=True, max_examples=250, deadline=None)
@given(which=st.sampled_from(INGEST_INPUTS), truncate=st.booleans(),
       data=st.data())
def test_ingest_of_a_damaged_input_file_exits_0_or_1(corpus, which, truncate,
                                                      data):
    synth, _ = corpus
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scripts = shutil.copytree(synth / "scripts", tmp / "scripts")
        inputs = {name: synth / name for name in INGEST_INPUTS[1:]}
        if which == "script":
            scripts_in = sorted(scripts.iterdir())
            damaged = data.draw(st.sampled_from(scripts_in), label="script")
        else:
            damaged = inputs[which] = shutil.copy(synth / which, tmp / which)
        raw = bytearray(Path(damaged).read_bytes())
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if truncate:
            del raw[offset:]
        else:
            raw[offset] ^= data.draw(st.integers(1, 255), label="flip")
        Path(damaged).write_bytes(raw)

        argv = ["ingest", "--scripts", str(scripts),
                "--tags", str(inputs["tags.json"]),
                "--embeddings", str(inputs["embeddings.txt"]),
                "--loglines", str(inputs["loglines.json"]), *INGEST_FLAGS]
        out = tmp / "manifest.json"
        code, err = run_main([*argv, "--out", str(out)])
        assert code in (0, 1)
        if code == 1:
            assert len(err) == 1
            assert json.loads(err[0]).keys() == {"error", "message"}
            assert not out.exists()
        else:
            again = tmp / "again.json"
            assert run_main([*argv, "--out", str(again)])[0] == 0
            assert again.read_bytes() == out.read_bytes()


# ---------------------------------------------------------------------------
# property layer: one byte of a trained checkpoint flipped

@settings(derandomize=True, max_examples=100, deadline=None)
@given(command=st.sampled_from(["trajectories", "evaluate"]), data=st.data())
def test_a_checkpoint_with_a_flipped_byte_exits_0_or_1(corpus, tag_checkpoint,
                                                       command, data):
    synth, descriptors = corpus
    source = descriptors if command == "trajectories" else tag_checkpoint
    raw = bytearray(source.read_bytes())
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[offset] ^= data.draw(st.integers(1, 255), label="flip")
    with tempfile.TemporaryDirectory() as tmp:
        damaged = Path(tmp) / "damaged.swck"
        damaged.write_bytes(raw)
        out = Path(tmp) / "out"
        argv = command_argv(command, synth, damaged, damaged, out)
        code, err = run_main(argv)
        assert code in (0, 1)
        if code == 1:
            assert len(err) == 1
            assert json.loads(err[0]).keys() == {"error", "message"}
            assert not out.exists()
        else:
            written = out.read_bytes()
            assert run_main(argv)[0] == 0
            assert out.read_bytes() == written
            assert not re.search(rb"\b(nan|inf)\b", written)


# ---------------------------------------------------------------------------
# property layer: ``evaluate``'s tag embeddings with harmless damage and at
# most one faulty line

TAG_FAULTS = ["dropped_tab", "repeated_tag", "non_finite", "non_numeric",
              "changed_width", "undecodable_byte"]


def tag_embedding_rows(synth):
    """(attribute, tag, values) of each row of the corpus's tag embeddings,
    then of three rows of a second attribute, which ``evaluate`` reads and
    checks but does not score."""
    rows = [tuple(line.split("\t")) for line in
            (synth / "tag_embeddings.tsv").read_text().splitlines()]
    return rows + [("tone", f"tone{i}",
                    " ".join(f"{(3 * i + j) % 7 / 7:.6f}" for j in range(3)))
                   for i in range(3)]


def evaluate_with(corpus, tag_checkpoint, tag_embeddings, out):
    """``evaluate``'s exit code and stderr lines with ``tag_embeddings``."""
    synth, descriptors = corpus
    argv = command_argv("evaluate", synth, descriptors, tag_checkpoint, out)
    argv[argv.index("--tag-embeddings") + 1] = str(tag_embeddings)
    return run_main(argv)


@pytest.fixture(scope="module")
def tag_embeddings_report(corpus, tag_checkpoint, tmp_path_factory):
    """The report ``evaluate`` writes from the rows of
    :func:`tag_embedding_rows`, which is the one it writes from the
    corpus's own tag embeddings."""
    synth, _ = corpus
    tmp = tmp_path_factory.mktemp("tag_embeddings")
    rows = tmp / "rows.tsv"
    rows.write_text("".join("\t".join(r) + "\n"
                            for r in tag_embedding_rows(synth)))
    reports = []
    for path in (synth / "tag_embeddings.tsv", rows):
        out = tmp / f"{path.stem}.json"
        assert evaluate_with(corpus, tag_checkpoint, path, out) == (0, [])
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    return reports[0]


def damaged_tag_embeddings(rows, fault, data) -> tuple[bytes, str | None]:
    """The text of ``rows`` with harmless damage drawn from ``data`` (a
    byte-order mark, CRLF line ends, blank lines, each empty or of spaces
    and tabs, no last line break) and
    ``fault`` in one line, with the error text after that line's
    ``path line N: `` (None without a fault)."""
    lines = ["\t".join(r).encode() for r in rows]
    at = message = None  # the index in ``lines`` of the faulty line
    if fault == "repeated_tag":
        first = data.draw(st.integers(0, len(rows) - 1), label="first")
        at = data.draw(st.integers(first + 1, len(lines)), label="again")
        lines.insert(at, lines[first])
        attribute, tag, _ = rows[first]
        message = f"{tag!r} of {attribute!r} is listed again; its first row is"
    elif fault is not None:
        # another width is a fault of any row but the first of its attribute
        at = data.draw(st.sampled_from(
            [i for i, r in enumerate(rows)
             if fault != "changed_width" or r[0] in {q[0] for q in rows[:i]}]),
            label="row")
        attribute, tag, values = rows[at]
        vals = values.split()
        v = data.draw(st.integers(0, len(vals) - 1), label="value")
        if fault == "dropped_tab":
            fields = ([attribute + tag, values] if data.draw(st.booleans(),
                                                               label="first")
                      else [attribute, tag + values])
            message = "2 tab-separated field(s), expected attribute, tag and values"
        elif fault == "non_finite":
            vals[v] = data.draw(st.sampled_from(
                ["nan", "inf", "-inf", "NaN", "Infinity"]), label="bad")
            message = f"non-finite value in the vector of {tag!r}"
        elif fault == "non_numeric":
            vals[v] = bad = data.draw(st.sampled_from(
                ["x", "1,5", "1e", "0..5", "0x10"]), label="bad")
            message = f"could not convert string to float: {bad!r}"
        elif fault == "changed_width":
            width = len(vals)
            vals = (vals[:v] + vals[v + 1:] if data.draw(st.booleans(),
                                                          label="drop")
                    else vals + ["0.5"])
            message = (f"{len(vals)} values for {tag!r}, but {attribute!r} "
                       f"vectors have {width}")
        if fault != "dropped_tab":
            fields = [attribute, tag, " ".join(vals)]
        lines[at] = "\t".join(fields).encode()
        if fault == "undecodable_byte":
            cut = data.draw(st.integers(0, len(lines[at])), label="byte")
            lines[at] = lines[at][:cut] + b"\xff" + lines[at][cut:]
            message = "byte 0xff is not UTF-8 text (invalid start byte)"
    for index in sorted(data.draw(st.lists(st.integers(0, len(lines)),
                                           max_size=3), label="blanks"),
                        reverse=True):
        lines.insert(index, data.draw(st.text(" \t", max_size=3),
                                      label="blank").encode())
        if at is not None and index <= at:
            at += 1
    if fault == "repeated_tag":
        message += f" line {lines.index(lines[at]) + 1}"
    eol = b"\r\n" if data.draw(st.booleans(), label="crlf") else b"\n"
    raw = ((b"\xef\xbb\xbf" if data.draw(st.booleans(), label="mark") else b"")
           + eol.join(lines)
           + (eol if data.draw(st.booleans(), label="last_break") else b""))
    return raw, None if fault is None else f"line {at + 1}: {message}"


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_evaluate_reads_harmlessly_damaged_tag_embeddings_as_clean(
        corpus, tag_checkpoint, tag_embeddings_report, data):
    """A byte-order mark, CRLF line ends, blank lines (empty, or a line of
    spaces and/or tabs) and a missing last line break in the tag
    embeddings: ``evaluate`` writes the same report bytes."""
    raw, _ = damaged_tag_embeddings(tag_embedding_rows(corpus[0]), None, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tag_embeddings.tsv"
        path.write_bytes(raw)
        out = Path(tmp) / "eval.json"
        assert evaluate_with(corpus, tag_checkpoint, path, out) == (0, [])
        assert out.read_bytes() == tag_embeddings_report


@settings(derandomize=True, max_examples=120, deadline=None)
@given(fault=st.sampled_from(TAG_FAULTS), data=st.data())
def test_a_faulty_tag_embeddings_line_is_one_error_naming_it(
        corpus, tag_checkpoint, fault, data):
    """One faulty line among harmless damage (a dropped tab, a tag listed
    again, a non-finite or non-numeric value, another width than its
    attribute's first row, an undecodable byte): ``evaluate`` exits 1 with
    one JSON line, a ``DataError`` naming the file and that line, and
    writes nothing."""
    raw, message = damaged_tag_embeddings(tag_embedding_rows(corpus[0]),
                                          fault, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tag_embeddings.tsv"
        path.write_bytes(raw)
        out = Path(tmp) / "eval.json"
        code, err = evaluate_with(corpus, tag_checkpoint, path, out)
        assert code == 1 and len(err) == 1
        assert not out.exists()
    error = json.loads(err[0])
    assert issubclass(getattr(errors, error["error"]), errors.DataError)
    assert error["message"] == f"{path} {message}"
