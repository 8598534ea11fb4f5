import argparse
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from scenewise import cli
from scenewise.checkpoint import load_checkpoint, save_checkpoint
from scenewise.classifier import TagTaxonomy, TrainConfig, load_params, make_samples
from scenewise.cli import main
from scenewise.corpus import IngestConfig, SynthSpec, ingest
from scenewise.descriptors import DescriptorConfig
from scenewise.encoders import CharacterTable, EncoderKind, Variant
from scenewise.evaluation import micro_f1
from scenewise.ioutil import decode_error
from scenewise.parser import (
    DEFAULT_SCENE_CAP,
    parse_script,
    parse_table,
    to_table,
)

DATA = Path(__file__).parent / "data"
TRAIN_FLAGS = ["--min-count", "2", "--validation-fraction", "0.15"]
CORPUS_FLAGS = TRAIN_FLAGS + ["--descriptor-min-movies", "2",
                              "--descriptor-top-exclude", "30"]


def run(argv):
    return main(argv)


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def altered_checkpoint(src, dst, change):
    params, manifest = load_checkpoint(src)
    change(params)
    save_checkpoint(dst, params, manifest)
    return str(dst)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    assert run(["synth", "--out", str(synth), "--scripts", "8", "--tags", "2",
                "--signal", "1.0", "--seed", "13",
                "--scenes-min", "3", "--scenes-max", "4",
                "--statements-min", "2", "--statements-max", "4"]) == 0
    return root, synth


def data_args(synth):
    return ["--scripts", str(synth / "scripts"), "--tags", str(synth / "tags.json"),
            "--embeddings", str(synth / "embeddings.txt")]


def corpus_args(synth):
    """``ingest``'s and ``descriptors``' settings."""
    return data_args(synth) + CORPUS_FLAGS


def train_args(synth):
    """``train``'s settings: those of ``corpus_args`` but the descriptor
    vocabulary counts."""
    return data_args(synth) + TRAIN_FLAGS


def test_parse_command(workspace):
    root, synth = workspace
    out = root / "parsed"
    assert run(["parse", "--scripts", str(synth / "scripts"),
                "--out", str(out)]) == 0
    tsvs = sorted(out.glob("*.tsv"))
    assert len(tsvs) == 8
    quality = json.loads((out / "synth000.quality.json").read_text())
    assert quality["counts"]["OTHER"] == 0
    assert "config_hash" in quality


def test_parse_output_matches_golden_bytes(tmp_path):
    # parsed_golden holds the `parse` output of tests/data as checked in;
    # a change to these bytes is a change to the parse format
    golden = DATA / "parsed_golden"
    out = tmp_path / "parsed"
    assert run(["parse", "--scripts", str(DATA), "--out", str(out)]) == 0
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_parse_no_split_keeps_a_long_scene_whole(tmp_path):
    text = ("INT. ROOM - DAY\n\nAnna walks in.\n\nShe sits down.\n\n"
            "She leaves.\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "long.txt").write_text(text)
    split, whole = tmp_path / "split", tmp_path / "whole"
    assert run(["parse", "--scripts", str(scripts), "--cap", "2",
                "--out", str(split)]) == 0
    assert run(["parse", "--scripts", str(scripts), "--cap", "2", "--no-split",
                "--out", str(whole)]) == 0
    assert len(parse_table((split / "long.tsv").read_text()).scenes) == 2
    table = (whole / "long.tsv").read_text()
    assert len(parse_table(table).scenes) == 1
    assert table == to_table(parse_script("long", text, cap=None))


def test_ingest_command(workspace):
    root, synth = workspace
    out = root / "corpus_manifest.json"
    assert run(["ingest"] + corpus_args(synth)
               + ["--loglines", str(synth / "loglines.json"),
                  "--out", str(out), "--seed", "3"]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["excluded"] == []
    assert manifest["vocabulary_size"] > 0
    assert manifest["descriptor_vocabulary_size"] > 0


@pytest.fixture(scope="module")
def trained(workspace):
    root, synth = workspace
    out = root / "run_boe"
    args = (["train"] + train_args(synth)
            + ["--attribute", "genre", "--variant", "full", "--encoder", "boe",
               "--include-chars", "no", "--epochs", "3", "--seed", "7",
               "--out", str(out)])
    assert run(args) == 0
    return out, args


def test_train_writes_artifacts(trained):
    out, _ = trained
    assert (out / "checkpoint.swck").exists()
    log = (out / "train_log.csv").read_text()
    lines = log.strip().split("\n")
    assert lines[0].startswith("# config_hash ")
    assert lines[1] == "epoch,train_loss,val_ap,lr"
    assert len(lines) == 2 + 3  # hash comment + header + 3 epochs
    assert all("" not in line.split(",") for line in lines[2:])


def test_train_rerun_byte_identical(trained, tmp_path):
    out, args = trained
    other = tmp_path / "rerun"
    rerun_args = args[:-1] + [str(other)]
    assert run(rerun_args) == 0
    assert (other / "checkpoint.swck").read_bytes() == \
        (out / "checkpoint.swck").read_bytes()
    assert (other / "train_log.csv").read_bytes() == \
        (out / "train_log.csv").read_bytes()


EVALUATION_KEYS = ["attribute", "config_hash", "micro_f1", "n_scripts", "split",
                   "variant"]


def test_evaluate_command(workspace, trained):
    root, synth = workspace
    out_ckpt, _ = trained
    report_path = root / "eval.json"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(out_ckpt / "checkpoint.swck"),
                  "--split", "heldout", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert sorted(report) == EVALUATION_KEYS
    assert report["attribute"] == "genre"
    assert report["variant"] == "full"
    assert 0.0 <= report["micro_f1"] <= 1.0
    assert report["n_scripts"] > 0


def test_evaluate_refuses_vocabulary_mismatch(workspace, trained, tmp_path,
                                              capsys):
    _, synth = workspace
    out_ckpt, _ = trained
    # a script that gained a twice-seen word changes the vocabulary hash
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in (synth / "scripts").glob("*.txt"):
        (scripts / p.name).write_bytes(p.read_bytes())
    with open(scripts / "synth000.txt", "a", encoding="utf-8") as fh:
        fh.write("\nA quokka waits.\nThe quokka leaves.\n")
    args = data_args(synth)
    args[args.index("--scripts") + 1] = str(scripts)
    out = tmp_path / "bad.json"
    assert run(["evaluate"] + args
               + ["--checkpoint", str(out_ckpt / "checkpoint.swck"),
                  "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "VocabularyMismatch"
    assert str(out_ckpt / "checkpoint.swck") in payload["message"]
    assert not out.exists()


def test_evaluate_vocabulary_mismatch_names_the_tags_and_the_exclusions(
        workspace, trained, tmp_path, capsys):
    # the scripts are unchanged; a tags file without one title drops its
    # script, and so its words, from the corpus
    _, synth = workspace
    checkpoint = trained[0] / "checkpoint.swck"
    titles = json.loads((synth / "tags.json").read_text())
    dropped = sorted(titles)[-1]
    del titles[dropped]
    tags = tmp_path / "tags.json"
    tags.write_text(json.dumps(titles))
    argv = data_args(synth)
    argv[argv.index("--tags") + 1] = str(tags)
    out = tmp_path / "eval.json"
    assert run(["evaluate"] + argv
               + ["--checkpoint", str(checkpoint), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "error": "VocabularyMismatch",
        "message": f"{checkpoint}: checkpoint vocabulary hash does not match "
                   f"the corpus of --scripts {synth / 'scripts'} and --tags "
                   f"{tags}; ingest excluded 1 entry, the first "
                   f"{dropped}: missing tags"}
    assert not out.exists()


def test_evaluate_scores_the_checkpoint_split(workspace, tmp_path, monkeypatch):
    _, synth = workspace
    settings = train_args(synth) + ["--seed", "3", "--heldout-fraction", "0.3"]
    assert run(["ingest"] + settings + ["--out", str(tmp_path / "m.json")]) == 0
    heldout = json.loads((tmp_path / "m.json").read_text())["splits"]["heldout"]
    assert run(["train"] + settings
               + ["--attribute", "genre", "--encoder", "boe",
                  "--include-chars", "no", "--epochs", "1",
                  "--out", str(tmp_path / "run")]) == 0
    scored = []

    def recording_f1(preds, gold):
        scored.extend(sorted(gold))
        return micro_f1(preds, gold)

    monkeypatch.setattr(cli, "micro_f1", recording_f1)
    out = tmp_path / "eval.json"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(tmp_path / "run" / "checkpoint.swck"),
                  "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_scripts"] == len(heldout)
    assert scored == heldout


def test_evaluate_rejects_checkpoint_shape_mismatch(workspace, trained, tmp_path,
                                                   capsys):
    root, synth = workspace
    out_ckpt, _ = trained
    bad = altered_checkpoint(out_ckpt / "checkpoint.swck", tmp_path / "bad.swck",
                             lambda p: p.update({"head.b": np.zeros(1)}))
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", bad, "--out", str(tmp_path / "eval.json")]) == 1
    assert last_error(capsys) == "ParameterMismatch"
    assert not (tmp_path / "eval.json").exists()


def per_gate_layout(params, characters):
    """``params`` renamed to the layout that stored each GRU gate block and
    each character as its own parameter, every value kept; ``characters``
    are the character rows' names in order."""
    gates = {"w": ["wz", "wr", "wh"], "u_zr": ["uz", "ur"], "u_h": ["uh"],
             "b": ["bz", "br", "bh"]}
    out = {}
    for name, a in params.items():
        prefix, _, leaf = name.rpartition(".")
        if ".gru." in name:
            out.update({f"{prefix}.{gate}": block for gate, block
                        in zip(gates[leaf], np.split(a, len(gates[leaf]), axis=-1))})
        elif name == "chars.matrix":
            out.update({f"chars.{c}": row for c, row in zip(characters, a)})
        else:
            out[name] = a
    return out


def test_evaluate_refuses_per_gate_checkpoint(workspace, tmp_path, capsys):
    _, synth = workspace
    out = tmp_path / "run_gru"
    assert run(["train"] + train_args(synth)
               + ["--attribute", "genre", "--encoder", "gru_attn", "--hidden", "2",
                  "--epochs", "1", "--seed", "7", "--out", str(out)]) == 0
    ckpt = out / "checkpoint.swck"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(ckpt), "--out", str(tmp_path / "ok.json")]) == 0
    params, manifest = load_checkpoint(ckpt)
    unk = CharacterTable.UNK_NAME
    characters = [unk] + [c for c in manifest["model"]["characters"] if c != unk]
    old = per_gate_layout(params, characters)
    # 5 encoders x 2 directions, 9 arrays a direction instead of 4
    assert len(old) == len(params) + 5 * 2 * 5 + len(characters) - 1
    save_checkpoint(tmp_path / "old.swck", old, manifest)
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(tmp_path / "old.swck"),
                  "--out", str(tmp_path / "eval.json")]) == 1
    assert last_error(capsys) == "ParameterMismatch"
    assert not (tmp_path / "eval.json").exists()


def test_evaluate_cutoff_100_matches_micro_f1(workspace, trained):
    root, synth = workspace
    out_ckpt, _ = trained
    report_path = root / "eval_sim.json"
    # no --cutoffs: the default sweep, 100,90,80,70
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(out_ckpt / "checkpoint.swck"),
                  "--tag-embeddings", str(synth / "tag_embeddings.tsv"),
                  "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert sorted(report) == sorted(EVALUATION_KEYS + ["cutoffs"])
    assert sorted(report["cutoffs"]) == ["100", "70", "80", "90"]
    assert report["cutoffs"]["100"]["f1"] == report["micro_f1"]
    values = [report["cutoffs"][c]["f1"] for c in ("100", "90", "80", "70")]
    assert values == sorted(values)


def test_evaluate_prints_the_cutoffs_as_the_report_keys_them(
        workspace, trained, tmp_path, capsys):
    _, synth = workspace
    out = tmp_path / "eval.json"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(trained[0] / "checkpoint.swck"),
                  "--tag-embeddings", str(synth / "tag_embeddings.tsv"),
                  "--cutoffs", "100,90.0,85.5", "--out", str(out)]) == 0
    assert sorted(json.loads(out.read_text())["cutoffs"]) == ["100", "85.5", "90"]
    summary = capsys.readouterr().out
    assert "by cutoff: 100: " in summary and ", 90: " in summary
    assert ", 85.5: " in summary and "100.0" not in summary


def test_eval_sim_is_no_command(workspace, tmp_path):
    _, synth = workspace
    out = tmp_path / "sim.json"
    with pytest.raises(SystemExit) as exc:
        main(["eval-sim"] + data_args(synth)
             + ["--checkpoint", str(tmp_path / "missing.swck"),
                "--tag-embeddings", str(synth / "tag_embeddings.tsv"),
                "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_evaluate_cutoffs_without_tag_embeddings_is_usage_error(
        workspace, trained, tmp_path, capsys):
    _, synth = workspace
    out = tmp_path / "eval.json"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"] + data_args(synth)
             + ["--checkpoint", str(trained[0] / "checkpoint.swck"),
                "--cutoffs", "100,90", "--out", str(out)])
    assert exc.value.code == 2
    assert "--cutoffs: needs --tag-embeddings" in capsys.readouterr().err
    assert not out.exists()


def genre_tags_but(synth, dropped):
    """The synthetic tag embeddings' lines for attribute genre but tag
    ``dropped``, and one line of another attribute."""
    lines = (synth / "tag_embeddings.tsv").read_text().splitlines(keepends=True)
    return "".join(line for line in lines if line.startswith("genre\t")
                   and line.split("\t")[1] != dropped) + "mood\tgrim\t1 0\n"


@pytest.mark.parametrize("dropped,named", [
    (None, "attribute 'genre'"), ("frost", "tag(s) 'frost'")])
def test_evaluate_refuses_tag_embeddings_without_the_attribute_before_ingest(
        workspace, trained, tmp_path, capsys, monkeypatch, dropped, named):
    _, synth = workspace
    tag_embeddings = tmp_path / "tag_embeddings.tsv"
    tag_embeddings.write_text(genre_tags_but(synth, dropped) if dropped
                              else "mood\tgrim\t1 0\nmood\tsunny\t0 1\n")

    def no_ingest(*args, **kwargs):
        raise AssertionError("ingested before checking the tag embeddings")

    monkeypatch.setattr(cli, "ingest", no_ingest)
    out = tmp_path / "eval.json"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(trained[0] / "checkpoint.swck"),
                  "--tag-embeddings", str(tag_embeddings),
                  "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert named in err["message"] and str(tag_embeddings) in err["message"]
    assert not out.exists()


def test_evaluate_refuses_a_tag_listed_twice(workspace, trained, tmp_path,
                                              capsys):
    _, synth = workspace
    lines = (synth / "tag_embeddings.tsv").read_text().splitlines(keepends=True)
    tag_embeddings = tmp_path / "tag_embeddings.tsv"
    tag_embeddings.write_text("".join(lines + lines[:1]))
    out = tmp_path / "eval.json"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(trained[0] / "checkpoint.swck"),
                  "--tag-embeddings", str(tag_embeddings),
                  "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert f"{tag_embeddings} line {len(lines) + 1}: " in err["message"]
    assert "its first row is line 1" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("similarity", [False, True], ids=["exact", "similarity"])
def test_evaluate_refuses_an_empty_split(workspace, tmp_path, capsys, similarity):
    _, synth = workspace
    run_dir = tmp_path / "run"
    assert run(["train"] + train_args(synth)
               + ["--heldout-fraction", "0", "--attribute", "genre",
                  "--encoder", "boe", "--epochs", "1", "--out", str(run_dir)]) == 0
    out = tmp_path / "eval.json"
    extra = (["--tag-embeddings", str(synth / "tag_embeddings.tsv")]
             if similarity else [])
    assert run(["evaluate"] + data_args(synth) + extra
               + ["--checkpoint", str(run_dir / "checkpoint.swck"),
                  "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "DataError",
                   "message": "no script to score in the 'heldout' split"}
    assert not out.exists()


def test_evaluate_refuses_tags_without_the_checkpoint_attribute(
        workspace, trained, tmp_path, capsys):
    # such a file once scored micro-F1 0.0 over the split and exited 0,
    # where train refuses it
    _, synth = workspace
    titles = json.loads((synth / "tags.json").read_text())
    tags = tmp_path / "tags.json"
    tags.write_text(json.dumps({title: {"mood": ["calm"]} for title in titles}))
    argv = data_args(synth)
    argv[argv.index("--tags") + 1] = str(tags)
    out = tmp_path / "eval.json"
    assert run(["evaluate"] + argv
               + ["--checkpoint", str(trained[0] / "checkpoint.swck"),
                  "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "DataError",
                   "message": f"{tags}: no scored script has a tag for "
                              f"attribute 'genre'"}
    assert not out.exists()


@pytest.fixture(scope="module")
def descriptor_run(workspace):
    root, synth = workspace
    out = root / "desc"
    args = (["descriptors"] + corpus_args(synth)
            + ["--attribute", "genre", "--k", "3", "--hidden", "8",
               "--epochs", "2", "--pretrain-epochs", "1", "--negatives", "2",
               "--top-words", "4", "--seed", "2", "--out", str(out)])
    assert run(args) == 0
    return out, args


def test_descriptors_artifacts(descriptor_run):
    out, _ = descriptor_run
    report = json.loads((out / "descriptor_report.json").read_text())
    assert len(report["descriptors"]) == 3
    assert all(len(d["top_words"]) == 4 for d in report["descriptors"])
    assert (out / "descriptors.swck").exists()


def test_descriptors_log(descriptor_run):
    out, _ = descriptor_run
    lines = (out / "descriptor_log.csv").read_text().splitlines()
    report = json.loads((out / "descriptor_report.json").read_text())
    _, manifest = load_checkpoint(out / "descriptors.swck")
    assert lines[0] == f"# config_hash {report['config_hash']}"
    assert lines[1] == "epoch,train_loss,fro_distance"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [1, 2]
    assert all(np.isfinite(float(r[1])) for r in rows)
    assert float(rows[-1][2]) == manifest["stats"]["final_fro"]


def test_descriptors_checkpoint_lists_its_parameters(descriptor_run):
    params, _ = load_checkpoint(descriptor_run[0] / "descriptors.swck")
    assert set(params) == {"target.p", "descriptors.r", "predictor.w1",
                           "predictor.b1", "predictor.w2", "predictor.b2"}
    assert params["target.p"].shape == (params["descriptors.r"].shape[1],)


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_descriptors_rerun_byte_identical(descriptor_run, tmp_path, recurrent):
    plain, args = descriptor_run
    settings = args[:-2] + (["--recurrent"] if recurrent else [])
    out = plain
    if recurrent:
        out = tmp_path / "desc1"
        assert run(settings + ["--out", str(out)]) == 0
        assert (out / "descriptors.swck").read_bytes() != \
            (plain / "descriptors.swck").read_bytes()
    other = tmp_path / "desc2"
    assert run(settings + ["--out", str(other)]) == 0
    for name in ("descriptors.swck", "descriptor_report.json",
                 "descriptor_log.csv"):
        assert (other / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_trajectories_command(workspace, descriptor_run, tmp_path, fmt):
    root, synth = workspace
    out_desc, _ = descriptor_run
    out_file = tmp_path / f"traj.{fmt}"
    args = ["trajectories", "--checkpoint", str(out_desc / "descriptors.swck"),
            "--scripts", str(synth / "scripts"),
            "--embeddings", str(synth / "embeddings.txt"),
            "--title", "synth000", "--descriptors", "top:2",
            "--window", "3", "--annotate", "2:A",
            "--format", fmt, "--out", str(out_file)]
    assert run(args) == 0
    text = out_file.read_text()
    if fmt == "csv":
        assert text.startswith("scene,descriptor_")
    else:
        assert text.startswith("<svg")
        assert ">A</text>" in text
    rerun = tmp_path / f"traj2.{fmt}"
    assert run(args[:-1] + [str(rerun)]) == 0
    assert rerun.read_bytes() == out_file.read_bytes()


def trajectory_args(synth, checkpoint, out):
    return ["trajectories", "--checkpoint", str(checkpoint),
            "--scripts", str(synth / "scripts"),
            "--embeddings", str(synth / "embeddings.txt"),
            "--title", "synth000", "--format", "svg", "--out", str(out)]


@pytest.mark.parametrize("change", [
    lambda p: p.pop("predictor.w1"),
    lambda p: p.update({"predictor.b1": np.zeros(1)}),
], ids=["missing_w1", "b1_shape_1"])
def test_trajectories_rejects_mismatched_checkpoint(workspace, descriptor_run,
                                                    tmp_path, capsys, change):
    _, synth = workspace
    out_desc, _ = descriptor_run
    bad = altered_checkpoint(out_desc / "descriptors.swck",
                             tmp_path / "bad.swck", change)
    out = tmp_path / "traj.svg"
    assert run(trajectory_args(synth, bad, out)) == 1
    assert last_error(capsys) == "ParameterMismatch"
    assert not out.exists()


@pytest.mark.parametrize("annotate", ["99:X", "0:Y"])
def test_trajectories_rejects_annotation_outside_script(workspace, descriptor_run,
                                                        tmp_path, capsys,
                                                        annotate):
    _, synth = workspace
    out_desc, _ = descriptor_run
    out = tmp_path / "traj.svg"
    assert run(trajectory_args(synth, out_desc / "descriptors.swck", out)
               + ["--annotate", annotate]) == 1
    assert last_error(capsys) == "DataError"
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--descriptors", "top:x"), ("--descriptors", "top:0"),
    ("--descriptors", "top:"), ("--descriptors", "1,a"),
    ("--descriptors", "1,,2"), ("--descriptors", "2,2"),
    ("--annotate", "x:A"), ("--annotate", ":A"), ("--annotate", "3"),
    ("--annotate", "3:"),
])
def test_trajectories_selection_and_annotation_syntax_is_usage_error(
        workspace, tmp_path, capsys, flag, value):
    _, synth = workspace
    # the checkpoint does not exist: the flag is refused before it is read
    with pytest.raises(SystemExit) as exc:
        main(trajectory_args(synth, tmp_path / "missing.swck", tmp_path / "t.svg")
             + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(value) in err
    assert "invalid literal" not in err
    assert not (tmp_path / "t.svg").exists()


@pytest.mark.parametrize("selection", ["top:4", "top:9", "3", "0,5"])
def test_trajectories_refuses_more_descriptors_than_the_model_has(
        workspace, descriptor_run, tmp_path, capsys, selection):
    _, synth = workspace
    out_desc, _ = descriptor_run  # k = 3
    out = tmp_path / "traj.svg"
    assert run(trajectory_args(synth, out_desc / "descriptors.swck", out)
               + ["--descriptors", selection]) == 1
    assert last_error(capsys) == "DescriptorOutOfRange"
    assert not out.exists()
    assert run(trajectory_args(synth, out_desc / "descriptors.swck", out)
               + ["--descriptors", "top:3", "--annotate", "1:A"]) == 0


# evaluate's two paths: exact micro-F1 alone, and with the similarity sweep
TAG_READERS = ("evaluate", "evaluate --tag-embeddings")


def command_of(reader):
    """The command that ``reader`` runs: ``evaluate --tag-embeddings`` runs
    ``evaluate``."""
    return reader.split()[0]


@pytest.mark.parametrize("command", TAG_READERS)
def test_evaluation_refuses_descriptor_checkpoint(workspace, descriptor_run,
                                                  tmp_path, capsys, monkeypatch,
                                                  command):
    _, synth = workspace
    out_desc, _ = descriptor_run

    def no_read(*args, **kwargs):
        raise AssertionError("read data before checking the checkpoint kind")

    monkeypatch.setattr(cli, "ingest", no_read)
    monkeypatch.setattr(cli, "load_tag_embeddings", no_read)
    out = tmp_path / "report.json"
    assert run(rejected_checkpoint_argv(synth, command,
                                        out_desc / "descriptors.swck", out)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert "'descriptor_model' checkpoint" in err["message"]
    assert not out.exists()


def test_trajectories_refuses_tag_checkpoint(workspace, trained, tmp_path,
                                             capsys):
    _, synth = workspace
    out_ckpt, _ = trained
    out = tmp_path / "traj.svg"
    assert run(trajectory_args(synth, out_ckpt / "checkpoint.swck", out)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert "'tag_model' checkpoint" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("entry,reason", [
    (None, "script not found: "),
    ("directory", ": not a regular file"),
    (b"INT. ROOM - DAY\n\xff\n", ": undecodable: "),
    (b"\n   \n\n", ": empty: synth000: no non-blank line"),
    (b"FADE IN:\n\nCUT TO:\n", ": no usable statements"),
    (b"12345\n---\n", ": no usable statements"),
], ids=["missing", "directory", "undecodable", "blank", "transitions_only",
        "page_marks_only"])
def test_trajectories_refuses_a_script_ingest_would_exclude(
        workspace, descriptor_run, tmp_path, capsys, entry, reason):
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    path = scripts / "synth000.txt"
    if entry == "directory":
        path.mkdir()
    elif entry is not None:
        path.write_bytes(entry)
    out = tmp_path / "traj.svg"
    argv = trajectory_args(synth, descriptor_run[0] / "descriptors.swck", out)
    argv[argv.index("--scripts") + 1] = str(scripts)
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert err["message"].startswith(f"script not found: {path}" if entry is None
                                     else f"{path}{reason}")
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "minus_inf"])
@pytest.mark.parametrize("command, name", [
    ("evaluate", "head.w"), ("trajectories", "predictor.w1"),
])
def test_checkpoint_with_a_non_finite_value_is_refused(
        workspace, trained, descriptor_run, tmp_path, capsys, command, name,
        value):
    # a NaN weight once scored every tag silently and drew every share as
    # 1/k; the checkpoint is refused before anything is written
    _, synth = workspace
    source = trained[0] / "checkpoint.swck" if command == "evaluate" \
        else descriptor_run[0] / "descriptors.swck"

    def poison(params):
        params[name][0, 0] = value

    bad = altered_checkpoint(source, tmp_path / "bad.swck", poison)
    out = tmp_path / "out"
    argv = trajectory_args(synth, bad, out) if command == "trajectories" else \
        ["evaluate"] + data_args(synth) + ["--checkpoint", bad, "--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip().splitlines()[-1]) == {
        "error": "CheckpointCorrupt",
        "message": f"{bad}: parameter {name!r} holds a NaN or infinite value"}
    assert captured.out == "" and not out.exists()


def test_descriptors_without_usable_script_is_data_error(tmp_path, capsys):
    # every script is one scene, so none has the two scenes training needs
    synth, out = tmp_path / "synth", tmp_path / "desc"
    assert run(["synth", "--out", str(synth), "--scripts", "12",
                "--scenes-min", "1", "--scenes-max", "1", "--seed", "3"]) == 0
    assert run(["descriptors", "--scripts", str(synth / "scripts"),
                "--tags", str(synth / "tags.json"),
                "--embeddings", str(synth / "embeddings.txt"),
                "--attribute", "genre", "--min-count", "2",
                "--descriptor-min-movies", "2", "--descriptor-top-exclude", "3",
                "--k", "3", "--out", str(out)]) == 1
    assert last_error(capsys) == "DataEmpty"
    assert not out.exists()


def test_descriptors_with_an_empty_descriptor_vocabulary_names_its_flags(
        workspace, tmp_path, capsys):
    # at the default counts no word of 8 scripts is in 50 of them; the run
    # once stopped in pretraining with "no script to train on"
    _, synth = workspace
    out = tmp_path / "desc"
    assert run(["descriptors"] + train_args(synth)
               + ["--attribute", "genre", "--k", "3", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert err["message"].startswith("the descriptor vocabulary is empty: ")
    assert "50 train and validation scripts (--descriptor-min-movies)" \
        in err["message"]
    assert "500 most frequent words (--descriptor-top-exclude)" in err["message"]
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_scripts_dir_is_data_error(tmp_path, capsys):
    assert main(["parse", "--scripts", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["error"] == "DataError"


def test_ingest_without_scripts_is_data_error(workspace, tmp_path, capsys):
    _, synth = workspace
    args = corpus_args(synth)
    args[args.index("--scripts") + 1] = str(tmp_path / "nowhere")
    out = tmp_path / "manifest.json"
    assert main(["ingest"] + args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error == {"error": "DataError", "message":
                     f"no *.txt scripts under {tmp_path / 'nowhere'}"}
    assert captured.out == "" and not out.exists()


def test_a_failed_write_under_out_is_reported_as_it_is(workspace, tmp_path,
                                                        capsys):
    # only a flag's own path becomes a DataError naming the flag
    _, synth = workspace
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["ingest"] + corpus_args(synth)
                + ["--out", str(blocker / "manifest.json")]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "FileExistsError"
    assert str(blocker) in error["message"]


def test_a_missing_file_named_like_the_command_names_its_flag(
        workspace, tmp_path, monkeypatch, capsys):
    _, synth = workspace
    monkeypatch.chdir(tmp_path)
    args = corpus_args(synth)
    args[args.index("--tags") + 1] = "ingest"
    assert main(["ingest"] + args + ["--out", "manifest.json"]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
        "error": "DataError",
        "message": "--tags ingest: No such file or directory"}


def test_default_out_uses_env_dir(workspace, tmp_path, monkeypatch):
    root, synth = workspace
    monkeypatch.setenv("SCENEWISE_OUT", str(tmp_path))
    assert run(["parse", "--scripts", str(synth / "scripts")]) == 0
    assert (tmp_path / "parsed" / "synth000.tsv").exists()


def test_ingest_excludes_undecodable_script(workspace, tmp_path):
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in (synth / "scripts").glob("*.txt"):
        (scripts / p.name).write_bytes(p.read_bytes())
    (scripts / "zzbinary.txt").write_bytes(b"INT. ROOM - DAY\n\xff\n")
    out = tmp_path / "manifest.json"
    args = corpus_args(synth)
    args[args.index("--scripts") + 1] = str(scripts)
    assert run(["ingest"] + args + ["--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert sum(len(v) for v in manifest["splits"].values()) == 8
    assert [e["title"] for e in manifest["excluded"]] == ["zzbinary"]
    assert manifest["excluded"][0]["reason"].startswith("undecodable: ")


def test_undecodable_script_reason_names_the_line_of_its_first_bad_byte(
        workspace, descriptor_run, tmp_path, capsys):
    # ingest's manifest holds no path; trajectories names the script's
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in (synth / "scripts").glob("*.txt"):
        (scripts / p.name).write_bytes(p.read_bytes())
    bad = with_bad_byte(synth / "scripts" / "synth000.txt",
                        scripts / "synth000.txt", 3)
    reason = "undecodable: line 3: byte 0xff is not UTF-8 text (invalid start byte)"
    out = tmp_path / "manifest.json"
    args = corpus_args(synth)
    args[args.index("--scripts") + 1] = str(scripts)
    assert run(["ingest"] + args + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["excluded"] == [
        {"title": "synth000", "reason": reason}]
    capsys.readouterr()
    argv = trajectory_args(synth, descriptor_run[0] / "descriptors.swck",
                           tmp_path / "traj.svg")
    argv[argv.index("--scripts") + 1] = str(scripts)
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "DataError", "message": f"{bad}: {reason}"}


def test_parse_skips_undecodable_script(workspace, tmp_path, caplog):
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in sorted((synth / "scripts").glob("*.txt"))[:3]:
        (scripts / p.name).write_bytes(p.read_bytes())
    (scripts / "zzbinary.txt").write_bytes(b"INT. ROOM - DAY\n\xff\n")
    out = tmp_path / "parsed"
    with caplog.at_level("WARNING"):
        assert run(["parse", "--scripts", str(scripts), "--out", str(out)]) == 0
    assert sorted(p.stem for p in out.glob("*.tsv")) == \
        ["synth000", "synth001", "synth002"]
    assert not (out / "zzbinary.quality.json").exists()
    assert "zzbinary.txt: undecodable: " in caplog.text


def with_bad_byte(src: Path, dst: Path, line: int) -> Path:
    """A copy of ``src`` with the byte 0xff put into line ``line``."""
    lines = src.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    dst.write_bytes(b"".join(lines))
    return dst


@pytest.mark.parametrize("reader, line", [
    ("embeddings", 3), ("tags", 4), ("loglines", 2), ("tag_embeddings", 2),
])
def test_undecodable_input_file_is_data_error_naming_its_line(
        workspace, trained, tmp_path, capsys, reader, line):
    _, synth = workspace
    source = {"embeddings": synth / "embeddings.txt",
              "tags": synth / "tags.json",
              "loglines": synth / "loglines.json",
              "tag_embeddings": synth / "tag_embeddings.tsv"}[reader]
    bad = with_bad_byte(source, tmp_path / source.name, line)
    out = tmp_path / "out.json"
    args = data_args(synth)
    if reader == "tag_embeddings":
        argv = ["evaluate"] + args + [
            "--checkpoint", str(trained[0] / "checkpoint.swck"),
            "--tag-embeddings", str(bad)]
    else:
        argv = ["ingest"] + args + CORPUS_FLAGS + [
            "--loglines", str(synth / "loglines.json")]
        argv[argv.index(f"--{reader}") + 1] = str(bad)
    assert run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    errors = [json.loads(text) for text in captured.err.splitlines()
              if text.startswith("{")]
    assert errors == [{"error": "DataError", "message":
                       f"{bad} line {line}: byte 0xff is not UTF-8 text "
                       f"(invalid start byte)"}]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("reader, text, where, message", [
    ("tags", '{"a": 1', "line 1 column 8", "Expecting ',' delimiter"),
    ("tags", '{"synth000": {"genre": ["a"]}\n\n"b": {}}', "line 3 column 1",
     "Expecting ',' delimiter"),
    ("loglines", '{"synth000": "a",\n  "synth001": }', "line 2 column 15",
     "Expecting value"),
    ("loglines", "", "line 1 column 1", "Expecting value"),
], ids=["tags_unclosed", "tags_missing_comma", "loglines_no_value",
        "loglines_empty"])
def test_malformed_json_input_is_data_error_naming_line_and_column(
        workspace, tmp_path, capsys, reader, text, where, message):
    # tags through ingest, loglines through a loglines model's training;
    # neither writes anything
    _, synth = workspace
    bad = tmp_path / f"{reader}.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    if reader == "tags":
        argv = ["ingest"] + corpus_args(synth) + ["--out", str(out)]
        argv[argv.index("--tags") + 1] = str(bad)
    else:
        argv = (["train"] + train_args(synth)
                + ["--attribute", "genre", "--variant", "loglines",
                   "--loglines", str(bad), "--epochs", "1", "--out", str(out)])
    assert run(argv) == 1
    captured = capsys.readouterr()
    errors = [json.loads(line) for line in captured.err.splitlines()
              if line.startswith("{")]
    assert errors == [{"error": "DataError",
                       "message": f"{bad} {where}: {message}"}]
    assert captured.out == "" and not out.exists()


def test_tags_and_loglines_with_byte_order_mark_read_as_without(
        workspace, tmp_path):
    _, synth = workspace
    marked = {}
    for name in ("tags.json", "loglines.json"):
        marked[name] = tmp_path / name
        marked[name].write_bytes(b"\xef\xbb\xbf" + (synth / name).read_bytes())
    manifests = []
    for tags, loglines in ((synth / "tags.json", synth / "loglines.json"),
                           (marked["tags.json"], marked["loglines.json"])):
        out = tmp_path / f"manifest{len(manifests)}.json"
        argv = ["ingest"] + corpus_args(synth) + ["--loglines", str(loglines),
                                                  "--out", str(out)]
        argv[argv.index("--tags") + 1] = str(tags)
        assert run(argv) == 0
        manifests.append(out.read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["excluded"] == []


@pytest.mark.parametrize("data, line", [
    (b"a\r\nb\rc\nd\xff\n", 4),        # each break kind counts once
    (b"\xef\xbb\xbfa 1\n\xff", 2),      # a byte-order mark is no line
    (b"ok\n\n\xc3(\n", 3),               # a bad continuation byte
    (b"\xff", 1),
])
def test_decode_error_numbers_lines_as_text_mode_does(tmp_path, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        path.read_text(encoding="utf-8")
    assert str(decode_error(path)).startswith(f"{path} line {line}: byte 0x")


def test_ingest_and_parse_skip_directory_named_like_a_script(
        workspace, tmp_path, caplog):
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in sorted((synth / "scripts").glob("*.txt")):
        (scripts / p.name).write_bytes(p.read_bytes())
    (scripts / "zdir.txt").mkdir()
    out = tmp_path / "manifest.json"
    args = corpus_args(synth)
    args[args.index("--scripts") + 1] = str(scripts)
    assert run(["ingest"] + args + ["--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert sum(len(v) for v in manifest["splits"].values()) == 8
    assert manifest["excluded"] == [{"title": "zdir",
                                     "reason": "not a regular file"}]
    parsed = tmp_path / "parsed"
    with caplog.at_level("WARNING"):
        assert run(["parse", "--scripts", str(scripts), "--out", str(parsed)]) == 0
    assert len(list(parsed.glob("*.tsv"))) == 8
    assert "zdir.txt: not a regular file" in caplog.text


def test_parse_skips_empty_script(workspace, tmp_path, caplog):
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in sorted((synth / "scripts").glob("*.txt"))[:2]:
        (scripts / p.name).write_bytes(p.read_bytes())
    (scripts / "synth000b.txt").write_text("\n   \n\t\n\n")
    out = tmp_path / "parsed"
    with caplog.at_level("WARNING"):
        assert run(["parse", "--scripts", str(scripts), "--out", str(out)]) == 0
    assert sorted(p.stem for p in out.glob("*.tsv")) == ["synth000", "synth001"]
    assert not (out / "synth000b.quality.json").exists()
    assert "synth000b.txt: empty: " in caplog.text


@pytest.mark.parametrize("text", ["FADE IN:\n\nCUT TO:\n", "12345\n---\n"],
                         ids=["transitions_only", "page_marks_only"])
def test_parse_skips_what_ingest_excludes_with_its_reason(
        workspace, tmp_path, caplog, text):
    # parse once wrote such a script as one scene with an empty heading
    _, synth = workspace
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in sorted((synth / "scripts").glob("*.txt")):
        (scripts / p.name).write_bytes(p.read_bytes())
    (scripts / "zzbare.txt").write_text(text)
    manifest = tmp_path / "manifest.json"
    args = corpus_args(synth)
    args[args.index("--scripts") + 1] = str(scripts)
    assert run(["ingest"] + args + ["--out", str(manifest)]) == 0
    excluded = json.loads(manifest.read_text())["excluded"]
    assert excluded == [{"title": "zzbare", "reason": "no usable statements"}]
    out = tmp_path / "parsed"
    with caplog.at_level("WARNING"):
        assert run(["parse", "--scripts", str(scripts), "--out", str(out)]) == 0
    assert len(list(out.glob("*.tsv"))) == 8
    assert not (out / "zzbare.tsv").exists()
    assert not (out / "zzbare.quality.json").exists()
    assert "zzbare.txt: no usable statements" in caplog.text


def test_evaluate_rejects_garbage_checkpoint(workspace, tmp_path, capsys):
    _, synth = workspace
    bad = tmp_path / "garbage.swck"
    bad.write_bytes(b"garbage")
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(bad), "--out", str(tmp_path / "e.json")]) == 1
    assert last_error(capsys) == "CheckpointCorrupt"
    assert not (tmp_path / "e.json").exists()


def test_evaluate_rejects_truncated_checkpoint(workspace, trained, tmp_path,
                                               capsys):
    _, synth = workspace
    out_ckpt, _ = trained
    bad = tmp_path / "truncated.swck"
    bad.write_bytes((out_ckpt / "checkpoint.swck").read_bytes()[:-8])
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(bad), "--out", str(tmp_path / "e.json")]) == 1
    assert last_error(capsys) == "CheckpointCorrupt"
    assert not (tmp_path / "e.json").exists()


THRESHOLD_FLAGS = {
    "train": ["--attribute", "genre", "--epochs", "1",
              "--stop-at-train-f1", "0.1"],
    "evaluate": ["--checkpoint", "model.swck"],
    "evaluate --tag-embeddings": ["--checkpoint", "model.swck",
                                  "--tag-embeddings", "tags.tsv"],
}


@pytest.mark.parametrize("window", ["0", "-3", "4"])
def test_trajectories_window_even_or_below_one_is_usage_error(workspace, tmp_path,
                                                              window):
    _, synth = workspace
    # the checkpoint does not exist: the window is refused before it is read
    with pytest.raises(SystemExit) as exc:
        main(trajectory_args(synth, tmp_path / "missing.swck", tmp_path / "t.svg")
             + ["--window", window])
    assert exc.value.code == 2
    assert not (tmp_path / "t.svg").exists()


@pytest.mark.parametrize("value", ["0", "1.0", "1.5"])
@pytest.mark.parametrize("command", sorted(THRESHOLD_FLAGS))
def test_threshold_outside_unit_interval_is_usage_error(workspace, tmp_path,
                                                        command, value):
    _, synth = workspace
    data = train_args(synth) if command == "train" else data_args(synth)
    with pytest.raises(SystemExit) as exc:
        main([command_of(command)] + data + THRESHOLD_FLAGS[command]
             + ["--threshold", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


INGEST_FLAGS = {"--min-count": "2", "--cap": "60", "--heldout-fraction": "0.2",
                "--validation-fraction": "0.15", "--descriptor-min-movies": "2",
                "--descriptor-top-exclude": "30", "--seed": "0"}


@pytest.mark.parametrize("command,flag",
                         [(c, f) for c in TAG_READERS for f in INGEST_FLAGS]
                         + [("trajectories", "--cap")])
def test_checkpoint_commands_take_no_ingest_flag(workspace, tmp_path, capsys,
                                                 command, flag):
    _, synth = workspace
    out = tmp_path / "out"
    if command == "trajectories":
        argv = trajectory_args(synth, tmp_path / "missing.swck", out)
    else:
        argv = ([command_of(command)] + data_args(synth)
                + THRESHOLD_FLAGS[command] + ["--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, INGEST_FLAGS[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def without_ingest(manifest):
    manifest.pop("ingest")
    return "ingest"


def with_unknown_ingest_key(manifest):
    manifest["ingest"]["scene_cap"] = 60
    return "scene_cap"


def with_cap_as_string(manifest):
    manifest["ingest"]["cap"] = "60"
    return "cap"


def with_seed_as_string(manifest):
    manifest["ingest"]["seed"] = "0"
    return "seed"


def with_count_as_bool(manifest):
    manifest["ingest"]["min_count"] = True
    return "min_count"


def with_fraction_as_string(manifest):
    manifest["ingest"]["heldout_fraction"] = "0.2"
    return "heldout_fraction"


def rejected_checkpoint_argv(synth, command, bad, out):
    """``command`` reading checkpoint ``bad`` and writing ``out``;
    ``evaluate --tag-embeddings`` also reads tag embeddings."""
    if command == "trajectories":
        return trajectory_args(synth, bad, out)
    extra = (["--tag-embeddings", str(synth / "tag_embeddings.tsv")]
             if command == "evaluate --tag-embeddings" else [])
    return ([command_of(command)] + data_args(synth) + extra
            + ["--checkpoint", str(bad), "--out", str(out)])


def assert_refused_before_reading(argv, bad, key, out, capsys, monkeypatch):
    """``argv`` exits 1 with one JSON ``DataError`` line naming checkpoint
    ``bad`` and ``key``, having read neither corpus nor embeddings (word or
    tag) and written nothing."""

    def no_read(*args, **kwargs):
        raise AssertionError("read the corpus before the checkpoint settings")

    monkeypatch.setattr(cli, "ingest", no_read)
    monkeypatch.setattr(cli.WordEmbeddings, "load", no_read)
    monkeypatch.setattr(cli, "load_tag_embeddings", no_read)
    assert run(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "DataError"
    assert str(bad) in err["message"] and key in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("change", [without_ingest, with_unknown_ingest_key,
                                    with_cap_as_string, with_seed_as_string,
                                    with_count_as_bool, with_fraction_as_string])
@pytest.mark.parametrize("command", TAG_READERS + ("trajectories",))
def test_checkpoint_without_readable_ingest_settings_is_data_error(
        workspace, trained, descriptor_run, tmp_path, capsys, monkeypatch,
        command, change):
    _, synth = workspace
    src = (descriptor_run[0] / "descriptors.swck" if command == "trajectories"
           else trained[0] / "checkpoint.swck")
    params, manifest = load_checkpoint(src)
    key = change(manifest)
    bad = tmp_path / "bad.swck"
    save_checkpoint(bad, params, manifest)
    out = tmp_path / "out"
    assert_refused_before_reading(rejected_checkpoint_argv(synth, command, bad, out),
                                  bad, key, out, capsys, monkeypatch)


@pytest.mark.parametrize("key,value", [("k", "5"), ("recurrent", 0),
                                       ("alpha", None), ("init", 1),
                                       ("bogus", 1), ("top_words", "missing")])
def test_trajectories_refuses_unreadable_descriptor_config(
        workspace, descriptor_run, tmp_path, capsys, monkeypatch, key, value):
    _, synth = workspace
    params, manifest = load_checkpoint(descriptor_run[0] / "descriptors.swck")
    if value == "missing":
        del manifest["config"][key]
    else:
        manifest["config"][key] = value
    bad = tmp_path / "bad.swck"
    save_checkpoint(bad, params, manifest)
    out = tmp_path / "traj.svg"
    assert_refused_before_reading(trajectory_args(synth, bad, out), bad,
                                  repr(key), out, capsys, monkeypatch)


def test_trajectories_reads_an_int_for_a_float_setting(workspace, descriptor_run,
                                                      tmp_path):
    _, synth = workspace
    src = descriptor_run[0] / "descriptors.swck"
    params, manifest = load_checkpoint(src)
    assert manifest["config"]["ortho_lambda"] == 10.0
    manifest["config"]["ortho_lambda"] = 10
    save_checkpoint(tmp_path / "int.swck", params, manifest)
    assert run(trajectory_args(synth, src, tmp_path / "a.svg")) == 0
    assert run(trajectory_args(synth, tmp_path / "int.swck", tmp_path / "b.svg")) == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def train_variant_action():
    sub = cli.build_arg_parser()._subparsers._group_actions[0].choices["train"]
    return next(a for a in sub._actions if a.dest == "variant")


@pytest.mark.parametrize("argv", [
    ["--variant", "boe"], ["--variant", "boe_attn"], ["--variant", "gru"],
    ["--variant", "gru_attn"], ["--variant", "plus_chars"],
    ["--descriptor-min-movies", "3"], ["--descriptor-top-exclude", "25"],
], ids=lambda argv: "=".join(argv))
def test_train_refuses_removed_spellings(workspace, tmp_path, argv):
    _, synth = workspace
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train"] + train_args(synth)
             + ["--attribute", "genre", "--epochs", "1", "--out", str(out)] + argv)
    assert exc.value.code == 2
    assert not out.exists()


def test_train_variant_choices_name_structures_only():
    assert train_variant_action().choices == [
        "full", "minus_action", "minus_dialogue", "two_tier", "han", "loglines"]


def test_each_variant_builds_a_distinct_model(workspace):
    _, synth = workspace
    corpus, _ = ingest(synth / "scripts", synth / "tags.json",
                       synth / "embeddings.txt", IngestConfig(min_count=2))
    taxonomy = TagTaxonomy.from_items(corpus.items, "genre")
    structures = {}
    for variant in train_variant_action().choices:
        model = cli._build_tag_model(corpus, taxonomy, variant, "gru_attn",
                                     "auto", hidden=2, seed=0)
        shapes = sorted((name, t.data.shape)
                        for name, t in model.named_params().items())
        layout = getattr(model.encoder, "block_layout", None)
        structures[variant] = (shapes, layout)
    for i, a in enumerate(structures):
        for b in list(structures)[i + 1:]:
            assert structures[a] != structures[b], (a, b)


@pytest.fixture(scope="module")
def tag_corpus(workspace):
    _, synth = workspace
    corpus, _ = ingest(synth / "scripts", synth / "tags.json",
                       synth / "embeddings.txt", IngestConfig(min_count=2),
                       loglines_path=synth / "loglines.json")
    return corpus, TagTaxonomy.from_items(corpus.items, "genre")


TAG_ENCODERS = [(variant.value, kind.value, chars) for kind in EncoderKind
                for variant in Variant for chars in ("auto", "yes", "no")]


@pytest.mark.parametrize("variant, kind, chars",
                         TAG_ENCODERS + [("loglines", "gru_attn", "auto")],
                         ids=lambda value: value)
def test_tag_model_record_round_trips(tag_corpus, tmp_path, variant, kind,
                                      chars):
    """Every tag encoder's ``model`` record, saved in a checkpoint through
    ``asdict`` and read back by ``_checkpoint_of_kind``, is the record it
    was; the model rebuilt from it loads the saved parameters and scores a
    compiled script with the original's logits to the bit."""
    corpus, taxonomy = tag_corpus
    model = cli._build_tag_model(corpus, taxonomy, variant, kind, chars,
                                 hidden=2, seed=3)
    r = np.random.default_rng(0)
    params = {name: t.data + r.normal(0.0, 0.1, size=t.data.shape)
              for name, t in model.named_params().items()}
    load_params(model.named_params(), params)  # away from the initial draw
    record = cli._TagModelRecord(
        model=model.encoder.settings(), taxonomy=taxonomy,
        vocabulary_hash=corpus.vocabulary.hash(), ingest=IngestConfig(min_count=2),
        train=TrainConfig(), best_epoch=1, best_val_ap=0.5, config_hash="0" * 64)
    save_checkpoint(tmp_path / "model.swck", params, asdict(record))
    saved, read = cli._checkpoint_of_kind(str(tmp_path / "model.swck"),
                                          cli._TagModelRecord)
    assert read == record
    rebuilt = cli._rebuild_tag_model(read, corpus)
    assert rebuilt.encoder.settings() == record.model
    load_params(rebuilt.named_params(), saved)
    script = make_samples(corpus.items, taxonomy, variant == "loglines")[0].x
    assert np.array_equal(rebuilt.logits(script).data, model.logits(script).data)


def test_evaluate_refuses_plus_chars_checkpoint(workspace, tmp_path, capsys):
    _, synth = workspace
    out = tmp_path / "run"
    assert run(["train"] + train_args(synth)
               + ["--attribute", "genre", "--encoder", "boe", "--epochs", "1",
                  "--out", str(out)]) == 0
    params, manifest = load_checkpoint(out / "checkpoint.swck")
    assert manifest["model"]["include_chars"] is True
    manifest["model"]["variant"] = "plus_chars"
    save_checkpoint(tmp_path / "old.swck", params, manifest)
    report = tmp_path / "eval.json"
    assert run(["evaluate"] + data_args(synth)
               + ["--checkpoint", str(tmp_path / "old.swck"),
                  "--out", str(report)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "plus_chars" in err["message"]
    assert not report.exists()


MISSING = object()


@pytest.mark.parametrize("key,value", [
    ("hidden_per_direction", "50"), ("variant", "plus_chars"), ("kind", "lstm"),
    ("attention_normalization", "linear"), ("include_chars", 1),
    ("characters", ["A", 3]), ("seed", None), ("type", "lstm"),
    ("char_dim", MISSING), ("bogus", 1),
], ids=lambda v: "missing" if v is MISSING else str(v))
@pytest.mark.parametrize("command", TAG_READERS)
def test_tag_checkpoint_model_settings_are_checked_before_ingest(
        workspace, trained, tmp_path, capsys, monkeypatch, command, key, value):
    _, synth = workspace
    params, manifest = load_checkpoint(trained[0] / "checkpoint.swck")
    if value is MISSING:
        del manifest["model"][key]
    else:
        manifest["model"][key] = value
    bad = tmp_path / "bad.swck"
    save_checkpoint(bad, params, manifest)
    out = tmp_path / "out"
    assert_refused_before_reading(rejected_checkpoint_argv(synth, command, bad, out),
                                  bad, repr(key), out, capsys, monkeypatch)


def test_tag_checkpoint_without_model_settings_is_data_error(
        workspace, trained, tmp_path, capsys, monkeypatch):
    _, synth = workspace
    params, manifest = load_checkpoint(trained[0] / "checkpoint.swck")
    manifest["model"] = ["script"]
    bad = tmp_path / "bad.swck"
    save_checkpoint(bad, params, manifest)
    out = tmp_path / "out"
    assert_refused_before_reading(rejected_checkpoint_argv(synth, "evaluate", bad, out),
                                  bad, "model", out, capsys, monkeypatch)


def test_loglines_checkpoint_settings_are_checked_before_ingest(
        workspace, tmp_path, capsys, monkeypatch):
    _, synth = workspace
    loglines = ["--loglines", str(synth / "loglines.json")]
    run_dir = tmp_path / "run"
    assert run(["train"] + train_args(synth) + loglines
               + ["--attribute", "genre", "--variant", "loglines", "--hidden", "3",
                  "--epochs", "1", "--out", str(run_dir)]) == 0
    report = tmp_path / "eval.json"
    assert run(["evaluate"] + data_args(synth) + loglines
               + ["--checkpoint", str(run_dir / "checkpoint.swck"),
                  "--out", str(report)]) == 0
    assert json.loads(report.read_text())["variant"] == "loglines"
    params, manifest = load_checkpoint(run_dir / "checkpoint.swck")
    assert manifest["model"] == {"type": "loglines", "hidden_per_direction": 3,
                                 "seed": 0}
    manifest["model"]["hidden_per_direction"] = "3"
    bad = tmp_path / "bad.swck"
    save_checkpoint(bad, params, manifest)
    out = tmp_path / "out"
    assert_refused_before_reading(
        ["evaluate"] + data_args(synth) + loglines
        + ["--checkpoint", str(bad), "--out", str(out)],
        bad, "'hidden_per_direction'", out, capsys, monkeypatch)


def test_trajectories_cut_scenes_at_the_checkpoint_cap(workspace, tmp_path):
    _, synth = workspace
    desc = tmp_path / "desc"
    assert run(["descriptors"] + corpus_args(synth)
               + ["--cap", "2", "--attribute", "genre", "--k", "3",
                  "--hidden", "8", "--epochs", "1", "--pretrain-epochs", "1",
                  "--negatives", "2", "--seed", "2", "--out", str(desc)]) == 0
    out = tmp_path / "traj.csv"
    argv = trajectory_args(synth, desc / "descriptors.swck", out)
    argv[argv.index("--format") + 1] = "csv"
    assert run(argv + ["--descriptors", "top:2", "--window", "1"]) == 0
    text = (synth / "scripts" / "synth000.txt").read_text(encoding="utf-8")
    scenes = parse_script("synth000", text, cap=2).scenes
    assert len(scenes) > len(parse_script("synth000", text).scenes)
    rows = out.read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [s.index for s in scenes]


@pytest.mark.parametrize("flag,value", [("--heldout-fraction", "-0.2"),
                                        ("--validation-fraction", "-0.5"),
                                        ("--heldout-fraction", "1.0")])
def test_ingest_refuses_split_fraction_outside_unit_interval(
        workspace, tmp_path, capsys, flag, value):
    _, synth = workspace
    out = tmp_path / "manifest.json"
    assert run(["ingest"] + corpus_args(synth) + [flag, value,
                                                  "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError"
    assert value in err["message"]
    assert not out.exists()


TAG_MODEL_KEYS = ["best_epoch", "best_val_ap", "config_hash", "ingest", "kind",
                  "model", "taxonomy", "train", "vocabulary_hash"]
DESCRIPTOR_MODEL_KEYS = ["attribute", "config", "config_hash", "ingest", "kind",
                         "stats", "vocab", "vocabulary_hash"]
READERS = {"tag_model": TAG_READERS,
           "descriptor_model": ("trajectories",)}


def test_checkpoints_hold_exactly_their_declared_keys(trained, descriptor_run):
    _, tag = load_checkpoint(trained[0] / "checkpoint.swck")
    _, descriptor = load_checkpoint(descriptor_run[0] / "descriptors.swck")
    assert sorted(tag) == TAG_MODEL_KEYS
    assert sorted(descriptor) == DESCRIPTOR_MODEL_KEYS


TAXONOMY_KEYS = ["active", "attribute", "lam", "tags"]


def damaged_manifests():
    """(command, checkpoint kind, key, damage) for each declared key deleted
    or set to 7, a retired key added back, and a taxonomy whose lam is one
    entry short; inside the taxonomy, each key deleted or set to 7, an
    unknown key added, and an active mask of 1/0 for its booleans; and a
    model record holding the retired attention normalization, as earlier
    checkpoints do."""
    cases = [(command, kind, key, damage)
             for kind, keys in [("tag_model", TAG_MODEL_KEYS),
                                ("descriptor_model", DESCRIPTOR_MODEL_KEYS)]
             for command in READERS[kind]
             for key in keys for damage in ("deleted", "7")]
    cases += [(command, "tag_model", "variant", "added")
              for command in READERS["tag_model"]]
    cases += [("trajectories", "descriptor_model", "seed", "added")]
    cases += [(command, "tag_model", key, f"taxonomy-{damage}")
              for command in READERS["tag_model"]
              for key in TAXONOMY_KEYS for damage in ("deleted", "7")]
    cases += [(command, "tag_model", key, damage)
              for command in READERS["tag_model"]
              for key, damage in [("positives", "taxonomy-added"),
                                  ("active", "ints")]]
    cases += [(command, "tag_model", "attention_normalization", "model-softmax")
              for command in READERS["tag_model"]]
    return cases + [(command, "tag_model", "lam", "short")
                    for command in READERS["tag_model"]]


def damage_manifest(manifest, key, damage):
    if damage == "deleted":
        del manifest[key]
    elif damage == "7":
        # where 7 is a valid value (an int, or a float an int serves for),
        # the string "7"
        manifest[key] = "7" if key in ("best_epoch", "best_val_ap") else 7
    elif damage == "added":
        manifest[key] = 0
    elif damage.startswith("taxonomy-"):
        damage_manifest(manifest["taxonomy"], key, damage.split("-")[1])
    elif damage == "model-softmax":
        manifest["model"][key] = "softmax"
    elif damage == "ints":
        manifest["taxonomy"][key] = [int(v) for v in manifest["taxonomy"][key]]
    else:
        manifest["taxonomy"][key].pop()


@pytest.mark.parametrize("command,kind,key,damage", damaged_manifests())
def test_damaged_manifest_is_refused_before_reading(
        workspace, trained, descriptor_run, tmp_path, capsys, monkeypatch,
        command, kind, key, damage):
    _, synth = workspace
    src = (trained[0] / "checkpoint.swck" if kind == "tag_model"
           else descriptor_run[0] / "descriptors.swck")
    params, manifest = load_checkpoint(src)
    damage_manifest(manifest, key, damage)
    bad = tmp_path / "bad.swck"
    save_checkpoint(bad, params, manifest)
    out = tmp_path / "out"
    assert_refused_before_reading(rejected_checkpoint_argv(synth, command, bad, out),
                                  bad, repr(key), out, capsys, monkeypatch)


@pytest.mark.parametrize("cutoffs", ["90,nan,150,90,-5", "nan", "inf", "-inf",
                                     "150", "-5", "100.5", "100,90,90",
                                     "90,90.0", "90,", "ninety"])
def test_evaluate_refuses_bad_cutoffs(workspace, tmp_path, capsys, cutoffs):
    _, synth = workspace
    out = tmp_path / "eval.json"
    # the checkpoint does not exist: the cutoffs are refused before it is read
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"] + data_args(synth)
             + ["--checkpoint", str(tmp_path / "missing.swck"),
                "--tag-embeddings", str(synth / "tag_embeddings.tsv"),
                "--cutoffs", cutoffs, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --cutoffs" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_takes_the_percentile_range_ends():
    args = cli.build_arg_parser().parse_args(
        ["evaluate", "--scripts", "s", "--tags", "t", "--embeddings", "e",
         "--checkpoint", "c", "--tag-embeddings", "g", "--cutoffs", "0,100"])
    assert args.cutoffs == [0.0, 100.0]


def command_args(command, synth):
    """The data flags ``command`` needs, and ``--attribute`` where it
    takes one."""
    if command == "parse":
        return ["--scripts", str(synth / "scripts")]
    if command == "ingest":
        return corpus_args(synth)
    data = train_args(synth) if command == "train" else corpus_args(synth)
    return data + ["--attribute", "genre"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command,flag", [
    ("train", "--epochs"), ("train", "--patience"), ("train", "--hidden"),
    ("descriptors", "--k"), ("descriptors", "--hidden"),
    ("descriptors", "--epochs"), ("descriptors", "--negatives"),
    ("descriptors", "--top-words"), ("parse", "--cap"), ("ingest", "--cap"),
    ("train", "--cap"), ("descriptors", "--cap"), ("ingest", "--min-count"),
    ("train", "--min-count"), ("descriptors", "--min-count"),
    ("ingest", "--descriptor-min-movies"), ("descriptors", "--descriptor-min-movies"),
])
def test_counts_below_one_are_usage_errors(workspace, tmp_path, capsys,
                                           command, flag, value):
    _, synth = workspace
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command] + command_args(command, synth)
             + ["--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "descriptors"])
def test_negative_descriptor_top_exclude_is_a_usage_error(workspace, tmp_path,
                                                          capsys, command):
    _, synth = workspace
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command] + command_args(command, synth)
             + ["--out", str(out), "--descriptor-top-exclude", "-1"])
    assert exc.value.code == 2
    assert "argument --descriptor-top-exclude: must be a finite int in [0, inf), " \
        "got -1" in capsys.readouterr().err
    assert not out.exists()


def test_vocabulary_flags_take_their_range_ends():
    args = cli.build_arg_parser().parse_args(
        ["ingest", "--scripts", "s", "--tags", "t", "--embeddings", "e",
         "--min-count", "1", "--descriptor-min-movies", "1",
         "--descriptor-top-exclude", "0"])
    assert (args.min_count, args.descriptor_min_movies,
            args.descriptor_top_exclude) == (1, 1, 0)


@pytest.mark.parametrize("command", ["ingest", "train", "descriptors", "synth"])
def test_negative_seed_is_a_usage_error(workspace, tmp_path, capsys, command):
    _, synth = workspace
    out = tmp_path / "out"
    data = [] if command == "synth" else command_args(command, synth)
    with pytest.raises(SystemExit) as exc:
        main([command] + data + ["--out", str(out), "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be a finite int in [0, inf), got -1" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--scripts", "0"), ("--scripts", "-3"), ("--tags", "1"), ("--tags", "9"),
    ("--markers-per-tag", "3"), ("--markers-per-tag", "-2"),
    ("--scenes-min", "0"), ("--scenes-max", "0"), ("--statements-min", "-1"),
    ("--statements-max", "0"), ("--scripts", "2.5"), ("--signal", "nan"),
    ("--signal", "7"), ("--signal", "-5"), ("--signal", "1.01"),
])
def test_synth_counts_out_of_range_are_usage_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["scenes", "statements"])
def test_synth_minimum_above_maximum_is_usage_error(tmp_path, capsys, count):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), f"--{count}-min", "5",
              f"--{count}-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --{count}-max: must be at least --{count}-min 5, got 2" in err
    assert not out.exists()


def test_synth_order_sensitive_with_more_tags_than_orders_is_usage_error(
        tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), "--tags", "4", "--order-sensitive"])
    assert exc.value.code == 2
    assert "argument --tags: must be at most 3 with --order-sensitive, got 4" \
        in capsys.readouterr().err
    assert not out.exists()
    assert run(["synth", "--out", str(out), "--scripts", "2", "--tags", "3",
                "--order-sensitive"]) == 0


def test_synth_takes_its_range_ends(tmp_path):
    out = tmp_path / "out"
    assert run(["synth", "--out", str(out), "--scripts", "1", "--tags", "2",
                "--markers-per-tag", "4", "--scenes-min", "1", "--scenes-max", "1",
                "--statements-min", "3", "--statements-max", "3"]) == 0
    assert [p.name for p in (out / "scripts").glob("*.txt")] == ["synth000.txt"]
    args = cli.build_arg_parser().parse_args(["synth", "--tags", "8"])
    assert args.tags == 8
    for signal in ("0", "1"):
        args = cli.build_arg_parser().parse_args(["synth", "--signal", signal])
        assert args.signal == float(signal)


def test_descriptors_take_zero_pretrain_epochs():
    args = cli.build_arg_parser().parse_args(
        ["descriptors", "--scripts", "s", "--tags", "t", "--embeddings", "e",
         "--attribute", "genre", "--pretrain-epochs", "0"])
    assert args.pretrain_epochs == 0


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--lr", "-0.01"), ("train", "--lr", "0"), ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("train", "--max-norm", "-1"), ("train", "--max-norm", "0"),
    ("train", "--max-norm", "nan"), ("train", "--max-norm", "inf"),
    ("train", "--stop-at-train-f1", "-1"), ("train", "--stop-at-train-f1", "0"),
    ("train", "--stop-at-train-f1", "1.5"), ("train", "--stop-at-train-f1", "nan"),
    ("descriptors", "--lr", "0"), ("descriptors", "--lr", "-0.01"),
    ("descriptors", "--lr", "inf"),
    ("descriptors", "--ortho-lambda", "-3"), ("descriptors", "--ortho-lambda", "nan"),
    ("descriptors", "--ortho-lambda", "inf"),
    ("descriptors", "--alpha", "1.5"), ("descriptors", "--alpha", "-0.1"),
    ("descriptors", "--alpha", "nan"),
    ("descriptors", "--pretrain-epochs", "-2"),
])
def test_numeric_training_flags_outside_their_range_are_usage_errors(
        workspace, tmp_path, capsys, command, flag, value):
    _, synth = workspace
    out = tmp_path / "out"
    # a short run, so that a value let through trains and writes quickly
    data = (train_args(synth) + ["--epochs", "1"] if command == "train"
            else corpus_args(synth) + ["--k", "2", "--epochs", "1",
                                       "--pretrain-epochs", "1", "--recurrent"])
    with pytest.raises(SystemExit) as exc:
        main([command] + data + ["--attribute", "genre", "--out", str(out),
                                 flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_training_flags_take_their_closed_range_ends():
    parse = cli.build_arg_parser().parse_args
    data = ["--scripts", "s", "--tags", "t", "--embeddings", "e",
            "--attribute", "genre"]
    assert parse(["train", *data, "--stop-at-train-f1", "1"]).stop_at_train_f1 == 1.0
    for alpha in ("0", "1"):
        assert parse(["descriptors", *data, "--alpha", alpha]).alpha == float(alpha)
    assert parse(["descriptors", *data, "--ortho-lambda", "0"]).ortho_lambda == 0.0
    assert parse(["descriptors", *data, "--top-words", "1"]).top_words == 1
    assert parse(["descriptors", *data, "--cap", "1", "--seed", "0"]).cap == 1
    assert parse(["parse", "--scripts", "s", "--cap", "1"]).cap == 1


def _subcommands():
    ap = cli.build_arg_parser()
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _field_defaults(config):
    """{flag dest: default} for each field of ``config``, under the names
    of the flags that set it."""
    default = config()
    out = {f.name: getattr(default, f.name) for f in fields(config)}
    if config is TrainConfig:
        out["epochs"] = default.max_epochs
    if config is SynthSpec:
        out.update(scripts=default.n_scripts, tags=default.n_tags,
                   scenes_min=default.scenes_range[0],
                   scenes_max=default.scenes_range[1],
                   statements_min=default.statements_range[0],
                   statements_max=default.statements_range[1])
    return out


TAG_INGEST = "min_count cap heldout_fraction validation_fraction seed"
ALL_INGEST = TAG_INGEST + " descriptor_min_movies descriptor_top_exclude"


@pytest.mark.parametrize("command,config,dests", [
    ("ingest", IngestConfig, ALL_INGEST),
    ("train", IngestConfig, TAG_INGEST),
    ("train", TrainConfig,
     "lr max_norm epochs patience threshold seed stop_at_train_f1"),
    ("descriptors", IngestConfig, ALL_INGEST),
    ("descriptors", DescriptorConfig,
     "k hidden recurrent alpha ortho_lambda negatives lr epochs "
     "pretrain_epochs init seed top_words"),
    ("synth", SynthSpec,
     "scripts tags signal seed order_sensitive attribute scenes_min "
     "scenes_max statements_min statements_max markers_per_tag"),
])
def test_each_flag_default_is_its_config_field_default(command, config, dests):
    defaults = _field_defaults(config)
    actions = {a.dest: a for a in _subcommands()[command]._actions}
    assert {dest for dest in actions if dest in defaults} == set(dests.split())
    for dest in dests.split():
        assert actions[dest].default == defaults[dest], dest


def test_parse_cap_default_is_the_parser_scene_cap():
    cap = next(a for a in _subcommands()["parse"]._actions if a.dest == "cap")
    assert cap.default == DEFAULT_SCENE_CAP


def _set_flags(command, values):
    """argv setting each flag dest of ``values`` to a value other than the
    flag's default; True is a bare switch."""
    defaults = {a.dest: a.default for a in _subcommands()[command]._actions}
    argv = []
    for dest, value in values.items():
        assert value != defaults[dest], dest
        flag = "--" + dest.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def test_every_config_flag_reaches_its_record(workspace, tmp_path):
    _, synth = workspace
    tag_ingest = {"min_count": 2, "cap": 50, "heldout_fraction": 0.25,
                  "validation_fraction": 0.2, "seed": 3}
    all_ingest = {**tag_ingest, "descriptor_min_movies": 2,
                  "descriptor_top_exclude": 30}
    training = {"lr": 0.01, "max_norm": 3.0, "epochs": 2, "patience": 1,
                "threshold": 0.4, "stop_at_train_f1": 0.99}
    descriptor = {"k": 3, "hidden": 8, "recurrent": True, "alpha": 0.3,
                  "ortho_lambda": 2.0, "negatives": 2, "lr": 0.01, "epochs": 1,
                  "pretrain_epochs": 1, "init": "kmeans", "top_words": 4}
    spec = {"scripts": 3, "tags": 2, "signal": 0.5, "seed": 5,
            "order_sensitive": True, "attribute": "mood", "scenes_min": 2,
            "scenes_max": 3, "statements_min": 2, "statements_max": 3,
            "markers_per_tag": 5}
    # every flag that names a config field is set (see the parametrize table
    # of test_each_flag_default_is_its_config_field_default)
    assert set(tag_ingest) == set(TAG_INGEST.split())
    assert set(all_ingest) == set(ALL_INGEST.split())
    assert set(training) | {"seed"} == set(
        "lr max_norm epochs patience threshold seed stop_at_train_f1".split())
    assert set(descriptor) | {"seed"} == {f.name for f in fields(DescriptorConfig)
                                          if f.name != "max_norm"}

    run_dir = tmp_path / "run"
    assert run(["train", *data_args(synth), "--attribute", "genre",
                "--encoder", "boe", *_set_flags("train", tag_ingest),
                *_set_flags("train", training), "--out", str(run_dir)]) == 0
    _, record = load_checkpoint(run_dir / "checkpoint.swck")
    assert record["ingest"] == asdict(IngestConfig(**tag_ingest))
    assert record["train"] == asdict(TrainConfig(
        lr=0.01, max_norm=3.0, max_epochs=2, patience=1, threshold=0.4, seed=3,
        stop_at_train_f1=0.99))

    desc_dir = tmp_path / "desc"
    assert run(["descriptors", *data_args(synth), "--attribute", "genre",
                *_set_flags("descriptors", all_ingest),
                *_set_flags("descriptors", descriptor),
                "--out", str(desc_dir)]) == 0
    _, record = load_checkpoint(desc_dir / "descriptors.swck")
    assert record["ingest"] == asdict(IngestConfig(**all_ingest))
    assert record["config"] == asdict(DescriptorConfig(**descriptor, seed=3))

    synth_dir = tmp_path / "synth"
    assert run(["synth", *_set_flags("synth", spec), "--out", str(synth_dir)]) == 0
    written = json.loads((synth_dir / "synth_manifest.json").read_text())
    assert written["spec"] == json.loads(json.dumps(asdict(SynthSpec(
        n_scripts=3, n_tags=2, signal=0.5, seed=5, order_sensitive=True,
        attribute="mood", scenes_range=(2, 3), statements_range=(2, 3),
        markers_per_tag=5))))
