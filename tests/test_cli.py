import json
from pathlib import Path

import numpy as np
import pytest

from scenewise.checkpoint import load_checkpoint, save_checkpoint
from scenewise.cli import main
from scenewise.encoders import CharacterTable

CORPUS_FLAGS = ["--min-count", "2", "--descriptor-min-movies", "2",
                "--descriptor-top-exclude", "30", "--validation-fraction", "0.15"]


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


def corpus_args(synth):
    return ["--scripts", str(synth / "scripts"), "--tags", str(synth / "tags.json"),
            "--embeddings", str(synth / "embeddings.txt")] + CORPUS_FLAGS


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
    args = (["train"] + corpus_args(synth)
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
    assert lines[1] == "epoch,train_loss,val_ap,lr,wallclock"
    assert len(lines) == 2 + 3  # hash comment + header + 3 epochs
    # wallclock column stays empty unless --timing is passed
    assert all(line.endswith(",") for line in lines[2:])


def test_train_rerun_byte_identical(trained, tmp_path):
    out, args = trained
    other = tmp_path / "rerun"
    rerun_args = args[:-1] + [str(other)]
    assert run(rerun_args) == 0
    assert (other / "checkpoint.swck").read_bytes() == \
        (out / "checkpoint.swck").read_bytes()
    assert (other / "train_log.csv").read_bytes() == \
        (out / "train_log.csv").read_bytes()


def test_evaluate_command(workspace, trained):
    root, synth = workspace
    out_ckpt, _ = trained
    report_path = root / "eval.json"
    assert run(["evaluate"] + corpus_args(synth)
               + ["--checkpoint", str(out_ckpt / "checkpoint.swck"),
                  "--split", "heldout", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["attribute"] == "genre"
    assert 0.0 <= report["micro_f1"] <= 1.0
    assert report["n_scripts"] > 0


def test_evaluate_refuses_vocabulary_mismatch(workspace, trained, capsys):
    root, synth = workspace
    out_ckpt, _ = trained
    # different min-count changes the vocabulary hash
    args = (["evaluate", "--scripts", str(synth / "scripts"),
             "--tags", str(synth / "tags.json"),
             "--embeddings", str(synth / "embeddings.txt"),
             "--min-count", "4", "--descriptor-min-movies", "2",
             "--descriptor-top-exclude", "30", "--validation-fraction", "0.15",
             "--checkpoint", str(out_ckpt / "checkpoint.swck"),
             "--out", str(root / "bad.json")])
    assert run(args) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "VocabularyMismatch"


def test_evaluate_rejects_checkpoint_shape_mismatch(workspace, trained, tmp_path,
                                                   capsys):
    root, synth = workspace
    out_ckpt, _ = trained
    bad = altered_checkpoint(out_ckpt / "checkpoint.swck", tmp_path / "bad.swck",
                             lambda p: p.update({"head.b": np.zeros(1)}))
    assert run(["evaluate"] + corpus_args(synth)
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
    assert run(["train"] + corpus_args(synth)
               + ["--attribute", "genre", "--encoder", "gru_attn", "--hidden", "2",
                  "--epochs", "1", "--seed", "7", "--out", str(out)]) == 0
    ckpt = out / "checkpoint.swck"
    assert run(["evaluate"] + corpus_args(synth)
               + ["--checkpoint", str(ckpt), "--out", str(tmp_path / "ok.json")]) == 0
    params, manifest = load_checkpoint(ckpt)
    unk = CharacterTable.UNK_NAME
    characters = [unk] + [c for c in manifest["model"]["characters"] if c != unk]
    old = per_gate_layout(params, characters)
    # 5 encoders x 2 directions, 9 arrays a direction instead of 4
    assert len(old) == len(params) + 5 * 2 * 5 + len(characters) - 1
    save_checkpoint(tmp_path / "old.swck", old, manifest)
    assert run(["evaluate"] + corpus_args(synth)
               + ["--checkpoint", str(tmp_path / "old.swck"),
                  "--out", str(tmp_path / "eval.json")]) == 1
    assert last_error(capsys) == "ParameterMismatch"
    assert not (tmp_path / "eval.json").exists()


def test_eval_sim_cutoff_100_matches_evaluate(workspace, trained):
    root, synth = workspace
    out_ckpt, _ = trained
    eval_path = root / "eval2.json"
    assert run(["evaluate"] + corpus_args(synth)
               + ["--checkpoint", str(out_ckpt / "checkpoint.swck"),
                  "--out", str(eval_path)]) == 0
    sim_path = root / "sim.json"
    assert run(["eval-sim"] + corpus_args(synth)
               + ["--checkpoint", str(out_ckpt / "checkpoint.swck"),
                  "--tag-embeddings", str(synth / "tag_embeddings.tsv"),
                  "--cutoffs", "100,90,80,70", "--out", str(sim_path)]) == 0
    sim = json.loads(sim_path.read_text())
    exact = json.loads(eval_path.read_text())["micro_f1"]
    assert sim["cutoffs"]["100"]["f1"] == exact
    values = [sim["cutoffs"][c]["f1"] for c in ("100", "90", "80", "70")]
    assert values == sorted(values)


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


def test_descriptors_rerun_byte_identical(descriptor_run, tmp_path):
    out, args = descriptor_run
    other = tmp_path / "desc2"
    assert run(args[:-1] + [str(other)]) == 0
    assert (other / "descriptors.swck").read_bytes() == \
        (out / "descriptors.swck").read_bytes()
    assert (other / "descriptor_report.json").read_bytes() == \
        (out / "descriptor_report.json").read_bytes()
    assert (other / "descriptor_log.csv").read_bytes() == \
        (out / "descriptor_log.csv").read_bytes()


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


def test_variant_accepts_encoder_kind_shorthand(workspace, tmp_path):
    root, synth = workspace
    out = tmp_path / "run_kind"
    assert run(["train"] + corpus_args(synth)
               + ["--attribute", "genre", "--variant", "boe",
                  "--include-chars", "no", "--epochs", "1", "--seed", "7",
                  "--out", str(out)]) == 0
    from scenewise.checkpoint import load_checkpoint
    _, manifest = load_checkpoint(out / "checkpoint.swck")
    assert manifest["variant"] == "full"
    assert manifest["model"]["kind"] == "boe"


def test_plus_chars_refuses_include_chars_no(workspace, tmp_path, capsys):
    _, synth = workspace
    out = tmp_path / "run_plus"
    assert run(["train"] + corpus_args(synth)
               + ["--attribute", "genre", "--variant", "plus_chars",
                  "--encoder", "boe", "--include-chars", "no", "--epochs", "1",
                  "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "plus_chars" in err["message"]
    assert not (out / "checkpoint.swck").exists()


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


def test_evaluate_rejects_garbage_checkpoint(workspace, tmp_path, capsys):
    _, synth = workspace
    bad = tmp_path / "garbage.swck"
    bad.write_bytes(b"garbage")
    assert run(["evaluate"] + corpus_args(synth)
               + ["--checkpoint", str(bad), "--out", str(tmp_path / "e.json")]) == 1
    assert last_error(capsys) == "CheckpointCorrupt"
    assert not (tmp_path / "e.json").exists()


def test_evaluate_rejects_truncated_checkpoint(workspace, trained, tmp_path,
                                               capsys):
    _, synth = workspace
    out_ckpt, _ = trained
    bad = tmp_path / "truncated.swck"
    bad.write_bytes((out_ckpt / "checkpoint.swck").read_bytes()[:-8])
    assert run(["evaluate"] + corpus_args(synth)
               + ["--checkpoint", str(bad), "--out", str(tmp_path / "e.json")]) == 1
    assert last_error(capsys) == "CheckpointCorrupt"
    assert not (tmp_path / "e.json").exists()


THRESHOLD_FLAGS = {
    "train": ["--attribute", "genre", "--epochs", "1",
              "--stop-at-train-f1", "0.1"],
    "evaluate": ["--checkpoint", "model.swck"],
    "eval-sim": ["--checkpoint", "model.swck", "--tag-embeddings", "tags.tsv"],
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
    with pytest.raises(SystemExit) as exc:
        main([command] + corpus_args(synth) + THRESHOLD_FLAGS[command]
             + ["--threshold", value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
