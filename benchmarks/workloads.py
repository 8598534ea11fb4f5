"""The benchmark's workloads: input generation, one timed pass over the
library's public functions, and the output checks that count failures.

A pass drives the library the way the ``scenewise`` CLI commands do and
times each phase around those calls.  Every call goes through the module
attribute (``classifier.train``, ``corpus.ingest``, ...) so the tracer's
wrappers see it.  An operation is one script through one timed phase; a
phase that raises, or whose output fails a check, counts all its
operations as failed.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from probes import PhaseClock
from spans import tape_nodes
from scenewise import (autodiff, checkpoint, classifier, corpus, descriptors,
                       encoders, evaluation, parser, trajectories)

LIBRARY = {"autodiff": autodiff, "checkpoint": checkpoint,
           "classifier": classifier, "corpus": corpus,
           "descriptors": descriptors, "encoders": encoders,
           "evaluation": evaluation, "parser": parser,
           "trajectories": trajectories}

ATTRIBUTE = "genre"
# the ROADMAP's pinned ingest settings; ``workers`` stays at its default
INGEST = dict(min_count=2, descriptor_min_movies=4, descriptor_top_exclude=25)
CUTOFFS = (100.0, 90.0, 80.0, 70.0)
# Validation AP the planted-signal corpus reaches after the fixed epochs.
# Trained models read at least 0.67 (boe_wide, 65 seeds) and 0.89
# (gru_attn_train, 26 seeds); untrained ones read 0.33 to 0.53.
VAL_AP_FLOOR = 0.55
# descriptor weights are softmax outputs: rows sum to one within rounding
SIMPLEX_TOL = 1e-9
# The ROADMAP's pinned shape: 6 scenes of 5 statements, the script whose tape
# it counted.  Fixing the shape makes the seed change a corpus's content but
# not its size, which would otherwise move per-script rates between seeds.
PINNED_SHAPE = dict(scenes_range=(6, 6), statements_range=(5, 5))
PINNED_SPEC = dict(n_scripts=1, seed=7, **PINNED_SHAPE)
ROADMAP_PINNED_NODES = 9519
# a probe this recent is taken as the next phase's "before" probe
PROBE_REUSE_S = 0.05


# tag workloads: GRU width, and epochs with patience above them, so every run
# takes the same optimizer steps
HIDDEN = 50
TAG_EPOCHS = 2
DESCRIPTOR = dict(k=5, negatives=5, epochs=15, pretrain_epochs=10)
# Forward-only phases repeat so that each lasts seconds: one trajectory
# round over 40 scripts takes about 40 ms, and a GRU+Attn scoring round
# about 2 s, which left its rate the noisiest end-to-end figure.
TRAJECTORY_ROUNDS = 25
INFER_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict                     # SynthSpec fields other than the seed
    kind: str                       # "tags" or "descriptors"
    encoder: str = ""


# BENCHMARK.json and the README say why each workload is there.
WORKLOADS = {w.name: w for w in (
    Workload("gru_attn_train", dict(n_scripts=40, **PINNED_SHAPE), "tags",
             "gru_attn"),
    Workload("boe_wide", dict(n_scripts=300, scenes_range=(10, 20),
                              statements_range=(6, 12)), "tags", "boe"),
    Workload("descriptors_traj", dict(n_scripts=40, **PINNED_SHAPE),
             "descriptors"),
)}


@dataclass
class Inputs:
    root: Path
    spec_hash: str
    n_scripts: int
    pinned: Path | None = None

    @property
    def scripts(self) -> Path:
        return self.root / "scripts"


def generate(workload: Workload, seed: int, root: Path, pinned: bool) -> Inputs:
    """Write the workload's synthetic corpus; the program reads only these files."""
    spec = corpus.SynthSpec(seed=seed, attribute=ATTRIBUTE, **workload.synth)
    manifest = corpus.generate_synthetic_corpus(root / "corpus", spec)
    inputs = Inputs(root / "corpus", manifest["spec_hash"], spec.n_scripts)
    if pinned:
        corpus.generate_synthetic_corpus(root / "pinned",
                                         corpus.SynthSpec(**PINNED_SPEC))
        inputs.pinned = root / "pinned" / "scripts" / "synth000.txt"
    return inputs


class PassFailed(Exception):
    """A phase raised; the pass stops and its operations count as failed."""


@dataclass
class Pass:
    """Timings, operation counts and quality readings of one pass.

    ``seconds`` holds raw phase times and ``scaled`` the probe-scaled ones.
    With a tracer, each phase runs inside a ``bench.<phase>`` span.
    """

    tracer: object = None
    seconds: dict[str, float] = field(default_factory=dict)
    scaled: dict[str, float] = field(default_factory=dict)
    ops: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    _probe: tuple[float, float] = (0.0, -1.0)   # last probe and when it ended

    def phase(self, name: str, n_ops: int, fn, check=None):
        """Time ``fn()``; ``check(value)`` returns a list of problems."""
        self.attempted += n_ops
        self.ops[name] = n_ops
        probe, taken = self._probe
        clock = PhaseClock(LIBRARY, self.tracer,
                           probe if perf_counter() - taken < PROBE_REUSE_S else None)
        try:
            with clock:
                value = self.tracer.call(f"bench.{name}", fn) if self.tracer \
                    else fn()
        except Exception as err:  # a failed phase is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(name, n_ops, f"{type(err).__name__}: {err}")
            raise PassFailed(name) from err
        self.seconds[name] = clock.raw
        self.scaled[name] = clock.scaled
        self._probe = (clock.after, perf_counter())
        problems = check(value) if check else []
        if problems:
            self.fail(name, n_ops, "; ".join(problems))
        return value

    def fail(self, name: str, n_ops: int, why: str) -> None:
        self.failed += n_ops
        self.problems.append(f"{name}: {why}")

    def rate(self, name: str, scaled: bool = True) -> float:
        return self.ops[name] / (self.scaled if scaled else self.seconds)[name]

    def wall(self, scaled: bool = True) -> float:
        return sum((self.scaled if scaled else self.seconds).values())


def ingest(inputs: Inputs):
    config = corpus.IngestConfig(**INGEST)
    root = inputs.root
    return corpus.ingest(inputs.scripts, root / "tags.json",
                         root / "embeddings.txt", config)


def check_ingest(inputs: Inputs, manifest: dict) -> list[str]:
    kept = sum(len(v) for v in manifest["splits"].values())
    if kept != inputs.n_scripts:
        return [f"{kept} of {inputs.n_scripts} scripts ingested: "
                f"{manifest['excluded'][:3]}"]
    return []


def check_checkpoint(saved: dict, manifest: dict, loaded) -> list[str]:
    arrays, back = loaded
    if sorted(arrays) != sorted(saved):
        return ["checkpoint names differ"]
    bad = [k for k in saved if not np.array_equal(arrays[k], saved[k])]
    problems = [f"checkpoint arrays differ: {bad[:3]}"] if bad else []
    if back != manifest:
        problems.append("checkpoint manifest differs")
    return problems


def _roundtrip(path: Path, params: dict, manifest: dict):
    checkpoint.save_checkpoint(path, params, manifest)
    return checkpoint.load_checkpoint(path)


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# tag classifier workloads


def build_tag_model(workload: Workload, data):
    """Taxonomy and full-variant model, as ``scenewise train`` builds them."""
    taxonomy = classifier.TagTaxonomy.from_items(
        data.train_items + data.validation_items, ATTRIBUTE)
    vectors = data.vectors()
    spec = encoders.EncoderSpec(kind=encoders.EncoderKind(workload.encoder),
                                input_dim=vectors.dim,
                                hidden_per_direction=HIDDEN)
    encoder = encoders.HierarchicalModel(
        spec=spec, variant=encoders.Variant.FULL, vectors=vectors,
        characters=data.characters(), seed=0)
    return taxonomy, classifier.ScriptTagModel(encoder, len(taxonomy), seed=0)


def setup(workload: Workload, inputs: Inputs):
    """Ingest, plus model construction for the tag workloads."""
    data, manifest = ingest(inputs)
    if workload.kind != "tags":
        return data, manifest
    taxonomy, model = build_tag_model(workload, data)
    return data, manifest, taxonomy, model


def tag_pass(workload: Workload, inputs: Inputs, work: Path, p: Pass) -> dict:
    data, manifest, taxonomy, model = p.phase(
        "setup", inputs.n_scripts, lambda: setup(workload, inputs),
        lambda out: check_ingest(inputs, out[1]))

    train_samples = classifier.make_samples(data.train_items, taxonomy)
    val_samples = classifier.make_samples(data.validation_items, taxonomy)
    # patience above the epoch count: every run takes the same steps
    config = classifier.TrainConfig(max_epochs=TAG_EPOCHS,
                                    patience=TAG_EPOCHS + 1)

    def check_train(result) -> list[str]:
        problems = []
        if len(result.rows) != TAG_EPOCHS:
            problems.append(f"{len(result.rows)} epochs run")
        if not _all_finite([r.train_loss for r in result.rows]
                           + [r.val_ap for r in result.rows]):
            problems.append("non-finite loss or AP")
        if not result.best_val_ap >= VAL_AP_FLOOR:
            problems.append(f"val AP {result.best_val_ap:.4f} < {VAL_AP_FLOOR}")
        return problems

    result = p.phase(
        "train", TAG_EPOCHS * len(train_samples),
        lambda: classifier.train(model, train_samples, val_samples, taxonomy,
                                 config),
        check_train)
    p.quality["val_ap"] = result.best_val_ap

    scored = classifier.make_samples(data.items, taxonomy)
    active = set(taxonomy.active_tags())
    gold = {it.title: set(it.tags.get(ATTRIBUTE, ())) & active
            for it in data.items}
    space = evaluation.load_tag_embeddings(
        inputs.root / "tag_embeddings.tsv")[ATTRIBUTE]

    def infer():
        for _ in range(INFER_ROUNDS):
            preds = classifier.predictions(model, scored, taxonomy)
            f1 = evaluation.micro_f1(preds, gold)
            sims = [evaluation.similarity_f1(preds, gold, space, c)
                    for c in CUTOFFS]
        return preds, f1, sims

    def check_infer(out) -> list[str]:
        preds, f1, sims = out
        problems = []
        if set(preds) != {s.key for s in scored}:
            problems.append("predictions miss scored scripts")
        # cutoff 100 is exact matching; F-1 cannot fall as the cutoff drops
        if sims[0] != f1 or any(b < a for a, b in zip(sims, sims[1:])):
            problems.append(f"similarity F-1 {sims} vs micro F-1 {f1}")
        return problems

    _, f1, _ = p.phase("infer", INFER_ROUNDS * len(scored), infer, check_infer)
    p.quality["micro_f1"] = f1

    saved = {k: v.copy() for k, v in result.best_params.items()}
    ckpt_manifest = {"kind": "tag_model", "attribute": ATTRIBUTE,
                     "model": model.encoder.to_config(),
                     "taxonomy": taxonomy.to_dict(),
                     "vocabulary_hash": data.vocabulary.hash(),
                     "best_val_ap": result.best_val_ap}
    p.phase("checkpoint", 1,
            lambda: _roundtrip(work / "model.swck", saved, ckpt_manifest),
            lambda out: check_checkpoint(saved, ckpt_manifest, out))
    return {"model": model, "taxonomy": taxonomy}


def pinned_tape_nodes(inputs: Inputs, model, taxonomy) -> int:
    """Tape size of one loss over the pinned script on the trained model."""
    play = parser.parse_script("synth000", inputs.pinned.read_text("utf-8"))
    z = model.logits(play)
    loss = classifier.reweighted_loss(np.zeros(len(taxonomy)), z,
                                      taxonomy.lam, taxonomy.active)
    return tape_nodes(loss)


# ---------------------------------------------------------------------------
# descriptor + trajectory workload


def descriptor_pass(workload: Workload, inputs: Inputs, work: Path,
                    p: Pass) -> dict:
    data, _ = p.phase("setup", inputs.n_scripts, lambda: setup(workload, inputs),
                      lambda out: check_ingest(inputs, out[1]))
    config = descriptors.DescriptorConfig(**DESCRIPTOR)
    items = data.train_items + data.validation_items

    target = p.phase(
        "pretrain", config.pretrain_epochs * len(items),
        lambda: descriptors.pretrain_reconstruction_target(data, ATTRIBUTE,
                                                           config))
    # train_descriptors takes one step per script with two usable scenes
    usable = sum(1 for it in items
                 if sum(target.encode_scene(s) is not None
                        for s in it.screenplay.scenes) >= 2)

    def check_train(out) -> list[str]:
        _, stats = out
        problems = []
        if not _all_finite(stats.epoch_losses):
            problems.append("non-finite descriptor loss")
        if not stats.final_fro < stats.initial_fro:
            problems.append(f"orthogonality distance {stats.initial_fro:.4f} -> "
                            f"{stats.final_fro:.4f} did not fall")
        if stats.simplex_max_deviation > SIMPLEX_TOL \
                or stats.simplex_min_entry < 0:
            problems.append("training weights left the simplex")
        return problems

    model, stats = p.phase(
        "train", config.epochs * usable,
        lambda: descriptors.train_descriptors(data, target, config), check_train)
    p.quality["final_fro"] = stats.final_fro

    documents = [set(corpus.scene_tokens(s)) for it in items
                 for s in it.screenplay.scenes]
    p.phase("report", config.k,
            lambda: descriptors.descriptor_report(model, documents),
            lambda report: [] if len(report) == config.k and _all_finite(
                [d["coherence"] for d in report]) else ["bad descriptor report"])

    plays = [it.screenplay for it in data.items]

    def trajectory(play):
        weights = model.weights_for_script(play)
        selection = trajectories.select_descriptors(weights, "top:4")
        built = trajectories.build_trajectories(weights, selection, window=5)
        return (weights, built,
                trajectories.export(built, "svg", title=play.title),
                trajectories.export(built, "csv"))

    def trajectory_rounds():
        for _ in range(TRAJECTORY_ROUNDS - 1):
            for play in plays:
                trajectory(play)
        return [trajectory(play) for play in plays]

    def check_trajectories(outs) -> list[str]:
        problems = []
        for play, (weights, built, svg, csv_text) in zip(plays, outs):
            if weights.shape[0] != len(play.scenes) \
                    or np.abs(weights.sum(axis=1) - 1.0).max() > SIMPLEX_TOL \
                    or weights.min() < 0:
                problems.append(f"{play.title}: weights off the simplex")
            if trajectories.export(built, "svg", title=play.title) != svg \
                    or trajectories.export(built, "csv") != csv_text:
                problems.append(f"{play.title}: exports differ")
        return problems[:3]

    p.phase("trajectories", TRAJECTORY_ROUNDS * len(plays),
            trajectory_rounds, check_trajectories)

    saved = {name: t.data.copy() for name, t in model.named_params().items()}
    saved["target.p"] = target.p.copy()
    ckpt_manifest = {"kind": "descriptor_model", "attribute": ATTRIBUTE,
                     "config": config.to_dict(), "vocab": list(target.vocab),
                     "vocabulary_hash": data.vocabulary.hash()}
    p.phase("checkpoint", 1,
            lambda: _roundtrip(work / "descriptors.swck", saved, ckpt_manifest),
            lambda out: check_checkpoint(saved, ckpt_manifest, out))
    return {}


def run_pass(workload: Workload, inputs: Inputs, work: Path, p: Pass) -> dict:
    """One pass of the workload after input generation, recorded in ``p``.

    Returns the objects the traced run inspects afterwards.  Raises
    ``PassFailed`` when a phase raises.
    """
    run = tag_pass if workload.kind == "tags" else descriptor_pass
    return run(workload, inputs, work, p)
