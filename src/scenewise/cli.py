"""Command-line surface.

Subcommands: parse, ingest, train, evaluate, descriptors, trajectories,
synth.  Usage errors exit 2 (argparse); data errors exit 1 with one
machine-parsable JSON line on stderr; a missing or directory file that a
flag names is a data error naming the flag.  Every artifact embeds the
run's config hash except the fixed-format script TSV and trajectory CSV.
``parse``, ``ingest`` and ``trajectories`` read each script through
``corpus.read_play``: ``parse`` writes the table and the quality report of
the play it returns, and skips an entry ``ingest`` excludes, with the same
reason.

The ingest settings (vocabulary count, scene cap, split fractions and
seed) are flags of ``ingest``, ``train`` and ``descriptors`` only, and the
two descriptor-vocabulary counts of ``ingest`` and ``descriptors`` only.
A checkpoint records them all (a tag checkpoint the counts' defaults), and
``evaluate`` and ``trajectories`` read them from it, so a model is always
scored on the split and the scenes it was trained with.  ``evaluate``
writes one report: micro-F1, and with ``--tag-embeddings`` the
similarity F-1 sweep over ``--cutoffs`` as well.
``train``'s ``--variant`` names only a structure; ``--encoder`` names the
encoder kind.  Each checkpoint kind's manifest is one declared record
(``_TagModelRecord``, ``_DescriptorModelRecord``): the training command
writes it with ``asdict``, and ``_checkpoint_of_kind`` checks all of it
before anything is ingested or loaded.  The records they nest are the
library's own where one exists (``IngestConfig``, ``TrainConfig``,
``DescriptorConfig``, the classifier's ``TagTaxonomy``, and the tag
encoder's settings, ``ScriptModelSettings`` or ``LoglinesModelSettings``,
whose ``encoder`` rebuilds it), and ``_DescriptorStatsRecord`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import reprlib
import sys
import types
import typing
from collections import Counter
from dataclasses import asdict, dataclass, fields, is_dataclass
from itertools import count
from pathlib import Path

import numpy as np

from . import __version__
from . import parser as screenplay
from .checkpoint import load_checkpoint, save_checkpoint
from .classifier import (
    LoglineEncoder,
    LoglinesModelSettings,
    ScriptTagModel,
    TagTaxonomy,
    TrainConfig,
    load_params,
    make_samples,
    predictions,
    train,
)
from .corpus import (
    ORDER_TOKENS,
    PLANTED_RUN_MAX,
    TOPIC_NAMES,
    Corpus,
    IngestConfig,
    SynthSpec,
    TokenVectors,
    Vocabulary,
    WordEmbeddings,
    generate_synthetic_corpus,
    ingest,
    read_play,
    script_files,
)
from .descriptors import (
    DescriptorConfig,
    DescriptorModel,
    SceneBagEncoder,
    descriptor_report,
    pretrain_reconstruction_target,
    train_descriptors,
)
from .encoders import (
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    ScriptModelSettings,
    Variant,
)
from .errors import DataError, ScenewiseError, VocabularyMismatch
from .evaluation import load_tag_embeddings, micro_f1, similarity_report
from .ioutil import atomic_write_text, config_hash, write_json
from .trajectories import (
    build_trajectories,
    export,
    parse_selection,
    select_descriptors,
)

log = logging.getLogger(__name__)

OUT_ENV = "SCENEWISE_OUT"


def _default_out(value: str | None, name: str) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUT_ENV, ".")) / name


def _add_data_flags(sp: argparse.ArgumentParser, loglines: bool = False) -> None:
    sp.add_argument("--scripts", required=True, help="directory of *.txt scripts")
    sp.add_argument("--tags", required=True, help="tags JSON file")
    sp.add_argument("--embeddings", required=True, help="word embedding text file")
    if loglines:
        sp.add_argument("--loglines", default=None, help="loglines JSON file")


def _add_corpus_flags(sp: argparse.ArgumentParser, loglines: bool = False) -> None:
    """The data flags plus the ingest settings a tag model depends on."""
    _add_data_flags(sp, loglines)
    sp.add_argument("--min-count", type=_count, default=IngestConfig.min_count)
    sp.add_argument("--cap", type=_count, default=IngestConfig.cap)
    sp.add_argument("--heldout-fraction", type=float,
                    default=IngestConfig.heldout_fraction)
    sp.add_argument("--validation-fraction", type=float,
                    default=IngestConfig.validation_fraction)
    sp.add_argument("--seed", type=_seed, default=IngestConfig.seed)


def _add_descriptor_vocabulary_flags(sp: argparse.ArgumentParser) -> None:
    """The two ingest settings only the descriptor vocabulary depends on."""
    sp.add_argument("--descriptor-min-movies", type=_count,
                    default=IngestConfig.descriptor_min_movies)
    sp.add_argument("--descriptor-top-exclude", type=_number("[0, inf)", int),
                    default=IngestConfig.descriptor_top_exclude)


def _number(interval: str, kind: type = float):
    """argparse type for a finite ``kind`` (float or int) within
    ``interval``, written as in mathematics: ``(0, 1]`` takes 1 but not 0,
    ``[1, inf)`` every value from 1 up."""
    low, high = (float(end) for end in interval[1:-1].split(","))

    def parse(text: str):
        value = kind(text)
        above = low < value if interval[0] == "(" else low <= value
        below = value < high if interval[-1] == ")" else value <= high
        if not (math.isfinite(value) and above and below):
            raise argparse.ArgumentTypeError(
                f"must be a finite {kind.__name__} in {interval}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it when kind() fails
    return parse


_probability = _number("(0, 1)")
_count = _number("[1, inf)", int)
_seed = _number("[0, inf)", int)
_positive = _number("(0, inf)")


DEFAULT_CUTOFFS = "100,90,80,70"


def _cutoffs(text: str) -> list[float]:
    """argparse type for similarity cutoffs: comma-separated percentiles,
    each finite, within [0, 100] and naming its own report entry."""
    values = [float(c) for c in text.split(",")]
    for value in values:
        if not 0.0 <= value <= 100.0:
            raise argparse.ArgumentTypeError(f"each cutoff must lie in "
                                             f"[0, 100], got {value:g}")
    if len({f"{v:g}" for v in values}) < len(values):
        raise argparse.ArgumentTypeError(f"a cutoff repeats in {text}")
    return values


def _odd_window(text: str) -> int:
    """argparse type for a smoothing window: an odd integer >= 1."""
    value = int(text)
    if value < 1 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be an odd integer >= 1, got {text}")
    return value


def _selection(text: str) -> str:
    """argparse type for a descriptor selection: ``top:m`` or a comma list
    of distinct indices (:func:`trajectories.parse_selection`); the model's
    ``k`` is checked once the checkpoint is read."""
    try:
        parse_selection(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _annotation(text: str) -> tuple[int, str]:
    """argparse type for a scene annotation: ``SCENE:LABEL``, an integer
    scene and a label that is not empty; the scene is checked against the
    play once it is read."""
    number, colon, label = text.partition(":")
    if colon and label:
        try:
            return int(number), label
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"must be SCENE:LABEL with an integer SCENE, got {text!r}")


def _config(cls, args: argparse.Namespace, **named):
    """A ``cls`` config of the fields that the command's flags name (a
    flag's dest is its field's name), then of ``named``; every other field
    keeps its default."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in fields(cls) if f.name in flags},
               **named)


def _ingest_from_args(args: argparse.Namespace) -> tuple[Corpus, dict]:
    return ingest(args.scripts, args.tags, args.embeddings,
                  _config(IngestConfig, args),
                  loglines_path=getattr(args, "loglines", None))


# ---------------------------------------------------------------------------
# commands


def cmd_parse(args: argparse.Namespace) -> int:
    out_dir = _default_out(args.out, "parsed")
    out_dir.mkdir(parents=True, exist_ok=True)
    cap = None if args.no_split else args.cap
    parsed = 0
    for path in script_files(args.scripts):
        play, problem = read_play(path, cap)
        if problem is not None:
            log.warning("skipping %s: %s", path.name, problem)
            continue
        atomic_write_text(out_dir / f"{path.stem}.tsv", screenplay.to_table(play))
        write_json(out_dir / f"{path.stem}.quality.json",
                   {**play.quality, "config_hash": config_hash({"cap": cap})})
        parsed += 1
    print(f"parsed {parsed} script(s) into {out_dir}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    _, manifest = _ingest_from_args(args)
    out = _default_out(args.out, "corpus_manifest.json")
    write_json(out, manifest)
    print(f"ingested {sum(len(v) for v in manifest['splits'].values())} script(s); "
          f"manifest at {out}")
    return 0


def _build_tag_model(corpus: Corpus, taxonomy: TagTaxonomy,
                     variant: str, encoder_kind: str, include_chars: str,
                     hidden: int, seed: int) -> ScriptTagModel:
    vectors = corpus.vectors()
    if variant == "loglines":
        encoder = LoglineEncoder(vectors, hidden, seed)
    else:
        chars_flag = {"auto": None, "yes": True, "no": False}[include_chars]
        spec = EncoderSpec(kind=EncoderKind(encoder_kind), input_dim=vectors.dim,
                           hidden_per_direction=hidden)
        encoder = HierarchicalModel(spec=spec, variant=Variant(variant),
                                    vectors=vectors,
                                    characters=corpus.characters(),
                                    include_chars=chars_flag, seed=seed)
    return ScriptTagModel(encoder, len(taxonomy), seed=seed)


@dataclass(frozen=True)
class _TagModelRecord:
    """The manifest of a ``train`` checkpoint."""

    model: ScriptModelSettings | LoglinesModelSettings
    taxonomy: TagTaxonomy
    vocabulary_hash: str
    ingest: IngestConfig
    train: TrainConfig
    best_epoch: int
    best_val_ap: float
    config_hash: str
    kind: typing.Literal["tag_model"] = "tag_model"


@dataclass(frozen=True)
class _DescriptorStatsRecord:
    """A descriptor checkpoint's summary of its training."""

    initial_fro: float
    final_fro: float
    simplex_max_deviation: float
    simplex_min_entry: float


@dataclass(frozen=True)
class _DescriptorModelRecord:
    """The manifest of a ``descriptors`` checkpoint."""

    attribute: str
    config: DescriptorConfig
    vocab: list[str]
    vocabulary_hash: str
    ingest: IngestConfig
    stats: _DescriptorStatsRecord
    config_hash: str
    kind: typing.Literal["descriptor_model"] = "descriptor_model"


def _fits(value, hint) -> bool:
    """Whether a JSON value is of type ``hint``: an int serves for a float,
    only a bool for a bool, a ``Literal`` names the strings allowed,
    ``list[item]`` is a list of ``item``, a union takes any member's values
    (``None`` is null) and a record (a dataclass) is an object."""
    origin = typing.get_origin(hint)
    if origin is typing.Literal:
        return type(value) is str and value in typing.get_args(hint)
    if origin is list:
        return type(value) is list and all(_fits(v, typing.get_args(hint)[0])
                                           for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if is_dataclass(hint):
        return type(value) is dict
    return type(value) in ((int, float) if hint is float else (hint,))


def _expected(hint) -> str:
    origin = typing.get_origin(hint)
    if origin is typing.Literal:
        return "one of " + ", ".join(map(repr, typing.get_args(hint)))
    if origin is list:
        return f"a list of {_expected(typing.get_args(hint)[0])}"
    if origin in (typing.Union, types.UnionType):
        return " or ".join(dict.fromkeys(map(_expected, typing.get_args(hint))))
    if is_dataclass(hint):
        return "an object"
    return "null" if hint is type(None) else hint.__name__


def _record(value: dict, cls, where: str):
    """JSON object ``value`` as a ``cls`` record; a ``ValueError`` saying
    what is wrong ``where`` unless it holds exactly ``cls``'s fields, each
    of its field's type (see ``_fits``), a nested record read alike."""
    hints = typing.get_type_hints(cls)
    hints = {f.name: hints[f.name] for f in fields(cls)}  # a ClassVar is no key
    if unknown := sorted(value.keys() - hints.keys()):
        raise ValueError(f"{where} has an unknown key {unknown[0]!r}")
    for name, hint in hints.items():
        if name not in value:
            raise ValueError(f"{where} lacks {name!r}")
        if not _fits(value[name], hint):
            raise ValueError(f"{where} holds {reprlib.repr(value[name])} for "
                             f"{name!r}; expected {_expected(hint)}")
    return cls(**{name: _nested(value[name], hint, f"{where}'s {name}")
                  for name, hint in hints.items()})


def _nested(value, hint, where: str):
    """A field's ``value`` as is, or as the record ``hint`` declares: one
    record class, or the member of a union of them whose ``type`` the
    object holds."""
    records = [h for h in typing.get_args(hint) or (hint,) if is_dataclass(h)]
    if len(records) > 1:
        by_type = {typing.get_args(typing.get_type_hints(r)["type"])[0]: r
                   for r in records}
        if not _fits(value.get("type"), typing.Literal[tuple(by_type)]):
            raise ValueError(f"{where} holds {reprlib.repr(value.get('type'))} "
                             f"for 'type'; expected one of "
                             f"{', '.join(map(repr, by_type))}")
        records = [by_type[value["type"]]]
    return _record(value, records[0], where) if records else value


def _checkpoint_of_kind(path: str, cls):
    """A checkpoint's arrays and its manifest as a ``cls`` record, read
    before anything is ingested or loaded; a ``DataError`` naming ``path``
    and the key unless the manifest is of ``cls``'s kind and holds exactly
    its keys, each of its type (see ``_record``)."""
    params, manifest = load_checkpoint(path)
    if manifest.get("kind") != cls.kind:
        raise DataError(f"{path} is a {reprlib.repr(manifest.get('kind'))} "
                        f"checkpoint by its 'kind', not a {cls.kind!r} one")
    try:
        return params, _record(manifest, cls, "the manifest")
    except ValueError as err:
        raise DataError(f"{path}: {err}") from None


def _rebuild_tag_model(record: _TagModelRecord, corpus: Corpus) -> ScriptTagModel:
    return ScriptTagModel(record.model.encoder(corpus.vectors()),
                          len(record.taxonomy), seed=record.model.seed)


def _run_log_csv(cfg_hash: str, header: str, rows) -> str:
    """A training log: the config hash, the ``header`` row, then one row
    per epoch, each value as its ``repr``."""
    lines = [f"# config_hash {cfg_hash}", header]
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_train(args: argparse.Namespace) -> int:
    corpus, _ = _ingest_from_args(args)
    use_loglines = args.variant == "loglines"
    training_pool = corpus.train_items + corpus.validation_items
    if not training_pool:
        raise DataError("no training scripts after ingestion")
    taxonomy = TagTaxonomy.from_items(training_pool, args.attribute)
    if not len(taxonomy):
        raise DataError(f"no tags for attribute {args.attribute!r}")
    model = _build_tag_model(
        corpus, taxonomy, args.variant, args.encoder, args.include_chars,
        args.hidden, args.seed)
    train_samples = make_samples(corpus.train_items, taxonomy, use_loglines)
    val_samples = make_samples(corpus.validation_items, taxonomy, use_loglines)
    train_config = _config(TrainConfig, args, max_epochs=args.epochs)
    result = train(model, train_samples, val_samples, taxonomy, train_config)

    ingest_config = _config(IngestConfig, args)
    run_config = {"command": "train", "attribute": args.attribute,
                  "variant": args.variant, "encoder": args.encoder,
                  "include_chars": args.include_chars, "hidden": args.hidden,
                  "ingest": asdict(ingest_config), "train": asdict(train_config)}
    cfg_hash = config_hash(run_config)
    record = _TagModelRecord(
        model=model.encoder.settings(), taxonomy=taxonomy,
        vocabulary_hash=corpus.vocabulary.hash(), ingest=ingest_config,
        train=train_config, best_epoch=result.best_epoch,
        best_val_ap=result.best_val_ap, config_hash=cfg_hash)
    out_dir = _default_out(args.out, "run")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.swck", result.best_params,
                    asdict(record))
    atomic_write_text(out_dir / "train_log.csv", _run_log_csv(
        cfg_hash, "epoch,train_loss,val_ap,lr",
        [(r.epoch, r.train_loss, r.val_ap, r.lr) for r in result.rows]))
    print(f"trained {args.variant} on {args.attribute}: best val AP "
          f"{result.best_val_ap:.4f} at epoch {result.best_epoch}; "
          f"artifacts in {out_dir}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params, record = _checkpoint_of_kind(args.checkpoint, _TagModelRecord)
    taxonomy = record.taxonomy
    attribute = taxonomy.attribute
    space = None
    if args.tag_embeddings is not None:
        space = load_tag_embeddings(args.tag_embeddings).get(attribute)
        if space is None:
            raise DataError(f"no tag embeddings for attribute {attribute!r} "
                            f"in {args.tag_embeddings}")
        if missing := [t for t in taxonomy.tags if t not in space]:
            raise DataError(f"{args.tag_embeddings} has no vector for the "
                            f"{attribute!r} tag(s) {', '.join(map(repr, missing))}")
    corpus, manifest = ingest(args.scripts, args.tags, args.embeddings,
                              record.ingest, loglines_path=args.loglines)
    if corpus.vocabulary.hash() != record.vocabulary_hash:
        # a tags file without some title drops its script as surely as a
        # changed script directory changes the words
        message = (f"{args.checkpoint}: checkpoint vocabulary hash does not "
                   f"match the corpus of --scripts {args.scripts} and --tags "
                   f"{args.tags}")
        if excluded := manifest["excluded"]:
            message += (f"; ingest excluded {len(excluded)} entr"
                        f"{'y' if len(excluded) == 1 else 'ies'}, the first "
                        f"{excluded[0]['title']}: {excluded[0]['reason']}")
        raise VocabularyMismatch(message)
    model = _rebuild_tag_model(record, corpus)
    load_params(model.named_params(), params)
    items = {"train": corpus.train_items, "validation": corpus.validation_items,
             "heldout": corpus.heldout_items,
             "all": corpus.items}[args.split]
    if not items:
        raise DataError(f"no script to score in the {args.split!r} split")
    samples = make_samples(items, taxonomy, record.model.type == "loglines")
    if not samples:
        raise DataError("loglines checkpoint but no loglines available; "
                        "pass --loglines")
    active = set(taxonomy.active_tags())
    scored = {s.key for s in samples}
    if not any(it.tags.get(attribute) for it in items if it.title in scored):
        raise DataError(f"{args.tags}: no scored script has a tag for "
                        f"attribute {attribute!r}")
    gold = {it.title: set(it.tags.get(attribute, ())) & active
            for it in items if it.title in scored}
    preds = predictions(model, samples, taxonomy, threshold=args.threshold)
    f1 = micro_f1(preds, gold)
    report = {
        "attribute": attribute,
        "variant": record.model.variant,
        "split": args.split,
        "n_scripts": len(gold),
        "micro_f1": f1,
        "config_hash": record.config_hash,
    }
    summary = f"{attribute} micro-F1 on {args.split}: {f1:.4f} ({len(gold)} scripts)"
    if space is not None:
        tag_counts = Counter(t for it in corpus.items
                             for t in it.tags.get(attribute, ()))
        cutoffs = _cutoffs(DEFAULT_CUTOFFS) if args.cutoffs is None else args.cutoffs
        report["cutoffs"] = similarity_report(preds, gold, space, cutoffs,
                                              tag_counts)["cutoffs"]
        summary += "; similarity F-1 by cutoff: " + ", ".join(
            f"{c}: {entry['f1']:.4f}" for c, entry in report["cutoffs"].items())
    out = _default_out(args.out, "evaluation.json")
    write_json(out, report)
    print(f"{summary}; report at {out}")
    return 0


def cmd_descriptors(args: argparse.Namespace) -> int:
    corpus, _ = _ingest_from_args(args)
    if not corpus.descriptor_vocab:
        raise DataError(
            f"the descriptor vocabulary is empty: no vocabulary word with a "
            f"vector occurs in at least {args.descriptor_min_movies} train "
            f"and validation scripts (--descriptor-min-movies) outside their "
            f"{args.descriptor_top_exclude} most frequent words "
            f"(--descriptor-top-exclude); lower either flag")
    config = _config(DescriptorConfig, args)
    target = pretrain_reconstruction_target(corpus, args.attribute, config)
    model, stats = train_descriptors(corpus, target, config)
    documents = [words for it in corpus.train_items + corpus.validation_items
                 for words in target.scene_words(it.script)]
    report = descriptor_report(model, documents)

    ingest_config = _config(IngestConfig, args)
    run_config = {"command": "descriptors", "attribute": args.attribute,
                  "descriptor": asdict(config), "ingest": asdict(ingest_config)}
    cfg_hash = config_hash(run_config)
    record = _DescriptorModelRecord(
        attribute=args.attribute, config=config, vocab=list(target.vocab),
        vocabulary_hash=corpus.vocabulary.hash(), ingest=ingest_config,
        stats=_DescriptorStatsRecord(
            initial_fro=stats.initial_fro, final_fro=stats.final_fro,
            simplex_max_deviation=stats.simplex_max_deviation,
            simplex_min_entry=stats.simplex_min_entry),
        config_hash=cfg_hash)
    params = {name: t.data for name, t
              in {**target.named_params(), **model.named_params()}.items()}
    out_dir = _default_out(args.out, "descriptors")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "descriptors.swck", params, asdict(record))
    write_json(out_dir / "descriptor_report.json",
               {"descriptors": report, "config_hash": cfg_hash})
    atomic_write_text(out_dir / "descriptor_log.csv", _run_log_csv(
        cfg_hash, "epoch,train_loss,fro_distance",
        zip(count(1), stats.epoch_losses, stats.fro_trace)))
    print(f"trained {config.k} descriptors; ||RR^T - I||_F "
          f"{stats.initial_fro:.4f} -> {stats.final_fro:.4f}; "
          f"artifacts in {out_dir}")
    return 0


def cmd_trajectories(args: argparse.Namespace) -> int:
    params, record = _checkpoint_of_kind(args.checkpoint, _DescriptorModelRecord)
    embeddings = WordEmbeddings.load(args.embeddings)
    # the play is compiled against the descriptor words; load_params sets p
    vectors = TokenVectors(Vocabulary(record.vocab), embeddings)
    target = SceneBagEncoder(record.vocab, vectors, np.random.default_rng(0))
    model = DescriptorModel(np.zeros((record.config.k, embeddings.dim)), target,
                            record.config)
    load_params({**target.named_params(), **model.named_params()}, params)

    script_path = Path(args.scripts) / f"{args.title}.txt"
    if not script_path.exists():
        raise DataError(f"script not found: {script_path}")
    play, problem = read_play(script_path, record.ingest.cap)
    if problem is not None:
        raise DataError(f"{script_path}: {problem}")
    weights = model.weights_for_script(play)
    selection = select_descriptors(
        weights, args.descriptors or f"top:{min(4, record.config.k)}")
    trajectories = build_trajectories(weights, selection, window=args.window)
    n_scenes = weights.shape[0]
    annotations = args.annotate or []
    for scene_no, label in annotations:
        if not 1 <= scene_no <= n_scenes:
            raise DataError(f"--annotate {scene_no}:{label}: scene {scene_no} "
                            f"is outside 1..{n_scenes}")
    text = export(trajectories, args.format, annotations, title=args.title)
    out = _default_out(args.out, f"{args.title}.{args.format}")
    atomic_write_text(out, text)
    print(f"wrote {len(selection)} descriptor trajectories over "
          f"{n_scenes} scenes to {out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _config(SynthSpec, args, n_scripts=args.scripts, n_tags=args.tags,
                   scenes_range=(args.scenes_min, args.scenes_max),
                   statements_range=(args.statements_min, args.statements_max))
    out_dir = _default_out(args.out, "synth")
    manifest = generate_synthetic_corpus(out_dir, spec)
    print(f"generated {spec.n_scripts} synthetic script(s) in {out_dir} "
          f"(spec hash {manifest['spec_hash'][:12]})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scenewise",
        description="Screenplay parsing, hierarchical tag classifiers, "
                    "scene descriptors, and narrative trajectories.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse scripts to TSV + quality reports")
    sp.add_argument("--scripts", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--cap", type=_count, default=screenplay.DEFAULT_SCENE_CAP)
    sp.add_argument("--no-split", action="store_true",
                    help="do not split long scenes")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("ingest", help="build and describe a corpus")
    _add_corpus_flags(sp, loglines=True)
    _add_descriptor_vocabulary_flags(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("train", help="train a tag classifier")
    _add_corpus_flags(sp, loglines=True)
    sp.add_argument("--attribute", required=True)
    sp.add_argument("--variant", default="full",
                    choices=[v.value for v in Variant] + ["loglines"],
                    help="structural variant")
    sp.add_argument("--encoder", default="gru_attn",
                    choices=[k.value for k in EncoderKind])
    sp.add_argument("--include-chars", default="auto",
                    choices=["auto", "yes", "no"])
    sp.add_argument("--hidden", type=_count,
                    default=EncoderSpec.hidden_per_direction)
    sp.add_argument("--lr", type=_positive, default=TrainConfig.lr)
    sp.add_argument("--max-norm", type=_positive, default=TrainConfig.max_norm)
    sp.add_argument("--epochs", type=_count, default=TrainConfig.max_epochs)
    sp.add_argument("--patience", type=_count, default=TrainConfig.patience)
    sp.add_argument("--threshold", type=_probability, default=TrainConfig.threshold)
    sp.add_argument("--stop-at-train-f1", type=_number("(0, 1]"),
                    default=TrainConfig.stop_at_train_f1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("evaluate", help="micro-F1 and similarity F-1 on a split")
    _add_data_flags(sp, loglines=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", default="heldout",
                    choices=["train", "validation", "heldout", "all"])
    sp.add_argument("--threshold", type=_probability, default=TrainConfig.threshold)
    sp.add_argument("--tag-embeddings", default=None)
    sp.add_argument("--cutoffs", type=_cutoffs, default=None,
                    help=f"default {DEFAULT_CUTOFFS}; needs --tag-embeddings")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("descriptors", help="train the scene-descriptor model")
    _add_corpus_flags(sp)
    _add_descriptor_vocabulary_flags(sp)
    sp.add_argument("--attribute", required=True)
    sp.add_argument("--k", type=_count, default=DescriptorConfig.k)
    sp.add_argument("--hidden", type=_count, default=DescriptorConfig.hidden)
    sp.add_argument("--init", default=DescriptorConfig.init,
                    choices=["random_glorot", "kmeans"])
    sp.add_argument("--recurrent", action="store_true")
    sp.add_argument("--alpha", type=_number("[0, 1]"), default=DescriptorConfig.alpha)
    sp.add_argument("--ortho-lambda", type=_number("[0, inf)"),
                    default=DescriptorConfig.ortho_lambda)
    sp.add_argument("--negatives", type=_count, default=DescriptorConfig.negatives)
    sp.add_argument("--lr", type=_positive, default=DescriptorConfig.lr)
    sp.add_argument("--epochs", type=_count, default=DescriptorConfig.epochs)
    sp.add_argument("--pretrain-epochs", type=_number("[0, inf)", int),
                    default=DescriptorConfig.pretrain_epochs)
    sp.add_argument("--top-words", type=_count, default=DescriptorConfig.top_words)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_descriptors)

    sp = sub.add_parser("trajectories", help="export descriptor trajectories")
    sp.add_argument("--checkpoint", required=True,
                    help="descriptor checkpoint (.swck)")
    sp.add_argument("--scripts", required=True)
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--title", required=True)
    sp.add_argument("--descriptors", type=_selection, default=None,
                    help="'top:m' or comma-separated indices (default: top:4, "
                         "or every descriptor of a model with fewer)")
    sp.add_argument("--window", type=_odd_window, default=5)
    sp.add_argument("--annotate", type=_annotation, action="append",
                    metavar="SCENE:LABEL")
    sp.add_argument("--format", default="svg", choices=["csv", "svg"])
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_trajectories)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", default=None)
    sp.add_argument("--scripts", type=_count, default=SynthSpec.n_scripts)
    # each tag has a topic name of its own
    sp.add_argument("--tags", type=_number(f"[2, {len(TOPIC_NAMES)}]", int),
                    default=SynthSpec.n_tags)
    sp.add_argument("--signal", type=_number("[0, 1]"), default=SynthSpec.signal)
    sp.add_argument("--order-sensitive", action="store_true")
    sp.add_argument("--attribute", default=SynthSpec.attribute)
    scenes, statements = SynthSpec.scenes_range, SynthSpec.statements_range
    sp.add_argument("--scenes-min", type=_count, default=scenes[0])
    sp.add_argument("--scenes-max", type=_count, default=scenes[1])
    sp.add_argument("--statements-min", type=_count, default=statements[0])
    sp.add_argument("--statements-max", type=_count, default=statements[1])
    sp.add_argument("--markers-per-tag",
                    type=_number(f"[{PLANTED_RUN_MAX}, inf)", int),
                    default=SynthSpec.markers_per_tag)
    sp.add_argument("--seed", type=_seed, default=SynthSpec.seed)
    sp.set_defaults(fn=cmd_synth)

    return ap


def _flag_error(args: argparse.Namespace, err: OSError) -> Exception:
    """``err`` as a DataError naming the flag and the path, when the path
    it failed on is the value of one of the command's flags; else ``err``
    itself."""
    if isinstance(err.filename, (str, os.PathLike)):
        failed = Path(err.filename)
        for name, value in vars(args).items():
            if name != "command" and isinstance(value, str) \
                    and Path(value) == failed:
                flag = "--" + name.replace("_", "-")
                return DataError(f"{flag} {value}: {err.strerror}")
    return err


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    if getattr(args, "cutoffs", None) is not None and args.tag_embeddings is None:
        ap.error("evaluate: argument --cutoffs: needs --tag-embeddings")
    if args.command == "synth":
        if args.order_sensitive and args.tags > len(ORDER_TOKENS):
            ap.error(f"synth: argument --tags: must be at most "
                     f"{len(ORDER_TOKENS)} with --order-sensitive, got {args.tags}")
        for count in ("scenes", "statements"):
            low, high = getattr(args, f"{count}_min"), getattr(args, f"{count}_max")
            if low > high:
                ap.error(f"synth: argument --{count}-max: must be at least "
                         f"--{count}-min {low}, got {high}")
    try:
        return args.fn(args)
    except (ScenewiseError, OSError, ValueError) as err:
        if isinstance(err, OSError):
            err = _flag_error(args, err)
        line = json.dumps({"error": type(err).__name__, "message": str(err)})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
