"""Command-line surface.

Subcommands: parse, ingest, train, evaluate, eval-sim, descriptors,
trajectories, synth.  Usage errors exit 2 (argparse); data errors exit 1
with one machine-parsable JSON line on stderr.  Every artifact embeds the
run's config hash except the fixed-format script TSV and trajectory CSV.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import parser as screenplay
from .autodiff import constant
from .checkpoint import load_checkpoint, save_checkpoint
from .classifier import (
    LoglinesModel,
    ScriptTagModel,
    TagTaxonomy,
    TrainConfig,
    load_params,
    make_samples,
    predictions,
    train,
)
from .corpus import (
    Corpus,
    IngestConfig,
    SynthSpec,
    WordEmbeddings,
    generate_synthetic_corpus,
    ingest,
    scene_tokens,
)
from .descriptors import (
    DescriptorConfig,
    DescriptorModel,
    SceneBagEncoder,
    descriptor_report,
    pretrain_reconstruction_target,
    train_descriptors,
)
from .encoders import EncoderKind, EncoderSpec, HierarchicalModel, Variant
from .errors import DataError, EmptyScript, ScenewiseError, VocabularyMismatch
from .evaluation import load_tag_embeddings, micro_f1, similarity_report
from .ioutil import atomic_write_text, config_hash
from .trajectories import build_trajectories, export, select_descriptors

log = logging.getLogger(__name__)

OUT_ENV = "SCENEWISE_OUT"


def _default_out(value: str | None, name: str) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUT_ENV, ".")) / name


def _add_corpus_flags(sp: argparse.ArgumentParser, loglines: bool = False) -> None:
    sp.add_argument("--scripts", required=True, help="directory of *.txt scripts")
    sp.add_argument("--tags", required=True, help="tags JSON file")
    sp.add_argument("--embeddings", required=True, help="word embedding text file")
    if loglines:
        sp.add_argument("--loglines", default=None, help="loglines JSON file")
    sp.add_argument("--min-count", type=int, default=5)
    sp.add_argument("--cap", type=int, default=60)
    sp.add_argument("--heldout-fraction", type=float, default=0.2)
    sp.add_argument("--validation-fraction", type=float, default=0.1)
    sp.add_argument("--descriptor-min-movies", type=int, default=50)
    sp.add_argument("--descriptor-top-exclude", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)


def _probability(text: str) -> float:
    """argparse type for a threshold strictly inside (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, "
                                         f"got {text}")
    return value


def _odd_window(text: str) -> int:
    """argparse type for a smoothing window: an odd integer >= 1."""
    value = int(text)
    if value < 1 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be an odd integer >= 1, got {text}")
    return value


def _ingest_config(args: argparse.Namespace) -> IngestConfig:
    return IngestConfig(
        min_count=args.min_count, cap=args.cap,
        heldout_fraction=args.heldout_fraction,
        validation_fraction=args.validation_fraction, seed=args.seed,
        descriptor_min_movies=args.descriptor_min_movies,
        descriptor_top_exclude=args.descriptor_top_exclude)


def _ingest_from_args(args: argparse.Namespace) -> tuple[Corpus, dict]:
    return ingest(args.scripts, args.tags, args.embeddings, _ingest_config(args),
                  loglines_path=getattr(args, "loglines", None))


# ---------------------------------------------------------------------------
# commands


def cmd_parse(args: argparse.Namespace) -> int:
    out_dir = _default_out(args.out, "parsed")
    out_dir.mkdir(parents=True, exist_ok=True)
    cap = None if args.no_split else args.cap
    paths = sorted(Path(args.scripts).glob("*.txt"))
    if not paths:
        raise DataError(f"no *.txt scripts under {args.scripts}")
    parsed = 0
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
            play = screenplay.parse_script(path.stem, text, cap=cap)
        except UnicodeDecodeError as err:
            log.warning("skipping %s: undecodable: %s", path.name, err)
            continue
        except EmptyScript as err:
            log.warning("skipping %s: empty: %s", path.name, err)
            continue
        atomic_write_text(out_dir / f"{path.stem}.tsv", screenplay.to_table(play))
        raw = screenplay.RawScript.from_text(path.stem, text)
        report = screenplay.quality_report(raw)
        report["config_hash"] = config_hash({"cap": cap})
        atomic_write_text(out_dir / f"{path.stem}.quality.json",
                          json.dumps(report, indent=2, sort_keys=True) + "\n")
        parsed += 1
    print(f"parsed {parsed} script(s) into {out_dir}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    _, manifest = _ingest_from_args(args)
    out = _default_out(args.out, "corpus_manifest.json")
    atomic_write_text(out, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"ingested {sum(len(v) for v in manifest['splits'].values())} script(s); "
          f"manifest at {out}")
    return 0


def _build_tag_model(corpus: Corpus, taxonomy: TagTaxonomy,
                     variant: str, encoder_kind: str, include_chars: str,
                     hidden: int, seed: int):
    vectors = corpus.vectors()
    if variant == "loglines":
        model = LoglinesModel(vectors, len(taxonomy),
                              hidden_per_direction=hidden, seed=seed)
        model_config = {"type": "loglines", "hidden_per_direction": hidden,
                        "seed": seed}
        return model, model_config
    chars_flag = {"auto": None, "yes": True, "no": False}[include_chars]
    spec = EncoderSpec(kind=EncoderKind(encoder_kind), input_dim=vectors.dim,
                       hidden_per_direction=hidden)
    encoder = HierarchicalModel(spec=spec, variant=Variant(variant),
                                vectors=vectors, characters=corpus.characters(),
                                include_chars=chars_flag, seed=seed)
    model = ScriptTagModel(encoder, len(taxonomy), seed=seed)
    model_config = {"type": "script", **encoder.to_config()}
    return model, model_config


def _rebuild_tag_model(manifest: dict, corpus: Corpus):
    taxonomy = TagTaxonomy.from_dict(manifest["taxonomy"])
    mc = manifest["model"]
    if mc["type"] == "loglines":
        model = LoglinesModel(corpus.vectors(), len(taxonomy),
                              hidden_per_direction=mc["hidden_per_direction"],
                              seed=mc["seed"])
        return model, taxonomy, True
    encoder = HierarchicalModel.from_config(mc, corpus.vectors())
    model = ScriptTagModel(encoder, len(taxonomy), seed=mc["seed"])
    return model, taxonomy, False


def _train_log_csv(rows, cfg_hash: str) -> str:
    lines = [f"# config_hash {cfg_hash}", "epoch,train_loss,val_ap,lr,wallclock"]
    for r in rows:
        wallclock = "" if r.wallclock is None else repr(r.wallclock)
        lines.append(f"{r.epoch},{r.train_loss!r},{r.val_ap!r},{r.lr!r},{wallclock}")
    return "\n".join(lines) + "\n"


def _descriptor_log_csv(stats, cfg_hash: str) -> str:
    lines = [f"# config_hash {cfg_hash}", "epoch,train_loss,fro_distance"]
    for epoch, (loss, fro) in enumerate(zip(stats.epoch_losses, stats.fro_trace), 1):
        lines.append(f"{epoch},{loss!r},{fro!r}")
    return "\n".join(lines) + "\n"


def cmd_train(args: argparse.Namespace) -> int:
    # encoder kinds double as variant shorthand for the full architecture
    if args.variant in {k.value for k in EncoderKind}:
        args.encoder = args.variant
        args.variant = "full"
    corpus, _ = _ingest_from_args(args)
    use_loglines = args.variant == "loglines"
    training_pool = corpus.train_items + corpus.validation_items
    if not training_pool:
        raise DataError("no training scripts after ingestion")
    taxonomy = TagTaxonomy.from_items(training_pool, args.attribute)
    if not len(taxonomy):
        raise DataError(f"no tags for attribute {args.attribute!r}")
    model, model_config = _build_tag_model(
        corpus, taxonomy, args.variant, args.encoder, args.include_chars,
        args.hidden, args.seed)
    train_samples = make_samples(corpus.train_items, taxonomy, use_loglines)
    val_samples = make_samples(corpus.validation_items, taxonomy, use_loglines)
    train_config = TrainConfig(
        lr=args.lr, max_norm=args.max_norm, max_epochs=args.epochs,
        patience=args.patience, threshold=args.threshold, seed=args.seed,
        stop_at_train_f1=args.stop_at_train_f1)
    result = train(model, train_samples, val_samples, taxonomy, train_config,
                   timing=args.timing)

    run_config = {"command": "train", "attribute": args.attribute,
                  "variant": args.variant, "encoder": args.encoder,
                  "include_chars": args.include_chars, "hidden": args.hidden,
                  "ingest": _ingest_config(args).to_dict(),
                  "train": train_config.to_dict()}
    cfg_hash = config_hash(run_config)
    manifest = {
        "kind": "tag_model",
        "attribute": args.attribute,
        "variant": args.variant,
        "model": model_config,
        "taxonomy": taxonomy.to_dict(),
        "vocabulary_hash": corpus.vocabulary.hash(),
        "ingest": _ingest_config(args).to_dict(),
        "train": train_config.to_dict(),
        "best_epoch": result.best_epoch,
        "best_val_ap": result.best_val_ap,
        "seed": args.seed,
        "config_hash": cfg_hash,
    }
    out_dir = _default_out(args.out, "run")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "checkpoint.swck", result.best_params, manifest)
    atomic_write_text(out_dir / "train_log.csv",
                      _train_log_csv(result.rows, cfg_hash))
    print(f"trained {args.variant} on {args.attribute}: best val AP "
          f"{result.best_val_ap:.4f} at epoch {result.best_epoch}; "
          f"artifacts in {out_dir}")
    return 0


def _load_for_evaluation(args: argparse.Namespace):
    params, manifest = load_checkpoint(args.checkpoint)
    corpus, _ = _ingest_from_args(args)
    if corpus.vocabulary.hash() != manifest["vocabulary_hash"]:
        raise VocabularyMismatch(
            "checkpoint vocabulary hash does not match this corpus "
            "(pass the ingestion flags used at training time)")
    model, taxonomy, use_loglines = _rebuild_tag_model(manifest, corpus)
    load_params(model.named_params(), params)
    items = {"train": corpus.train_items, "validation": corpus.validation_items,
             "heldout": corpus.heldout_items,
             "all": corpus.items}[args.split]
    samples = make_samples(items, taxonomy, use_loglines)
    if use_loglines and not samples:
        raise DataError("loglines checkpoint but no loglines available; "
                        "pass --loglines")
    active = set(taxonomy.active_tags())
    scored = {s.key for s in samples}
    gold = {it.title: set(it.tags.get(taxonomy.attribute, ())) & active
            for it in items if it.title in scored}
    preds = predictions(model, samples, taxonomy, threshold=args.threshold)
    return manifest, corpus, taxonomy, gold, preds


def cmd_evaluate(args: argparse.Namespace) -> int:
    manifest, _, taxonomy, gold, preds = _load_for_evaluation(args)
    f1 = micro_f1(preds, gold)
    report = {
        "attribute": taxonomy.attribute,
        "variant": manifest["variant"],
        "split": args.split,
        "n_scripts": len(gold),
        "micro_f1": f1,
        "config_hash": manifest["config_hash"],
    }
    out = _default_out(args.out, "evaluation.json")
    atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"{taxonomy.attribute} micro-F1 on {args.split}: {f1:.4f} "
          f"({len(gold)} scripts); report at {out}")
    return 0


def cmd_eval_sim(args: argparse.Namespace) -> int:
    manifest, corpus, taxonomy, gold, preds = _load_for_evaluation(args)
    spaces = load_tag_embeddings(args.tag_embeddings)
    if taxonomy.attribute not in spaces:
        raise DataError(f"no tag embeddings for attribute "
                        f"{taxonomy.attribute!r} in {args.tag_embeddings}")
    space = spaces[taxonomy.attribute]
    cutoffs = [float(c) for c in args.cutoffs.split(",")]
    tag_counts: dict[str, int] = {t: 0 for t in space.tags}
    for it in corpus.items:
        for t in it.tags.get(taxonomy.attribute, ()):
            if t in tag_counts:
                tag_counts[t] += 1
    report = similarity_report(preds, gold, space, cutoffs, tag_counts)
    report["split"] = args.split
    report["config_hash"] = manifest["config_hash"]
    out = _default_out(args.out, "similarity_evaluation.json")
    atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    rows = ", ".join(f"{c}: {report['cutoffs'][f'{c:g}']['f1']:.4f}"
                     for c in cutoffs)
    print(f"{taxonomy.attribute} similarity F-1 by cutoff ({args.split}): {rows}; "
          f"report at {out}")
    return 0


def cmd_descriptors(args: argparse.Namespace) -> int:
    corpus, _ = _ingest_from_args(args)
    if not corpus.descriptor_vocab:
        raise DataError("descriptor vocabulary is empty; relax "
                        "--descriptor-min-movies / --descriptor-top-exclude")
    config = DescriptorConfig(
        k=args.k, hidden=args.hidden, recurrent=args.recurrent,
        alpha=args.alpha, ortho_lambda=args.ortho_lambda,
        negatives=args.negatives, lr=args.lr, epochs=args.epochs,
        pretrain_epochs=args.pretrain_epochs, init=args.init, seed=args.seed,
        top_words=args.top_words)
    target = pretrain_reconstruction_target(corpus, args.attribute, config)
    model, stats = train_descriptors(corpus, target, config)
    documents = [set(scene_tokens(s))
                 for it in corpus.train_items + corpus.validation_items
                 for s in it.screenplay.scenes]
    report = descriptor_report(model, documents)

    run_config = {"command": "descriptors", "attribute": args.attribute,
                  "descriptor": config.to_dict(),
                  "ingest": _ingest_config(args).to_dict()}
    cfg_hash = config_hash(run_config)
    manifest = {
        "kind": "descriptor_model",
        "attribute": args.attribute,
        "config": config.to_dict(),
        "vocab": list(target.vocab),
        "vocabulary_hash": corpus.vocabulary.hash(),
        "ingest": _ingest_config(args).to_dict(),
        "stats": {
            "initial_fro": stats.initial_fro,
            "final_fro": stats.final_fro,
            "simplex_max_deviation": stats.simplex_max_deviation,
            "simplex_min_entry": stats.simplex_min_entry,
        },
        "seed": args.seed,
        "config_hash": cfg_hash,
    }
    params = {name: t.data for name, t in model.named_params().items()}
    params["target.p"] = target.p
    out_dir = _default_out(args.out, "descriptors")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_dir / "descriptors.swck", params, manifest)
    atomic_write_text(out_dir / "descriptor_report.json",
                      json.dumps({"descriptors": report,
                                  "config_hash": cfg_hash},
                                 indent=2, sort_keys=True) + "\n")
    atomic_write_text(out_dir / "descriptor_log.csv",
                      _descriptor_log_csv(stats, cfg_hash))
    print(f"trained {config.k} descriptors; ||RR^T - I||_F "
          f"{stats.initial_fro:.4f} -> {stats.final_fro:.4f}; "
          f"artifacts in {out_dir}")
    return 0


def cmd_trajectories(args: argparse.Namespace) -> int:
    params, manifest = load_checkpoint(args.checkpoint)
    if manifest.get("kind") != "descriptor_model":
        raise DataError(f"{args.checkpoint} is not a descriptor checkpoint")
    embeddings = WordEmbeddings.load(args.embeddings)
    config = DescriptorConfig(**manifest["config"])
    # the target encoder pools with p's array, which load_params fills
    p = constant(np.zeros(embeddings.dim))
    target = SceneBagEncoder(manifest["vocab"], embeddings, p.data)
    model = DescriptorModel(np.zeros((config.k, embeddings.dim)), target, config)
    load_params({"target.p": p, **model.named_params()}, params)

    script_path = Path(args.scripts) / f"{args.title}.txt"
    if not script_path.exists():
        raise DataError(f"script not found: {script_path}")
    play = screenplay.parse_script(args.title,
                                   script_path.read_text(encoding="utf-8"),
                                   cap=args.cap)
    weights = model.weights_for_script(play)
    selection = select_descriptors(weights, args.descriptors)
    trajectories = build_trajectories(weights, selection, window=args.window)
    n_scenes = weights.shape[0]
    annotations = []
    for spec in args.annotate or []:
        number, _, label = spec.partition(":")
        scene_no = int(number)
        if not 1 <= scene_no <= n_scenes:
            raise DataError(f"--annotate {spec!r}: scene {scene_no} is outside "
                            f"1..{n_scenes}")
        annotations.append((scene_no, label))
    text = export(trajectories, args.format, annotations, title=args.title)
    out = _default_out(args.out, f"{args.title}.{args.format}")
    atomic_write_text(out, text)
    print(f"wrote {len(selection)} descriptor trajectories over "
          f"{n_scenes} scenes to {out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n_scripts=args.scripts, n_tags=args.tags, signal=args.signal,
        seed=args.seed, order_sensitive=args.order_sensitive,
        attribute=args.attribute,
        scenes_range=(args.scenes_min, args.scenes_max),
        statements_range=(args.statements_min, args.statements_max),
        markers_per_tag=args.markers_per_tag)
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
    sp.add_argument("--cap", type=int, default=60)
    sp.add_argument("--no-split", action="store_true",
                    help="do not split long scenes")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("ingest", help="build and describe a corpus")
    _add_corpus_flags(sp, loglines=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("train", help="train a tag classifier")
    _add_corpus_flags(sp, loglines=True)
    sp.add_argument("--attribute", required=True)
    sp.add_argument("--variant", default="full",
                    choices=["full", "plus_chars", "minus_action",
                             "minus_dialogue", "two_tier", "han", "loglines"]
                    + [k.value for k in EncoderKind],
                    help="structural variant; an encoder kind selects the "
                         "full architecture with that encoder")
    sp.add_argument("--encoder", default="gru_attn",
                    choices=[k.value for k in EncoderKind])
    sp.add_argument("--include-chars", default="auto",
                    choices=["auto", "yes", "no"])
    sp.add_argument("--hidden", type=int, default=50)
    sp.add_argument("--lr", type=float, default=5e-3)
    sp.add_argument("--max-norm", type=float, default=5.0)
    sp.add_argument("--epochs", type=int, default=20)
    sp.add_argument("--patience", type=int, default=5)
    sp.add_argument("--threshold", type=_probability, default=0.5)
    sp.add_argument("--stop-at-train-f1", type=float, default=None)
    sp.add_argument("--timing", action="store_true",
                    help="record wallclock in the train log (nondeterministic)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("evaluate", help="micro-F1 of a checkpoint on a split")
    _add_corpus_flags(sp, loglines=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", default="heldout",
                    choices=["train", "validation", "heldout", "all"])
    sp.add_argument("--threshold", type=_probability, default=0.5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("eval-sim", help="similarity-thresholded F-1 sweep")
    _add_corpus_flags(sp, loglines=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--tag-embeddings", required=True)
    sp.add_argument("--cutoffs", default="100,90,80,70")
    sp.add_argument("--split", default="heldout",
                    choices=["train", "validation", "heldout", "all"])
    sp.add_argument("--threshold", type=_probability, default=0.5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_eval_sim)

    sp = sub.add_parser("descriptors", help="train the scene-descriptor model")
    _add_corpus_flags(sp)
    sp.add_argument("--attribute", required=True)
    sp.add_argument("--k", type=int, default=25)
    sp.add_argument("--hidden", type=int, default=100)
    sp.add_argument("--init", default="random_glorot",
                    choices=["random_glorot", "kmeans"])
    sp.add_argument("--recurrent", action="store_true")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--ortho-lambda", type=float, default=10.0)
    sp.add_argument("--negatives", type=int, default=5)
    sp.add_argument("--lr", type=float, default=5e-3)
    sp.add_argument("--epochs", type=int, default=15)
    sp.add_argument("--pretrain-epochs", type=int, default=10)
    sp.add_argument("--top-words", type=int, default=10)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_descriptors)

    sp = sub.add_parser("trajectories", help="export descriptor trajectories")
    sp.add_argument("--checkpoint", required=True,
                    help="descriptor checkpoint (.swck)")
    sp.add_argument("--scripts", required=True)
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--title", required=True)
    sp.add_argument("--descriptors", default="top:4",
                    help="'top:m' or comma-separated indices")
    sp.add_argument("--window", type=_odd_window, default=5)
    sp.add_argument("--annotate", action="append", metavar="SCENE:LABEL")
    sp.add_argument("--format", default="svg", choices=["csv", "svg"])
    sp.add_argument("--cap", type=int, default=60)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_trajectories)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", default=None)
    sp.add_argument("--scripts", type=int, default=40)
    sp.add_argument("--tags", type=int, default=3)
    sp.add_argument("--signal", type=float, default=0.8)
    sp.add_argument("--order-sensitive", action="store_true")
    sp.add_argument("--attribute", default="genre")
    sp.add_argument("--scenes-min", type=int, default=5)
    sp.add_argument("--scenes-max", type=int, default=8)
    sp.add_argument("--statements-min", type=int, default=4)
    sp.add_argument("--statements-max", type=int, default=7)
    sp.add_argument("--markers-per-tag", type=int, default=12)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_synth)

    return ap


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenewiseError, OSError, ValueError) as err:
        line = json.dumps({"error": type(err).__name__, "message": str(err)})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
