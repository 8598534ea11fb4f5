"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  The training-based criteria use the synthetic corpus
generator with pinned seeds and finish in a few minutes on a laptop CPU.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from scenewise import autodiff as ad
from scenewise.classifier import (
    ScriptTagModel,
    TagTaxonomy,
    TrainConfig,
    make_samples,
    predictions,
    reweighted_loss,
    train,
)
from scenewise.cli import main as cli_main
from scenewise.corpus import (
    IngestConfig,
    SynthSpec,
    generate_synthetic_corpus,
    ingest,
    scene_tokens,
)
from scenewise.descriptors import (
    DescriptorConfig,
    DescriptorPredictor,
    init_descriptors,
    nearest_words,
    pretrain_reconstruction_target,
    semantic_coherence,
    train_descriptors,
)
from scenewise.encoders import (
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    Variant,
)
from scenewise.evaluation import (
    TagEmbeddingSpace,
    merge_equivalents,
    merged_distribution,
    micro_f1,
    pair_permutations,
    similarity_f1,
    tag_perplexity,
)
from scenewise.parser import StatementKind, parse_script, parse_table, script_lines, to_table

from tape_ops import (add_bias, dot, logsigmoid, mul, relu, scale, sigmoid,
                      softmax, sqrt, stack, sub, tanh, total, transpose)
from test_autodiff import gradcheck

DATA = Path(__file__).parent / "data"
GRAD_TOL = 1e-4
FD_H = 1e-5


def _report(n: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {n} ({name}): {status}"
          + (f" -- {detail}" if detail else ""))


def _ingest_synth(out, heldout=0.25, validation=0.1, split_seed=0):
    config = IngestConfig(min_count=2, heldout_fraction=heldout,
                          validation_fraction=validation, seed=split_seed,
                          descriptor_min_movies=4, descriptor_top_exclude=25)
    corpus, _ = ingest(out / "scripts", out / "tags.json",
                       out / "embeddings.txt", config,
                       loglines_path=out / "loglines.json")
    return corpus


def _f1_on(model, items, taxonomy):
    preds = predictions(model, make_samples(items, taxonomy), taxonomy)
    active = set(taxonomy.active_tags())
    gold = {it.title: set(it.tags.get(taxonomy.attribute, ())) & active
            for it in items}
    return micro_f1(preds, gold)


def _train_variant(corpus, kind, seed, max_epochs, stop=0.97):
    pool = corpus.train_items + corpus.validation_items
    taxonomy = TagTaxonomy.from_items(pool, "genre")
    encoder = HierarchicalModel(EncoderSpec(kind), Variant.FULL,
                                corpus.vectors(), corpus.characters(),
                                include_chars=False, seed=seed)
    model = ScriptTagModel(encoder, len(taxonomy), seed=seed)
    result = train(model, make_samples(corpus.train_items, taxonomy),
                   make_samples(corpus.validation_items, taxonomy), taxonomy,
                   TrainConfig(max_epochs=max_epochs, patience=max_epochs,
                               seed=seed, stop_at_train_f1=stop))
    return model, taxonomy, result


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def _primitive_cases():
    r = np.random.default_rng(123)

    def vec(n):
        v = r.normal(size=n)
        return np.where(np.abs(v) < 0.1, v + 0.2 * np.sign(v + 1e-12), v)

    a5, b5 = ad.parameter(vec(5)), ad.parameter(vec(5))
    m34 = ad.parameter(r.normal(size=(3, 4)))
    m42 = ad.parameter(r.normal(size=(4, 2)))
    v4 = ad.parameter(vec(4))
    v3 = ad.parameter(vec(3))
    pos5 = ad.parameter(np.abs(vec(5)) + 0.5)
    probe = ad.constant(r.normal(size=5))
    cases = {
        "add": (lambda: total(ad.add(a5, b5)), [a5, b5]),
        "sub": (lambda: total(sub(a5, b5)), [a5, b5]),
        "mul": (lambda: total(mul(a5, b5)), [a5, b5]),
        "scale": (lambda: total(scale(a5, -1.7)), [a5]),
        "matmul_mm": (lambda: total(ad.matmul(m34, m42)), [m34, m42]),
        "matmul_mv": (lambda: total(ad.matmul(m34, v4)), [m34, v4]),
        "matmul_vm": (lambda: total(ad.matmul(v3, m34)), [v3, m34]),
        "dot": (lambda: dot(a5, b5), [a5, b5]),
        "concat": (lambda: total(sigmoid(ad.concat([v3, v4]))), [v3, v4]),
        "stack": (lambda: total(tanh(stack([a5, b5]))), [a5, b5]),
        "row": (lambda: total(sigmoid(ad.row(m34, 1))), [m34]),
        "mean_rows": (lambda: total(tanh(ad.mean_rows(m34, [3]))), [m34]),
        "total": (lambda: total(mul(a5, a5)), [a5]),
        "sigmoid": (lambda: total(sigmoid(a5)), [a5]),
        "tanh": (lambda: total(tanh(a5)), [a5]),
        "relu": (lambda: total(relu(a5)), [a5]),
        "softmax": (lambda: dot(softmax(a5), probe), [a5]),
        "logsigmoid": (lambda: total(logsigmoid(a5)), [a5]),
        "sqrt": (lambda: total(sqrt(pos5)), [pos5]),
        "transpose": (lambda: total(mul(transpose(m34), transpose(m34))),
                      [m34]),
        "add_bias": (lambda: total(sigmoid(add_bias(m34, v4))),
                     [m34, v4]),
    }
    return cases


def test_criterion_1_gradient_fidelity(tiny_vectors):
    start = time.monotonic()
    worst = {}

    for name, (fn, params) in _primitive_cases().items():
        worst[f"primitive:{name}"] = gradcheck(fn, params, h=FD_H)

    from test_encoders import action, dialogue, scene_of
    from scenewise.parser import Screenplay
    model = HierarchicalModel(
        spec=EncoderSpec(EncoderKind.GRU_ATTN, input_dim=4,
                         hidden_per_direction=2),
        variant=Variant.FULL, vectors=tiny_vectors,
        characters=["ANNA", "BO"], char_dim=2, seed=3)
    play = Screenplay("toy", [
        scene_of(action("alpha beta"), dialogue("gamma", "ANNA"), index=1),
        scene_of(dialogue("delta sun", "BO"), action("tide moon"), index=2),
    ])
    probe = ad.constant(np.linspace(0.5, 1.5, model.script_dim))
    worst["hierarchical_gru_attn"] = gradcheck(
        lambda: dot(model.encode_script(play), probe),
        list(model.named_params().values()), h=FD_H)

    r = np.random.default_rng(7)
    y = (r.random((3, 4)) < 0.4).astype(float)
    lam = r.uniform(0.2, 2.0, 4)
    z = ad.parameter(r.normal(size=(3, 4)))
    worst["reweighted_loss"] = gradcheck(
        lambda: reweighted_loss(y, z, lam), [z], h=FD_H)

    pred = DescriptorPredictor(input_dim=4, hidden=5, k=3,
                               rng=np.random.default_rng(11))
    r_matrix = ad.parameter(r.normal(size=(3, 4)) * 0.5)
    us = r.normal(size=(3, 4))
    neg = np.array([[1, 2], [2, 0], [0, 1]])
    desc_params = [*pred.named_params().values(), r_matrix]
    worst["descriptor_loss"] = gradcheck(
        lambda: ad.mixture_hinge_loss(desc_params, us, neg, 10.0)[0],
        desc_params, h=FD_H)

    elapsed = time.monotonic() - start
    max_err = max(worst.values())
    argmax = max(worst, key=worst.get)
    ok = max_err < GRAD_TOL and elapsed < 60.0
    _report(1, "gradient fidelity", ok,
            f"max rel err {max_err:.2e} ({argmax}), {elapsed:.1f}s")
    assert max_err < GRAD_TOL, (argmax, max_err)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: parser golden test


def test_criterion_2_parser_golden():
    text = (DATA / "pulp_fiction_fragment.txt").read_text()
    play = parse_script("Pulp Fiction", text)
    rows = [r for r in script_lines(play) if r.scene_no == 4]
    kinds_ok = [r.kind for r in rows] == [
        StatementKind.SCENE_HEADING, StatementKind.ACTION, StatementKind.ACTION,
        StatementKind.DIALOGUE, StatementKind.DIALOGUE, StatementKind.DIALOGUE]
    chars_ok = [r.character for r in rows] == [None, None, None,
                                               "VINCENT", "JULES", "VINCENT"]
    scene_ok = all(r.scene_no == 4 for r in rows) and len(play.scenes) == 4
    table = to_table(play)
    round_trip_ok = to_table(parse_table(table)).encode() == table.encode()
    ok = kinds_ok and chars_ok and scene_ok and round_trip_ok
    _report(2, "parser golden test", ok,
            f"kinds {kinds_ok}, characters {chars_ok}, scene_no {scene_ok}, "
            f"tsv round trip {round_trip_ok}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: synthetic overfit + architecture ordering


@pytest.fixture(scope="module")
def token_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_token")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=40, n_tags=3, signal=0.8, seed=7,
        scenes_range=(5, 7), statements_range=(4, 6)))
    return _ingest_synth(out)


@pytest.fixture(scope="module")
def order_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_order")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=40, n_tags=3, signal=0.8, seed=7, order_sensitive=True,
        scenes_range=(5, 7), statements_range=(4, 6)))
    return _ingest_synth(out)


def test_criterion_3_synthetic_overfit(token_corpus, order_corpus):
    start = time.monotonic()
    assert len(token_corpus.heldout_items) == 10

    model, taxonomy, result = _train_variant(token_corpus,
                                             EncoderKind.GRU_ATTN, seed=0,
                                             max_epochs=50)
    train_f1 = _f1_on(model, token_corpus.train_items, taxonomy)
    heldout_f1 = _f1_on(model, token_corpus.heldout_items, taxonomy)
    epochs = len(result.rows)
    overfit_time = time.monotonic() - start
    overfit_ok = (train_f1 >= 0.95 and heldout_f1 >= 0.80 and epochs <= 50
                  and overfit_time < 600.0)

    gru_scores, boe_scores = [], []
    for seed in (0, 1, 2):
        gru_model, gru_tax, _ = _train_variant(order_corpus,
                                               EncoderKind.GRU_ATTN,
                                               seed=seed, max_epochs=40)
        gru_scores.append(_f1_on(gru_model, order_corpus.heldout_items, gru_tax))
        boe_model, boe_tax, _ = _train_variant(order_corpus, EncoderKind.BOE,
                                               seed=seed, max_epochs=40)
        boe_scores.append(_f1_on(boe_model, order_corpus.heldout_items, boe_tax))
    margin = float(np.mean(gru_scores) - np.mean(boe_scores))
    order_ok = margin >= 0.05 and np.mean(boe_scores) < np.mean(gru_scores)

    ok = overfit_ok and order_ok
    _report(3, "synthetic overfit", ok,
            f"GRU+Attn train F1 {train_f1:.3f}, heldout {heldout_f1:.3f} "
            f"in {epochs} epochs / {overfit_time:.0f}s; order-signal margin "
            f"{margin:.3f} (GRU {np.mean(gru_scores):.3f} vs "
            f"BoE {np.mean(boe_scores):.3f} over 3 seeds)")
    assert train_f1 >= 0.95, train_f1
    assert heldout_f1 >= 0.80, heldout_f1
    assert epochs <= 50
    assert overfit_time < 600.0
    assert margin >= 0.05, (gru_scores, boe_scores)


# ---------------------------------------------------------------------------
# criterion 4: loss reduction


def test_criterion_4_loss_reduces_to_bce():
    r = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        n, l = int(r.integers(1, 5)), int(r.integers(1, 7))
        y = (r.random((n, l)) < 0.5).astype(float)
        zd = r.normal(size=(n, l)) * 4
        loss = reweighted_loss(y, ad.constant(zd), np.ones(l)).item()
        s = 1.0 / (1.0 + np.exp(-zd))
        bce = float(-np.mean(y * np.log(s) + (1 - y) * np.log(1 - s)))
        worst = max(worst, abs(loss - bce))
    ok = worst < 1e-12
    _report(4, "loss reduction to BCE", ok, f"max |diff| {worst:.2e} on 100 cases")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: similarity scoring


def _random_similarity_fixture(seed):
    rng = np.random.default_rng(seed)
    n_tags = int(rng.integers(3, 9))
    tags = tuple(f"t{i}" for i in range(n_tags))
    space = TagEmbeddingSpace(attribute="genre", tags=tags,
                              vectors=rng.normal(size=(n_tags, 6)))
    gold, pred = {}, {}
    for i in range(int(rng.integers(4, 11))):
        key = f"s{i}"
        gold[key] = {t for t in tags if rng.random() < 0.4}
        pred[key] = {t for t in tags if rng.random() < 0.4}
    return pred, gold, space


def test_criterion_5_similarity_scoring():
    cutoffs = [100, 95, 90, 85, 80, 75, 70]
    equal_failures = 0
    monotone_failures = 0
    for seed in range(200):
        pred, gold, space = _random_similarity_fixture(seed)
        if similarity_f1(pred, gold, space, 100.0) != micro_f1(pred, gold):
            equal_failures += 1
        values = [similarity_f1(pred, gold, space, c) for c in cutoffs]
        if any(hi < lo - 0.0 for lo, hi in zip(values, values[1:])):
            monotone_failures += 1
    ok = equal_failures == 0 and monotone_failures == 0
    _report(5, "similarity scoring", ok,
            f"cutoff-100 equality failures {equal_failures}/200, "
            f"monotonicity failures {monotone_failures}/200")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: appendix formulas


def test_criterion_6_taxonomy_formulas():
    perm_ok = pair_permutations(5) == 20 and all(
        n * n - n - pair_permutations(n) == 0 for n in range(2, 101))
    perplexity_ok = abs(tag_perplexity([1 / 8] * 8) - 8.0) <= 1e-12

    merge_failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 600)
        n_tags = int(rng.integers(3, 9))
        tags = tuple(f"t{i}" for i in range(n_tags))
        space = TagEmbeddingSpace(attribute="a", tags=tags,
                                  vectors=rng.normal(size=(n_tags, 5)))
        counts = {t: int(rng.integers(1, 40)) for t in tags}
        prev = tag_perplexity(merged_distribution(counts,
                                                  merge_equivalents(space, 100)))
        for cutoff in (90, 70, 50, 25, 0):
            cur = tag_perplexity(
                merged_distribution(counts, merge_equivalents(space, cutoff)))
            if cur > prev + 1e-9:
                merge_failures += 1
                break
            prev = cur
    merge_ok = merge_failures == 0
    ok = perm_ok and perplexity_ok and merge_ok
    _report(6, "taxonomy formulas", ok,
            f"permutations {perm_ok}, uniform-8 perplexity {perplexity_ok}, "
            f"merge-perplexity failures {merge_failures}/100")
    assert ok


# ---------------------------------------------------------------------------
# criteria 7 + 8: descriptor recovery and invariants


@pytest.fixture(scope="module")
def descriptor_recovery(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_desc")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=30, n_tags=3, signal=1.0, seed=3,
        scenes_range=(5, 7), statements_range=(4, 6), noise_vocab=20))
    truth = json.loads((out / "truth.json").read_text())
    corpus = _ingest_synth(out, heldout=0.2, validation=0.0)
    documents = [set(scene_tokens(s))
                 for it in corpus.train_items + corpus.validation_items
                 for s in it.screenplay.scenes]
    topics = {name: set(words) for name, words in truth["topics"].items()}

    start = time.monotonic()
    runs = []
    for seed in (0, 1, 2):
        config = DescriptorConfig(k=5, hidden=100, epochs=40,
                                  pretrain_epochs=15, negatives=4, seed=seed)
        target = pretrain_reconstruction_target(corpus, "genre", config)
        vocab_emb = target.vocab_matrix()
        r0 = init_descriptors(config.init, vocab_emb, k=config.k,
                              seed=config.seed)
        init_coherence = float(np.mean(semantic_coherence(
            nearest_words(r0, target.vocab, vocab_emb, 10), documents)))
        model, stats = train_descriptors(corpus, target, config)
        clusters = nearest_words(model.r.data, target.vocab, vocab_emb, 10)
        trained_coherence = float(np.mean(semantic_coherence(clusters,
                                                             documents)))
        purities = [max(len(set(c) & words) / len(c)
                        for words in topics.values()) for c in clusters]
        runs.append({"seed": seed, "purities": purities,
                     "init_coherence": init_coherence,
                     "trained_coherence": trained_coherence, "stats": stats})
    return runs, time.monotonic() - start


def test_criterion_7_descriptor_recovery(descriptor_recovery):
    runs, elapsed = descriptor_recovery
    pure_counts = [sum(1 for p in run["purities"] if p >= 0.6) for run in runs]
    purity_ok = all(count >= 2 for count in pure_counts)
    coherence_ok = all(run["trained_coherence"] > run["init_coherence"]
                       for run in runs)
    time_ok = elapsed < 600.0
    gaps = [run["trained_coherence"] - run["init_coherence"] for run in runs]
    ok = purity_ok and coherence_ok and time_ok
    _report(7, "descriptor recovery", ok,
            f"descriptors with >=60% purity per seed {pure_counts}, "
            f"coherence gains {[f'{g:+.1f}' for g in gaps]}, {elapsed:.0f}s")
    assert purity_ok, pure_counts
    assert coherence_ok, gaps
    assert time_ok


def test_criterion_8_simplex_and_orthogonality(descriptor_recovery):
    runs, _ = descriptor_recovery
    max_dev = max(run["stats"].simplex_max_deviation for run in runs)
    min_entry = min(run["stats"].simplex_min_entry for run in runs)
    fro_ok = all(run["stats"].final_fro < run["stats"].initial_fro
                 for run in runs)
    simplex_ok = max_dev < 1e-9 and min_entry >= -1e-12
    ok = simplex_ok and fro_ok
    fro_pairs = [f"{run['stats'].initial_fro:.2f}->{run['stats'].final_fro:.3f}"
                 for run in runs]
    _report(8, "simplex/orthogonality invariants", ok,
            f"max |sum(o)-1| {max_dev:.1e}, min entry {min_entry:.1e}, "
            f"fro {fro_pairs}")
    assert simplex_ok, (max_dev, min_entry)
    assert fro_ok


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism


def test_criterion_9_cli_determinism(tmp_path):
    train_flags = ["--min-count", "2", "--validation-fraction", "0.15"]
    corpus_flags = train_flags + ["--descriptor-min-movies", "2",
                                  "--descriptor-top-exclude", "30"]

    def synth_args(out):
        return ["synth", "--out", str(out), "--scripts", "8", "--tags", "2",
                "--signal", "1.0", "--seed", "5", "--scenes-min", "3",
                "--scenes-max", "4", "--statements-min", "2",
                "--statements-max", "4"]

    synth_dir = tmp_path / "synth"
    assert cli_main(synth_args(synth_dir)) == 0
    synth_dir2 = tmp_path / "synth2"
    assert cli_main(synth_args(synth_dir2)) == 0

    # evaluate reads the ingest settings from the checkpoint
    data = ["--scripts", str(synth_dir / "scripts"),
            "--tags", str(synth_dir / "tags.json"),
            "--embeddings", str(synth_dir / "embeddings.txt")]
    loglines = ["--loglines", str(synth_dir / "loglines.json")]

    def train_args(out, encoder="boe", chars="no", variant="full"):
        return (["train"] + data + loglines + train_flags
                + ["--attribute", "genre", "--variant", variant,
                   "--encoder", encoder, "--include-chars", chars,
                   "--epochs", "2", "--seed", "4", "--out", str(out)])

    def eval_args(out, run="run1"):
        return (["evaluate"] + data + loglines
                + ["--checkpoint", str(tmp_path / run / "checkpoint.swck"),
                   "--out", str(out)])

    def sim_args(out):
        return (["evaluate"] + data
                + ["--checkpoint", str(tmp_path / "run1" / "checkpoint.swck"),
                   "--tag-embeddings", str(synth_dir / "tag_embeddings.tsv"),
                   "--cutoffs", "100,90,80", "--out", str(out)])

    def desc_args(out):
        return (["descriptors"] + data + corpus_flags
                + ["--attribute", "genre", "--k", "3", "--hidden", "8",
                   "--epochs", "2", "--pretrain-epochs", "1",
                   "--negatives", "2", "--top-words", "3", "--seed", "6",
                   "--out", str(out)])

    def traj_args(out, fmt):
        return ["trajectories",
                "--checkpoint", str(tmp_path / "desc1" / "descriptors.swck"),
                "--scripts", str(synth_dir / "scripts"),
                "--title", "synth000", "--descriptors", "top:2",
                "--window", "3", "--annotate", "2:A", "--format", fmt,
                "--out", str(out)]

    pairs: list[tuple[Path, Path]] = []
    for name in sorted(p.name for p in (synth_dir / "scripts").glob("*.txt")):
        pairs.append((synth_dir / "scripts" / name,
                      synth_dir2 / "scripts" / name))
    for name in ("tags.json", "embeddings.txt", "loglines.json",
                 "tag_embeddings.tsv", "truth.json"):
        pairs.append((synth_dir / name, synth_dir2 / name))

    assert cli_main(train_args(tmp_path / "run1")) == 0
    assert cli_main(train_args(tmp_path / "run2")) == 0
    pairs.append((tmp_path / "run1" / "checkpoint.swck",
                  tmp_path / "run2" / "checkpoint.swck"))
    pairs.append((tmp_path / "run1" / "train_log.csv",
                  tmp_path / "run2" / "train_log.csv"))

    assert cli_main(eval_args(tmp_path / "eval1.json")) == 0
    assert cli_main(eval_args(tmp_path / "eval2.json")) == 0
    pairs.append((tmp_path / "eval1.json", tmp_path / "eval2.json"))

    # the GRU+Attn encoder with the characters block, each other encoder
    # kind, the han and two_tier structures, and the loglines model
    for model, args in [("gru", ("gru_attn", "yes")),
                        ("boe_attn", ("boe_attn",)), ("gru_plain", ("gru",)),
                        ("han", ("gru", "no", "han")),
                        ("two_tier", ("boe_attn", "no", "two_tier")),
                        ("loglines", ("boe", "no", "loglines"))]:
        for run in (f"{model}1", f"{model}2"):
            assert cli_main(train_args(tmp_path / run, *args)) == 0
            assert cli_main(eval_args(tmp_path / f"{run}.json", run)) == 0
        for name in ("checkpoint.swck", "train_log.csv"):
            pairs.append((tmp_path / f"{model}1" / name,
                          tmp_path / f"{model}2" / name))
        pairs.append((tmp_path / f"{model}1.json", tmp_path / f"{model}2.json"))

    assert cli_main(sim_args(tmp_path / "sim1.json")) == 0
    assert cli_main(sim_args(tmp_path / "sim2.json")) == 0
    pairs.append((tmp_path / "sim1.json", tmp_path / "sim2.json"))

    assert cli_main(desc_args(tmp_path / "desc1")) == 0
    assert cli_main(desc_args(tmp_path / "desc2")) == 0
    pairs.append((tmp_path / "desc1" / "descriptors.swck",
                  tmp_path / "desc2" / "descriptors.swck"))
    pairs.append((tmp_path / "desc1" / "descriptor_report.json",
                  tmp_path / "desc2" / "descriptor_report.json"))
    pairs.append((tmp_path / "desc1" / "descriptor_log.csv",
                  tmp_path / "desc2" / "descriptor_log.csv"))

    for fmt in ("csv", "svg"):
        assert cli_main(traj_args(tmp_path / f"t1.{fmt}", fmt)) == 0
        assert cli_main(traj_args(tmp_path / f"t2.{fmt}", fmt)) == 0
        pairs.append((tmp_path / f"t1.{fmt}", tmp_path / f"t2.{fmt}"))

    mismatches = [str(a.name) for a, b in pairs
                  if a.read_bytes() != b.read_bytes()]
    ok = not mismatches
    _report(9, "CLI determinism", ok,
            f"{len(pairs)} artifact pairs byte-compared"
            + (f"; mismatches: {mismatches}" if mismatches else ""))
    assert ok, mismatches
