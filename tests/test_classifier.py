import math
import re
import tracemalloc
import weakref
from itertools import islice

import numpy as np
import pytest

import loss_oracle
from scenewise import autodiff as ad
from scenewise import classifier
from scenewise.classifier import (
    LoglineEncoder,
    Sample,
    ScriptTagModel,
    TagTaxonomy,
    TrainConfig,
    average_precision,
    logits_of,
    make_samples,
    optimizer_epochs,
    predict_tags,
    predictions,
    reweighted_loss,
    train,
    validation_ap,
)
from scenewise.corpus import (
    CorpusItem,
    IngestConfig,
    SynthSpec,
    generate_synthetic_corpus,
    ingest,
    logline_screenplay,
)
from scenewise.encoders import EncoderKind, EncoderSpec, HierarchicalModel, Variant
from scenewise.errors import DataEmpty, NonFiniteLoss, NoPositives, ShapeMismatch
from scenewise.parser import Scene, Screenplay, Statement, StatementKind

from conftest import make_vectors
from tape_ops import mul, sqrt, total
from test_autodiff import assert_backward_frees_consumed_gradients, gradcheck


def rng(seed=0):
    return np.random.default_rng(seed)


def test_loss_single_positive_at_zero_logit():
    z = ad.parameter(np.array([0.0]))
    loss = reweighted_loss(np.array([1.0]), z, np.array([1.0]))
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_loss_single_negative_at_zero_logit():
    z = ad.parameter(np.array([0.0]))
    loss = reweighted_loss(np.array([0.0]), z, np.array([1.0]))
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_loss_gradient_matches_finite_differences():
    r = rng(1)
    y = (r.random((3, 4)) < 0.4).astype(float)
    lam = r.uniform(0.2, 2.0, 4)
    z = ad.parameter(r.normal(size=(3, 4)))
    err = gradcheck(lambda: reweighted_loss(y, z, lam), [z])
    assert err < 1e-6


def test_loss_reduces_to_bce_when_lambda_one():
    r = rng(2)
    for _ in range(20):
        y = (r.random((2, 5)) < 0.5).astype(float)
        zd = r.normal(size=(2, 5)) * 3
        z = ad.constant(zd)
        loss = reweighted_loss(y, z, np.ones(5)).item()
        s = 1.0 / (1.0 + np.exp(-zd))
        bce = -np.mean(y * np.log(s) + (1 - y) * np.log(1 - s))
        assert abs(loss - bce) < 1e-12


def test_loss_lambda_scales_only_negative_part():
    r = rng(3)
    y = np.array([[1.0, 0.0, 1.0, 0.0]])
    zd = r.normal(size=(1, 4))
    lam = np.array([0.7, 0.7, 0.7, 0.7])

    def parts(lam_vec):
        z = ad.constant(zd)
        full = reweighted_loss(y, z, lam_vec).item()
        pos_only = reweighted_loss(y, ad.constant(zd), np.zeros(4)).item()
        return pos_only, full - pos_only

    pos1, neg1 = parts(lam)
    pos2, neg2 = parts(lam * 3)
    assert abs(pos1 - pos2) < 1e-12
    assert abs(neg2 - 3 * neg1) < 1e-10


def test_loss_nonnegative_stable_form():
    r = rng(4)
    for _ in range(10):
        y = (r.random(6) < 0.5).astype(float)
        z = ad.constant(r.normal(size=6) * 4)
        assert reweighted_loss(y, z, r.uniform(0.1, 3.0, 6)).item() >= 0.0


def test_inactive_tags_excluded_from_loss():
    y = np.array([1.0, 1.0])
    z = ad.constant(np.array([0.0, 50.0]))
    active = np.array([True, False])
    loss = reweighted_loss(y, z, np.ones(2), active=active).item()
    assert abs(loss - math.log(2)) < 1e-12


def _loss_cases():
    """Labels, logits, lam and active of (L,) and (N, L) shapes, with and
    without ``active``, over random logits and the values 0 and +-40."""
    r = rng(5)
    special = np.array([0.0, -0.0, 40.0, -40.0])
    for case in range(400):
        shape = (int(r.integers(1, 7)),) if case % 2 else \
            (int(r.integers(1, 4)), int(r.integers(1, 7)))
        z = r.normal(size=shape) * r.choice([0.5, 4.0, 30.0])
        picks = r.random(shape) < 0.3
        z[picks] = r.choice(special, size=int(picks.sum()))
        y = (r.random(shape) < 0.5).astype(float)
        lam = r.uniform(0.0, 3.0, shape[-1])
        active = None
        if case % 4 >= 2:
            active = r.random(shape[-1]) < 0.7
            active[int(r.integers(shape[-1]))] = True
        yield y, z, lam, active


def test_fused_loss_matches_composition_bitwise():
    for y, zd, lam, active in _loss_cases():
        got, want = ad.parameter(zd.copy()), ad.parameter(zd.copy())
        loss = reweighted_loss(y, got, lam, active)
        reference = loss_oracle.reweighted_loss(y, want, lam, active)
        assert np.array_equal(loss.data, reference.data), (y, zd, lam, active)
        loss.backward()
        reference.backward()
        assert np.array_equal(got.grad, want.grad), (y, zd, lam, active)
        assert np.array_equal(np.signbit(got.grad), np.signbit(want.grad))


@pytest.mark.parametrize("lam,active", [
    (np.array([2.0]), np.array([True])),
    (np.array([2.0]), None),
    (np.ones(4), np.array([True])),
    (np.ones((1, 4)), None),
    (np.ones(4), np.ones((1, 4), dtype=bool)),
    (np.ones(5), np.ones(5, dtype=bool)),
])
def test_loss_refuses_tag_vectors_of_another_shape(lam, active):
    z = ad.parameter(np.zeros(4))
    with pytest.raises(ShapeMismatch) as err:
        reweighted_loss(np.array([1.0, 0, 0, 1]), z, lam=lam, active=active)
    message = str(err.value)
    assert "(4,)" in message and str(lam.shape) in message
    if active is not None:
        assert str(active.shape) in message


def test_loss_refuses_labels_unlike_the_logits():
    for y, z in [(np.zeros(3), np.zeros(4)), (np.zeros((2, 3)), np.zeros(3)),
                 (np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))]:
        with pytest.raises(ShapeMismatch, match=r"labels \(.*logits \("):
            reweighted_loss(y, ad.parameter(z), np.ones(3))


def test_non_finite_gradient_norm_stops_before_the_step():
    w = ad.parameter(np.zeros(3))
    other = ad.parameter(np.ones(2))
    params = {"w": w, "other": other}
    before = {k: t.data.copy() for k, t in params.items()}

    def loss_of(_):
        # sqrt at 0: the loss is 0.0, its gradient infinite times zero
        return ad.add(sqrt(total(mul(w, w))),
                      total(mul(other, other)))

    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteLoss, match=r"^toy training epoch 1, "
                          r"script 'only': gradient norm=nan$"):
        list(optimizer_epochs("toy training", params, [("only", None)], loss_of,
                              rng(0), epochs=2, lr=0.1, max_norm=5.0))
    for name, value in before.items():
        assert np.array_equal(params[name].data, value), name


def test_infinite_gradient_norm_is_named():
    w = ad.parameter(np.array([0.0, 1.0]))
    # the loss is 1.0; sqrt's gradient at 0 is infinite
    with np.errstate(divide="ignore"), \
            pytest.raises(NonFiniteLoss, match=r"^toy training epoch 1, "
                          r"script 'edge': gradient norm=inf$"):
        list(optimizer_epochs("toy training", {"w": w}, [("edge", None)],
                              lambda _: total(sqrt(w)), rng(0),
                              epochs=1, lr=0.1, max_norm=5.0))
    assert np.array_equal(w.data, [0.0, 1.0])


def tape_nodes(root) -> int:
    """Nodes ``backward`` visits from ``root``, the parameters included."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


@pytest.mark.parametrize("kind,nodes", [
    # the head's matmul and add, its two parameters and the loss, plus
    # the concat, the character node and the character table under BoE
    (EncoderKind.BOE, 8),
    # 78 with the eight-node composed loss
    (EncoderKind.GRU_ATTN, 71),
])
def test_tag_step_tape_size_on_the_pinned_script(tmp_path, kind, nodes):
    """A ``full`` model with characters, on a 6-scene script of 5 statements
    per scene."""
    generate_synthetic_corpus(tmp_path, SynthSpec(
        n_scripts=1, seed=7, scenes_range=(6, 6), statements_range=(5, 5)))
    data, _ = ingest(tmp_path / "scripts", tmp_path / "tags.json",
                     tmp_path / "embeddings.txt",
                     IngestConfig(min_count=1, heldout_fraction=0.0,
                                  validation_fraction=0.0,
                                  descriptor_min_movies=1,
                                  descriptor_top_exclude=0))
    vectors = data.vectors()
    encoder = HierarchicalModel(EncoderSpec(kind, vectors.dim, 2), Variant.FULL,
                                vectors, data.characters())
    model = ScriptTagModel(encoder, 3)
    loss = reweighted_loss(np.zeros(3), model.logits(data.items[0].script),
                           np.ones(3))
    assert tape_nodes(loss) == nodes


def test_predict_tags_thresholding():
    assert predict_tags(np.array([2.0, -2.0])).tolist() == [1, 0]
    assert predict_tags(np.array([0.0, 0.0])).tolist() == [0, 0]


def test_predict_tags_length(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    z = model.logits(_toy_play())
    assert predict_tags(z.data).shape == (len(taxonomy),)


def test_one_scoring_pass_gives_the_per_sample_scores(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy), seed=3)
    samples = _toy_samples(taxonomy)
    rows = [model.logits(s.x).data for s in samples]
    z = logits_of(model, samples)
    assert z.shape == (len(samples), len(taxonomy))
    assert np.array_equal(z, np.stack(rows))
    for threshold in (0.3, 0.5, 0.7):
        assert predictions(model, samples, taxonomy, threshold) == {
            s.key: taxonomy.tag_set(predict_tags(row, threshold))
            for s, row in zip(samples, rows)}
    scores = np.stack([1.0 / (1.0 + np.exp(-row)) for row in rows])
    labels = np.stack([s.y for s in samples])
    assert validation_ap(model, samples, taxonomy) == \
        average_precision(scores, labels)


def test_no_samples_score_nothing(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    assert validation_ap(model, [], taxonomy) == 0.0
    assert predictions(model, [], taxonomy) == {}


@pytest.mark.parametrize("name,value", [
    ("lr", -0.01), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
    ("max_norm", -1.0), ("max_norm", 0.0), ("max_norm", math.nan),
    ("max_norm", math.inf),
])
def test_optimizer_epochs_refuses_a_bad_step_setting(name, value):
    w = ad.parameter(np.array([1.0, -2.0]))
    calls = []

    def loss_of(_):
        calls.append(1)
        return total(mul(w, w))

    settings = {"lr": 0.1, "max_norm": 5.0, name: value}
    with pytest.raises(ValueError, match=rf"^toy training: {name} must be "
                                         rf"finite and > 0, got {value!r}$"):
        list(optimizer_epochs("toy training", {"w": w}, [("only", None)],
                              loss_of, rng(0), epochs=2, **settings))
    assert calls == []
    assert np.array_equal(w.data, [1.0, -2.0])


def test_optimizer_epochs_logs_one_progress_line_per_epoch(caplog):
    # the line comes before the epoch's loss is yielded, so a trainer that
    # stops early has a line for each epoch it ran and none beyond
    w = ad.parameter(np.array([1.0, -2.0]))
    epochs = optimizer_epochs("toy training", {"w": w},
                              [("a", None), ("b", None)],
                              lambda _: total(mul(w, w)), rng(0),
                              epochs=5, lr=0.1, max_norm=5.0)
    with caplog.at_level("INFO", logger=classifier.__name__):
        losses = list(islice(epochs, 2))
    lines = [r.getMessage() for r in caplog.records
             if r.name == classifier.__name__ and r.levelname == "INFO"]
    assert len(lines) == 2
    for epoch, (line, loss) in enumerate(zip(lines, losses), 1):
        assert re.fullmatch(rf"toy training epoch {epoch}/5: mean loss "
                            rf"{loss:.6g}, \d+\.\d\d s", line), line


def test_optimizer_epochs_drop_each_step_graph_before_the_next():
    # a weak reference to each loss's value and to an inner node's: both
    # die with the step's graph, before the next forward and before the
    # caller resumes at the epoch's end
    w = ad.parameter(np.array([1.0, -2.0, 0.5]))
    watched = []

    def all_dead():
        return all(ref() is None for ref in watched)

    def loss_of(scale):
        assert all_dead()
        inner = mul(w, ad.constant(np.full(3, scale)))
        loss = total(mul(inner, inner))
        watched.extend([weakref.ref(loss.data), weakref.ref(inner.data)])
        return loss

    epochs = optimizer_epochs("toy training", {"w": w},
                              [("a", 1.0), ("b", 2.0), ("c", 0.5)], loss_of,
                              rng(0), epochs=3, lr=0.1, max_norm=5.0)
    for _ in epochs:
        assert all_dead()
    assert len(watched) == 2 * 3 * 3


def test_tag_training_validates_with_no_step_graph_alive(short_tag_corpus,
                                                         monkeypatch):
    corpus, taxonomy = short_tag_corpus
    train_samples = make_samples(corpus.train_items, taxonomy)
    val_samples = make_samples(corpus.validation_items, taxonomy)
    watched, validations = [], []
    loss = classifier.reweighted_loss
    score = classifier.validation_ap

    def all_dead():
        return all(ref() is None for ref in watched)

    def watched_loss(y, z, lam, active):
        assert all_dead()
        out = loss(y, z, lam, active)
        watched.extend([weakref.ref(out.data), weakref.ref(z.data)])
        return out

    def watched_score(*args):
        assert watched and all_dead()
        validations.append(len(watched))
        return score(*args)

    monkeypatch.setattr(classifier, "reweighted_loss", watched_loss)
    monkeypatch.setattr(classifier, "validation_ap", watched_score)
    vectors = corpus.vectors()
    spec = EncoderSpec(EncoderKind.GRU_ATTN, input_dim=vectors.dim,
                       hidden_per_direction=4)
    model = ScriptTagModel(HierarchicalModel(spec, Variant.FULL, vectors,
                                             corpus.characters(), seed=2),
                           len(taxonomy), seed=2)
    train(model, train_samples, val_samples, taxonomy,
          TrainConfig(max_epochs=2, patience=3, seed=4))
    per_epoch = 2 * len(train_samples)   # two references a step
    assert validations == [per_epoch, 2 * per_epoch]


def test_average_precision_perfect_ranking():
    assert average_precision(np.array([0.9, 0.8, 0.2]), np.array([1, 1, 0])) == 1.0
    assert average_precision(np.array([1, 0, 1.0]), np.array([1, 0, 1])) == 1.0


def test_average_precision_hand_ranked():
    ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
    assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_average_precision_no_positives():
    with pytest.raises(NoPositives):
        average_precision(np.array([0.5]), np.array([0]))


def _toy_taxonomy():
    items = [
        CorpusItem("a", None, {"genre": ("x",)}),
        CorpusItem("b", None, {"genre": ("y",)}),
        CorpusItem("c", None, {"genre": ("x", "y")}),
        CorpusItem("d", None, {"genre": ()}),
    ]
    return TagTaxonomy.from_items(items, "genre")


def test_taxonomy_ratios():
    tax = _toy_taxonomy()
    assert tax.tags == ["x", "y"]
    assert np.allclose(tax.lam, [2 / 2, 2 / 2])
    assert all(tax.active)


@pytest.mark.parametrize("lengths", [(2, 1, 2), (2, 2, 3), (0, 1, 0)])
def test_taxonomy_of_unequally_long_lists_raises(lengths):
    tags, lam, active = lengths
    with pytest.raises(ValueError, match="needs as many of each"):
        TagTaxonomy("genre", ["x", "y", "z"][:tags], [1.0] * lam,
                    [True] * active)


def test_taxonomy_deactivates_all_positive_tag():
    items = [CorpusItem("a", None, {"genre": ("x",)}),
             CorpusItem("b", None, {"genre": ("x",)})]
    tax = TagTaxonomy.from_items(items, "genre")
    assert not tax.active[0]
    assert tax.active_tags() == ()


def _toy_play(seed=0):
    r = rng(seed)
    scenes = []
    for i in range(2):
        stmts = [Statement(StatementKind.ACTION, "alpha beta gamma"),
                 Statement(StatementKind.DIALOGUE, "delta sun", character="ANNA")]
        scenes.append(Scene(index=i + 1, heading="INT. X", statements=stmts))
    return Screenplay("toy", scenes)


def _toy_model(vectors, n_tags, seed=0, kind=EncoderKind.BOE):
    spec = EncoderSpec(kind, input_dim=4, hidden_per_direction=2)
    encoder = HierarchicalModel(spec=spec, variant=Variant.FULL, vectors=vectors,
                                characters=["ANNA"], char_dim=2, seed=seed)
    return ScriptTagModel(encoder, n_tags, seed=seed)


def _toy_samples(taxonomy):
    plays = {
        "a": ("alpha alpha beta", ("x",)),
        "b": ("delta sun moon", ("y",)),
        "c": ("alpha delta", ("x", "y")),
        "d": ("tide dust", ()),
    }
    samples = []
    for title, (text, tags) in sorted(plays.items()):
        stmts = [Statement(StatementKind.ACTION, text),
                 Statement(StatementKind.DIALOGUE, text, character="ANNA")]
        play = Screenplay(title, [Scene(index=1, heading="INT. X",
                                        statements=stmts)])
        samples.append(Sample(title, play, taxonomy.label_vector(tags)))
    return samples


def test_train_overfits_single_script(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    samples = _toy_samples(taxonomy)[:1]
    config = TrainConfig(lr=0.05, max_epochs=300, patience=300, seed=0)
    result = train(model, samples, samples, taxonomy, config)
    final_loss = result.rows[-1].train_loss
    assert final_loss < 1e-2, final_loss


def test_train_deterministic_loss_traces(tiny_vectors):
    taxonomy = _toy_taxonomy()

    def run():
        model = _toy_model(tiny_vectors, len(taxonomy), seed=5)
        samples = _toy_samples(taxonomy)
        result = train(model, samples[:3], samples[3:], taxonomy,
                       TrainConfig(max_epochs=4, seed=5))
        return [r.train_loss for r in result.rows]

    assert run() == run()


def test_frozen_model_stops_after_patience(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    samples = _toy_samples(taxonomy)
    # steps of about 1e-300 leave every logit as it was; a zero rate is refused
    config = TrainConfig(lr=1e-300, max_epochs=20, patience=5, seed=0)
    result = train(model, samples[:3], samples[3:], taxonomy, config)
    assert result.rows[-1].epoch == 6
    assert result.best_epoch == 1


def test_best_checkpoint_never_below_best_logged(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    samples = _toy_samples(taxonomy)
    result = train(model, samples[:3], samples[3:], taxonomy,
                   TrainConfig(max_epochs=8, patience=8, seed=1))
    assert result.best_val_ap == max(r.val_ap for r in result.rows)


def test_train_empty_raises(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    with pytest.raises(DataEmpty, match="^tag training: no script to train on$"):
        train(model, [], [], taxonomy, TrainConfig())


def test_train_raises_on_non_finite_loss(tiny_vectors):
    taxonomy = _toy_taxonomy()
    model = _toy_model(tiny_vectors, len(taxonomy))
    model.head.b.data[0] = np.nan
    samples = _toy_samples(taxonomy)
    with pytest.raises(NonFiniteLoss,
                       match=r"^tag training epoch 1, script '[abc]': loss=nan$"):
        train(model, samples[:3], samples[3:], taxonomy, TrainConfig(seed=0))


def test_loglines_model_dims_and_determinism(tiny_vectors):
    model = ScriptTagModel(LoglineEncoder(tiny_vectors, hidden_per_direction=2,
                                          seed=2), n_tags=3, seed=2)
    assert model.encoder.script_dim == 4
    single = model.encoder.encode_script(logline_screenplay("t", "alpha"))
    assert single.data.shape == (4,)
    z1 = model.logits(logline_screenplay("t", "alpha beta")).data
    model2 = ScriptTagModel(LoglineEncoder(tiny_vectors, hidden_per_direction=2,
                                           seed=2), n_tags=3, seed=2)
    z2 = model2.logits(logline_screenplay("t", "alpha beta")).data
    assert np.array_equal(z1, z2)


def test_loglines_paper_output_dim():
    r = rng(11)
    vectors = make_vectors([f"w{i}" for i in range(3)], r.normal(size=(3, 100)))
    model = ScriptTagModel(LoglineEncoder(vectors), n_tags=2)
    assert model.encoder.script_dim == 100


def _logline_item(title, tags, logline, vectors):
    """An item with its logline compiled, as ingest leaves it."""
    compiled = None if logline is None else vectors.compiled(
        logline_screenplay(title, logline))
    return CorpusItem(title, _toy_play(), tags, logline=logline,
                      logline_script=compiled)


def test_make_samples_skips_missing_loglines(tiny_vectors):
    taxonomy = _toy_taxonomy()
    items = [_logline_item("a", {"genre": ("x",)}, "alpha beta", tiny_vectors),
             _logline_item("b", {"genre": ("y",)}, None, tiny_vectors)]
    samples = make_samples(items, taxonomy, use_loglines=True)
    assert [s.key for s in samples] == ["a"]


def test_make_samples_says_why_it_skips_a_script(caplog, tiny_vectors):
    taxonomy = _toy_taxonomy()
    items = [_logline_item("a", {"genre": ("x",)}, "...", tiny_vectors),
             _logline_item("b", {"genre": ("y",)}, None, tiny_vectors)]
    with caplog.at_level("WARNING"):
        assert make_samples(items, taxonomy, use_loglines=True) == []
    assert [r.getMessage() for r in caplog.records] == [
        "skipping a: no logline", "skipping b: no logline"]


def test_loglines_gradients_match_finite_differences(tiny_vectors):
    """End to end: from the logline biGRU and the head through the logits
    of a loglines ``ScriptTagModel`` to the fused loss, with the list-typed
    lam and mask that ``TagTaxonomy.from_items`` builds."""
    taxonomy = _toy_taxonomy()
    assert isinstance(taxonomy.lam, list) and isinstance(taxonomy.active, list)
    model = ScriptTagModel(LoglineEncoder(tiny_vectors, hidden_per_direction=2,
                                          seed=3), len(taxonomy), seed=3)
    logline = tiny_vectors.compiled(logline_screenplay("t", "alpha beta gamma"))
    y = taxonomy.label_vector(("x",))

    def loss():
        return reweighted_loss(y, model.logits(logline), taxonomy.lam,
                               taxonomy.active)

    err = gradcheck(loss, list(model.named_params().values()))
    assert err < 1e-4, err


def test_make_samples_skips_logline_without_tokens(caplog, tiny_vectors):
    taxonomy = _toy_taxonomy()
    items = [_logline_item("a", {"genre": ("x",)}, "...", tiny_vectors),
             _logline_item("b", {"genre": ("y",)}, "alpha", tiny_vectors)]
    samples = make_samples(items, taxonomy, use_loglines=True)
    assert [s.key for s in samples] == ["b"]
    assert "skipping a" in caplog.text


@pytest.fixture(scope="module")
def long_tag_corpus(tmp_path_factory):
    # plays as long as screenplays: 150 to 170 scenes each
    out = tmp_path_factory.mktemp("long_tags")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=4, n_tags=3, signal=1.0, seed=6, scenes_range=(150, 170),
        statements_range=(2, 3)))
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       IngestConfig(min_count=2, heldout_fraction=0.0,
                                    validation_fraction=0.25, seed=1))
    return corpus


def test_gru_attn_trains_at_screenplay_length(long_tag_corpus, monkeypatch):
    """Two epochs of the full GRU+Attn model on plays of 150 to 170 scenes:
    every loss and pre-clipping gradient norm is finite, and a rerun gives
    the same losses, norms, validation APs and parameters to the bit."""
    corpus = long_tag_corpus
    assert min(it.script.n_scenes for it in corpus.items) >= 150
    taxonomy = TagTaxonomy.from_items(corpus.items, "genre")
    train_samples = make_samples(corpus.train_items, taxonomy)
    val_samples = make_samples(corpus.validation_items, taxonomy)
    assert len(train_samples) == 3 and len(val_samples) == 1
    clip = classifier.clip_grad_norm

    def fit():
        norms = []

        def recorded_clip(opt, max_norm):
            norms.append(clip(opt, max_norm))
            return norms[-1]

        monkeypatch.setattr(classifier, "clip_grad_norm", recorded_clip)
        vectors = corpus.vectors()
        spec = EncoderSpec(EncoderKind.GRU_ATTN, input_dim=vectors.dim,
                           hidden_per_direction=10)
        encoder = HierarchicalModel(spec, Variant.FULL, vectors,
                                    corpus.characters(), seed=2)
        model = ScriptTagModel(encoder, len(taxonomy), seed=2)
        result = train(model, train_samples, val_samples, taxonomy,
                       TrainConfig(max_epochs=2, patience=3, seed=4))
        params = {k: t.data.copy() for k, t in model.named_params().items()}
        return result.rows, norms, params

    rows, norms, params = fit()
    assert len(rows) == 2 and len(norms) == 2 * len(train_samples)
    assert all(math.isfinite(v) for r in rows for v in (r.train_loss, r.val_ap))
    assert all(math.isfinite(n) and n > 0 for n in norms)
    again = fit()
    assert again[0] == rows and again[1] == norms
    assert again[2].keys() == params.keys()
    for name, value in params.items():
        assert np.array_equal(again[2][name], value), name


def assert_directional_gradient(model, sample: Sample, taxonomy: TagTaxonomy,
                                directions: int = 3) -> None:
    """Along seeded unit directions ``v`` over all of ``model``'s
    parameters, ``<grad f, v>`` of the loss ``f`` on ``sample`` equals the
    central difference ``(f(theta + h v) - f(theta - h v)) / 2h``."""
    params = list(model.named_params().values())

    def loss():
        return reweighted_loss(sample.y, model.logits(sample.x), taxonomy.lam,
                               taxonomy.active)

    ad.backward(loss())
    grads = [t.grad.copy() for t in params]
    theta = [t.data.copy() for t in params]
    h = 1e-5
    for seed in range(directions):
        r = rng(100 + seed)
        v = [r.normal(size=t.data.shape) for t in params]
        scale = 1.0 / math.sqrt(sum(float(np.sum(d * d)) for d in v))
        v = [d * scale for d in v]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, v))
        values = []
        for step in (h, -h):
            for t, t0, d in zip(params, theta, v):
                t.data[...] = t0 + step * d
            values.append(loss().item())
        numeric = (values[0] - values[1]) / (2 * h)
        assert abs(analytic - numeric) <= 1e-6 * max(abs(analytic), 1e-3), \
            (seed, analytic, numeric)
    for t, t0 in zip(params, theta):
        t.data[...] = t0


def test_gru_attn_directional_gradient_at_screenplay_length(long_tag_corpus):
    """The full GRU+Attn model's loss on a play of 150 or more scenes, so
    the script tier back-propagates through every scene, passes
    :func:`assert_directional_gradient`."""
    corpus = long_tag_corpus
    taxonomy = TagTaxonomy.from_items(corpus.items, "genre")
    sample = make_samples(corpus.train_items, taxonomy)[0]
    assert sample.x.n_scenes >= 150
    vectors = corpus.vectors()
    spec = EncoderSpec(EncoderKind.GRU_ATTN, input_dim=vectors.dim,
                       hidden_per_direction=10)
    model = ScriptTagModel(HierarchicalModel(spec, Variant.FULL, vectors,
                                             corpus.characters(), seed=2),
                           len(taxonomy), seed=2)
    assert_directional_gradient(model, sample, taxonomy)


def test_tag_training_peak_memory_holds_one_step_graph(long_tag_corpus):
    """Tag training on plays of 150 to 170 scenes peaks, in memory that
    tracemalloc traces, below one isolated step's peak plus the Adam store
    and one best-parameter copy, with 2% of a step to spare for the loop's
    own bookkeeping.  Holding the previous step's graph during the next
    step's forward would add about three quarters of a step."""
    corpus = long_tag_corpus
    taxonomy = TagTaxonomy.from_items(corpus.items, "genre")
    train_samples = make_samples(corpus.train_items, taxonomy)
    val_samples = make_samples(corpus.validation_items, taxonomy)
    vectors = corpus.vectors()
    spec = EncoderSpec(EncoderKind.GRU_ATTN, input_dim=vectors.dim,
                       hidden_per_direction=10)

    def fresh_model():
        return ScriptTagModel(HierarchicalModel(spec, Variant.FULL, vectors,
                                                corpus.characters(), seed=2),
                              len(taxonomy), seed=2)

    def growth(fn) -> tuple[int, int]:
        """What ``fn()`` leaves allocated, and its peak, in bytes."""
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return current - base, peak - base

    def one_step(model, sample):
        reweighted_loss(sample.y, model.logits(sample.x), taxonomy.lam,
                        taxonomy.active).backward()

    tracemalloc.start()
    try:
        # a twin's parameters move into a store, as the trainer's do, so a
        # step's gradients land in store slices
        twin, stores = fresh_model(), []
        store, _ = growth(lambda: stores.append(ad.Adam(twin.named_params())))
        step = max(growth(lambda: one_step(twin, s))[1] for s in train_samples)
        model = fresh_model()
        best = sum(t.data.nbytes for t in model.named_params().values())
        _, peak = growth(lambda: train(model, train_samples, val_samples,
                                       taxonomy, TrainConfig(max_epochs=1)))
    finally:
        tracemalloc.stop()
    assert 0 < store + best < step / 10
    assert peak < step + store + best + step // 50, (peak, step, store, best)


@pytest.fixture(scope="module")
def short_tag_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("short_tags")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=4, n_tags=3, signal=1.0, seed=6, scenes_range=(4, 6),
        statements_range=(2, 3)))
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       IngestConfig(min_count=2, heldout_fraction=0.0,
                                    validation_fraction=0.25, seed=1))
    return corpus, TagTaxonomy.from_items(corpus.items, "genre")


@pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
def test_backward_leaves_gradients_on_the_tag_model_leaves_alone(
        short_tag_corpus, kind):
    corpus, taxonomy = short_tag_corpus
    sample = make_samples(corpus.train_items, taxonomy)[0]
    vectors = corpus.vectors()
    spec = EncoderSpec(kind, input_dim=vectors.dim, hidden_per_direction=4)
    model = ScriptTagModel(HierarchicalModel(spec, Variant.FULL, vectors,
                                             corpus.characters(), seed=2),
                           len(taxonomy), seed=2)
    ad.Adam(model.named_params())
    assert_backward_frees_consumed_gradients(
        reweighted_loss(sample.y, model.logits(sample.x), taxonomy.lam,
                        taxonomy.active))


@pytest.mark.parametrize("include_chars", [None, True, False],
                         ids=["auto", "chars", "no_chars"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
def test_every_encoder_directional_gradient(short_tag_corpus, kind, variant,
                                            include_chars):
    """Every encoder kind, variant and character setting: the tag model's
    loss on a 4-6-scene play, channels, character block and head
    included, passes :func:`assert_directional_gradient` along two
    directions."""
    corpus, taxonomy = short_tag_corpus
    sample = make_samples(corpus.train_items, taxonomy)[0]
    vectors = corpus.vectors()
    spec = EncoderSpec(kind, input_dim=vectors.dim, hidden_per_direction=4)
    encoder = HierarchicalModel(spec, variant, vectors, corpus.characters(),
                                include_chars=include_chars, seed=2)
    assert sample.x.n_scenes >= 4 and any(sample.x.characters)
    assert encoder.include_chars == (
        variant is Variant.FULL if include_chars is None else include_chars)
    assert_directional_gradient(ScriptTagModel(encoder, len(taxonomy), seed=2),
                                sample, taxonomy, directions=2)
