"""The BoE script vector against the composition it replaces.

Under BoE, ``HierarchicalModel.encode_script`` concatenates each block's
mean over the scenes, keeps a compiled script's parameter-free channel
means and speaker layout as one record and builds the character block as
one tape node.  The reference below is the composition it replaced: the
script encoder over the whole (n_scenes, scene_dim) scene matrix, trained
through the composed loss of ``loss_oracle``.  Logits, loss gradients and
trained parameters must equal the reference's bit for bit, on the first
encode and on every repeat.
"""

import numpy as np
import pytest

import loss_oracle
from scenewise import autodiff as ad
from scenewise import classifier
from scenewise.classifier import (
    ScriptTagModel,
    TagTaxonomy,
    TrainConfig,
    load_params,
    make_samples,
    reweighted_loss,
    train,
)
from scenewise.corpus import (
    IngestConfig,
    SynthSpec,
    TokenVectors,
    Vocabulary,
    generate_synthetic_corpus,
    ingest,
)
from scenewise.encoders import EncoderKind, EncoderSpec, HierarchicalModel, Variant
from scenewise.errors import DataError

from test_autodiff import gradcheck
from test_compiled import assert_bitwise, edge_plays, logits_and_grads, vectors_for

CONFIGS = [(variant, chars) for variant in Variant for chars in (False, True)]


class ComposedModel(HierarchicalModel):
    """The reference: the script encoder over the whole scene matrix."""

    def encode_script(self, script):
        script = self.vectors.compiled(script)
        return ad.row(self.script_encoder.encode(self.encode_scenes(script),
                                                 [script.n_scenes]), 0)


def tag_model(vectors, variant, include_chars, n_tags=3, seed=3,
              kind=EncoderKind.BOE, cls=HierarchicalModel):
    spec = EncoderSpec(kind, input_dim=vectors.dim, hidden_per_direction=2)
    encoder = cls(spec, variant, vectors, ["ANNA", "BO"],
                  include_chars=include_chars, char_dim=2, seed=seed)
    return ScriptTagModel(encoder, n_tags=n_tags, seed=seed)


def stored(model) -> dict:
    return model.encoder._boe_records


def characters_block(encoder, script):
    """The character block of ``encoder``'s BoE script vector: the last
    block, so the last input of the concatenation."""
    assert encoder.block_layout[-1][0] == "characters"
    return encoder.encode_script(script)._parents[-1]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("boe_means")
    generate_synthetic_corpus(out, SynthSpec(n_scripts=12, n_tags=2, seed=5,
                                             embedding_dim=16))
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       IngestConfig(min_count=3, descriptor_min_movies=3,
                                    descriptor_top_exclude=10,
                                    expected_dim=16))
    return corpus


def loss_and_grads(params, fn):
    for t in params.values():
        t.grad = None
    loss = fn()
    loss.backward()
    return loss.data.copy(), {name: None if t.grad is None else t.grad.copy()
                              for name, t in params.items()}


def script_sets(corpus):
    """(vectors, compiled scripts) of the edge plays and of ``corpus``."""
    edge_vectors = vectors_for(with_unk=True)
    return [(edge_vectors, [edge_vectors.compiled(p) for p in edge_plays()]),
            (corpus.vectors(), [it.script for it in corpus.items])]


@pytest.mark.parametrize("variant,include_chars", CONFIGS)
def test_logits_and_loss_gradients_match_composition(small_corpus, variant,
                                                     include_chars):
    for vectors, scripts in script_sets(small_corpus):
        assert_matches_composition(vectors, scripts, variant, include_chars)


def assert_matches_composition(vectors, scripts, variant, include_chars):
    model = tag_model(vectors, variant, include_chars)
    reference = tag_model(vectors, variant, include_chars, cls=ComposedModel)
    y = np.array([1.0, 0.0, 1.0])
    lam, active = np.array([0.5, 2.0, 1.0]), np.ones(3)
    for script in scripts + scripts:  # the first encode, then a repeat
        assert_bitwise(
            logits_and_grads(reference.named_params(),
                             lambda: reference.logits(script)),
            logits_and_grads(model.named_params(), lambda: model.logits(script)))
        assert_bitwise(
            loss_and_grads(reference.named_params(),
                           lambda: loss_oracle.reweighted_loss(
                               y, reference.logits(script), lam, active)),
            loss_and_grads(model.named_params(), lambda: reweighted_loss(
                y, model.logits(script), lam, active)))
    assert len(stored(model)) == len(scripts)


@pytest.mark.parametrize("variant,include_chars", CONFIGS)
def test_trained_parameters_match_composition(small_corpus, variant,
                                              include_chars, monkeypatch):
    vectors = small_corpus.vectors()
    taxonomy = TagTaxonomy.from_items(small_corpus.items, "genre")
    samples = make_samples(small_corpus.items, taxonomy)
    config = TrainConfig(max_epochs=2, patience=5, seed=3)
    models = [tag_model(vectors, variant, include_chars, len(taxonomy), cls=cls)
              for cls in (ComposedModel, HierarchicalModel)]
    with monkeypatch.context() as patch:
        patch.setattr(classifier, "reweighted_loss", loss_oracle.reweighted_loss)
        reference = train(models[0], samples[:8], samples[8:], taxonomy, config)
    got = train(models[1], samples[:8], samples[8:], taxonomy, config)
    assert got.rows == reference.rows
    assert got.best_epoch == reference.best_epoch
    last = [{k: t.data for k, t in m.named_params().items()} for m in models]
    for want, have in [(reference.best_params, got.best_params), tuple(last)]:
        assert have.keys() == want.keys()
        for name, value in want.items():
            assert np.array_equal(have[name], value), name


def test_raw_screenplay_stores_nothing():
    vectors = vectors_for(with_unk=False)
    model = tag_model(vectors, Variant.FULL, True)
    plays = edge_plays()
    raw = [model.logits(play).data for play in plays]
    assert not stored(model)
    for play, logits in zip(plays, raw):
        assert np.array_equal(logits, model.logits(vectors.compiled(play)).data)


def test_script_of_another_vocabulary_is_refused():
    own = vectors_for(with_unk=False)
    other = TokenVectors(Vocabulary(own.vocabulary.tokens), own.embeddings)
    script = own.compiled(edge_plays()[0])
    model = tag_model(other, Variant.FULL, True)
    with pytest.raises(DataError, match="mixed"):
        model.logits(script)
    assert not stored(model)
    # stored under its own model, it is still refused by the other
    tag_model(own, Variant.FULL, True).logits(script)
    with pytest.raises(DataError, match="mixed"):
        model.logits(script)


def test_load_params_gives_a_fresh_models_logits():
    vectors = vectors_for(with_unk=True)
    model = tag_model(vectors, Variant.FULL, True)
    scripts = [vectors.compiled(play) for play in edge_plays()]
    for script in scripts:
        model.logits(script)
    r = np.random.default_rng(11)
    arrays = {name: r.normal(size=t.data.shape)
              for name, t in model.named_params().items()}
    load_params(model.named_params(), arrays)
    fresh = tag_model(vectors, Variant.FULL, True, seed=9)
    load_params(fresh.named_params(), arrays)
    for script in scripts:
        assert np.array_equal(model.logits(script).data,
                              fresh.logits(script).data)


def test_one_entry_per_distinct_compiled_script():
    vectors = vectors_for(with_unk=False)
    model = tag_model(vectors, Variant.TWO_TIER, False)
    names = set(model.named_params())
    config = model.encoder.to_config()
    plays = edge_plays()
    scripts = [vectors.compiled(play) for play in plays]
    for _ in range(3):
        for script in scripts:
            model.logits(script)
    assert len(stored(model)) == len(scripts)
    # a second compile of the same play is another script
    model.logits(vectors.compiled(plays[0]))
    assert len(stored(model)) == len(scripts) + 1
    for means, _ in stored(model).values():
        assert set(means) == {"action", "dialogue"}
        assert not any(m.flags.writeable for m in means.values())
    # nothing of it reaches the parameters or the config
    assert set(model.named_params()) == names
    assert model.encoder.to_config() == config


@pytest.mark.parametrize("kind", [k for k in EncoderKind if k is not EncoderKind.BOE])
def test_other_kinds_store_nothing(kind):
    vectors = vectors_for(with_unk=False)
    model = tag_model(vectors, Variant.FULL, True, kind=kind)
    script = vectors.compiled(edge_plays()[0])
    model.logits(script)
    model.logits(script)
    assert not stored(model)


@pytest.mark.parametrize("variant", list(Variant))
def test_character_block_is_one_node_equal_to_composition(small_corpus, variant):
    for vectors, scripts in script_sets(small_corpus):
        encoder = tag_model(vectors, variant, True).encoder
        params = {"chars.matrix": encoder.char_table.matrix}
        for script in scripts + scripts:
            block = characters_block(encoder, script)
            if any(script.characters):
                assert block._parents == (encoder.char_table.matrix,)
            assert_bitwise(
                logits_and_grads(params, lambda: loss_oracle.characters_mean(
                    encoder, script)),
                logits_and_grads(params, lambda: characters_block(encoder, script)))


def test_boe_full_gradients_match_finite_differences(small_corpus):
    """End to end: from the characters and the head through the logits of a
    BoE ``full`` model to the fused loss."""
    y = np.array([1.0, 0.0, 1.0])
    lam, active = np.array([0.5, 2.0, 1.0]), np.array([True, True, False])
    for vectors, scripts in script_sets(small_corpus):
        model = tag_model(vectors, Variant.FULL, True)
        params = [model.encoder.char_table.matrix, model.head.w, model.head.b]
        assert list(model.named_params().values()) == params
        for script in scripts[:3]:
            err = gradcheck(lambda: reweighted_loss(y, model.logits(script), lam,
                                                    active), params)
            assert err < 1e-4, script.title
