import numpy as np
import pytest

from scenewise import autodiff as ad
from scenewise.classifier import ScriptTagModel
from scenewise.encoders import (
    CharacterTable,
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    SequenceEncoder,
    Variant,
    encode_tokens,
)
from scenewise.errors import EmptyStatement
from scenewise.parser import Scene, Screenplay, Statement, StatementKind

from conftest import embedding_rows, make_vectors
from tape_ops import dot, mul, total
from test_autodiff import gradcheck


def rng(seed=0):
    return np.random.default_rng(seed)


def scene_of(*statements, index=1):
    return Scene(index=index, heading="INT. TEST - DAY", statements=list(statements))


def action(text):
    return Statement(StatementKind.ACTION, text)


def dialogue(text, who):
    return Statement(StatementKind.DIALOGUE, text, character=who)


def play_of(*scenes):
    return Screenplay("t", list(scenes))


def compiled_ids(vectors, sequences):
    """Row ids and lengths of token sequences, each compiled as one
    action statement."""
    script = vectors.compiled(play_of(scene_of(*[action(" ".join(tokens))
                                                 for tokens in sequences])))
    return script.ids, script.lengths


def encode_sequences(sequences, vectors, encoder):
    return encode_tokens(*compiled_ids(vectors, sequences),
                         vectors.embeddings.matrix, encoder)


# ---------------------------------------------------------------------------
# attention


def pooled_weights(scores, lengths):
    """The (B, T) weights that ``attention_pool`` gives a (B, T) batch of
    scores, read through the pooled output: step ``t`` of row ``b`` is the
    one-hot output e_{bT+t}, so it scores p[bT+t] = scores[b, t], and row
    ``b``'s pooled vector holds its weights at bT .. bT+T-1 and zeros
    elsewhere."""
    scores = np.asarray(scores, dtype=np.float64)
    b, t = scores.shape
    outputs = np.eye(b * t).reshape(b, t, b * t)
    pooled = ad.attention_pool(ad.constant(outputs),
                               ad.constant(scores.reshape(-1)),
                               lengths).data.reshape(b, b, t)
    weights = pooled[np.arange(b), np.arange(b)].copy()
    pooled[np.arange(b), np.arange(b)] = 0.0
    assert not pooled.any()
    return weights


def test_attend_identical_outputs_softmax_uniform():
    c = np.tile(rng(1).normal(size=5), (4, 1))
    p = rng(2).normal(size=5)
    pooled = ad.attention_pool(ad.constant(c[None]), ad.constant(p), [4])
    assert np.allclose(pooled.data, c[:1])
    assert np.allclose(pooled_weights((c @ p)[None], [4]), 0.25)


def test_attend_single_step():
    c = rng(3).normal(size=(1, 1, 4))
    p = rng(4).normal(size=4)
    pooled = ad.attention_pool(ad.constant(c), ad.constant(p), [1])
    assert np.allclose(pooled_weights(c @ p, [1]), [[1.0]])
    assert np.allclose(pooled.data, c[:, 0])


def softmax(scores):
    e = np.exp(scores - scores.max())
    return e / e.sum()


def test_attend_softmax_matches_direct_formula():
    r = rng(5)
    c = r.normal(size=(4, 3))
    p = r.normal(size=3)
    scores = c @ p
    expected_weights = np.exp(scores) / np.exp(scores).sum()
    pooled = ad.attention_pool(ad.constant(c[None]), ad.constant(p), [4])
    assert np.allclose(pooled_weights(scores[None], [4]), [expected_weights])
    assert np.allclose(pooled.data, [expected_weights @ c])


def test_attend_softmax_large_scores_stay_finite():
    # exp(1000) overflows: the pool shifts each row's scores by their max
    c = np.array([[[1000.0, 0.0], [-1000.0, 0.0]],
                  [[1000.0, 1.0], [1000.0, 3.0]]])
    p = np.array([1.0, 0.0])
    pooled = ad.attention_pool(ad.constant(c), ad.constant(p), [2, 2])
    assert np.array_equal(pooled_weights(c @ p, [2, 2]),
                          [[1.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(pooled.data, [[1000.0, 0.0], [1000.0, 2.0]])


def test_attend_softmax_ignores_a_shared_score_offset():
    scores = rng(8).normal(size=(2, 5))
    lengths = [5, 3]
    weights = pooled_weights(scores, lengths)
    for offset in (-40.0, 3.5, 40.0):
        shifted = pooled_weights(scores + offset, lengths)
        assert np.max(np.abs(shifted - weights)) < 1e-12, offset


def test_attend_ignores_the_order_of_steps():
    outputs = rng(9).normal(size=(1, 5, 3))
    p = ad.constant(rng(10).normal(size=3))
    pooled = ad.attention_pool(ad.constant(outputs), p, [5]).data
    for seed in range(4):
        order = rng(20 + seed).permutation(5)
        again = ad.attention_pool(ad.constant(outputs[:, order]), p, [5]).data
        assert np.max(np.abs(again - pooled)) < 1e-12, order


RAGGED_LENGTHS = np.array([2, 4, 1, 3])


def ragged_outputs(seed, width=3):
    """A right-padded (B, T, H) batch whose padded steps hold values the
    pool must ignore."""
    return rng(seed).normal(size=(len(RAGGED_LENGTHS), RAGGED_LENGTHS.max(),
                                  width))


def test_masked_attend_matches_each_sequence_alone():
    outputs = ragged_outputs(13) + 2.0
    p = ad.constant(np.abs(rng(14).normal(size=3)))
    pooled = ad.attention_pool(ad.constant(outputs), p, RAGGED_LENGTHS)
    scores = outputs @ p.data
    weights = pooled_weights(scores, RAGGED_LENGTHS)
    for b, length in enumerate(RAGGED_LENGTHS):
        alone = ad.attention_pool(ad.constant(outputs[b:b + 1, :length]), p,
                                  [length])
        alone_weights = pooled_weights(scores[b:b + 1, :length], [length])
        assert np.max(np.abs(pooled.data[b] - alone.data[0])) < 1e-12
        assert np.max(np.abs(weights[b, :length] - alone_weights[0])) < 1e-12
        assert np.all(weights[b, length:] == 0.0)


def test_masked_attend_softmax_normalizes_each_row():
    p = np.array([1.0, 0.0])
    # real scores 1, 2 and -1, 1; the padded scores 50 and 5 are ignored
    outputs = np.array([[[1.0, 0.0], [2.0, 0.0], [50.0, 0.0]],
                        [[-1.0, 0.0], [1.0, 0.0], [5.0, 0.0]]])
    weights = pooled_weights(outputs @ p, [2, 2])
    assert np.allclose(weights[:, :2], [softmax(np.array([1.0, 2.0])),
                                        softmax(np.array([-1.0, 1.0]))])
    assert np.all(weights[:, 2] == 0.0)
    assert np.allclose(weights.sum(axis=1), 1.0)
    pooled = ad.attention_pool(ad.constant(outputs), ad.constant(p), [2, 2])
    assert np.allclose(pooled.data[:, 0], (weights * outputs[..., 0]).sum(axis=1))


def test_attention_pass_weights_match_the_tape_pool():
    outputs = ragged_outputs(11)
    p = rng(12).normal(size=3)
    weights, pooled = ad.attention_pass(outputs, p, RAGGED_LENGTHS)
    on_tape = ad.attention_pool(ad.constant(outputs), ad.constant(p),
                                RAGGED_LENGTHS)
    assert np.array_equal(pooled, on_tape.data)
    assert np.max(np.abs(weights - pooled_weights(outputs @ p,
                                                  RAGGED_LENGTHS))) < 1e-12
    for b, length in enumerate(RAGGED_LENGTHS):
        assert np.all(weights[b, length:] == 0.0)
        assert np.allclose(weights[b, :length],
                           softmax(outputs[b, :length] @ p))
        assert np.allclose(pooled[b], weights[b] @ outputs[b])


def test_masked_attend_gradcheck():
    outputs = ad.parameter(np.abs(ragged_outputs(15)) + 0.5)
    p = ad.parameter(np.abs(rng(16).normal(size=3)) + 0.1)
    probe = ad.constant(rng(17).normal(size=(len(RAGGED_LENGTHS), 3)))

    def fn():
        return total(mul(ad.attention_pool(outputs, p, RAGGED_LENGTHS), probe))

    assert gradcheck(fn, [outputs, p]) < 1e-4
    # padded outputs get exactly zero gradient
    for b, length in enumerate(RAGGED_LENGTHS):
        assert np.all(outputs.grad[b, length:] == 0.0)


def test_attention_weights_form_simplex():
    r = rng(6)
    spec = EncoderSpec(EncoderKind.GRU_ATTN, input_dim=4, hidden_per_direction=3)
    encoder = SequenceEncoder(spec, r)
    xs = r.normal(size=(5, 4))
    outputs = ad.bi_gru(ad.constant(xs[None]), encoder.gru, [5]).data
    weights = pooled_weights(outputs @ encoder.p.data, [5])
    assert np.all(weights >= 0)
    assert abs(weights.sum() - 1.0) < 1e-12
    # the encoder pools its GRU outputs with exactly these weights
    pooled = encoder.encode(ad.constant(xs), [5]).data
    assert np.max(np.abs(pooled - weights @ outputs[0])) < 1e-12


# ---------------------------------------------------------------------------
# statement encoders


def test_boe_single_token_identity(tiny_vectors):
    spec = EncoderSpec(EncoderKind.BOE, input_dim=4)
    encoder = SequenceEncoder(spec, rng())
    out = encode_sequences([["alpha"]], tiny_vectors, encoder)
    assert np.allclose(out.data[0],
                       embedding_rows(tiny_vectors.embeddings, ["alpha"])[0])


def test_boe_two_tokens_midpoint(tiny_vectors):
    spec = EncoderSpec(EncoderKind.BOE, input_dim=4)
    encoder = SequenceEncoder(spec, rng())
    out = encode_sequences([["alpha", "beta"]], tiny_vectors, encoder)
    expected = embedding_rows(tiny_vectors.embeddings,
                              ["alpha", "beta"]).mean(axis=0)
    assert np.allclose(out.data[0], expected)


@pytest.mark.parametrize("kind", list(EncoderKind))
def test_token_batch_matches_one_sequence_at_a_time(kind):
    r = rng(18)
    vocab = [f"w{i}" for i in range(6)]
    vectors = make_vectors(vocab, r.normal(size=(len(vocab), 4)))
    encoder = SequenceEncoder(EncoderSpec(kind, input_dim=4,
                                          hidden_per_direction=3), r)
    sequences = [["w0", "w1", "w2"], ["w3"], ["w4", "w5", "w0", "w1", "w2"],
                 ["w5", "w4"]]
    batch = encode_sequences(sequences, vectors, encoder).data
    for row, tokens in zip(batch, sequences):
        rows = embedding_rows(vectors.embeddings, tokens)
        alone = encoder.encode(ad.constant(rows), [len(tokens)]).data[0]
        assert np.max(np.abs(row - alone)) < 1e-12


def test_gru_attn_statement_output_dim_100():
    r = rng(7)
    tokens = ["alpha", "beta", "gamma"]
    vectors = make_vectors(tokens, r.normal(size=(len(tokens), 100)))
    encoder = SequenceEncoder(EncoderSpec(EncoderKind.GRU_ATTN), r)
    for t in range(1, 4):
        out = encode_sequences([tokens[:t]], vectors, encoder)
        assert out.data.shape == (1, 100)


def test_softmax_pool_through_encoder(tiny_vectors):
    spec = EncoderSpec(EncoderKind.BOE_ATTN, input_dim=4)
    encoder = SequenceEncoder(spec, rng(12))
    rows = embedding_rows(tiny_vectors.embeddings, ["alpha", "beta", "gamma"])
    out = encoder.encode(ad.constant(rows), [3])
    assert np.allclose(out.data, [softmax(rows @ encoder.p.data) @ rows])
    # one-hot inputs: a BoE+Attn encoder's output is then its weights
    weights = encoder.encode(ad.constant(np.eye(4)[:3]), [3]).data[0]
    assert np.allclose(weights, np.append(softmax(encoder.p.data[:3]), 0.0))
    assert np.allclose(weights.sum(), 1.0)


def test_empty_statement_raises(tiny_vectors):
    encoder = SequenceEncoder(EncoderSpec(EncoderKind.BOE, input_dim=4), rng())
    with pytest.raises(EmptyStatement):
        encode_tokens(np.zeros(0, dtype=np.int32), [0],
                      tiny_vectors.embeddings.matrix, encoder)


# ---------------------------------------------------------------------------
# scene encoding


def small_spec(kind):
    return EncoderSpec(kind, input_dim=4, hidden_per_direction=2)


def small_model(vectors, variant=Variant.FULL, kind=EncoderKind.BOE, spec=None,
                **kw):
    kw = {"characters": ["ANNA", "BO"], "char_dim": 2, "seed": 1, **kw}
    return HierarchicalModel(spec=spec or small_spec(kind), variant=variant,
                             vectors=vectors, **kw)


def char_vector(model, name):
    """The embedding of character ``name``: its row of the character matrix."""
    table = model.char_table
    return table.matrix.data[table.index[name]]


def block(model, scene_vecs, name):
    """The ``name`` block of the one scene encoded in ``scene_vecs``, located
    by ``block_layout``."""
    offset = 0
    for block_name, dim in model.block_layout:
        if block_name == name:
            return scene_vecs.data[0, offset:offset + dim]
        offset += dim
    raise KeyError(name)


# the paper's sizes: GRU+Attn at hidden 50 over 100-dim words, 10-dim characters
PAPER_SPEC = EncoderSpec(EncoderKind.GRU_ATTN, input_dim=100)


def test_character_block_is_mean(tiny_vectors):
    model = small_model(tiny_vectors)
    scene = scene_of(dialogue("alpha beta", "ANNA"), dialogue("gamma", "BO"))
    emb = model.encode_scenes(play_of(scene))
    e_a = char_vector(model, "ANNA")
    e_b = char_vector(model, "BO")
    assert np.allclose(block(model, emb, "characters"), (e_a + e_b) / 2)


def test_dialogue_free_scene_has_zero_blocks(tiny_vectors):
    model = small_model(tiny_vectors)
    scene = scene_of(action("alpha beta gamma"))
    emb = model.encode_scenes(play_of(scene))
    assert np.allclose(block(model, emb, "dialogue"), 0.0)
    assert np.allclose(block(model, emb, "characters"), 0.0)
    assert not np.allclose(block(model, emb, "action"), 0.0)


def test_full_variant_dims_at_paper_sizes():
    r = rng(9)
    vocab = [f"w{i}" for i in range(6)]
    vectors = make_vectors(vocab, r.normal(size=(len(vocab), 100)))
    model = small_model(vectors, spec=PAPER_SPEC, char_dim=10)
    assert model.scene_dim == 210  # 100 action + 100 dialogue + 10 characters
    scene = scene_of(action("w0 w1"), dialogue("w2 w3", "ANNA"))
    emb = model.encode_scenes(play_of(scene))
    assert emb.data.shape == (1, 210)
    assert model.encode_script(Screenplay("t", [scene])).data.shape == (100,)


def test_full_without_chars_matches_base_configuration():
    r = rng(10)
    vectors = make_vectors([f"w{i}" for i in range(4)], r.normal(size=(4, 100)))
    model = small_model(vectors, spec=PAPER_SPEC, char_dim=10,
                        include_chars=False)
    assert [name for name, _ in model.block_layout] == ["action", "dialogue"]
    assert model.scene_dim == 200


def test_minus_action_dims(tiny_vectors):
    model = small_model(tiny_vectors, variant=Variant.MINUS_ACTION)
    assert model.scene_dim == 4
    with_chars = HierarchicalModel(small_spec(EncoderKind.BOE),
                                   Variant.MINUS_ACTION, tiny_vectors,
                                   ["ANNA"], include_chars=True, char_dim=2)
    assert with_chars.scene_dim == 6


def test_block_layout_stable_under_dialogue_change(tiny_vectors):
    model = small_model(tiny_vectors)
    s1 = scene_of(action("alpha beta"), dialogue("gamma", "ANNA"))
    s2 = scene_of(action("alpha beta"), dialogue("delta sun", "ANNA"))
    b1 = model.encode_scenes(play_of(s1))
    b2 = model.encode_scenes(play_of(s2))
    assert np.array_equal(block(model, b1, "action"), block(model, b2, "action"))
    assert not np.array_equal(block(model, b1, "dialogue"),
                              block(model, b2, "dialogue"))


# interleaved, so reversing the scene reverses each channel's statements too
SCENE_STATEMENTS = (action("alpha"), dialogue("beta gamma", "ANNA"),
                    action("delta sun"), dialogue("moon", "BO"),
                    action("tide dust"), dialogue("gamma", "ANNA"))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
def test_scene_statement_permutation(tiny_vectors, kind, variant):
    """Reordering a scene's statements leaves the logits of a BoE or
    BoE+Attn model equal up to the order of their float sums, for every
    variant: a mean or an attention pool over the statements, or over
    ``two_tier``'s concatenated words, has no order.  A GRU or GRU+Attn
    model reads each sequence in order, so its logits move."""
    model = ScriptTagModel(small_model(tiny_vectors, variant, kind),
                           n_tags=3, seed=1)
    base = model.logits(play_of(scene_of(*SCENE_STATEMENTS))).data
    moved = model.logits(play_of(scene_of(*SCENE_STATEMENTS[::-1]))).data
    if kind in (EncoderKind.BOE, EncoderKind.BOE_ATTN):
        assert np.max(np.abs(moved - base)) < 1e-12
    else:
        assert not np.allclose(moved, base)


def test_han_uses_interleaved_order(tiny_vectors):
    model = small_model(tiny_vectors, variant=Variant.HAN, kind=EncoderKind.GRU)
    s1 = scene_of(action("alpha"), dialogue("beta", "ANNA"), action("gamma"))
    s2 = scene_of(action("alpha"), action("gamma"), dialogue("beta", "ANNA"))
    v1 = model.encode_scenes(play_of(s1)).data
    v2 = model.encode_scenes(play_of(s2)).data
    assert not np.allclose(v1, v2)


def test_han_single_statement_encoder(tiny_vectors):
    model = small_model(tiny_vectors, variant=Variant.HAN)
    assert set(model.statement_encoders) == {"content"}
    assert set(model.scene_encoders) == {"content"}


def test_two_tier_concatenates_words(tiny_vectors):
    model = small_model(tiny_vectors, variant=Variant.TWO_TIER)
    assert model.statement_encoders == {}
    scene = scene_of(action("alpha beta"), action("gamma"))
    emb = model.encode_scenes(play_of(scene))
    # BoE over the concatenated word sequence = mean of all three words
    expected = embedding_rows(tiny_vectors.embeddings,
                              ["alpha", "beta", "gamma"]).mean(axis=0)
    assert np.allclose(block(model, emb, "action"), expected)


# ---------------------------------------------------------------------------
# script encoding


def test_single_scene_boe_script_identity(tiny_vectors):
    model = small_model(tiny_vectors, include_chars=False)
    scene = scene_of(action("alpha beta"), dialogue("gamma", "ANNA"))
    scene_vec = model.encode_scenes(play_of(scene)).data[0]
    script_vec = model.encode_script(Screenplay("t", [scene])).data
    assert np.allclose(script_vec, scene_vec)


def test_scene_order_sensitivity_gru_vs_boe(tiny_vectors):
    scenes = [scene_of(action("alpha beta"), index=1),
              scene_of(action("gamma"), index=2),
              scene_of(dialogue("delta sun", "ANNA"), index=3)]
    fwd = Screenplay("t", scenes)
    rev = Screenplay("t", list(reversed(scenes)))

    boe = small_model(tiny_vectors, kind=EncoderKind.BOE)
    assert np.allclose(boe.encode_script(fwd).data, boe.encode_script(rev).data)

    gru = small_model(tiny_vectors, kind=EncoderKind.GRU)
    assert not np.allclose(gru.encode_script(fwd).data,
                           gru.encode_script(rev).data)


def test_unknown_character_maps_to_unk(tiny_vectors):
    model = small_model(tiny_vectors)
    scene = scene_of(dialogue("alpha", "STRANGER"))
    emb = model.encode_scenes(play_of(scene))
    assert np.allclose(block(model, emb, "characters"),
                       char_vector(model, CharacterTable.UNK_NAME))


def test_character_matrix_equals_per_name_draws():
    table = CharacterTable(["BO", "ANNA", "BO", "CY"], dim=3,
                           rng=np.random.default_rng(4))
    r = np.random.default_rng(4)
    names = [CharacterTable.UNK_NAME, "ANNA", "BO", "CY"]
    assert list(table.index) == names
    assert np.array_equal(table.matrix.data,
                          np.stack([r.normal(0.0, 0.1, size=3) for _ in names]))
    assert list(table.named_params("chars")) == ["chars.matrix"]


def test_model_config_round_trip(tiny_vectors):
    model = small_model(tiny_vectors, kind=EncoderKind.GRU_ATTN)
    rebuilt = model.settings().encoder(tiny_vectors)
    assert rebuilt.settings() == model.settings()
    assert sorted(rebuilt.named_params()) == sorted(model.named_params())
    scene = scene_of(action("alpha beta"), dialogue("gamma", "ANNA"))
    play = Screenplay("t", [scene])
    assert np.allclose(rebuilt.encode_script(play).data,
                       model.encode_script(play).data)


def channel_play(actions=("alpha beta", "gamma"), lines=("delta sun", "moon"),
                 names=("ANNA", "BO")):
    """Two scenes, each with action and dialogue; the keywords edit the
    action texts, the dialogue texts or the speakers."""
    return Screenplay("t", [
        scene_of(action(actions[0]), dialogue(lines[0], names[0]),
                 action("tide"), index=1),
        scene_of(dialogue(lines[1], names[1]), action(actions[1]), index=2),
    ])


# each edit changes what one reader reads: CY is unseen, so it takes UNK's row
CHANNEL_EDITS = {"action": {"actions": ("dust moon", "sun")},
                 "dialogue": {"lines": ("alpha tide", "beta")},
                 "names": {"names": ("CY", "BO")}}
CHANNELS_READ = {Variant.MINUS_ACTION: {"dialogue"},
                 Variant.MINUS_DIALOGUE: {"action"}}


@pytest.mark.parametrize("include_chars", [False, True],
                         ids=["no_chars", "chars"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
def test_logits_read_only_the_channels_of_their_variant(tiny_vectors, kind,
                                                        variant, include_chars):
    """Exactly: editing the text of a channel the variant drops, or the
    speaker names of a model without characters, leaves the tag logits
    equal to the bit; editing what the model reads changes them."""
    model = ScriptTagModel(small_model(tiny_vectors, variant, kind,
                                       include_chars=include_chars),
                           n_tags=3, seed=1)
    read = CHANNELS_READ.get(variant, {"action", "dialogue"}) \
        | ({"names"} if include_chars else set())
    base = model.logits(channel_play()).data
    for edit, change in CHANNEL_EDITS.items():
        edited = model.logits(channel_play(**change)).data
        if edit in read:
            assert not np.allclose(edited, base), edit
        else:
            assert np.array_equal(edited, base), edit


def test_end_to_end_gradients_match_finite_differences(tiny_vectors):
    model = HierarchicalModel(
        spec=EncoderSpec(EncoderKind.GRU_ATTN, input_dim=4,
                         hidden_per_direction=2),
        variant=Variant.FULL, vectors=tiny_vectors,
        characters=["ANNA", "BO"], char_dim=2, seed=3)
    play = Screenplay("toy", [
        scene_of(action("alpha beta"), dialogue("gamma", "ANNA"), index=1),
        scene_of(dialogue("delta sun", "BO"), index=2),
    ])
    params = model.named_params()
    weights = ad.constant(np.linspace(0.5, 1.5, model.script_dim))

    def loss():
        return dot(model.encode_script(play), weights)

    err = gradcheck(loss, list(params.values()))
    assert err < 1e-4, err
