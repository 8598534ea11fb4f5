import numpy as np
import pytest

from scenewise import autodiff as ad
from scenewise import encoders as enc
from scenewise.encoders import (
    CharacterTable,
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    SequenceEncoder,
    Variant,
    attend,
    encode_tokens,
)
from scenewise.errors import DegenerateNormalizer, EmptyStatement
from scenewise.parser import Scene, Screenplay, Statement, StatementKind

from conftest import make_vectors
from test_autodiff import dot


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


def pooled_weights(scores, lengths, mode=enc.SOFTMAX):
    """The (B, T) weights that ``attend`` gives a (B, T) batch of scores,
    read through the pooled output: step ``t`` of row ``b`` is the one-hot
    output e_{bT+t}, so it scores p[bT+t] = scores[b, t], and row ``b``'s
    pooled vector holds its weights at bT .. bT+T-1 and zeros elsewhere."""
    scores = np.asarray(scores, dtype=np.float64)
    b, t = scores.shape
    outputs = np.eye(b * t).reshape(b, t, b * t)
    pooled = attend(ad.constant(outputs), ad.constant(scores.reshape(-1)),
                    lengths, mode).data.reshape(b, b, t)
    weights = pooled[np.arange(b), np.arange(b)].copy()
    pooled[np.arange(b), np.arange(b)] = 0.0
    assert not pooled.any()
    return weights


def test_attend_identical_outputs_softmax_uniform():
    c = np.tile(rng(1).normal(size=5), (4, 1))
    p = rng(2).normal(size=5)
    pooled = attend(ad.constant(c[None]), ad.constant(p), [4])
    assert np.allclose(pooled.data, c[:1])
    assert np.allclose(pooled_weights((c @ p)[None], [4]), 0.25)


@pytest.mark.parametrize("mode", [enc.SOFTMAX, enc.PAPER_LINEAR])
def test_attend_single_step(mode):
    c = rng(3).normal(size=(1, 1, 4))
    p = rng(4).normal(size=4)
    pooled = attend(ad.constant(c), ad.constant(p), [1], mode)
    assert np.allclose(pooled_weights(c @ p, [1], mode), [[1.0]])
    assert np.allclose(pooled.data, c[:, 0])


def test_attend_paper_linear_matches_direct_formula():
    r = rng(5)
    c = r.normal(size=(4, 3))
    p = r.normal(size=3)
    scores = c @ p
    expected_weights = scores / scores.sum()
    expected_pooled = expected_weights @ c
    pooled = attend(ad.constant(c[None]), ad.constant(p), [4], enc.PAPER_LINEAR)
    assert np.allclose(pooled_weights(scores[None], [4], enc.PAPER_LINEAR),
                       [expected_weights])
    assert np.allclose(pooled.data, [expected_pooled])


def test_attend_paper_linear_degenerate_sum():
    c = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
    p = np.array([1.0, 0.0])  # scores +1 and -1 sum to 0
    with pytest.raises(DegenerateNormalizer):
        attend(ad.constant(c), ad.constant(p), [2], enc.PAPER_LINEAR)


RAGGED_LENGTHS = np.array([2, 4, 1, 3])


def ragged_outputs(seed, width=3):
    """A right-padded (B, T, H) batch whose padded steps hold values the
    pool must ignore."""
    return rng(seed).normal(size=(len(RAGGED_LENGTHS), RAGGED_LENGTHS.max(),
                                  width))


@pytest.mark.parametrize("mode", [enc.SOFTMAX, enc.PAPER_LINEAR])
def test_masked_attend_matches_each_sequence_alone(mode):
    outputs = ragged_outputs(13) + 2.0  # positive scores: no degenerate sum
    p = ad.constant(np.abs(rng(14).normal(size=3)))
    pooled = attend(ad.constant(outputs), p, RAGGED_LENGTHS, mode)
    scores = outputs @ p.data
    weights = pooled_weights(scores, RAGGED_LENGTHS, mode)
    for b, length in enumerate(RAGGED_LENGTHS):
        alone = attend(ad.constant(outputs[b:b + 1, :length]), p, [length], mode)
        alone_weights = pooled_weights(scores[b:b + 1, :length], [length], mode)
        assert np.max(np.abs(pooled.data[b] - alone.data[0])) < 1e-12
        assert np.max(np.abs(weights[b, :length] - alone_weights[0])) < 1e-12
        assert np.all(weights[b, length:] == 0.0)


@pytest.mark.parametrize("mode", [enc.SOFTMAX, enc.PAPER_LINEAR])
def test_masked_attend_gradcheck(mode):
    outputs = ad.parameter(np.abs(ragged_outputs(15)) + 0.5)
    p = ad.parameter(np.abs(rng(16).normal(size=3)) + 0.1)
    probe = ad.constant(rng(17).normal(size=(len(RAGGED_LENGTHS), 3)))

    def fn():
        return ad.total(ad.mul(attend(outputs, p, RAGGED_LENGTHS, mode), probe))

    assert ad.gradcheck(fn, [outputs, p]) < 1e-4
    # padded outputs get exactly zero gradient
    for b, length in enumerate(RAGGED_LENGTHS):
        assert np.all(outputs.grad[b, length:] == 0.0)


def test_masked_attend_paper_linear_normalizes_each_row():
    p = np.array([1.0, 0.0])
    # row 0: real scores 1 and 2 sum to 3; its padded score -3 is ignored
    ok = np.array([[[1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]]])
    pooled = attend(ad.constant(ok), ad.constant(p), [2], enc.PAPER_LINEAR)
    assert np.allclose(pooled.data, [[1 / 3 + 4 / 3, 0.0]])
    assert np.allclose(pooled_weights(ok @ p, [2], enc.PAPER_LINEAR),
                       [[1 / 3, 2 / 3, 0.0]])
    # row 1: real scores +1 and -1 sum to 0, though its padded score does not
    bad = np.array([[[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]],
                    [[1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]]])
    with pytest.raises(DegenerateNormalizer):
        attend(ad.constant(bad), ad.constant(p), [2, 2], enc.PAPER_LINEAR)


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
    assert np.allclose(out.data[0], tiny_vectors.embeddings.rows(["alpha"])[0])


def test_boe_two_tokens_midpoint(tiny_vectors):
    spec = EncoderSpec(EncoderKind.BOE, input_dim=4)
    encoder = SequenceEncoder(spec, rng())
    out = encode_sequences([["alpha", "beta"]], tiny_vectors, encoder)
    expected = tiny_vectors.embeddings.rows(["alpha", "beta"]).mean(axis=0)
    assert np.allclose(out.data[0], expected)


@pytest.mark.parametrize("kind", list(EncoderKind))
def test_token_batch_matches_one_sequence_at_a_time(kind):
    r = rng(18)
    vocab = [f"w{i}" for i in range(6)]
    vectors = make_vectors({t: r.normal(size=4) for t in vocab})
    encoder = SequenceEncoder(EncoderSpec(kind, input_dim=4,
                                          hidden_per_direction=3), r)
    sequences = [["w0", "w1", "w2"], ["w3"], ["w4", "w5", "w0", "w1", "w2"],
                 ["w5", "w4"]]
    batch = encode_sequences(sequences, vectors, encoder).data
    for row, tokens in zip(batch, sequences):
        alone = encoder.encode(ad.constant(vectors.embeddings.rows(tokens)),
                               [len(tokens)]).data[0]
        assert np.max(np.abs(row - alone)) < 1e-12


def test_gru_attn_statement_output_dim_100():
    r = rng(7)
    tokens = ["alpha", "beta", "gamma"]
    vectors = make_vectors({t: r.normal(size=100) for t in tokens})
    encoder = SequenceEncoder(EncoderSpec(EncoderKind.GRU_ATTN), r)
    for t in range(1, 4):
        out = encode_sequences([tokens[:t]], vectors, encoder)
        assert out.data.shape == (1, 100)


def test_paper_linear_mode_through_encoder(tiny_vectors):
    spec = EncoderSpec(EncoderKind.BOE_ATTN, input_dim=4,
                       attention_normalization=enc.PAPER_LINEAR)
    encoder = SequenceEncoder(spec, rng(12))
    rows = tiny_vectors.embeddings.rows(["alpha", "beta", "gamma"])
    out = encoder.encode(ad.constant(rows), [3])
    scores = rows @ encoder.p.data
    expected = (scores / scores.sum()) @ rows
    assert np.allclose(out.data, [expected])
    # one-hot inputs: a BoE+Attn encoder's output is then its weights
    weights = encoder.encode(ad.constant(np.eye(4)[:3]), [3]).data[0]
    assert np.allclose(weights, np.append(encoder.p.data[:3]
                                          / encoder.p.data[:3].sum(), 0.0))
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
    vectors = make_vectors({t: r.normal(size=100) for t in vocab})
    model = small_model(vectors, spec=PAPER_SPEC, char_dim=10)
    assert model.scene_dim == 210  # 100 action + 100 dialogue + 10 characters
    scene = scene_of(action("w0 w1"), dialogue("w2 w3", "ANNA"))
    emb = model.encode_scenes(play_of(scene))
    assert emb.data.shape == (1, 210)
    assert model.encode_script(Screenplay("t", [scene])).data.shape == (100,)


def test_full_without_chars_matches_base_configuration():
    r = rng(10)
    vectors = make_vectors({f"w{i}": r.normal(size=100) for i in range(4)})
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


def test_boe_scene_encoder_permutation_invariant(tiny_vectors):
    model = small_model(tiny_vectors)
    s1 = scene_of(action("alpha"), action("beta gamma"), action("delta"))
    s2 = scene_of(action("delta"), action("alpha"), action("beta gamma"))
    assert np.allclose(model.encode_scenes(play_of(s1)).data,
                       model.encode_scenes(play_of(s2)).data)


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
    expected = tiny_vectors.embeddings.rows(["alpha", "beta", "gamma"]).mean(axis=0)
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
    rebuilt = HierarchicalModel.from_config(model.to_config(), tiny_vectors)
    assert rebuilt.to_config() == model.to_config()
    assert sorted(rebuilt.named_params()) == sorted(model.named_params())
    scene = scene_of(action("alpha beta"), dialogue("gamma", "ANNA"))
    play = Screenplay("t", [scene])
    assert np.allclose(rebuilt.encode_script(play).data,
                       model.encode_script(play).data)


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

    err = ad.gradcheck(loss, list(params.values()))
    assert err < 1e-4, err
