import math
from dataclasses import replace

import numpy as np
import pytest

import descriptor_oracle as oracle
import loss_oracle
from scenewise import autodiff as ad
from scenewise import descriptors as dsc
from scenewise.corpus import (
    IngestConfig,
    SynthSpec,
    TokenVectors,
    Vocabulary,
    WordEmbeddings,
    compile_script,
    generate_synthetic_corpus,
    ingest,
    scene_tokens,
)
from scenewise.descriptors import (
    DescriptorConfig,
    DescriptorModel,
    DescriptorPredictor,
    SceneBagEncoder,
    descriptor_report,
    init_descriptors,
    kmeans_lloyd,
    nearest_words,
    pretrain_reconstruction_target,
    semantic_coherence,
    train_descriptors,
)
from scenewise.encoders import (
    EncoderKind,
    EncoderSpec,
    SequenceEncoder,
    pad_rows,
    pad_runs,
)
from scenewise.errors import (
    DataError,
    InsufficientVocab,
    NonFiniteLoss,
    ScriptTooSmall,
    ShapeMismatch,
    ZeroDocFrequency,
)
from scenewise.parser import Scene, Screenplay, Statement, StatementKind

from conftest import embedding_rows, make_vectors
from tape_ops import dot, relu, scale, softmax, sub
from test_autodiff import gradcheck


def rng(seed=0):
    return np.random.default_rng(seed)


def make_predictor(recurrent=False, k=4, dim=6, seed=0, alpha=0.5):
    return DescriptorPredictor(input_dim=dim, hidden=5, k=k, rng=rng(seed),
                               recurrent=recurrent, alpha=alpha)


def forward(pred, vs, o_prev=None):
    """The predictor's (S, k) weights on plain arrays."""
    arrays = [t.data for t in pred.named_params().values()]
    return ad.predictor_pass(vs, *arrays, o_prev, pred.alpha)[-1]


def test_weights_on_simplex():
    pred = make_predictor()
    for seed in range(5):
        o = pred.rollout(rng(seed).normal(size=(4, 6)) * 3)
        assert o.shape == (4, 4)
        assert np.all(o >= 0)
        assert np.abs(o.sum(axis=1) - 1.0).max() < 1e-12


def test_recurrent_weights_stay_on_simplex_over_many_steps():
    pred = make_predictor(recurrent=True)
    o = pred.rollout(rng(9).normal(size=(50, 6)))
    assert np.all(o >= -1e-15)
    assert np.abs(o.sum(axis=1) - 1.0).max() < 1e-9


def test_alpha_one_returns_previous_weights():
    pred = make_predictor(recurrent=True, alpha=1.0)
    o_prev = np.array([[0.1, 0.2, 0.3, 0.4]])
    o = forward(pred, rng(1).normal(size=(1, 6)), o_prev)
    assert np.allclose(o, o_prev)


def test_recurrence_fixed_point():
    # if the network output equals o_prev, the convex mix leaves it unchanged
    o_prev = np.array([[0.25, 0.25, 0.25, 0.25]])
    pred = make_predictor(recurrent=True)
    ff = oracle.ffnn(pred, ad.constant(np.concatenate([np.zeros((1, 6)), o_prev],
                                                      axis=1))).data
    mixed = 0.5 * ff + 0.5 * o_prev
    out = forward(pred, np.zeros((1, 6)), o_prev)
    assert np.allclose(out, mixed)
    assert abs(out.sum() - 1.0) < 1e-12


def test_reconstruct_one_hot_selects_row():
    r_matrix = rng(2).normal(size=(4, 6))
    o = np.zeros(4)
    o[2] = 1.0
    assert np.allclose(oracle.reconstruct(ad.constant(o), ad.constant(r_matrix)).data,
                       r_matrix[2])


def test_reconstruct_uniform_is_row_mean():
    r_matrix = rng(3).normal(size=(5, 4))
    o = np.full(5, 0.2)
    assert np.allclose(oracle.reconstruct(ad.constant(o), ad.constant(r_matrix)).data,
                       r_matrix.mean(axis=0))


def test_reconstruct_matches_direct_arithmetic():
    r = rng(4)
    r_matrix = r.normal(size=(3, 7))
    o = r.dirichlet(np.ones(3))
    assert np.allclose(oracle.reconstruct(ad.constant(o), ad.constant(r_matrix)).data,
                       r_matrix.T @ o)


def test_orthonormal_rows_zero_penalty():
    q, _ = np.linalg.qr(rng(5).normal(size=(6, 6)))
    r_matrix = ad.parameter(q[:3])  # 3 orthonormal rows
    assert oracle.orthogonality_penalty(r_matrix, 10.0).item() < 1e-12


def test_satisfied_margins_zero_loss():
    q, _ = np.linalg.qr(rng(6).normal(size=(5, 5)))
    r_matrix = ad.parameter(q[:2])
    us = np.eye(5)[:3]
    w = ad.constant(3.0 * us)
    neg = np.array([[1, 2], [0, 2], [0, 1]])
    # w_t.u_t = 3, w_t.u_j = 0 -> every margin satisfied by 2
    loss = oracle.descriptor_loss(w, us, neg, r_matrix, lam=10.0)
    assert loss.item() < 1e-12


def test_descriptor_loss_matches_direct_evaluation():
    r = rng(7)
    k, d = 3, 5
    r_data = r.normal(size=(k, d))
    o = r.dirichlet(np.ones(k), size=4)
    us = r.normal(size=(4, d))
    neg = np.array([[1, 2, 3], [0, 2, 3], [3, 0, 1], [2, 1, 0]])
    lam = 10.0

    r_matrix = ad.parameter(r_data)
    w = oracle.reconstruct(ad.constant(o), r_matrix)
    loss = oracle.descriptor_loss(w, us, neg, r_matrix, lam).item()

    hinge = 0.0
    for t in range(4):
        w_np = r_data.T @ o[t]
        hinge += sum(max(0.0, 1.0 - w_np @ us[t] + w_np @ us[j]) for j in neg[t])
    fro = np.linalg.norm(r_data @ r_data.T - np.eye(k))
    assert abs(loss - (hinge + lam * fro)) < 1e-10


def test_descriptor_loss_gradients_match_finite_differences():
    r = rng(8)
    k, d = 3, 4
    pred = make_predictor(k=k, dim=d, seed=8)
    r_matrix = ad.parameter(r.normal(size=(k, d)) * 0.5)
    vs = r.normal(size=(3, d))
    us = r.normal(size=(3, d))
    neg = np.array([[1, 2], [2, 0], [0, 1]])
    params = {"r": r_matrix}
    params.update(pred.named_params())

    def loss():
        o = oracle.weights(pred, vs)
        w = oracle.reconstruct(o, r_matrix)
        return oracle.descriptor_loss(w, us, neg, r_matrix, lam=10.0)

    assert gradcheck(loss, list(params.values())) < 1e-4


# ---------------------------------------------------------------------------
# the per-scene composition, kept as the oracle for the one-graph-per-script
# step: one predictor graph, one reconstruction and one hinge sum per scene


def oracle_weights(pred, v, o_prev=None):
    """One scene's weights from 1-D vectors, as ``(k,)``."""
    x = v
    if pred.recurrent:
        o_prev = np.full(pred.k, 1.0 / pred.k) if o_prev is None else o_prev
        x = np.concatenate([v, o_prev])
    h = relu(ad.add(ad.matmul(ad.constant(x), pred.w1), pred.b1))
    o = softmax(ad.add(ad.matmul(h, pred.w2), pred.b2))
    if not pred.recurrent:
        return o
    return ad.add(scale(o, 1.0 - pred.alpha),
                  ad.constant(pred.alpha * o_prev))


def oracle_hinge(w, u_t, negatives):
    pos = dot(w, ad.constant(u_t))
    out = None
    for u_j in negatives:
        margin = ad.add(sub(ad.constant(np.asarray(1.0)), pos),
                        dot(w, ad.constant(u_j)))
        out = relu(margin) if out is None \
            else ad.add(out, relu(margin))
    return out


def oracle_script_loss(pred, r_matrix, us, neg, lam):
    loss, o_prev = None, None
    for t, u_t in enumerate(us):
        o = oracle_weights(pred, u_t, o_prev)
        term = oracle_hinge(ad.matmul(o, r_matrix), u_t, [us[j] for j in neg[t]])
        loss = term if loss is None else ad.add(loss, term)
        o_prev = o.data
    return ad.add(loss, oracle.orthogonality_penalty(r_matrix, lam))


def bag_encoder(vocab, vectors, p):
    """A target over ``vocab`` whose attention vector holds ``p``."""
    target = SceneBagEncoder(vocab, vectors, rng(0))
    target.p[:] = p
    return target


def tiny_model(recurrent, k=4, dim=6, seed=0, negatives=3, lam=10.0):
    vocab = [f"w{i}" for i in range(8)]
    emb = WordEmbeddings(vocab, np.array([rng(seed + i).normal(size=dim)
                                          for i in range(len(vocab))]))
    target = bag_encoder(vocab, TokenVectors(Vocabulary(vocab), emb),
                         rng(seed).normal(size=dim))
    config = DescriptorConfig(k=k, hidden=5, recurrent=recurrent,
                              negatives=negatives, ortho_lambda=lam, seed=seed)
    r_init = init_descriptors(dsc.RANDOM_GLOROT, emb.matrix, k=k, seed=seed)
    return DescriptorModel(r_init, target, config)


def grads_of(loss, params):
    for t in params.values():
        t.grad = None
    loss.backward()
    return {name: t.grad.copy() for name, t in params.items()}


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_script_loss_matches_per_scene_oracle(recurrent):
    # S - 1 < negatives = 3 for S = 2, 3, so n_eff is clipped there
    for n_scenes in range(2, 9):
        model = tiny_model(recurrent, seed=n_scenes)
        params = model.named_params()
        r = rng(100 + n_scenes)
        us = r.normal(size=(n_scenes, 6))
        neg = dsc.draw_negatives(r, n_scenes, model.config.negatives)
        assert neg.shape == (n_scenes, min(3, n_scenes - 1))

        loss, o = model.script_loss(us, neg)
        batched = grads_of(loss, params)
        expected = oracle_script_loss(model.predictor, model.r, us, neg,
                                      model.config.ortho_lambda)
        oracle = grads_of(expected, params)

        assert abs(loss.item() - expected.item()) <= 1e-12 * max(1.0, abs(expected.item()))
        assert np.abs(o.sum(axis=1) - 1.0).max() < 1e-12 and o.min() >= 0
        for name in params:
            scale = max(1.0, float(np.abs(oracle[name]).max()))
            assert np.abs(batched[name] - oracle[name]).max() <= 1e-12 * scale, name


def test_hinge_terms_gradient_matches_finite_differences():
    # margins stay at least 0.1 away from the ReLU kink at zero
    r = rng(14)
    us = r.normal(size=(5, 4))
    neg = dsc.draw_negatives(r, 5, 3)
    w = ad.parameter(r.normal(size=(5, 4)))
    margins = (1.0 - np.einsum("td,td->t", w.data, us)[:, None]
               + np.einsum("td,tjd->tj", w.data, us[neg]))
    assert np.abs(margins).min() > 0.1
    assert (margins > 0).any() and (margins < 0).any()
    assert gradcheck(lambda: oracle.hinge_terms(w, us, neg), [w]) < 1e-8
    assert abs(oracle.hinge_terms(w, us, neg).item()
               - np.maximum(margins, 0.0).sum()) < 1e-12


def test_hinge_terms_without_negatives_raise():
    w = ad.parameter(np.zeros((1, 3)))
    with pytest.raises(ScriptTooSmall):
        oracle.hinge_terms(w, np.zeros((1, 3)), dsc.draw_negatives(rng(0), 1, 5))


# ---------------------------------------------------------------------------
# the one-node loss against its composition (descriptor_oracle.py)


@pytest.mark.parametrize("lam", [10.0, 0.0])
@pytest.mark.parametrize("negatives", [1, 3, 9])
@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_one_node_loss_equals_the_composition_bitwise(recurrent, negatives, lam):
    # one negative is below S - 1 for every S here, nine above it (so each
    # scene takes all the others), and three is either
    for n_scenes in range(2, 9):
        model = tiny_model(recurrent, seed=n_scenes, negatives=negatives, lam=lam)
        params = model.named_params()
        r = rng(200 + n_scenes)
        us = r.normal(size=(n_scenes, 6))
        neg = dsc.draw_negatives(r, n_scenes, negatives)

        loss, o = model.script_loss(us, neg)
        assert {id(t) for t in loss._parents} == {id(t) for t in params.values()}
        fused = grads_of(loss, params)
        expected, expected_o = oracle.script_loss(model, us, neg)
        composed = grads_of(expected, params)

        assert np.array_equal(loss.data, expected.data)
        assert np.array_equal(o, expected_o)
        for name in params:
            assert np.array_equal(fused[name], composed[name]), name


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_one_node_loss_gradients_match_finite_differences(recurrent):
    model = tiny_model(recurrent, seed=8)
    params = [*model.predictor.named_params().values(), model.r]
    r = rng(18)
    us = r.normal(size=(5, 6))
    neg = dsc.draw_negatives(r, 5, 3)
    # the weights entering each scene are constants of the loss
    o_prev = r.dirichlet(np.ones(4), size=5) if recurrent else None

    def loss():
        return ad.mixture_hinge_loss(params, us, neg, 10.0, o_prev,
                                     model.predictor.alpha)[0]

    assert gradcheck(loss, params) < 1e-4


def test_one_node_loss_checks_its_shapes():
    model = tiny_model(True)
    params = [*model.predictor.named_params().values(), model.r]
    us = rng(1).normal(size=(3, 6))
    neg = dsc.draw_negatives(rng(1), 3, 2)
    o_prev = np.full((3, 4), 0.25)
    for bad in [dict(targets=us[:, :5]), dict(neg=neg[:2]),
                dict(o_prev=o_prev[:2]), dict(o_prev=None)]:
        args = dict(targets=us, neg=neg, o_prev=o_prev) | bad
        with pytest.raises(ShapeMismatch, match="^mixture_hinge_loss: "):
            ad.mixture_hinge_loss(params, args["targets"], args["neg"], 10.0,
                                  args["o_prev"])


def test_script_loss_without_negatives_raises():
    model = tiny_model(False)
    with pytest.raises(ScriptTooSmall, match="no negative samples"):
        model.script_loss(np.zeros((1, 6)), dsc.draw_negatives(rng(0), 1, 5))


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_training_on_the_composition_leaves_the_same_parameters(
        desc_corpus, monkeypatch, recurrent):
    config = DescriptorConfig(k=4, hidden=8, epochs=3, pretrain_epochs=1,
                              negatives=3, seed=7, recurrent=recurrent)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    model, stats = train_descriptors(desc_corpus, target, config)
    weights = [model.weights_for_script(it.script) for it in desc_corpus.items]
    with monkeypatch.context() as patch:
        patch.setattr(DescriptorModel, "script_loss", oracle.script_loss)
        patch.setattr(DescriptorPredictor, "rollout", oracle.rollout)
        patch.setattr(SceneBagEncoder, "encode_scenes", oracle.encode_scenes)
        patch.setattr(dsc, "draw_negatives", oracle.draw_negatives)
        reference, expected = train_descriptors(desc_corpus, target, config)
        expected_weights = [reference.weights_for_script(it.script)
                            for it in desc_corpus.items]
    for name, t in reference.named_params().items():
        assert np.array_equal(model.named_params()[name].data, t.data), name
    assert stats == expected
    for got, want in zip(weights, expected_weights):
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def long_corpus(tmp_path_factory):
    # plays as long as screenplays: 150 to 170 scenes each
    out = tmp_path_factory.mktemp("long_synth")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=5, n_tags=3, signal=1.0, seed=5, scenes_range=(150, 170),
        statements_range=(2, 3)))
    config = IngestConfig(min_count=2, heldout_fraction=0.2,
                          validation_fraction=0.0, seed=1,
                          descriptor_min_movies=2, descriptor_top_exclude=30)
    corpus, _ = ingest(out / "scripts", out / "tags.json",
                       out / "embeddings.txt", config)
    return corpus


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_descriptors_train_at_screenplay_length(long_corpus, recurrent):
    config = DescriptorConfig(k=5, hidden=16, epochs=3, pretrain_epochs=1,
                              negatives=5, seed=3, recurrent=recurrent)
    plays = [it.script for it in long_corpus.items]
    assert min(play.n_scenes for play in plays) >= 150

    def fit():
        target = pretrain_reconstruction_target(long_corpus, "genre", config)
        model, stats = train_descriptors(long_corpus, target, config)
        params = {k: t.data.copy() for k, t in model.named_params().items()}
        return params, stats, [model.weights_for_script(play) for play in plays]

    params, stats, weights = fit()
    assert len(stats.epoch_losses) == 3
    assert all(math.isfinite(loss) for loss in stats.epoch_losses)
    for play, w in zip(plays, weights):
        assert w.shape == (play.n_scenes, 5)
        assert np.all(w >= 0) and np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    again = fit()
    for key, value in params.items():
        assert np.array_equal(again[0][key], value), key
    assert again[1] == stats
    for got, want in zip(again[2], weights):
        assert np.array_equal(got, want)


def test_pretraining_on_gathered_batches_matches_pooling_every_step(desc_corpus):
    config = DescriptorConfig(k=4, hidden=8, pretrain_epochs=3, seed=2)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    reference = oracle.pretrain_reconstruction_target(desc_corpus, "genre", config)
    assert np.array_equal(target.p, reference.p)


def same_draws(n_scenes, negatives, seed):
    """Whether one call and the per-scene loop draw the same negatives and
    leave their generators in the same state."""
    ours, theirs = rng(seed), rng(seed)
    drawn = dsc.draw_negatives(ours, n_scenes, negatives)
    expected = oracle.draw_negatives(theirs, n_scenes, negatives)
    return (drawn.dtype == expected.dtype and np.array_equal(drawn, expected)
            and ours.bit_generator.state == theirs.bit_generator.state)


@pytest.mark.parametrize("negatives", [1, 3, 5, 8, 9])
def test_draw_negatives_matches_per_scene_loop(negatives):
    for n_scenes in [*range(1, 40), 64, 101, 150]:
        for seed in range(3):
            assert same_draws(n_scenes, negatives, seed), (n_scenes, seed)
        drawn = dsc.draw_negatives(rng(n_scenes), n_scenes, negatives)
        assert drawn.shape == (n_scenes, min(negatives, n_scenes - 1))
        for t, row in enumerate(drawn):
            assert t not in row and len(set(row)) == len(row)


@pytest.mark.parametrize("n_scenes", [10_001, 10_002])
def test_draw_negatives_matches_choice_either_side_of_its_floyd_range(n_scenes):
    # choice runs Floyd's algorithm up to 10,000 other scenes (replayed
    # here) and may take another path past it (its own calls here), which
    # it does once it picks more than a fiftieth of the population
    assert same_draws(n_scenes, 201, 5)


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_weights_for_script_matches_per_scene_oracle(desc_corpus, recurrent):
    corpus = desc_corpus
    dim = corpus.embeddings.dim
    target = bag_encoder(corpus.descriptor_vocab, corpus.vectors(),
                         rng(14).normal(size=dim) * 0.1)
    config = DescriptorConfig(k=4, hidden=8, recurrent=recurrent, seed=2)
    model = DescriptorModel(init_descriptors(dsc.RANDOM_GLOROT,
                                             target.vocab_matrix(), k=4, seed=2),
                            target, config)
    for it in corpus.items:
        play = it.screenplay
        weights = model.weights_for_script(play)
        assert np.array_equal(model.weights_for_script(it.script), weights)
        o_prev = None
        for t, scene in enumerate(play.scenes):
            u = target.encode_scene(scene)
            v = u if u is not None else np.zeros(dim)
            o_prev = oracle_weights(model.predictor, v, o_prev).data
            assert np.abs(weights[t] - o_prev).max() <= 1e-12
        assert weights.shape == (len(play.scenes), 4)
        assert weights.min() >= 0
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12


def test_init_glorot_bounded():
    r_matrix = init_descriptors(dsc.RANDOM_GLOROT, np.zeros((10, 100)), k=25, seed=0)
    limit = math.sqrt(6.0 / (25 + 100))
    assert r_matrix.shape == (25, 100)
    assert np.all(np.abs(r_matrix) <= limit)


def test_kmeans_exact_points():
    points = rng(9).normal(size=(4, 3))
    centroids = kmeans_lloyd(points, 4, rng(1))
    # with k = n, every point is its own centroid
    found = {tuple(np.round(c, 9)) for c in centroids}
    expected = {tuple(np.round(p, 9)) for p in points}
    assert found == expected


def test_kmeans_planted_clusters():
    r = rng(10)
    a = r.normal(size=(20, 4)) * 0.1
    b = r.normal(size=(20, 4)) * 0.1 + 10.0
    points = np.vstack([a, b])
    centroids = kmeans_lloyd(points, 2, rng(2))
    centroids = centroids[np.argsort(centroids[:, 0])]
    assert np.allclose(centroids[0], a.mean(axis=0), atol=0.2)
    assert np.allclose(centroids[1], b.mean(axis=0), atol=0.2)


def test_init_kmeans_insufficient_vocab():
    with pytest.raises(InsufficientVocab):
        init_descriptors(dsc.KMEANS, rng(0).normal(size=(3, 5)), k=4)


def test_nearest_words_exact_row():
    r = rng(11)
    vocab = ["ant", "bee", "cat"]
    emb = r.normal(size=(3, 5))
    words = nearest_words(emb[1:2], vocab, emb, m=2)
    assert words[0][0] == "bee"


def test_nearest_words_empty_and_ties():
    vocab = ["b", "a", "c"]
    emb = np.array([[1.0, 0], [1.0, 0], [0, 1.0]])
    assert nearest_words(np.array([[1.0, 0]]), vocab, emb, m=0) == [[]]
    top = nearest_words(np.array([[1.0, 0]]), vocab, emb, m=2)
    assert top[0] == ["a", "b"]  # equal similarity, lexicographic order


def test_coherence_signs():
    docs = [{"a", "b"}, {"a", "b"}, {"c"}]
    always = semantic_coherence([["a", "b"]], docs)[0]
    assert always == math.log((2 + 1) / 2) > 0
    never = semantic_coherence([["a", "c"]], docs)[0]
    assert never == math.log(1 / 2) < 0


def test_coherence_hand_counted_toy_corpus():
    docs = [{"a", "b", "c"}, {"a", "b"}, {"a"}, {"b", "c"}, {"c"}]
    score = semantic_coherence([["a", "b", "c"]], docs)[0]
    expected = math.log(3 / 3) + math.log(2 / 3) + math.log(3 / 3)
    assert abs(score - expected) < 1e-12


def test_coherence_zero_doc_frequency():
    with pytest.raises(ZeroDocFrequency):
        semantic_coherence([["a", "zz"]], [{"a"}])


def action_scene(index, text):
    return Scene(index=index, statements=[Statement(StatementKind.ACTION, text)])


def padded_batch(target, script):
    """The right-padded batch of descriptor-word rows the target pools for
    ``script``, and its lengths."""
    ids, scene_of = target.word_ids(script)
    lengths = np.bincount(scene_of)
    lengths = lengths[lengths > 0]
    matrix = target.vectors.embeddings.matrix
    return pad_runs(ad.constant(matrix[ids]), lengths), lengths


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_target_is_one_glorot_draw(seed):
    # the oracle builds its own target, so the draw is pinned here: one
    # Glorot vector, the target's only parameter, and the generator left
    # where that one draw leaves it, for the pretraining head's draws
    vocab = [f"w{i}" for i in range(4)]
    dim = 3 + seed
    vectors = make_vectors(vocab, [rng(i).normal(size=dim)
                                   for i in range(len(vocab))])
    drawn, reference = rng(seed), rng(seed)
    target = SceneBagEncoder(vocab, vectors, drawn)
    assert np.array_equal(target.p, ad.glorot(reference, (dim,)))
    assert drawn.bit_generator.state == reference.bit_generator.state
    assert set(target.named_params()) == {"target.p"}
    assert target.named_params()["target.p"].data is target.p


def test_scene_bag_encoder_softmax_pool():
    # descriptor words x and y score 2 and 0 under p; z is in the vocabulary
    # but not a descriptor word
    vectors = TokenVectors(
        Vocabulary(["x", "y", "z"]),
        WordEmbeddings(["x", "y", "z"],
                       np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])))
    enc = bag_encoder(["x", "y"], vectors, [2.0, 0.0])
    scenes = [action_scene(1, "x y z"), action_scene(2, "z z"),
              action_scene(3, "y y x")]
    play = Screenplay("toy", scenes)
    script = vectors.compiled(play)
    padded, lengths = padded_batch(enc, script)
    assert padded.shape == (2, 3, 2) and lengths.tolist() == [2, 3]
    assert np.array_equal(padded.data[0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    vs, kept = enc.encode_scenes(script)
    assert kept.tolist() == [0, 2]
    e2 = math.exp(2.0)
    assert np.allclose(vs[0], np.array([e2, 1.0]) / (e2 + 1.0), rtol=0, atol=1e-15)
    assert np.array_equal(vs[1], [0.0, 0.0])  # no descriptor word: a zero row
    assert np.allclose(vs[2], np.array([e2, 2.0]) / (e2 + 2.0), rtol=0, atol=1e-15)
    raw, raw_kept = enc.encode_scenes(play)  # a raw play is compiled first
    assert np.array_equal(raw, vs) and np.array_equal(raw_kept, kept)
    assert enc.encode_scene(scenes[1]) is None
    assert np.allclose(enc.encode_scene(scenes[2]), vs[2], rtol=0, atol=1e-15)
    assert enc.scene_words(script) == [{"x", "y"}, set(), {"x", "y"}]


def test_scene_bag_encoder_matches_tape_attention_bitwise(desc_corpus,
                                                          monkeypatch):
    # pretraining pools each script's batch through one attention_pool call
    # on the tape; the frozen target pools the same batch, so at the same p
    # the vectors agree bitwise
    calls = []
    attention_pool = ad.attention_pool

    def recording_pool(outputs, p, *args, **kwargs):
        pooled = attention_pool(outputs, p, *args, **kwargs)
        calls.append((outputs.data, p.data.copy(), pooled.data))
        return pooled

    monkeypatch.setattr(ad, "attention_pool", recording_pool)
    config = DescriptorConfig(k=4, hidden=8, pretrain_epochs=1, seed=4)
    pretrain_reconstruction_target(desc_corpus, "genre", config)
    monkeypatch.undo()

    scripts = [it.script
               for it in desc_corpus.train_items + desc_corpus.validation_items]
    assert len(calls) == len(scripts)
    for padded, p, pooled in calls:
        enc = bag_encoder(desc_corpus.descriptor_vocab, desc_corpus.vectors(), p)
        script, = [script for script in scripts if np.array_equal(
            padded_batch(enc, script)[0].data, padded)]
        vs, kept = enc.encode_scenes(script)
        assert np.array_equal(vs[kept], pooled)
        assert not np.delete(vs, kept, axis=0).any()


def test_plain_pool_matches_tape_pool_on_seeded_batches():
    for seed in range(40):
        r = rng(seed)
        dim = int(r.integers(1, 9))
        lengths = r.integers(1, 12, size=int(r.integers(1, 7)))
        rows = r.normal(size=(int(lengths.sum()), dim))
        encoder = SequenceEncoder(EncoderSpec(EncoderKind.BOE_ATTN, dim), r)
        padded = pad_rows(rows, lengths)
        on_tape = pad_runs(ad.constant(rows), lengths)
        assert np.array_equal(padded, on_tape.data), seed
        got = ad.attention_pass(padded, encoder.p.data, lengths)[-1]
        expected = ad.attention_pool(on_tape, encoder.p, lengths)
        assert np.array_equal(got, expected.data), seed


def oracle_target(vocab, embeddings, p, scenes):
    """The target as computed by tokenizing each scene again: its tokens
    filtered by word, gathered by name, padded, and pooled at a constant p;
    (S, d) vectors with zero rows, and the pooled scenes' indices."""
    words = frozenset(vocab)
    tokens, lengths, kept = [], [], []
    for i, scene in enumerate(scenes):
        bag = [t for t in scene_tokens(scene) if t in words]
        if bag:
            tokens += bag
            lengths.append(len(bag))
            kept.append(i)
    vs = np.zeros((len(scenes), embeddings.dim))
    if kept:
        lengths = np.array(lengths, dtype=np.int64)
        padded = pad_runs(ad.constant(embedding_rows(embeddings, tokens)), lengths)
        vs[kept] = ad.attention_pool(padded, ad.constant(p), lengths).data
    return vs, np.array(kept, dtype=np.intp)


@pytest.mark.parametrize("p", ["random", "pretrained"])
def test_compiled_target_matches_tokenizing_oracle_bitwise(desc_corpus, p):
    if p == "random":
        target = bag_encoder(desc_corpus.descriptor_vocab, desc_corpus.vectors(),
                             rng(8).normal(size=desc_corpus.embeddings.dim))
    else:
        target = pretrain_reconstruction_target(
            desc_corpus, "genre", DescriptorConfig(pretrain_epochs=2, seed=3))
    pooled = 0
    for it in desc_corpus.items:
        expected, expected_kept = oracle_target(
            desc_corpus.descriptor_vocab, desc_corpus.embeddings, target.p,
            it.screenplay.scenes)
        # the tape-built pool over the compiled ids gives the same bits
        assert np.array_equal(oracle.encode_scenes(target, it.script)[0],
                              expected), it.title
        for source in (it.script, it.screenplay):
            vs, kept = target.encode_scenes(source)
            assert np.array_equal(vs, expected), it.title
            assert np.array_equal(kept, expected_kept), it.title
        pooled += len(expected_kept)
    assert pooled > len(desc_corpus.items)


def test_coherence_of_compiled_documents_matches_tokenized(desc_corpus):
    config = DescriptorConfig(k=4, hidden=8, epochs=2, pretrain_epochs=1,
                              negatives=2, seed=5, top_words=6)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    model, _ = train_descriptors(desc_corpus, target, config)
    items = desc_corpus.train_items + desc_corpus.validation_items
    compiled = [words for it in items for words in target.scene_words(it.script)]
    tokenized = [set(scene_tokens(s)) for it in items
                 for s in it.screenplay.scenes]
    vocab = set(target.vocab)
    assert compiled == [doc & vocab for doc in tokenized]
    assert descriptor_report(model, compiled) == \
        descriptor_report(model, tokenized)


def test_target_refuses_script_compiled_against_other_vocabulary(desc_corpus):
    target = bag_encoder(desc_corpus.descriptor_vocab, desc_corpus.vectors(),
                         np.zeros(desc_corpus.embeddings.dim))
    play = desc_corpus.items[0].screenplay
    other = compile_script(play, Vocabulary(desc_corpus.vocabulary.tokens),
                           desc_corpus.embeddings)
    for use in (target.encode_scenes, target.batch, target.scene_words):
        with pytest.raises(DataError, match="compiled against another"):
            use(other)
    model = DescriptorModel(np.zeros((4, target.dim)), target,
                            DescriptorConfig(k=4, hidden=8))
    with pytest.raises(DataError, match="compiled against another"):
        model.weights_for_script(other)


@pytest.fixture(scope="module")
def desc_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desc_synth")
    spec = SynthSpec(n_scripts=12, n_tags=3, signal=1.0, seed=21,
                     scenes_range=(4, 6), statements_range=(3, 5))
    generate_synthetic_corpus(out, spec)
    config = IngestConfig(min_count=2, heldout_fraction=0.2,
                          validation_fraction=0.0, seed=1,
                          descriptor_min_movies=2,
                          descriptor_top_exclude=30)
    corpus, _ = ingest(out / "scripts", out / "tags.json",
                       out / "embeddings.txt", config)
    return corpus


@pytest.fixture(scope="module")
def one_scene_corpus(tmp_path_factory):
    # every script is a single scene: none gives a scene its negatives
    out = tmp_path_factory.mktemp("one_scene_synth")
    generate_synthetic_corpus(out, SynthSpec(n_scripts=12, seed=3,
                                             scenes_range=(1, 1)))
    config = IngestConfig(min_count=2, descriptor_min_movies=2,
                          descriptor_top_exclude=3)
    corpus, _ = ingest(out / "scripts", out / "tags.json",
                       out / "embeddings.txt", config)
    return corpus


def test_train_descriptors_without_usable_script_raises(one_scene_corpus):
    config = DescriptorConfig(k=3, hidden=8, epochs=2, pretrain_epochs=1, seed=0)
    target = pretrain_reconstruction_target(one_scene_corpus, "genre", config)
    with pytest.raises(DataError,
                       match="^descriptor training: no script to train on$"):
        train_descriptors(one_scene_corpus, target, config)


def test_pretrain_without_descriptor_word_in_training_scripts_raises(desc_corpus):
    # a word with a vector of its own, but outside the vocabulary, compiles
    # to the unknown row everywhere, so no training script holds it
    word = min(w for w in desc_corpus.embeddings.index
               if w not in desc_corpus.vocabulary)
    for vocab in [(word,), ()]:
        corpus = replace(desc_corpus, descriptor_vocab=vocab)
        with pytest.raises(DataError,
                           match="^target pretraining: no script to train on$"):
            pretrain_reconstruction_target(corpus, "genre", DescriptorConfig(seed=0))


def test_pretrain_target_smoke(desc_corpus):
    config = DescriptorConfig(k=4, hidden=8, pretrain_epochs=2, seed=0)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    assert target.p.shape == (100,)
    scene = desc_corpus.items[0].screenplay.scenes[0]
    u = target.encode_scene(scene)
    assert u is not None and u.shape == (100,)


def test_train_descriptors_freezes_target_and_reduces_fro(desc_corpus):
    config = DescriptorConfig(k=4, hidden=8, epochs=4, pretrain_epochs=2,
                              negatives=2, seed=0)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    before = [target.encode_scene(s)
              for it in desc_corpus.items for s in it.screenplay.scenes]
    model, stats = train_descriptors(desc_corpus, target, config)
    after = [target.encode_scene(s)
             for it in desc_corpus.items for s in it.screenplay.scenes]
    for b, a in zip(before, after):
        if b is None:
            assert a is None
        else:
            assert np.array_equal(b, a)  # bitwise-identical frozen outputs
    assert stats.final_fro < stats.initial_fro
    assert stats.simplex_max_deviation < 1e-9
    assert stats.simplex_min_entry >= -1e-12


def test_large_lambda_fro_nonincreasing(desc_corpus):
    # dominant penalty and a small step size so epoch-end checkpoints descend
    config = DescriptorConfig(k=4, hidden=8, epochs=5, pretrain_epochs=1,
                              negatives=2, ortho_lambda=200.0, lr=1e-3, seed=3)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    _, stats = train_descriptors(desc_corpus, target, config)
    trace = [stats.initial_fro] + stats.fro_trace
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-3


def test_pretrained_target_matches_composed_loss(desc_corpus, monkeypatch):
    config = DescriptorConfig(k=4, hidden=8, pretrain_epochs=3, seed=2)
    with monkeypatch.context() as patch:
        patch.setattr(dsc, "reweighted_loss", loss_oracle.reweighted_loss)
        reference = pretrain_reconstruction_target(desc_corpus, "genre", config)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    assert np.array_equal(target.p, reference.p)


def test_pretrain_target_raises_on_non_finite_loss(desc_corpus, monkeypatch):
    # the attention vector and the head start as NaN
    monkeypatch.setattr(ad, "glorot", lambda rng_, shape: np.full(shape, np.nan))
    config = DescriptorConfig(k=4, hidden=8, pretrain_epochs=2, seed=0)
    with pytest.raises(NonFiniteLoss,
                       match=r"^target pretraining epoch 1, script 'synth\d+': "
                             r"loss=nan$"):
        pretrain_reconstruction_target(desc_corpus, "genre", config)


def test_train_descriptors_raises_on_non_finite_loss(desc_corpus):
    config = DescriptorConfig(k=4, hidden=8, epochs=2, pretrain_epochs=1,
                              negatives=2, seed=0)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    target.p[0] = np.nan  # every pooled target turns NaN
    with pytest.raises(NonFiniteLoss,
                       match=r"^descriptor training epoch 1, script 'synth\d+': "
                             r"loss=nan$"):
        train_descriptors(desc_corpus, target, config)


def test_descriptor_report_structure(desc_corpus):
    config = DescriptorConfig(k=3, hidden=8, epochs=2, pretrain_epochs=1,
                              negatives=2, seed=5, top_words=4)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    model, _ = train_descriptors(desc_corpus, target, config)
    docs = [set(scene_tokens(s)) for it in desc_corpus.items
            for s in it.screenplay.scenes]
    report = descriptor_report(model, docs)
    assert len(report) == 3
    for entry in report:
        assert len(entry["top_words"]) == 4
        assert isinstance(entry["coherence"], float)


def test_weights_for_script_row_per_scene(desc_corpus):
    config = DescriptorConfig(k=3, hidden=8, epochs=1, pretrain_epochs=1,
                              negatives=2, seed=6, recurrent=True)
    target = pretrain_reconstruction_target(desc_corpus, "genre", config)
    model, _ = train_descriptors(desc_corpus, target, config)
    play = desc_corpus.items[0].screenplay
    weights = model.weights_for_script(play)
    assert weights.shape == (len(play.scenes), 3)
    assert np.allclose(weights.sum(axis=1), 1.0)
