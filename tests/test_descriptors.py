import math

import numpy as np
import pytest

from scenewise import autodiff as ad
from scenewise import descriptors as dsc
from scenewise.corpus import (
    IngestConfig,
    SynthSpec,
    WordEmbeddings,
    generate_synthetic_corpus,
    ingest,
    scene_tokens,
)
from scenewise.descriptors import (
    DescriptorConfig,
    DescriptorModel,
    DescriptorPredictor,
    SceneBagEncoder,
    descriptor_loss,
    descriptor_report,
    hinge_terms,
    init_descriptors,
    kmeans_lloyd,
    nearest_words,
    orthogonality_penalty,
    pretrain_reconstruction_target,
    reconstruct,
    semantic_coherence,
    train_descriptors,
)
from scenewise.encoders import attend
from scenewise.errors import InsufficientVocab, ScriptTooSmall, ZeroDocFrequency
from scenewise.parser import Scene, Statement, StatementKind

from test_autodiff import dot


def rng(seed=0):
    return np.random.default_rng(seed)


def make_predictor(recurrent=False, k=4, dim=6, seed=0, alpha=0.5):
    return DescriptorPredictor(input_dim=dim, hidden=5, k=k, rng=rng(seed),
                               recurrent=recurrent, alpha=alpha)


def test_weights_on_simplex():
    pred = make_predictor()
    for seed in range(5):
        o = pred.weights(rng(seed).normal(size=(4, 6)) * 3).data
        assert o.shape == (4, 4)
        assert np.all(o >= 0)
        assert np.abs(o.sum(axis=1) - 1.0).max() < 1e-12


def test_recurrent_weights_stay_on_simplex_over_many_steps():
    pred = make_predictor(recurrent=True)
    o = None
    r = rng(9)
    for _ in range(50):
        o = pred.weights(r.normal(size=(1, 6)), o).data
        assert np.all(o >= -1e-15)
        assert abs(o.sum() - 1.0) < 1e-9


def test_alpha_one_returns_previous_weights():
    pred = make_predictor(recurrent=True, alpha=1.0)
    o_prev = np.array([[0.1, 0.2, 0.3, 0.4]])
    o = pred.weights(rng(1).normal(size=(1, 6)), o_prev).data
    assert np.allclose(o, o_prev)


def test_recurrence_fixed_point():
    # if the network output equals o_prev, the convex mix leaves it unchanged
    o_prev = np.array([[0.25, 0.25, 0.25, 0.25]])
    pred = make_predictor(recurrent=True)
    ff = pred.ffnn(ad.constant(np.concatenate([np.zeros((1, 6)), o_prev],
                                              axis=1))).data
    mixed = 0.5 * ff + 0.5 * o_prev
    out = pred.weights(np.zeros((1, 6)), o_prev).data
    assert np.allclose(out, mixed)
    assert abs(out.sum() - 1.0) < 1e-12


def test_reconstruct_one_hot_selects_row():
    r_matrix = rng(2).normal(size=(4, 6))
    o = np.zeros(4)
    o[2] = 1.0
    assert np.allclose(reconstruct(ad.constant(o), ad.constant(r_matrix)).data,
                       r_matrix[2])


def test_reconstruct_uniform_is_row_mean():
    r_matrix = rng(3).normal(size=(5, 4))
    o = np.full(5, 0.2)
    assert np.allclose(reconstruct(ad.constant(o), ad.constant(r_matrix)).data,
                       r_matrix.mean(axis=0))


def test_reconstruct_matches_direct_arithmetic():
    r = rng(4)
    r_matrix = r.normal(size=(3, 7))
    o = r.dirichlet(np.ones(3))
    assert np.allclose(reconstruct(ad.constant(o), ad.constant(r_matrix)).data,
                       r_matrix.T @ o)


def test_orthonormal_rows_zero_penalty():
    q, _ = np.linalg.qr(rng(5).normal(size=(6, 6)))
    r_matrix = ad.parameter(q[:3])  # 3 orthonormal rows
    assert orthogonality_penalty(r_matrix, 10.0).item() < 1e-12


def test_satisfied_margins_zero_loss():
    q, _ = np.linalg.qr(rng(6).normal(size=(5, 5)))
    r_matrix = ad.parameter(q[:2])
    us = np.eye(5)[:3]
    w = ad.constant(3.0 * us)
    neg = np.array([[1, 2], [0, 2], [0, 1]])
    # w_t.u_t = 3, w_t.u_j = 0 -> every margin satisfied by 2
    loss = descriptor_loss(w, us, neg, r_matrix, lam=10.0)
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
    w = reconstruct(ad.constant(o), r_matrix)
    loss = descriptor_loss(w, us, neg, r_matrix, lam).item()

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
        o = pred.weights(vs)
        w = reconstruct(o, r_matrix)
        return descriptor_loss(w, us, neg, r_matrix, lam=10.0)

    assert ad.gradcheck(loss, list(params.values())) < 1e-4


# ---------------------------------------------------------------------------
# the per-scene composition, kept as the oracle for the one-graph-per-script
# step: one predictor graph, one reconstruction and one hinge sum per scene


def oracle_weights(pred, v, o_prev=None):
    """One scene's weights from 1-D vectors, as ``(k,)``."""
    x = v
    if pred.recurrent:
        o_prev = np.full(pred.k, 1.0 / pred.k) if o_prev is None else o_prev
        x = np.concatenate([v, o_prev])
    h = ad.relu(ad.add(ad.matmul(ad.constant(x), pred.w1), pred.b1))
    o = ad.softmax(ad.add(ad.matmul(h, pred.w2), pred.b2))
    if not pred.recurrent:
        return o
    return ad.add(ad.scale(o, 1.0 - pred.alpha), ad.constant(pred.alpha * o_prev))


def oracle_hinge(w, u_t, negatives):
    pos = dot(w, ad.constant(u_t))
    out = None
    for u_j in negatives:
        margin = ad.add(ad.sub(ad.constant(np.asarray(1.0)), pos),
                        dot(w, ad.constant(u_j)))
        out = ad.relu(margin) if out is None else ad.add(out, ad.relu(margin))
    return out


def oracle_script_loss(pred, r_matrix, us, neg, lam):
    loss, o_prev = None, None
    for t, u_t in enumerate(us):
        o = oracle_weights(pred, u_t, o_prev)
        term = oracle_hinge(ad.matmul(o, r_matrix), u_t, [us[j] for j in neg[t]])
        loss = term if loss is None else ad.add(loss, term)
        o_prev = o.data
    return ad.add(loss, orthogonality_penalty(r_matrix, lam))


def oracle_negatives(rng_, n_scenes, negatives):
    """The per-scene draw: one ``rng.choice`` over the other scenes each."""
    rows = []
    for t in range(n_scenes):
        others = [j for j in range(n_scenes) if j != t]
        picks = rng_.choice(len(others), size=min(negatives, n_scenes - 1),
                            replace=False)
        rows.append([others[int(j)] for j in picks])
    return np.array(rows, dtype=np.intp)


def tiny_model(recurrent, k=4, dim=6, seed=0):
    emb = WordEmbeddings({f"w{i}": rng(seed + i).normal(size=dim) for i in range(8)},
                         dim)
    target = SceneBagEncoder([f"w{i}" for i in range(8)], emb,
                             p=rng(seed).normal(size=dim))
    config = DescriptorConfig(k=k, hidden=5, recurrent=recurrent, negatives=3,
                              ortho_lambda=10.0, seed=seed)
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
    assert ad.gradcheck(lambda: hinge_terms(w, us, neg), [w]) < 1e-8
    assert abs(hinge_terms(w, us, neg).item()
               - np.maximum(margins, 0.0).sum()) < 1e-12


def test_hinge_terms_without_negatives_raise():
    w = ad.parameter(np.zeros((1, 3)))
    with pytest.raises(ScriptTooSmall):
        hinge_terms(w, np.zeros((1, 3)), dsc.draw_negatives(rng(0), 1, 5))


@pytest.mark.parametrize("negatives", [1, 3, 5, 9])
def test_draw_negatives_matches_per_scene_loop(negatives):
    for n_scenes in range(2, 9):
        drawn = dsc.draw_negatives(rng(n_scenes), n_scenes, negatives)
        assert np.array_equal(drawn, oracle_negatives(rng(n_scenes), n_scenes,
                                                      negatives))
        for t, row in enumerate(drawn):
            assert t not in row and len(set(row)) == len(row)


@pytest.mark.parametrize("recurrent", [False, True], ids=["plain", "recurrent"])
def test_weights_for_script_matches_per_scene_oracle(desc_corpus, recurrent):
    corpus = desc_corpus
    dim = corpus.embeddings.dim
    target = SceneBagEncoder(corpus.descriptor_vocab, corpus.embeddings,
                             p=rng(14).normal(size=dim) * 0.1)
    config = DescriptorConfig(k=4, hidden=8, recurrent=recurrent, seed=2)
    model = DescriptorModel(init_descriptors(dsc.RANDOM_GLOROT,
                                             target.vocab_matrix(), k=4, seed=2),
                            target, config)
    for it in corpus.items:
        play = it.screenplay
        weights = model.weights_for_script(play)
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


def test_scene_bag_encoder_softmax_pool():
    # restricted words x and y score 2 and 0 under p; z is outside the vocab
    emb = WordEmbeddings({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0]),
                          "z": np.array([3.0, 3.0])}, 2)
    enc = SceneBagEncoder(["x", "y"], emb, p=np.array([2.0, 0.0]))
    scenes = [action_scene(1, "x y z"), action_scene(2, "z z"),
              action_scene(3, "y y x")]
    padded, lengths, kept = enc.script_batch(scenes)
    assert padded.shape == (2, 3, 2) and lengths.tolist() == [2, 3]
    assert np.array_equal(padded.data[0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    vs, kept = enc.encode_scenes(scenes)
    assert kept.tolist() == [0, 2]
    e2 = math.exp(2.0)
    assert np.allclose(vs[0], np.array([e2, 1.0]) / (e2 + 1.0), rtol=0, atol=1e-15)
    assert np.array_equal(vs[1], [0.0, 0.0])  # no restricted token: a zero row
    assert np.allclose(vs[2], np.array([e2, 2.0]) / (e2 + 2.0), rtol=0, atol=1e-15)
    assert enc.encode_scene(scenes[1]) is None
    assert np.allclose(enc.encode_scene(scenes[2]), vs[2], rtol=0, atol=1e-15)


def test_scene_bag_encoder_matches_tape_attention_bitwise(desc_corpus,
                                                          monkeypatch):
    # pretraining pools each script's batch through one attend call on the
    # tape; the frozen target pools the same batch, so at the same p the
    # vectors agree bitwise
    calls = []

    def recording_attend(outputs, p, *args, **kwargs):
        pooled = attend(outputs, p, *args, **kwargs)
        calls.append((outputs.data, p.data.copy(), pooled.data))
        return pooled

    monkeypatch.setattr(dsc, "attend", recording_attend)
    config = DescriptorConfig(k=4, hidden=8, pretrain_epochs=1, seed=4)
    pretrain_reconstruction_target(desc_corpus, "genre", config)
    monkeypatch.undo()

    plays = [it.screenplay
             for it in desc_corpus.train_items + desc_corpus.validation_items]
    assert len(calls) == len(plays)
    for padded, p, pooled in calls:
        enc = SceneBagEncoder(desc_corpus.descriptor_vocab,
                              desc_corpus.embeddings, p)
        play, = [play for play in plays if np.array_equal(
            enc.script_batch(play.scenes)[0].data, padded)]
        vs, kept = enc.encode_scenes(play.scenes)
        assert np.array_equal(vs[kept], pooled)
        assert not np.delete(vs, kept, axis=0).any()


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
