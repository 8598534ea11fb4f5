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
from scenewise.errors import InsufficientVocab, ZeroDocFrequency


def rng(seed=0):
    return np.random.default_rng(seed)


def make_predictor(recurrent=False, k=4, dim=6, seed=0, alpha=0.5):
    return DescriptorPredictor(input_dim=dim, hidden=5, k=k, rng=rng(seed),
                               recurrent=recurrent, alpha=alpha)


def test_weights_on_simplex():
    pred = make_predictor()
    for seed in range(5):
        o = pred.weights(rng(seed).normal(size=6) * 3).data
        assert np.all(o >= 0)
        assert abs(o.sum() - 1.0) < 1e-12


def test_recurrent_weights_stay_on_simplex_over_many_steps():
    pred = make_predictor(recurrent=True)
    o = None
    r = rng(9)
    for _ in range(50):
        o = pred.weights(r.normal(size=6), o).data
        assert np.all(o >= -1e-15)
        assert abs(o.sum() - 1.0) < 1e-9


def test_alpha_one_returns_previous_weights():
    pred = make_predictor(recurrent=True, alpha=1.0)
    o_prev = np.array([0.1, 0.2, 0.3, 0.4])
    o = pred.weights(rng(1).normal(size=6), o_prev).data
    assert np.allclose(o, o_prev)


def test_recurrence_fixed_point():
    # if the network output equals o_prev, the convex mix leaves it unchanged
    o_prev = np.array([0.25, 0.25, 0.25, 0.25])
    pred = make_predictor(recurrent=True)
    ff = pred.ffnn(ad.constant(np.concatenate([np.zeros(6), o_prev]))).data
    mixed = 0.5 * ff + 0.5 * o_prev
    out = pred.weights(np.zeros(6), o_prev).data
    assert np.allclose(out, mixed)
    assert abs(out.sum() - 1.0) < 1e-12


def test_reconstruct_one_hot_selects_row():
    r_matrix = rng(2).normal(size=(4, 6))
    o = np.zeros(4)
    o[2] = 1.0
    assert np.allclose(reconstruct(o, r_matrix), r_matrix[2])


def test_reconstruct_uniform_is_row_mean():
    r_matrix = rng(3).normal(size=(5, 4))
    o = np.full(5, 0.2)
    assert np.allclose(reconstruct(o, r_matrix), r_matrix.mean(axis=0))


def test_reconstruct_matches_direct_arithmetic():
    r = rng(4)
    r_matrix = r.normal(size=(3, 7))
    o = r.dirichlet(np.ones(3))
    assert np.allclose(reconstruct(o, r_matrix), r_matrix.T @ o)


def test_orthonormal_rows_zero_penalty():
    q, _ = np.linalg.qr(rng(5).normal(size=(6, 6)))
    r_matrix = ad.parameter(q[:3])  # 3 orthonormal rows
    assert orthogonality_penalty(r_matrix, 10.0).item() < 1e-12


def test_satisfied_margins_zero_loss():
    q, _ = np.linalg.qr(rng(6).normal(size=(5, 5)))
    r_matrix = ad.parameter(q[:2])
    w = ad.constant(np.array([3.0, 0.0, 0.0, 0.0, 0.0]))
    u_t = np.array([1.0, 0, 0, 0, 0])
    negatives = [np.array([0.0, 1.0, 0, 0, 0]), np.array([0.0, 0, 1.0, 0, 0])]
    # w.u_t = 3, w.u_j = 0 -> margin satisfied by 2
    loss = descriptor_loss(w, u_t, negatives, r_matrix, lam=10.0)
    assert loss.item() < 1e-12


def test_descriptor_loss_matches_direct_evaluation():
    r = rng(7)
    k, d = 3, 5
    r_data = r.normal(size=(k, d))
    o = r.dirichlet(np.ones(k))
    u_t = r.normal(size=d)
    negatives = [r.normal(size=d) for _ in range(3)]
    lam = 10.0

    r_matrix = ad.parameter(r_data)
    w = reconstruct(ad.constant(o), r_matrix)
    loss = descriptor_loss(w, u_t, negatives, r_matrix, lam).item()

    w_np = r_data.T @ o
    hinge = sum(max(0.0, 1.0 - w_np @ u_t + w_np @ u_j) for u_j in negatives)
    fro = np.linalg.norm(r_data @ r_data.T - np.eye(k))
    assert abs(loss - (hinge + lam * fro)) < 1e-10


def test_descriptor_loss_gradients_match_finite_differences():
    r = rng(8)
    k, d = 3, 4
    pred = make_predictor(k=k, dim=d, seed=8)
    r_matrix = ad.parameter(r.normal(size=(k, d)) * 0.5)
    v = r.normal(size=d)
    u_t = r.normal(size=d)
    negatives = [r.normal(size=d) for _ in range(2)]
    params = {"r": r_matrix}
    params.update(pred.named_params())

    def loss():
        o = pred.weights(v)
        w = reconstruct(o, r_matrix)
        return descriptor_loss(w, u_t, negatives, r_matrix, lam=10.0)

    assert ad.gradcheck(loss, list(params.values())) < 1e-4


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


def test_scene_bag_encoder_softmax_pool():
    emb = WordEmbeddings({"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}, 2)
    enc = SceneBagEncoder(["x", "y"], emb, p=np.array([2.0, 0.0]))
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = enc.encode_rows(rows)
    w = np.exp([2.0, 0.0])
    w = w / w.sum()
    assert np.allclose(out, w @ rows)


def test_scene_bag_encoder_matches_tape_attention_bitwise():
    # the frozen numpy pool and the trained tape pool are one function
    r = rng(12)
    for _ in range(200):
        dim = int(r.integers(1, 9))
        rows = r.normal(size=(int(r.integers(1, 12)), dim)) * 3
        p = r.normal(size=dim)
        enc = SceneBagEncoder([], WordEmbeddings({}, dim), p)
        pooled, _ = attend(ad.constant(rows), ad.constant(p))
        assert np.array_equal(enc.encode_rows(rows), pooled.data)


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
