"""``autodiff.Adam``'s flat store and ``clip_grad_norm`` against the
per-array oracle in ``optimizer_oracle``: whole trainings bit for bit, and
the store's own cases (a hand-assigned gradient, an unreached parameter,
a tensor handed to a second store, the layout)."""

import numpy as np
import pytest

import optimizer_oracle as oracle
from scenewise import autodiff as ad
from scenewise import classifier
from scenewise import descriptors as dsc
from scenewise.classifier import (
    LoglineEncoder,
    ScriptTagModel,
    TagTaxonomy,
    TrainConfig,
    make_samples,
    train,
)
from scenewise.corpus import IngestConfig, SynthSpec, generate_synthetic_corpus, ingest
from scenewise.descriptors import (
    DescriptorConfig,
    pretrain_reconstruction_target,
    train_descriptors,
)
from scenewise.encoders import EncoderKind, EncoderSpec, HierarchicalModel, Variant
from scenewise.errors import ShapeMismatch


def rng(seed):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("optimizer_synth")
    generate_synthetic_corpus(out, SynthSpec(
        n_scripts=12, n_tags=3, signal=1.0, seed=21, scenes_range=(4, 6),
        statements_range=(3, 5), embedding_dim=12))
    config = IngestConfig(min_count=2, heldout_fraction=0.2,
                          validation_fraction=0.2, seed=1,
                          descriptor_min_movies=2, descriptor_top_exclude=30,
                          expected_dim=12)
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       config, out / "loglines.json")
    return corpus


DESCRIPTORS = DescriptorConfig(k=4, hidden=8, epochs=3, pretrain_epochs=2,
                               negatives=3, seed=7)


def arrays(params):
    return {k: t.data.copy() for k, t in params.items()}


def pretrain(corpus):
    return arrays(pretrain_reconstruction_target(corpus, "genre", DESCRIPTORS)
                  .named_params()), None


def descriptors(corpus, recurrent):
    config = DescriptorConfig(**{**vars(DESCRIPTORS), "recurrent": recurrent})
    target = pretrain_reconstruction_target(corpus, "genre", config)
    model, stats = train_descriptors(corpus, target, config)
    return arrays({**target.named_params(), **model.named_params()}), stats


def tag_training(corpus, kind):
    vectors = corpus.vectors()
    taxonomy = TagTaxonomy.from_items(corpus.train_items + corpus.validation_items,
                                      "genre")
    if kind == "loglines":
        model = ScriptTagModel(LoglineEncoder(vectors, hidden_per_direction=3,
                                              seed=4), len(taxonomy), seed=4)
    else:
        spec = EncoderSpec(EncoderKind(kind), input_dim=vectors.dim,
                           hidden_per_direction=3)
        model = ScriptTagModel(HierarchicalModel(
            spec=spec, variant=Variant.FULL, vectors=vectors,
            characters=corpus.characters(), seed=4), len(taxonomy), seed=4)
    use_loglines = kind == "loglines"
    result = train(model, make_samples(corpus.train_items, taxonomy, use_loglines),
                   make_samples(corpus.validation_items, taxonomy, use_loglines),
                   taxonomy, TrainConfig(max_epochs=3, patience=3, seed=4))
    best = {f"best.{k}": v for k, v in result.best_params.items()}
    return ({**arrays(model.named_params()), **best},
            (result.rows, result.best_epoch, result.best_val_ap))


TRAININGS = {
    "pretraining": pretrain,
    "descriptors_plain": lambda c: descriptors(c, False),
    "descriptors_recurrent": lambda c: descriptors(c, True),
    "boe": lambda c: tag_training(c, "boe"),
    "gru_attn": lambda c: tag_training(c, "gru_attn"),
    "loglines": lambda c: tag_training(c, "loglines"),
}


def recorded(fit, corpus):
    """``fit(corpus)``'s parameter arrays and stats, and every epoch loss
    ``optimizer_epochs`` yielded."""
    losses = []
    run_epochs = classifier.optimizer_epochs

    def recording(*args, **kwargs):
        for loss in run_epochs(*args, **kwargs):
            losses.append(loss)
            yield loss

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifier, "optimizer_epochs", recording)
        patch.setattr(dsc, "optimizer_epochs", recording)
        return (*fit(corpus), losses)


@pytest.mark.parametrize("name", TRAININGS)
def test_training_on_the_store_equals_the_per_array_optimizer(corpus, name):
    params, stats, losses = recorded(TRAININGS[name], corpus)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifier, "Adam", oracle.Adam)
        patch.setattr(classifier, "clip_grad_norm", oracle.clip_grad_norm)
        want_params, want_stats, want_losses = recorded(TRAININGS[name], corpus)
    assert len(losses) >= 2 and losses == want_losses
    assert params.keys() == want_params.keys()
    for key, value in want_params.items():
        assert np.array_equal(params[key], value), key
    assert stats == want_stats


def test_backward_writes_a_parameter_gradient_into_its_store_slice():
    w = ad.parameter(rng(1).normal(size=(3, 2)))
    opt = ad.Adam({"w": w})
    x = ad.constant(rng(2).normal(size=(4, 3)))
    ad.backward(ad.logistic_loss(ad.matmul(x, w), np.ones((4, 2)),
                                 np.zeros((4, 2)), 1.0))
    first = w.grad
    assert np.shares_memory(first, opt.grad)
    expected = first.copy()
    ad.backward(ad.logistic_loss(ad.matmul(x, w), np.ones((4, 2)),
                                 np.zeros((4, 2)), 1.0))
    assert w.grad is first and np.array_equal(w.grad, expected)


def test_store_lays_out_parameters_in_order_on_cache_lines():
    shapes = [(3,), (), (5, 7), (0,), (9,)]
    params = {f"p{i}": ad.parameter(rng(i).normal(size=s))
              for i, s in enumerate(shapes)}
    values = {k: t.data.copy() for k, t in params.items()}
    opt = ad.Adam(params)
    offsets = []
    for k, t in params.items():
        assert np.array_equal(t.data, values[k]) and t.data.shape == values[k].shape
        for view in (t.data, t._grad_slice, opt.m[k], opt.v[k]):
            assert view.size == 0 or view.ctypes.data % 64 == 0, k
        if t.data.size:
            offsets.append((t._grad_slice.ctypes.data - opt.grad.ctypes.data) // 8)
    assert offsets == [0, 8, 16, 56] and opt.grad.size == 72


def test_adam_copies_a_hand_assigned_gradient_into_its_slice():
    p = ad.parameter(np.array([1.0, -2.0, 3.0]))
    opt = ad.Adam({"p": p})
    given = np.array([0.5, 0.25, -1.0])
    p.grad = given
    opt.step()
    assert np.shares_memory(p.grad, opt.grad) and p.grad is not given
    assert np.array_equal(p.grad, [0.5, 0.25, -1.0])
    assert np.array_equal(given, [0.5, 0.25, -1.0])
    p.grad = np.zeros(2)
    with pytest.raises(ShapeMismatch, match=r"^Adam: p gradient \(2,\) vs "
                                            r"parameter \(3,\)$"):
        opt.step()


def per_array_steps(make, gradients, max_norm):
    """Parameter values, moments and clip factors after stepping the store
    and the oracle through ``gradients``, a list of {name: array or None}."""
    out = []
    for adam, clip in ((ad.Adam, ad.clip_grad_norm),
                       (oracle.Adam, oracle.clip_grad_norm)):
        params = make()
        opt = adam(params, lr=1e-2)
        factors = []
        for grads in gradients:
            opt.zero_grad()
            for k, g in grads.items():
                params[k].grad = None if g is None else g.copy()
            factors.append(clip(opt, max_norm))
            opt.step()
        out.append(({k: t.data.copy() for k, t in params.items()},
                    {k: m.copy() for k, m in opt.m.items()},
                    {k: v.copy() for k, v in opt.v.items()}, factors))
    return out


def assert_same(got, want):
    for part, (mine, theirs) in enumerate(zip(got[:3], want[:3])):
        for k in theirs:
            assert np.array_equal(mine[k], theirs[k]), (part, k)
    assert got[3] == want[3]


def test_unreached_parameter_steps_as_zero_and_is_not_clipped():
    def make():
        return {"a": ad.parameter(rng(3).normal(size=4)),
                "spare": ad.parameter(rng(4).normal(size=(2, 3)))}

    big = 40.0 * rng(5).normal(size=4)
    gradients = [{"a": big, "spare": rng(6).normal(size=(2, 3))},
                 {"a": big, "spare": None},  # the slice still holds step 1's
                 {"a": 0.01 * big, "spare": None}]
    got, want = per_array_steps(make, gradients, 5.0)
    assert got[3][1] == 5.0 / float(np.sqrt(np.sum(big * big)))
    assert_same(got, want)


SHAPES = [(5, 100), (100, 100), (100,), (3, 210), (150,), (31500,), (), (7, 1)]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e200], ids=str)
def test_clip_and_step_equal_the_per_array_oracle_bitwise(scale):
    # 42,908 entries with padding, in two blocks of whole arrays; 1e200
    # overflows the norm
    def make():
        return {f"p{i}": ad.parameter(rng(10 + i).normal(size=s))
                for i, s in enumerate(SHAPES)}

    gradients = [{f"p{i}": scale * rng(100 * step + i).normal(size=s)
                  for i, s in enumerate(SHAPES)} for step in range(4)]
    gradients[2]["p3"] = None
    with np.errstate(over="raise"):
        got, want = per_array_steps(make, gradients, 5.0)
    assert_same(got, want)


def test_store_blocks_are_runs_of_whole_arrays():
    sizes = [20000, 10000, 5000, 40000, 3]
    params = {f"p{i}": ad.parameter(np.zeros(n)) for i, n in enumerate(sizes)}
    opt = ad.Adam(params)
    # p3 is longer than a block and stands alone; p4's slice is padded to 8
    for part in range(6):
        assert [len(block[part]) for block in opt._blocks] == [30000, 5000, 40000, 8]
    assert [block[6] for block in opt._blocks] == [
        [(0, 0, 20000), (1, 20000, 30000)], [(2, 0, 5000)], [(3, 0, 40000)],
        [(4, 0, 3)]]
    assert ad.Adam({})._blocks[0][0].size == 0


def test_a_later_adam_takes_the_tensor_and_the_earlier_one_refuses_it():
    w = ad.parameter(np.array([1.0, 2.0]))
    first = ad.Adam({"w": w})
    w.grad = np.array([0.5, -0.5])
    first.step()
    moved = w.data.copy()
    second = ad.Adam({"w": w}, lr=0.1)
    assert np.array_equal(w.data, moved)
    assert not np.shares_memory(w.data, first._blocks[0][0])
    w.grad = np.array([1.0, 1.0])
    second.step()
    assert np.all(w.data < moved)
    after = w.data.copy()
    for call in (first.step, lambda: ad.clip_grad_norm(first, 5.0)):
        with pytest.raises(RuntimeError, match=r"^Adam: parameter 'w' moved "
                                               r"to a later Adam's store$"):
            call()
    assert np.array_equal(w.data, after)


def test_adam_refuses_one_tensor_under_two_names():
    w = ad.parameter(np.zeros(2))
    with pytest.raises(ValueError, match="^Adam: one tensor under two names$"):
        ad.Adam({"w": w, "tied": w})
