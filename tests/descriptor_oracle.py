"""The composed descriptor predictor and loss, the tape-built target pool
and the per-scene negative draw, kept as the tests' oracles.

``weights`` builds the predictor from primitive tape ops, most of them
from ``tape_ops`` (``matmul``, ``add_bias``, ``relu``, ``softmax``, and
``scale`` and ``add`` for the recurrent mix), and ``rollout`` runs it
scene by scene on the tape.
``descriptor_loss`` adds ``hinge_terms``, one ``margin_hinge`` node over
the reconstructions ``reconstruct`` makes, to ``orthogonality_penalty``,
which is ``matmul``, ``transpose``, ``sub``, ``mul``, ``total``, ``sqrt``
and ``scale``.  ``script_loss`` is a script's loss from these, as
``DescriptorModel.script_loss`` once built it.
``scenewise.autodiff.mixture_hinge_loss`` makes one node instead, and
``DescriptorPredictor.rollout`` runs ``autodiff.predictor_pass`` on plain
arrays; the tests check that their values and gradients equal these
compositions' bit for bit.  ``pretrain_reconstruction_target`` gathers
and pads each script's descriptor-word rows again at every step, as
pretraining once did.
``pool`` pads a script's descriptor-word rows with ``pad_runs`` and pools
them through one ``attention_pool`` node at the target's ``p``, and
``encode_scenes`` scatters that into one row per scene, as
``SceneBagEncoder`` once did on the tape; ``draw_negatives`` makes one
``rng.choice`` call per scene.
"""

from __future__ import annotations

import numpy as np

from scenewise import autodiff as ad
from scenewise.autodiff import Tensor, _op
from scenewise.classifier import (
    ClassifierHead,
    TagTaxonomy,
    optimizer_epochs,
    reweighted_loss,
)
from scenewise.descriptors import DescriptorConfig, SceneBagEncoder
from scenewise.encoders import pad_runs
from scenewise.errors import ScriptTooSmall, ShapeMismatch

from tape_ops import (add_bias, mul, relu, scale, softmax, sqrt, sub, total,
                      transpose)


def ffnn(pred, x: Tensor) -> Tensor:
    """(S, in) rows to (S, k) softmax rows."""
    h = relu(add_bias(ad.matmul(x, pred.w1), pred.b1))
    return softmax(add_bias(ad.matmul(h, pred.w2), pred.b2))


def weights(pred, vs: np.ndarray, o_prev: np.ndarray | None = None) -> Tensor:
    """(S, k) descriptor weights for (S, d) scene vectors, one graph for
    all S.  When recurrent, row ``t`` of the (S, k) ``o_prev`` is the
    weights entering scene ``t``, a constant; without it every scene enters
    with uniform weights."""
    if not pred.recurrent:
        return ffnn(pred, ad.constant(vs))
    if o_prev is None:
        o_prev = np.full((len(vs), pred.k), 1.0 / pred.k)
    x = ad.constant(np.concatenate([vs, o_prev], axis=1))
    return ad.add(scale(ffnn(pred, x), 1.0 - pred.alpha),
                  ad.constant(pred.alpha * o_prev))


def rollout(pred, vs: np.ndarray) -> np.ndarray:
    """(S, k) weights of a script's scenes in order, on the tape."""
    if not pred.recurrent:
        return weights(pred, vs).data
    out = np.empty((len(vs), pred.k))
    for t in range(len(vs)):
        out[t] = weights(pred, vs[t:t + 1], out[t - 1:t] if t else None).data[0]
    return out


def reconstruct(o: Tensor, r_matrix: Tensor) -> Tensor:
    """w = R^T o: the o-weighted combination of descriptor rows."""
    return ad.matmul(o, r_matrix)


def orthogonality_penalty(r_matrix: Tensor, lam: float) -> Tensor:
    """lam * ||R R^T - I||_F (Frobenius norm)."""
    gram = ad.matmul(r_matrix, transpose(r_matrix))
    diff = sub(gram, ad.constant(np.eye(r_matrix.data.shape[0])))
    return scale(sqrt(total(mul(diff, diff))), lam)


def margin_hinge(w: Tensor, targets: np.ndarray, neg: np.ndarray) -> Tensor:
    """sum_t sum_j max(0, 1 - w_t.u_t + w_t.u_neg[t, j]), as one tape node;
    the gradient flows to ``w`` only."""
    u = np.asarray(targets, dtype=np.float64)
    neg = np.asarray(neg)
    if w.data.ndim != 2 or u.shape != w.data.shape or neg.ndim != 2 \
            or neg.shape[0] != u.shape[0]:
        raise ShapeMismatch(f"margin_hinge: w {w.data.shape}, targets {u.shape}, "
                            f"negatives {neg.shape}")
    scores = w.data @ u.T  # scores[t, s] = w_t . u_s
    margins = (1.0 - np.diagonal(scores)[:, None]
               + np.take_along_axis(scores, neg, axis=1))
    active = (margins > 0).astype(np.float64)

    def vjp(g: np.ndarray) -> tuple:
        hits = np.zeros_like(scores)
        np.put_along_axis(hits, neg, active, axis=1)
        return (float(g) * (hits @ u - active.sum(axis=1)[:, None] * u),)

    return _op(np.asarray(np.maximum(margins, 0.0).sum()), (w,), vjp)


def hinge_terms(w: Tensor, us: np.ndarray, neg: np.ndarray) -> Tensor:
    """The hinge summed over a script's scenes; no negatives raise."""
    if neg.size == 0:
        raise ScriptTooSmall("no negative samples available")
    return margin_hinge(w, us, neg)


def descriptor_loss(w: Tensor, us: np.ndarray, neg: np.ndarray,
                    r_matrix: Tensor, lam: float = 10.0) -> Tensor:
    """One script's loss: its hinge terms plus the orthogonality penalty."""
    return ad.add(hinge_terms(w, us, neg), orthogonality_penalty(r_matrix, lam))


def script_loss(model, us: np.ndarray, neg: np.ndarray
                ) -> tuple[Tensor, np.ndarray]:
    """A ``DescriptorModel``'s loss over one script, and its (S, k)
    weights, built from the compositions above."""
    pred = model.predictor
    o_prev = None
    if pred.recurrent:
        o_prev = np.concatenate([np.full((1, pred.k), 1.0 / pred.k),
                                 rollout(pred, us[:-1])])
    o = weights(pred, us, o_prev)
    loss = descriptor_loss(reconstruct(o, model.r), us, neg, model.r,
                           model.config.ortho_lambda)
    return loss, o.data


def pretrain_reconstruction_target(corpus, attribute: str,
                                   config: DescriptorConfig) -> SceneBagEncoder:
    """The target's pretraining, pooling each script from its compiled ids
    at every step."""
    rng = np.random.default_rng(config.seed)
    target = SceneBagEncoder(corpus.descriptor_vocab, corpus.vectors(), rng)
    train_items = corpus.train_items + corpus.validation_items
    taxonomy = TagTaxonomy.from_items(train_items, attribute)
    head = ClassifierHead(len(taxonomy), target.dim, rng)
    params = {**target.named_params(), **head.named_params()}
    per_script = [(it.title, (taxonomy.label_vector(it.tags.get(attribute, ())),
                              it.script))
                  for it in train_items if target.word_rows[it.script.ids].any()]

    def loss_of(item) -> Tensor:
        y, script = item
        scene_vecs, kept = pool(target, script)
        script_vec = ad.row(ad.mean_rows(scene_vecs, [len(kept)]), 0)
        return reweighted_loss(y, head.logits(script_vec), taxonomy.lam,
                               taxonomy.active)

    for _ in optimizer_epochs("target pretraining", params, per_script, loss_of,
                              rng, config.pretrain_epochs, config.lr,
                              config.max_norm):
        pass
    return target


def pool(target: SceneBagEncoder, script) -> tuple[Tensor | None, np.ndarray]:
    """(K, d) pooled vectors of the K scenes of a compiled script holding
    descriptor words, on the tape, and their indices; None when there are
    none."""
    ids, scene_of = target.word_ids(script)
    kept = np.flatnonzero(runs := np.bincount(scene_of))
    if not kept.size:
        return None, kept
    lengths = runs[kept]
    rows = ad.constant(target.vectors.embeddings.matrix[ids])
    padded = pad_runs(rows, lengths)
    return ad.attention_pool(padded, target.attention, lengths), kept


def encode_scenes(target: SceneBagEncoder, script
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(S, d) scene vectors from ``pool``, zero rows for the scenes without
    descriptor words, and the indices of the other scenes."""
    script = target.vectors.compiled(script)
    pooled, kept = pool(target, script)
    vs = np.zeros((script.n_scenes, target.dim))
    if pooled is not None:
        vs[kept] = pooled.data
    return vs, kept


def draw_negatives(rng: np.random.Generator, n_scenes: int,
                   negatives: int) -> np.ndarray:
    """(S, n_eff) negative-scene indices, scene by scene: one
    ``rng.choice`` over the other scenes each."""
    n_eff = min(negatives, n_scenes - 1)
    neg = np.empty((n_scenes, n_eff), dtype=np.intp)
    for t in range(n_scenes):
        picks = rng.choice(n_scenes - 1, size=n_eff, replace=False)
        neg[t] = picks + (picks >= t)  # position among the other scenes
    return neg
