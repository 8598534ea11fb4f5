"""Unsupervised scene-descriptor model.

Each scene embedding is explained as a mixture over ``k`` corpus-level
descriptor vectors living in word-embedding space.  A two-layer predictor
maps a scene vector to simplex weights ``o_t``; the reconstruction
``w_t = R^T o_t`` is trained with a max-margin hinge against the scene's
own target vector ``u_t`` (negatives drawn from other scenes of the same
script) plus an orthogonality penalty ``lam * ||R R^T - I||_F`` that keeps
descriptors distinct.

Targets ``u_t`` come from a frozen attention-weighted bag-of-words scene
encoder over a restricted vocabulary, pretrained on the tag task, so
descriptor rows can be read off as their nearest vocabulary words.  The
restricted (descriptor) vocabulary holds only tokens with a vector of their
own in the embedding file: one without would pool, and be read out, as the
shared unknown vector.  Each script's scenes are pooled as one batch,
padded by ``encoders.pad_runs`` like every encoder tier's.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor, clip_grad_norm
from .classifier import ClassifierHead, TagTaxonomy, reweighted_loss
from .corpus import Corpus, WordEmbeddings, scene_tokens
from .encoders import attend, pad_runs
from .errors import (
    InsufficientVocab,
    NonFiniteLoss,
    ScriptTooSmall,
    ZeroDocFrequency,
)
from .parser import Scene, Screenplay

log = logging.getLogger(__name__)

RANDOM_GLOROT = "random_glorot"
KMEANS = "kmeans"


@dataclass(frozen=True)
class DescriptorConfig:
    k: int = 25
    hidden: int = 100
    recurrent: bool = False
    alpha: float = 0.5
    ortho_lambda: float = 10.0
    negatives: int = 5
    lr: float = 5e-3
    max_norm: float = 5.0
    epochs: int = 15
    pretrain_epochs: int = 10
    init: str = RANDOM_GLOROT
    seed: int = 0
    top_words: int = 10

    def to_dict(self) -> dict:
        return {
            "k": self.k, "hidden": self.hidden, "recurrent": self.recurrent,
            "alpha": self.alpha, "ortho_lambda": self.ortho_lambda,
            "negatives": self.negatives, "lr": self.lr,
            "max_norm": self.max_norm, "epochs": self.epochs,
            "pretrain_epochs": self.pretrain_epochs, "init": self.init,
            "seed": self.seed, "top_words": self.top_words,
        }


# ---------------------------------------------------------------------------
# reconstruction target


class SceneBagEncoder:
    """Attention-weighted bag of a scene's restricted-vocabulary words.

    Scenes are pooled with :func:`encoders.attend`, the pool the attention
    vector ``p`` is pretrained through, one batch per script.  ``p``
    is fixed after pretraining and pooling constants builds no graph, so the
    targets are frozen.
    """

    def __init__(self, vocab: Sequence[str], embeddings: WordEmbeddings,
                 p: np.ndarray):
        self.vocab = tuple(vocab)
        self._vocab_set = frozenset(self.vocab)
        self.embeddings = embeddings
        self.p = np.asarray(p, dtype=np.float64)
        self.dim = embeddings.dim

    def script_batch(self, scenes: Sequence[Scene]
                     ) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """The scenes that hold restricted-vocabulary tokens, as a
        right-padded (K, T, d) constant batch of their tokens' embedding
        rows, the (K,) lengths, and their (K,) indices into ``scenes``."""
        tokens, lengths, kept = [], [], []
        for i, scene in enumerate(scenes):
            words = [t for t in scene_tokens(scene) if t in self._vocab_set]
            if words:
                tokens += words
                lengths.append(len(words))
                kept.append(i)
        lengths = np.array(lengths, dtype=np.int64)
        padded = pad_runs(ad.constant(self.embeddings.rows(tokens)), lengths)
        return padded, lengths, np.array(kept, dtype=np.intp)

    def encode_scenes(self, scenes: Sequence[Scene]
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(S, d) pooled scene vectors, zero rows for the scenes without
        restricted-vocabulary tokens, and the indices of the other scenes.

        One :func:`encoders.attend` call pools the script's batch.
        """
        padded, lengths, kept = self.script_batch(scenes)
        vs = np.zeros((len(scenes), self.dim))
        if len(kept):
            vs[kept] = attend(padded, ad.constant(self.p), lengths).data
        return vs, kept

    def encode_scene(self, scene: Scene) -> np.ndarray | None:
        """One scene's pooled vector, or None without restricted tokens."""
        vs, kept = self.encode_scenes([scene])
        return vs[0] if len(kept) else None

    def vocab_matrix(self) -> np.ndarray:
        return self.embeddings.rows(list(self.vocab))


def pretrain_reconstruction_target(corpus: Corpus, attribute: str,
                                   config: DescriptorConfig = DescriptorConfig()
                                   ) -> SceneBagEncoder:
    """Train the target encoder's attention vector on the tag task.

    Scene vectors are aggregated with a plain mean into a script vector fed
    to a linear head; only the attention vector and head are learned.
    """
    vocab = corpus.descriptor_vocab
    if not vocab:
        raise InsufficientVocab("descriptor vocabulary is empty")
    rng = np.random.default_rng(config.seed)
    dim = corpus.embeddings.dim
    p = ad.parameter(ad.glorot(rng, (dim,)))
    train_items = corpus.train_items + corpus.validation_items
    taxonomy = TagTaxonomy.from_items(train_items, attribute)
    head = ClassifierHead(len(taxonomy), dim, rng)
    params = {"target.p": p}
    params.update(head.named_params())
    opt = Adam(params, lr=config.lr)

    # the target pools with p's own array, which Adam updates in place
    target = SceneBagEncoder(vocab, corpus.embeddings, p.data)
    per_script: list[tuple[np.ndarray, Tensor, np.ndarray]] = []
    for it in train_items:
        padded, lengths, _ = target.script_batch(it.screenplay.scenes)
        if len(lengths):
            y = taxonomy.label_vector(it.tags.get(attribute, ()))
            per_script.append((y, padded, lengths))

    for epoch in range(config.pretrain_epochs):
        order = rng.permutation(len(per_script))
        for i in order:
            y, padded, lengths = per_script[int(i)]
            opt.zero_grad()
            scene_vecs = attend(padded, p, lengths)
            script_vec = ad.row(ad.mean_rows(scene_vecs, [len(lengths)]), 0)
            loss = reweighted_loss(y, head.logits(script_vec), taxonomy.lam,
                                   taxonomy.active)
            if not math.isfinite(loss.item()):
                raise NonFiniteLoss(f"target pretraining epoch {epoch + 1}")
            loss.backward()
            clip_grad_norm(params.values(), config.max_norm)
            opt.step()
    return target


# ---------------------------------------------------------------------------
# predictor


class DescriptorPredictor:
    """Two-layer rectifier network ending in a softmax over descriptors."""

    def __init__(self, input_dim: int, hidden: int, k: int,
                 rng: np.random.Generator, recurrent: bool = False,
                 alpha: float = 0.5):
        self.recurrent = recurrent
        self.alpha = alpha
        self.k = k
        in_dim = input_dim + (k if recurrent else 0)
        self.w1 = ad.parameter(ad.glorot(rng, (in_dim, hidden)))
        self.b1 = ad.parameter(np.zeros(hidden))
        self.w2 = ad.parameter(ad.glorot(rng, (hidden, k)))
        self.b2 = ad.parameter(np.zeros(k))

    def ffnn(self, x: Tensor) -> Tensor:
        """(S, in) rows to (S, k) softmax rows."""
        h = ad.relu(ad.add_bias(ad.matmul(x, self.w1), self.b1))
        return ad.softmax(ad.add_bias(ad.matmul(h, self.w2), self.b2))

    def weights(self, vs: np.ndarray, o_prev: np.ndarray | None = None) -> Tensor:
        """(S, k) descriptor weights for (S, d) scene vectors, one graph for
        all S; ``.data`` holds one simplex row per scene.

        When recurrent, row ``t`` of the (S, k) ``o_prev`` is the weights
        entering scene ``t``, a constant (no backpropagation across scenes);
        without it every scene enters with uniform weights.
        """
        if not self.recurrent:
            return self.ffnn(ad.constant(vs))
        if o_prev is None:
            o_prev = np.full((len(vs), self.k), 1.0 / self.k)
        x = ad.constant(np.concatenate([vs, o_prev], axis=1))
        return ad.add(ad.scale(self.ffnn(x), 1.0 - self.alpha),
                      ad.constant(self.alpha * o_prev))

    def rollout(self, vs: np.ndarray) -> np.ndarray:
        """(S, k) weights of a script's scenes in order, as plain arrays.

        One batched call; when recurrent, one scene at a time, each
        entering with the weights of the scene before it (the first with
        uniform weights).
        """
        if not self.recurrent:
            return self.weights(vs).data
        out = np.empty((len(vs), self.k))
        for t in range(len(vs)):
            out[t] = self.weights(vs[t:t + 1], out[t - 1:t] if t else None).data[0]
        return out

    def named_params(self, prefix: str = "predictor") -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


def reconstruct(o: Tensor, r_matrix: Tensor) -> Tensor:
    """w = R^T o: the o-weighted combination of descriptor rows."""
    return ad.matmul(o, r_matrix)


def orthogonality_penalty(r_matrix: Tensor, lam: float) -> Tensor:
    """lam * ||R R^T - I||_F (Frobenius norm)."""
    gram = ad.matmul(r_matrix, ad.transpose(r_matrix))
    diff = ad.sub(gram, ad.constant(np.eye(r_matrix.data.shape[0])))
    return ad.scale(ad.sqrt(ad.total(ad.mul(diff, diff))), lam)


def draw_negatives(rng: np.random.Generator, n_scenes: int,
                   negatives: int) -> np.ndarray:
    """(S, n_eff) negative-scene indices, n_eff = min(negatives, S - 1).

    Row ``t`` holds distinct scenes other than ``t``, drawn scene by scene
    with one ``rng.choice`` over the other scenes each.
    """
    n_eff = min(negatives, n_scenes - 1)
    neg = np.empty((n_scenes, n_eff), dtype=np.intp)
    for t in range(n_scenes):
        picks = rng.choice(n_scenes - 1, size=n_eff, replace=False)
        neg[t] = picks + (picks >= t)  # position among the other scenes
    return neg


def hinge_terms(w: Tensor, us: np.ndarray, neg: np.ndarray) -> Tensor:
    """sum_t sum_j max(0, 1 - w_t.u_t + w_t.u_neg[t, j]) over a script's
    scenes, as one tape node (:func:`autodiff.margin_hinge`).

    ``w`` and ``us`` are (S, d): each scene's reconstruction and target;
    ``neg`` is the (S, n_eff) index array of each scene's negatives.
    """
    if neg.size == 0:
        raise ScriptTooSmall("no negative samples available")
    return ad.margin_hinge(w, us, neg)


def descriptor_loss(w: Tensor, us: np.ndarray, neg: np.ndarray,
                    r_matrix: Tensor, lam: float = 10.0) -> Tensor:
    """One script's loss: its hinge terms plus the orthogonality penalty."""
    return ad.add(hinge_terms(w, us, neg), orthogonality_penalty(r_matrix, lam))


# ---------------------------------------------------------------------------
# descriptor initialization


def kmeans_lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
                 max_iter: int = 100) -> np.ndarray:
    """Standard Lloyd iterations with seeded random-point initialization."""
    n = points.shape[0]
    if n < k:
        raise InsufficientVocab(f"{n} points for {k} clusters")
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignment = np.full(n, -1)
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = dists.argmin(axis=1)
        for j in range(k):
            members = points[new_assignment == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # reseed an empty cluster with the point farthest from its centroid
                worst = int(np.argmax(dists[np.arange(n), new_assignment]))
                centroids[j] = points[worst]
                new_assignment[worst] = j
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centroids


def init_descriptors(mode: str, vocab_embeddings: np.ndarray, k: int = 25,
                     seed: int = 0) -> np.ndarray:
    """(k, d) descriptor matrix, Glorot-random or k-means centroids."""
    rng = np.random.default_rng(seed)
    d = vocab_embeddings.shape[1]
    if mode == RANDOM_GLOROT:
        return ad.glorot(rng, (k, d))
    if mode == KMEANS:
        if vocab_embeddings.shape[0] < k:
            raise InsufficientVocab(
                f"{vocab_embeddings.shape[0]} vocabulary vectors for k={k}")
        return kmeans_lloyd(vocab_embeddings, k, rng)
    raise ValueError(f"unknown init mode {mode!r}")


# ---------------------------------------------------------------------------
# interpretation


def nearest_words(r_matrix: np.ndarray, vocab: Sequence[str],
                  vocab_embeddings: np.ndarray, m: int) -> list[list[str]]:
    """Top-m vocabulary words per descriptor row by cosine similarity.

    Ties break lexicographically so results are deterministic.
    """
    if m <= 0:
        return [[] for _ in range(r_matrix.shape[0])]
    norms = np.linalg.norm(vocab_embeddings, axis=1)
    norms = np.where(norms == 0, 1.0, norms)
    out: list[list[str]] = []
    for row in r_matrix:
        rn = np.linalg.norm(row)
        sims = (vocab_embeddings @ row) / (norms * (rn if rn else 1.0))
        ranked = sorted(zip(vocab, sims), key=lambda kv: (-kv[1], kv[0]))
        out.append([w for w, _ in ranked[:m]])
    return out


def semantic_coherence(clusters: Sequence[Sequence[str]],
                       documents: Iterable[set[str]]) -> list[float]:
    """Mimno-style coherence per cluster over document co-occurrence counts.

    For a cluster's rank-ordered words w_1..w_M:
    sum_{m=2..M} sum_{l<m} log((D(w_m, w_l) + 1) / D(w_l)), with D counting
    documents (scenes) containing the word or word pair.
    """
    docs = [frozenset(d) for d in documents]
    words = {w for cluster in clusters for w in cluster}
    doc_freq: Counter[str] = Counter()
    pair_freq: Counter[tuple[str, str]] = Counter()
    for d in docs:
        present = sorted(words & d)
        doc_freq.update(present)
        for i, a in enumerate(present):
            for b in present[i + 1:]:
                pair_freq[(a, b)] += 1

    def pair(a: str, b: str) -> int:
        return pair_freq[(a, b) if a <= b else (b, a)]

    scores: list[float] = []
    for cluster in clusters:
        for w in cluster:
            if doc_freq[w] == 0:
                raise ZeroDocFrequency(f"{w!r} absent from the corpus")
        score = 0.0
        for m in range(1, len(cluster)):
            for l in range(m):
                w_m, w_l = cluster[m], cluster[l]
                score += math.log((pair(w_m, w_l) + 1) / doc_freq[w_l])
        scores.append(score)
    return scores


# ---------------------------------------------------------------------------
# training


@dataclass
class DescriptorStats:
    initial_fro: float
    final_fro: float
    fro_trace: list[float]
    epoch_losses: list[float]
    simplex_max_deviation: float
    simplex_min_entry: float


class DescriptorModel:
    """Descriptor matrix, predictor, and the frozen reconstruction target."""

    def __init__(self, r_init: np.ndarray, target: SceneBagEncoder,
                 config: DescriptorConfig):
        self.r = ad.parameter(np.array(r_init, dtype=np.float64))
        self.target = target
        self.config = config
        self.predictor = DescriptorPredictor(
            input_dim=target.dim, hidden=config.hidden, k=config.k,
            rng=np.random.default_rng(config.seed + 17),
            recurrent=config.recurrent, alpha=config.alpha)

    def named_params(self) -> dict[str, Tensor]:
        out = {"descriptors.r": self.r}
        out.update(self.predictor.named_params())
        return out

    def fro_distance(self) -> float:
        gram = self.r.data @ self.r.data.T
        return float(np.linalg.norm(gram - np.eye(self.r.data.shape[0])))

    def script_loss(self, us: np.ndarray, neg: np.ndarray
                    ) -> tuple[Tensor, np.ndarray]:
        """One script's training loss over its (S, d) scene targets ``us``
        and (S, n_eff) negatives ``neg``, built as one graph, and its (S, k)
        weights.

        When recurrent, the weights entering each scene come from a
        forward-only rollout and enter the graph as constants.
        """
        o_prev = None
        if self.predictor.recurrent:
            k = self.predictor.k
            o_prev = np.concatenate([np.full((1, k), 1.0 / k),
                                     self.predictor.rollout(us[:-1])])
        o = self.predictor.weights(us, o_prev)
        loss = descriptor_loss(reconstruct(o, self.r), us, neg, self.r,
                               self.config.ortho_lambda)
        return loss, o.data

    def weights_for_script(self, screenplay: Screenplay) -> np.ndarray:
        """(S, k) descriptor weights, one simplex row per scene.

        Scenes without restricted-vocabulary tokens fall back to a zero
        scene vector so the trajectory keeps one row per scene.
        """
        vs, _ = self.target.encode_scenes(screenplay.scenes)
        return self.predictor.rollout(vs)


def train_descriptors(corpus: Corpus, target: SceneBagEncoder,
                      config: DescriptorConfig = DescriptorConfig()
                      ) -> tuple[DescriptorModel, DescriptorStats]:
    """Fit descriptors and predictor against the frozen target encoder.

    One optimizer step per script: hinge terms summed over its scenes plus
    one orthogonality penalty, built as one graph over all its scenes.  The
    recurrent state entering each scene is treated as a constant (no
    backpropagation across scenes).
    """
    vocab_emb = target.vocab_matrix()
    r_init = init_descriptors(config.init, vocab_emb, k=config.k, seed=config.seed)
    model = DescriptorModel(r_init, target, config)
    params = model.named_params()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    items = corpus.train_items + corpus.validation_items
    per_script: list[np.ndarray] = []
    for it in items:
        vs, kept = target.encode_scenes(it.screenplay.scenes)
        if len(kept) < 2:
            log.warning("skipping %s: %s", it.title,
                        ScriptTooSmall(f"{len(kept)} usable scene(s)"))
            continue
        per_script.append(vs[kept])

    stats = DescriptorStats(initial_fro=model.fro_distance(), final_fro=0.0,
                            fro_trace=[], epoch_losses=[],
                            simplex_max_deviation=0.0, simplex_min_entry=np.inf)

    for epoch in range(config.epochs):
        order = rng.permutation(len(per_script))
        losses = []
        for si in order:
            us = per_script[int(si)]
            opt.zero_grad()
            neg = draw_negatives(rng, len(us), config.negatives)
            script_loss, o = model.script_loss(us, neg)
            stats.simplex_max_deviation = max(
                stats.simplex_max_deviation, float(np.abs(o.sum(axis=1) - 1.0).max()))
            stats.simplex_min_entry = min(stats.simplex_min_entry, float(o.min()))
            value = script_loss.item()
            if not math.isfinite(value):
                raise NonFiniteLoss(f"descriptor epoch {epoch + 1}")
            script_loss.backward()
            clip_grad_norm(params.values(), config.max_norm)
            opt.step()
            losses.append(value)
        stats.epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
        stats.fro_trace.append(model.fro_distance())

    stats.final_fro = model.fro_distance()
    return model, stats


def descriptor_report(model: DescriptorModel, documents: Iterable[set[str]],
                      top_m: int | None = None) -> list[dict]:
    """Per-descriptor top words and coherence, JSON-serializable."""
    top_m = top_m if top_m is not None else model.config.top_words
    vocab_emb = model.target.vocab_matrix()
    clusters = nearest_words(model.r.data, model.target.vocab, vocab_emb, top_m)
    coherence = semantic_coherence(clusters, documents)
    return [{"index": i, "top_words": clusters[i], "coherence": coherence[i]}
            for i in range(len(clusters))]
