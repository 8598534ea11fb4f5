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
descriptor rows can be read off as their nearest vocabulary words.
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
from .encoders import attend
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

    The attention vector is fixed after pretraining; the frozen forward pass
    is plain numpy, so its outputs are bitwise stable by construction.
    """

    def __init__(self, vocab: Sequence[str], embeddings: WordEmbeddings,
                 p: np.ndarray):
        self.vocab = tuple(vocab)
        self._vocab_set = frozenset(self.vocab)
        self.embeddings = embeddings
        self.p = np.asarray(p, dtype=np.float64)
        self.dim = embeddings.dim

    def scene_matrix(self, scene: Scene) -> np.ndarray | None:
        tokens = [t for t in scene_tokens(scene) if t in self._vocab_set]
        if not tokens:
            return None
        return self.embeddings.rows(tokens)

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        scores = rows @ self.p
        shifted = np.exp(scores - scores.max())
        weights = shifted / shifted.sum()
        return weights @ rows

    def encode_scene(self, scene: Scene) -> np.ndarray | None:
        rows = self.scene_matrix(scene)
        if rows is None:
            return None
        return self.encode_rows(rows)

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

    frozen = SceneBagEncoder(vocab, corpus.embeddings, p.data)
    per_script: list[tuple[np.ndarray, list[np.ndarray]]] = []
    for it in train_items:
        mats = [m for m in (frozen.scene_matrix(s) for s in it.screenplay.scenes)
                if m is not None]
        if not mats:
            continue
        y = taxonomy.label_vector(it.tags.get(attribute, ()))
        per_script.append((y, mats))

    for epoch in range(config.pretrain_epochs):
        order = rng.permutation(len(per_script))
        for i in order:
            y, mats = per_script[int(i)]
            opt.zero_grad()
            scene_vecs = []
            for rows in mats:
                pooled, _ = attend(ad.constant(rows), p)
                scene_vecs.append(pooled)
            script_vec = ad.mean_rows(ad.stack(scene_vecs))
            loss = reweighted_loss(y, head.logits(script_vec), taxonomy.lam,
                                   taxonomy.active)
            if not math.isfinite(loss.item()):
                raise NonFiniteLoss(f"target pretraining epoch {epoch + 1}")
            loss.backward()
            clip_grad_norm(params.values(), config.max_norm)
            opt.step()
    return SceneBagEncoder(vocab, corpus.embeddings, p.data.copy())


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
        h = ad.relu(ad.add(ad.matmul(x, self.w1), self.b1))
        return ad.softmax(ad.add(ad.matmul(h, self.w2), self.b2))

    def weights(self, v: np.ndarray, o_prev: np.ndarray | None = None) -> Tensor:
        """Descriptor weights for one scene vector; ``.data`` is the simplex row."""
        if not self.recurrent:
            return self.ffnn(ad.constant(v))
        if o_prev is None:
            o_prev = np.full(self.k, 1.0 / self.k)
        x = ad.constant(np.concatenate([v, o_prev]))
        mixed = ad.add(ad.scale(self.ffnn(x), 1.0 - self.alpha),
                       ad.constant(self.alpha * o_prev))
        return mixed

    def named_params(self, prefix: str = "predictor") -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


def reconstruct(o: Tensor | np.ndarray, r_matrix: Tensor | np.ndarray):
    """w = R^T o: the o-weighted combination of descriptor rows."""
    if isinstance(o, Tensor) or isinstance(r_matrix, Tensor):
        o_t = o if isinstance(o, Tensor) else ad.constant(o)
        r_t = r_matrix if isinstance(r_matrix, Tensor) else ad.constant(r_matrix)
        return ad.matmul(o_t, r_t)
    return np.asarray(o) @ np.asarray(r_matrix)


def orthogonality_penalty(r_matrix: Tensor, lam: float) -> Tensor:
    """lam * ||R R^T - I||_F (Frobenius norm)."""
    gram = ad.matmul(r_matrix, ad.transpose(r_matrix))
    diff = ad.sub(gram, ad.constant(np.eye(r_matrix.data.shape[0])))
    return ad.scale(ad.sqrt(ad.total(ad.mul(diff, diff))), lam)


def hinge_terms(w: Tensor, u_t: np.ndarray,
                negatives: Sequence[np.ndarray]) -> Tensor:
    """sum_j max(0, 1 - w.u_t + w.u_j) over the negative samples."""
    if not negatives:
        raise ScriptTooSmall("no negative samples available")
    pos = ad.dot(w, ad.constant(u_t))
    terms = []
    for u_j in negatives:
        margin = ad.add(ad.sub(ad.constant(np.asarray(1.0)), pos),
                        ad.dot(w, ad.constant(u_j)))
        terms.append(ad.relu(margin))
    out = terms[0]
    for t in terms[1:]:
        out = ad.add(out, t)
    return out


def descriptor_loss(w: Tensor, u_t: np.ndarray, negatives: Sequence[np.ndarray],
                    r_matrix: Tensor, lam: float = 10.0) -> Tensor:
    """Hinge reconstruction loss for one scene plus the orthogonality penalty."""
    return ad.add(hinge_terms(w, u_t, negatives),
                  orthogonality_penalty(r_matrix, lam))


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

    def weights_for_script(self, screenplay: Screenplay) -> np.ndarray:
        """(S, k) descriptor weights, one simplex row per scene.

        Scenes without restricted-vocabulary tokens fall back to a zero
        scene vector so the trajectory keeps one row per scene.
        """
        o_prev: np.ndarray | None = None
        rows = []
        for scene in screenplay.scenes:
            u = self.target.encode_scene(scene)
            v = u if u is not None else np.zeros(self.target.dim)
            o = self.predictor.weights(v, o_prev).data
            rows.append(o)
            o_prev = o
        return np.stack(rows) if rows else np.zeros((0, self.config.k))


def train_descriptors(corpus: Corpus, target: SceneBagEncoder,
                      config: DescriptorConfig = DescriptorConfig()
                      ) -> tuple[DescriptorModel, DescriptorStats]:
    """Fit descriptors and predictor against the frozen target encoder.

    One optimizer step per script: hinge terms summed over its scenes plus
    one orthogonality penalty.  The recurrent state entering each scene is
    treated as a constant (no backpropagation across scenes).
    """
    vocab_emb = target.vocab_matrix()
    r_init = init_descriptors(config.init, vocab_emb, k=config.k, seed=config.seed)
    model = DescriptorModel(r_init, target, config)
    params = model.named_params()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)

    items = corpus.train_items + corpus.validation_items
    per_script: list[list[np.ndarray]] = []
    for it in items:
        us = [u for u in (target.encode_scene(s) for s in it.screenplay.scenes)
              if u is not None]
        if len(us) < 2:
            log.warning("skipping %s: %s", it.title,
                        ScriptTooSmall(f"{len(us)} usable scene(s)"))
            continue
        per_script.append(us)

    stats = DescriptorStats(initial_fro=model.fro_distance(), final_fro=0.0,
                            fro_trace=[], epoch_losses=[],
                            simplex_max_deviation=0.0, simplex_min_entry=np.inf)

    for epoch in range(config.epochs):
        order = rng.permutation(len(per_script))
        losses = []
        for si in order:
            us = per_script[int(si)]
            opt.zero_grad()
            o_prev: np.ndarray | None = None
            script_loss: Tensor | None = None
            for t, u_t in enumerate(us):
                o = model.predictor.weights(u_t, o_prev)
                dev = abs(float(o.data.sum()) - 1.0)
                stats.simplex_max_deviation = max(stats.simplex_max_deviation, dev)
                stats.simplex_min_entry = min(stats.simplex_min_entry,
                                              float(o.data.min()))
                w = reconstruct(o, model.r)
                n_eff = min(config.negatives, len(us) - 1)
                others = [j for j in range(len(us)) if j != t]
                picks = rng.choice(len(others), size=n_eff, replace=False)
                negatives = [us[others[int(j)]] for j in picks]
                term = hinge_terms(w, u_t, negatives)
                script_loss = term if script_loss is None \
                    else ad.add(script_loss, term)
                o_prev = o.data
            script_loss = ad.add(script_loss,
                                 orthogonality_penalty(model.r,
                                                       config.ortho_lambda))
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
