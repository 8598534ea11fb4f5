"""Unsupervised scene-descriptor model.

Each scene embedding is explained as a mixture over ``k`` corpus-level
descriptor vectors living in word-embedding space.  A two-layer predictor
maps a scene vector to simplex weights ``o_t``; the reconstruction
``w_t = R^T o_t`` is trained with a max-margin hinge against the scene's
own target vector ``u_t`` (negatives drawn from other scenes of the same
script) plus an orthogonality penalty ``lam * ||R R^T - I||_F`` that keeps
descriptors distinct.

One script's loss, predictor to penalty, is one tape node
(:func:`autodiff.mixture_hinge_loss`), and inference runs the same
predictor forward on plain arrays (:func:`autodiff.predictor_pass`),
building no tape.

Targets ``u_t`` come from a frozen attention-weighted bag of each scene's
descriptor words: a softmax attention pool whose one attention vector,
the target's only parameter, is pretrained on the tag task, so descriptor
rows can be read off as their nearest vocabulary words.  A descriptor
word is a vocabulary word with a vector of its own: any other compiles to
the shared unknown row.  The target and the coherence documents read the scripts
compiled at ingest, not their text; pretraining gathers and pads each
script's descriptor-word rows once, since only the attention vector
changes from step to step, and pools them on the tape.  One batch pass
(:meth:`SceneBagEncoder.batch`) picks a compiled script's descriptor
words out of its ids, counts them per scene and pads them, for
pretraining and the frozen target alike.  Once frozen, the target pools
on plain arrays (:func:`autodiff.attention_pass`, the forward of the
pool's tape node), both for the training targets and at inference, and
the predictor's rollout reads its four arrays directly, so trajectory
inference builds no tape at all.  The target reads no embedding row but
its descriptor words' (:meth:`SceneBagEncoder.vocab_matrix`), so a
descriptor checkpoint carries those rows beside ``p``, and a trained model
is rebuilt from its checkpoint alone.
Pretraining and training supply per-script losses to
:func:`classifier.optimizer_epochs`.  A training step draws all of its
script's negatives with one ``rng.integers`` call and replays from those
draws what one ``rng.choice`` call per scene would pick (past 10,000 other
scenes, where ``choice`` may leave Floyd's algorithm, it makes the calls).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .classifier import (
    ClassifierHead,
    TagTaxonomy,
    optimizer_epochs,
    reweighted_loss,
)
from .corpus import CompiledScript, Corpus, TokenVectors
from .encoders import pad_rows
from .errors import InsufficientVocab, ScriptTooSmall, ZeroDocFrequency
from .ioutil import check_intervals
from .parser import Scene, Screenplay

log = logging.getLogger(__name__)

RANDOM_GLOROT = "random_glorot"
KMEANS = "kmeans"
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class DescriptorConfig:
    k: int = field(default=25, metadata={"interval": "[1, inf)"})
    hidden: int = field(default=100, metadata={"interval": "[1, inf)"})
    recurrent: bool = False
    alpha: float = field(default=0.5, metadata={"interval": "[0, 1]"})
    ortho_lambda: float = field(default=10.0, metadata={"interval": "[0, inf)"})
    negatives: int = field(default=5, metadata={"interval": "[1, inf)"})
    lr: float = field(default=5e-3, metadata={"interval": "(0, inf)"})
    max_norm: float = field(default=5.0, metadata={"interval": "(0, inf)"})
    epochs: int = field(default=15, metadata={"interval": "[1, inf)"})
    pretrain_epochs: int = field(default=10, metadata={"interval": "[0, inf)"})
    init: str = RANDOM_GLOROT
    seed: int = field(default=0, metadata={"interval": "[0, inf)"})
    top_words: int = field(default=10, metadata={"interval": "[1, inf)"})

    def __post_init__(self):
        check_intervals(self)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# reconstruction target


class SceneBagEncoder:
    """Attention-weighted bag of each scene's descriptor words: a boolean
    table over the embedding rows picks them out of a compiled script's ids,
    and one softmax attention pool over their padded batch weighs them by
    the attention vector ``p``, a Glorot draw of ``dim`` entries and the
    target's only parameter.  Each word of ``vocab`` must have a row of its
    own in ``vectors``' embeddings.  Pretraining trains ``p`` on the tape
    (:func:`autodiff.attention_pool`); then the targets are frozen and
    :meth:`encode_scenes` pools on plain arrays.
    """

    def __init__(self, vocab: Sequence[str], vectors: TokenVectors,
                 rng: np.random.Generator):
        self.vocab = tuple(vocab)
        self.vectors = vectors
        self.dim = vectors.dim
        self.rows = [vectors.embeddings.index[w] for w in self.vocab]
        self.word_rows = np.zeros(len(vectors.embeddings.matrix), dtype=bool)
        self.word_rows[self.rows] = True
        self.attention = ad.parameter(ad.glorot(rng, (self.dim,)))

    @property
    def p(self) -> np.ndarray:
        return self.attention.data

    def named_params(self) -> dict[str, Tensor]:
        return {"target.p": self.attention}

    def word_ids(self, script: CompiledScript) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and scenes of a compiled script's descriptor words, in order."""
        script = self.vectors.compiled(script)  # refuses another table's ids
        keep = self.word_rows[script.ids]
        return script.ids[keep], np.repeat(script.scenes, script.lengths)[keep]

    def batch(self, script: CompiledScript
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The right-padded (K, T, d) batch of descriptor-word rows of the K
        scenes holding any, its run lengths, and those scenes' indices: the
        words picked out of the ids, counted per scene and padded in one
        pass, for pretraining and the frozen target alike."""
        ids, scene_of = self.word_ids(script)
        runs = np.bincount(scene_of)
        kept = runs.nonzero()[0]
        lengths = runs[kept]
        return pad_rows(self.vectors.embeddings.matrix[ids], lengths), lengths, kept

    def encode_scenes(self, script: CompiledScript | Screenplay
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(S, d) pooled scene vectors, zero rows for the scenes without
        descriptor words, and the indices of the other scenes; on plain
        arrays (:func:`autodiff.attention_pass`), building no tape."""
        script = self.vectors.compiled(script)
        padded, lengths, kept = self.batch(script)
        vs = np.zeros((script.n_scenes, self.dim))
        if kept.size:
            vs[kept] = ad.attention_pass(padded, self.p, lengths)[-1]
        return vs, kept

    def encode_scene(self, scene: Scene) -> np.ndarray | None:
        """One scene's pooled vector, or None without descriptor words."""
        vs, kept = self.encode_scenes(Screenplay("scene", [scene]))
        return vs[0] if len(kept) else None

    def scene_words(self, script: CompiledScript) -> list[set[str]]:
        """Each scene's set of descriptor words: a coherence document."""
        ids, scene_of = self.word_ids(script)
        word_of = dict(zip(self.rows, self.vocab))
        return [{word_of[row] for row in ids[scene_of == s].tolist()}
                for s in range(script.n_scenes)]

    def vocab_matrix(self) -> np.ndarray:
        """The (len(vocab), d) rows of the descriptor words, in ``vocab``
        order: all the target reads of its embeddings."""
        return self.vectors.embeddings.matrix[self.rows]


def pretrain_reconstruction_target(corpus: Corpus, attribute: str,
                                   config: DescriptorConfig = DescriptorConfig()
                                   ) -> SceneBagEncoder:
    """Train the target encoder's attention vector on the tag task.

    Scene vectors are aggregated with a plain mean into a script vector fed
    to a linear head; only the attention vector and head are learned.
    """
    rng = np.random.default_rng(config.seed)
    target = SceneBagEncoder(corpus.descriptor_vocab, corpus.vectors(), rng)
    train_items = corpus.train_items + corpus.validation_items
    taxonomy = TagTaxonomy.from_items(train_items, attribute)
    head = ClassifierHead(len(taxonomy), target.dim, rng)
    params = {**target.named_params(), **head.named_params()}

    # each script's padded word rows, gathered once: only p changes
    per_script = [(it.title, (taxonomy.label_vector(it.tags.get(attribute, ())),
                              *target.batch(it.script)[:2]))
                  for it in train_items if target.word_rows[it.script.ids].any()]

    def loss_of(item: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Tensor:
        y, padded, lengths = item
        scene_vecs = ad.attention_pool(ad.constant(padded), target.attention,
                                       lengths)
        script_vec = ad.row(ad.mean_rows(scene_vecs, [len(lengths)]), 0)
        return reweighted_loss(y, head.logits(script_vec), taxonomy.lam,
                               taxonomy.active)

    for _ in optimizer_epochs("target pretraining", params, per_script, loss_of,
                              rng, config.pretrain_epochs, config.lr,
                              config.max_norm):
        pass
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

    def rollout(self, vs: np.ndarray) -> np.ndarray:
        """(S, k) weights of a script's (S, d) scene vectors in order, on
        plain arrays (:func:`autodiff.predictor_pass`); one simplex row per
        scene.

        One batched call; when recurrent, one scene at a time, each
        entering with the weights of the scene before it (the first with
        uniform weights).
        """
        arrays = (self.w1.data, self.b1.data, self.w2.data, self.b2.data)
        if not self.recurrent:
            return ad.predictor_pass(vs, *arrays)[-1]
        out = np.empty((len(vs), self.k))
        o = np.full((1, self.k), 1.0 / self.k)
        for t in range(len(vs)):
            out[t] = o = ad.predictor_pass(vs[t:t + 1], *arrays, o, self.alpha)[-1]
        return out

    def named_params(self, prefix: str = "predictor") -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


# ``Generator.choice(n, size, replace=False)`` runs Floyd's algorithm and
# then shuffles for populations up to this one; above it, it may take
# another path, which ``draw_negatives`` leaves to ``choice`` itself
_CHOICE_FLOYD_MAX = 10_000


def draw_negatives(rng: np.random.Generator, n_scenes: int,
                   negatives: int) -> np.ndarray:
    """(S, n_eff) negative-scene indices, n_eff = min(negatives, S - 1).

    Row ``t`` holds distinct scenes other than ``t``: those that
    ``rng.choice(S - 1, n_eff, replace=False)`` picks among the other
    scenes, one call per scene, with the generator left in the same state.
    Up to ``_CHOICE_FLOYD_MAX`` other scenes, all the bounded draws those
    calls would make are made by one ``rng.integers`` call over each row's
    bounds, and each row's picks are replayed from them on Python ints.
    """
    n_eff = min(negatives, n_scenes - 1)
    pop = n_scenes - 1
    if pop > _CHOICE_FLOYD_MAX:
        picks = [rng.choice(pop, size=n_eff, replace=False)
                 for _ in range(n_scenes)]
    else:  # Floyd's draws in [0, j], then the shuffle's swaps
        floyd = range(pop - n_eff, pop)
        swaps = range(n_eff - 1, 0, -1)
        draws = rng.integers(0, np.array([*floyd, *swaps], dtype=np.int64) + 1,
                             size=(n_scenes, len(floyd) + len(swaps)))
        picks = []
        for row in map(np.ndarray.tolist, draws):
            seen: set[int] = set()
            for n, j in enumerate(floyd):
                if row[n] in seen:  # Floyd's rule: take j, above all so far
                    row[n] = j
                seen.add(row[n])
            for i, j in zip(swaps, row[n_eff:]):
                row[i], row[j] = row[j], row[i]
            picks.append(row[:n_eff])
    neg = np.array(picks, dtype=np.intp).reshape(n_scenes, n_eff)
    return neg + (neg >= np.arange(n_scenes)[:, None])  # skip scene t itself


# ---------------------------------------------------------------------------
# descriptor initialization


def kmeans_lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Lloyd iterations with seeded random-point initialization."""
    n = points.shape[0]
    if n < k:
        raise InsufficientVocab(f"{n} points for {k} clusters")
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignment = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
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
        and (S, n_eff) negatives ``neg``: the hinge terms summed over its
        scenes plus the orthogonality penalty, as one tape node
        (:func:`autodiff.mixture_hinge_loss`); and its (S, k) weights.

        When recurrent, the weights entering each scene come from a
        forward-only rollout and enter the node as constants.
        """
        if neg.size == 0:
            raise ScriptTooSmall("no negative samples available")
        pred = self.predictor
        o_prev = None
        if pred.recurrent:
            o_prev = np.concatenate([np.full((1, pred.k), 1.0 / pred.k),
                                     pred.rollout(us[:-1])])
        params = (*pred.named_params().values(), self.r)
        return ad.mixture_hinge_loss(params, us, neg, self.config.ortho_lambda,
                                     o_prev, pred.alpha)

    def weights_for_script(self, script: CompiledScript | Screenplay) -> np.ndarray:
        """(S, k) descriptor weights, one simplex row per scene.

        Scenes without descriptor words fall back to a zero scene vector
        so the trajectory keeps one row per scene.
        """
        vs, _ = self.target.encode_scenes(script)
        return self.predictor.rollout(vs)


def train_descriptors(corpus: Corpus, target: SceneBagEncoder,
                      config: DescriptorConfig = DescriptorConfig()
                      ) -> tuple[DescriptorModel, DescriptorStats]:
    """Fit descriptors and predictor against the frozen target encoder.

    One optimizer step per script: hinge terms summed over its scenes plus
    one orthogonality penalty, one tape node over all its scenes.  The
    recurrent state entering each scene is treated as a constant (no
    backpropagation across scenes).
    """
    vocab_emb = target.vocab_matrix()
    r_init = init_descriptors(config.init, vocab_emb, k=config.k, seed=config.seed)
    model = DescriptorModel(r_init, target, config)
    rng = np.random.default_rng(config.seed)

    items = corpus.train_items + corpus.validation_items
    per_script: list[tuple[str, np.ndarray]] = []
    for it in items:
        vs, kept = target.encode_scenes(it.script)
        if len(kept) < 2:
            log.warning("skipping %s: %s", it.title,
                        ScriptTooSmall(f"{len(kept)} usable scene(s)"))
            continue
        per_script.append((it.title, vs[kept]))

    stats = DescriptorStats(initial_fro=model.fro_distance(), final_fro=0.0,
                            fro_trace=[], epoch_losses=[],
                            simplex_max_deviation=0.0, simplex_min_entry=np.inf)

    def loss_of(us: np.ndarray) -> Tensor:
        # negatives are drawn after the epoch's order, from the same generator
        neg = draw_negatives(rng, len(us), config.negatives)
        script_loss, o = model.script_loss(us, neg)
        stats.simplex_max_deviation = max(
            stats.simplex_max_deviation, float(np.abs(o.sum(axis=1) - 1.0).max()))
        stats.simplex_min_entry = min(stats.simplex_min_entry, float(o.min()))
        return script_loss

    for loss in optimizer_epochs("descriptor training", model.named_params(),
                                 per_script, loss_of, rng, config.epochs,
                                 config.lr, config.max_norm):
        stats.epoch_losses.append(loss)
        stats.fro_trace.append(model.fro_distance())

    stats.final_fro = model.fro_distance()
    return model, stats


def descriptor_report(model: DescriptorModel,
                      documents: Iterable[set[str]]) -> list[dict]:
    """Per-descriptor top words and coherence, JSON-serializable."""
    vocab_emb = model.target.vocab_matrix()
    clusters = nearest_words(model.r.data, model.target.vocab, vocab_emb,
                             model.config.top_words)
    coherence = semantic_coherence(clusters, documents)
    return [{"index": i, "top_words": clusters[i], "coherence": coherence[i]}
            for i in range(len(clusters))]
