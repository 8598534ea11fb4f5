"""Multi-label tag classification: reweighted loss, the one tag model (a
script encoder feeding a per-attribute head), the loglines baseline's
encoder under it, the per-script optimizer loop every trainer drives, and
tag training.

The loss reweights each tag's negative term by the tag's ratio of positive
to negative training samples, so rare tags are not drowned out::

    L(y, z) = -(1/(N*L)) sum_ij [ y_ij log s(z_ij)
                                  + lam_j (1 - y_ij) log(1 - s(z_ij)) ]

computed via the stable log-sigmoid, as one tape node
(:func:`autodiff.logistic_loss`).

The optimizer loop logs one INFO progress line per epoch, with the seconds
the epoch took; no result or artifact holds a time, so training is
byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, ClassVar, Iterator, Literal, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor, clip_grad_norm
from .corpus import CompiledScript, CorpusItem, TokenVectors
from .encoders import (
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    SequenceEncoder,
    encode_tokens,
)
from .errors import (
    DataEmpty,
    MissingLogline,
    NonFiniteLoss,
    NoPositives,
    ParameterMismatch,
    ShapeMismatch,
)
from .evaluation import micro_f1
from .parser import Screenplay

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TagTaxonomy:
    """Per-attribute tag inventory with positive/negative reweighting ratios,
    and a tag checkpoint's record of it.

    Tags without at least one positive and one negative training script are
    deactivated: they contribute neither to the loss nor to evaluation.
    """

    attribute: str
    tags: list[str]
    lam: list[float]
    active: list[bool]

    def __post_init__(self):
        if not len(self.tags) == len(self.lam) == len(self.active):
            raise ValueError(f"the manifest's taxonomy has {len(self.tags)} "
                             f"'tags', {len(self.lam)} 'lam' and "
                             f"{len(self.active)} 'active' entries; it needs "
                             f"as many of each")

    @classmethod
    def from_items(cls, items: Sequence[CorpusItem], attribute: str) -> "TagTaxonomy":
        tags = sorted({t for it in items for t in it.tags.get(attribute, ())})
        n = len(items)
        pos = np.zeros(len(tags))
        for it in items:
            present = set(it.tags.get(attribute, ()))
            for j, tag in enumerate(tags):
                if tag in present:
                    pos[j] += 1
        neg = n - pos
        active = (pos >= 1) & (neg >= 1)
        lam = np.where(active, pos / np.maximum(neg, 1), 1.0)
        for j, tag in enumerate(tags):
            if not active[j]:
                log.warning("tag %r (%s) excluded: %d positive / %d negative "
                            "training scripts", tag, attribute, int(pos[j]),
                            int(neg[j]))
        return cls(attribute=attribute, tags=tags, lam=lam.tolist(),
                   active=active.tolist())

    def __len__(self) -> int:
        return len(self.tags)

    def label_vector(self, tag_values: Sequence[str]) -> np.ndarray:
        present = set(tag_values)
        return np.array([1.0 if t in present else 0.0 for t in self.tags])

    def active_tags(self) -> tuple[str, ...]:
        return tuple(t for t, a in zip(self.tags, self.active) if a)

    def tag_set(self, binary: np.ndarray) -> set[str]:
        return {t for t, b, a in zip(self.tags, binary, self.active) if b and a}

    def to_dict(self) -> dict:
        return asdict(self)


def reweighted_loss(y: np.ndarray, z: Tensor, lam: np.ndarray,
                    active: np.ndarray | None = None) -> Tensor:
    """Reweighted multi-label loss over labels ``y`` and logits ``z``, as
    one tape node.

    ``y`` may be (L,) for a single script or (N, L) for a batch; ``z`` must
    match, and ``lam`` and ``active`` must be (L,): nothing is broadcast.
    With every ``lam`` equal to 1 it reduces exactly to mean binary
    cross-entropy.
    """
    y = np.asarray(y, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    tags = y.shape[-1:]
    if y.ndim not in (1, 2) or y.shape != z.data.shape or lam.shape != tags \
            or (active is not None and np.shape(active) != tags):
        raise ShapeMismatch(
            f"reweighted_loss: labels {y.shape}, logits {z.data.shape}, "
            f"lam {lam.shape}, active "
            f"{None if active is None else np.shape(active)}")
    mask = np.ones_like(y) if active is None else \
        np.broadcast_to(np.asarray(active, dtype=np.float64), y.shape)
    denom = float(mask.sum())
    if denom == 0:
        raise DataEmpty("no active tags in the loss")
    return ad.logistic_loss(z, y * mask, (1.0 - y) * lam * mask, -1.0 / denom)


def predict_tags(logits: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Binary predictions: tag on iff sigmoid(z) > threshold (strict)."""
    cut = math.log(threshold / (1.0 - threshold))
    return (np.asarray(logits) > cut).astype(np.int64)


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Micro-averaged AP over all pooled (script, tag) decisions."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    n_pos = y.sum()
    if n_pos == 0:
        raise NoPositives("no positive labels in the evaluation set")
    order = np.argsort(-s, kind="stable")
    hits = y[order]
    precision_at = np.cumsum(hits) / np.arange(1, hits.size + 1)
    return float((precision_at * hits).sum() / n_pos)


# ---------------------------------------------------------------------------
# models


class ClassifierHead:
    """Linear map from an encoder embedding to per-tag logits."""

    def __init__(self, n_tags: int, input_dim: int, rng: np.random.Generator):
        self.w = ad.parameter(ad.glorot(rng, (n_tags, input_dim)))
        self.b = ad.parameter(np.zeros(n_tags))

    def logits(self, vec: Tensor) -> Tensor:
        return ad.add(ad.matmul(self.w, vec), self.b)

    def named_params(self, prefix: str = "head") -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LoglineEncoder:
    """The loglines baseline's encoder: a bidirectional GRU over a logline's
    tokens, taking its final output."""

    def __init__(self, vectors: TokenVectors, hidden_per_direction: int = 50,
                 seed: int = 0):
        self.vectors = vectors
        self.seed = seed
        self.token_encoder = SequenceEncoder(
            EncoderSpec(EncoderKind.GRU, vectors.dim, hidden_per_direction),
            np.random.default_rng(seed))

    @property
    def script_dim(self) -> int:
        return self.token_encoder.output_dim

    def encode_script(self, logline: CompiledScript | Screenplay) -> Tensor:
        """(script_dim,): a compiled logline, or a raw one
        (``logline_screenplay``) compiled here."""
        ids = self.vectors.compiled(logline).ids
        if not ids.size:
            raise MissingLogline("empty logline")
        return ad.row(encode_tokens(ids, [ids.size], self.vectors.embeddings.matrix,
                                    self.token_encoder), 0)

    def named_params(self) -> dict[str, Tensor]:
        return self.token_encoder.named_params("logline")

    def settings(self) -> LoglinesModelSettings:
        return LoglinesModelSettings(
            hidden_per_direction=self.token_encoder.spec.hidden_per_direction,
            seed=self.seed)


@dataclass(frozen=True)
class LoglinesModelSettings:
    """A :class:`LoglineEncoder`'s settings: what a tag checkpoint records
    as its ``model``, and all that rebuilds the encoder."""

    hidden_per_direction: int
    seed: int
    type: Literal["loglines"] = "loglines"
    # the name ``train --variant`` gives this model; not a record key
    variant: ClassVar[str] = "loglines"

    def encoder(self, vectors: TokenVectors) -> LoglineEncoder:
        return LoglineEncoder(vectors, self.hidden_per_direction, self.seed)


class ScriptTagModel:
    """A script encoder plus a per-attribute classification head: the
    hierarchical screenplay encoder, or the loglines baseline's
    :class:`LoglineEncoder`."""

    def __init__(self, encoder: HierarchicalModel | LoglineEncoder, n_tags: int,
                 seed: int = 0):
        self.encoder = encoder
        self.head = ClassifierHead(n_tags, encoder.script_dim,
                                   np.random.default_rng(seed + 1))

    def logits(self, script: CompiledScript | Screenplay) -> Tensor:
        return self.head.logits(self.encoder.encode_script(script))

    def named_params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        out.update(self.head.named_params())
        return out


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-3
    max_norm: float = 5.0
    max_epochs: int = 20
    patience: int = 5
    threshold: float = 0.5
    seed: int = 0
    stop_at_train_f1: float | None = None


@dataclass
class Sample:
    key: str
    x: object
    y: np.ndarray


@dataclass
class LogRow:
    epoch: int
    train_loss: float
    val_ap: float
    lr: float


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    best_epoch: int
    best_val_ap: float
    rows: list[LogRow] = field(default_factory=list)


def make_samples(items: Sequence[CorpusItem], taxonomy: TagTaxonomy,
                 use_loglines: bool = False) -> list[Sample]:
    """One sample per item, holding the script or logline that ingest
    compiled."""
    samples: list[Sample] = []
    for it in items:
        y = taxonomy.label_vector(it.tags.get(taxonomy.attribute, ()))
        x = it.logline_script if use_loglines else it.script
        # a logline with no tokens is as missing as an absent one
        if use_loglines and (x is None or not x.ids.size):
            log.warning("skipping %s: no logline", it.title)
            continue
        samples.append(Sample(it.title, x, y))
    return samples


def logits_of(model, samples: Sequence[Sample]) -> np.ndarray:
    """The one scoring pass: ``model``'s logits, one row per sample."""
    return np.array([model.logits(s.x).data for s in samples])


def validation_ap(model, samples: Sequence[Sample], taxonomy: TagTaxonomy) -> float:
    if not samples:
        return 0.0
    scores = 1.0 / (1.0 + np.exp(-logits_of(model, samples)))
    labels = np.stack([s.y for s in samples])
    keep = np.asarray(taxonomy.active, dtype=bool)
    try:
        return average_precision(scores[:, keep], labels[:, keep])
    except NoPositives:
        return 0.0


def optimizer_epochs(trainer: str, params: dict[str, Tensor],
                     items: Sequence[tuple[str, Any]],
                     loss_of: Callable[[Any], Tensor], rng: np.random.Generator,
                     epochs: int, lr: float, max_norm: float) -> Iterator[float]:
    """One Adam step per ``(key, item)`` in ``items``, in an order drawn
    from ``rng`` each epoch, with the gradient norm clipped to ``max_norm``;
    yields each epoch's mean ``loss_of(item)`` after logging it on one INFO
    line with ``trainer``, the epoch out of ``epochs`` and the seconds the
    epoch's steps took.  Adam updates ``params`` in
    place.  No items raise :class:`DataEmpty`, and a non-finite loss or
    gradient norm raises :class:`NonFiniteLoss`, each naming ``trainer``;
    the latter also names the epoch, the key and the value, and is raised
    before Adam touches a parameter.  A non-finite or non-positive ``lr`` or
    ``max_norm`` raises ``ValueError`` naming ``trainer`` before any step.
    """
    for name, value in (("lr", lr), ("max_norm", max_norm)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{trainer}: {name} must be finite and > 0, "
                             f"got {value!r}")
    if not items:
        raise DataEmpty(f"{trainer}: no script to train on")
    opt = Adam(params, lr=lr)
    for epoch in range(1, epochs + 1):
        losses = []
        start = time.perf_counter()
        for i in rng.permutation(len(items)):
            key, item = items[int(i)]
            opt.zero_grad()
            loss = loss_of(item)
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"{trainer} epoch {epoch}, script {key!r}: loss={value!r}")
            loss.backward()
            try:
                clip_grad_norm(opt, max_norm)
            except NonFiniteLoss as err:
                raise NonFiniteLoss(
                    f"{trainer} epoch {epoch}, script {key!r}: {err}") from None
            opt.step()
            losses.append(value)
        mean = float(np.mean(losses))
        log.info("%s epoch %d/%d: mean loss %.6g, %.2f s", trainer, epoch,
                 epochs, mean, time.perf_counter() - start)
        yield mean


def train(model, train_samples: Sequence[Sample], val_samples: Sequence[Sample],
          taxonomy: TagTaxonomy, config: TrainConfig = TrainConfig()
          ) -> TrainResult:
    """Whole-script SGD: one optimizer step per screenplay.

    Keeps the parameters of the best validation-AP epoch and stops after
    ``patience`` epochs without improvement.  Fully deterministic for a
    fixed seed; the time each epoch took goes to the log
    (:func:`optimizer_epochs`), not into the result.
    """
    if not val_samples:
        log.warning("no validation samples; early stopping uses training AP")
    params = model.named_params()
    rows: list[LogRow] = []
    best_ap = -1.0
    best_epoch = 0
    best_params = {k: t.data.copy() for k, t in params.items()}
    strikes = 0
    train_gold = {s.key: taxonomy.tag_set(s.y) for s in train_samples}

    def loss_of(sample: Sample) -> Tensor:
        return reweighted_loss(sample.y, model.logits(sample.x), taxonomy.lam,
                               taxonomy.active)

    epochs = optimizer_epochs("tag training", params,
                              [(s.key, s) for s in train_samples], loss_of,
                              np.random.default_rng(config.seed),
                              config.max_epochs, config.lr, config.max_norm)
    for epoch, train_loss in enumerate(epochs, 1):
        val_ap = validation_ap(model, val_samples or train_samples, taxonomy)
        rows.append(LogRow(epoch=epoch, train_loss=train_loss,
                           val_ap=val_ap, lr=config.lr))
        if val_ap > best_ap:
            best_ap = val_ap
            best_epoch = epoch
            best_params = {k: t.data.copy() for k, t in params.items()}
            strikes = 0
        else:
            strikes += 1
        if config.stop_at_train_f1 is not None:
            preds = predictions(model, train_samples, taxonomy, config.threshold)
            if micro_f1(preds, train_gold) >= config.stop_at_train_f1:
                break
        if strikes >= config.patience:
            break
    return TrainResult(best_params=best_params, best_epoch=best_epoch,
                       best_val_ap=best_ap, rows=rows)


def load_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint ``arrays`` into ``params`` in place.

    Names must match exactly and each array must have its tensor's exact
    shape; nothing is broadcast, and nothing is written unless all match.
    """
    missing = sorted(set(params) - set(arrays))
    unexpected = sorted(set(arrays) - set(params))
    if missing or unexpected:
        raise ParameterMismatch(f"checkpoint lacks {missing[:5]}; "
                                f"unexpected {unexpected[:5]}")
    wrong = [f"{name} {arrays[name].shape} vs {tensor.data.shape}"
             for name, tensor in sorted(params.items())
             if arrays[name].shape != tensor.data.shape]
    if wrong:
        raise ParameterMismatch(f"checkpoint shapes differ: {'; '.join(wrong[:5])}")
    for name, tensor in params.items():
        tensor.data[...] = arrays[name]


def predictions(model, samples: Sequence[Sample], taxonomy: TagTaxonomy,
                threshold: float = 0.5) -> dict[str, set[str]]:
    """Thresholded tag-name predictions per script key."""
    binary = predict_tags(logits_of(model, samples), threshold)
    return {s.key: taxonomy.tag_set(row) for s, row in zip(samples, binary)}
