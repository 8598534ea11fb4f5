"""Multi-label tag classification: reweighted loss, prediction heads,
training loop, and the loglines baseline.

The loss reweights each tag's negative term by the tag's ratio of positive
to negative training samples, so rare tags are not drowned out::

    L(y, z) = -(1/(N*L)) sum_ij [ y_ij log s(z_ij)
                                  + lam_j (1 - y_ij) log(1 - s(z_ij)) ]

computed via the stable log-sigmoid.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

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
)
from .evaluation import micro_f1
from .parser import Screenplay

log = logging.getLogger(__name__)


@dataclass
class TagTaxonomy:
    """Per-attribute tag inventory with positive/negative reweighting ratios.

    Tags without at least one positive and one negative training script are
    deactivated: they contribute neither to the loss nor to evaluation.
    """

    attribute: str
    tags: tuple[str, ...]
    lam: np.ndarray
    active: np.ndarray

    @classmethod
    def from_items(cls, items: Sequence[CorpusItem], attribute: str) -> "TagTaxonomy":
        tags = tuple(sorted({t for it in items for t in it.tags.get(attribute, ())}))
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
        return cls(attribute=attribute, tags=tags, lam=lam, active=active)

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
        return {"attribute": self.attribute, "tags": list(self.tags),
                "lam": [float(v) for v in self.lam],
                "active": [bool(v) for v in self.active]}

    @classmethod
    def from_dict(cls, d: dict) -> "TagTaxonomy":
        return cls(attribute=d["attribute"], tags=tuple(d["tags"]),
                   lam=np.asarray(d["lam"]), active=np.asarray(d["active"]))


def reweighted_loss(y: np.ndarray, z: Tensor, lam: np.ndarray,
                    active: np.ndarray | None = None) -> Tensor:
    """Reweighted multi-label loss over labels ``y`` and logits ``z``.

    ``y`` may be (L,) for a single script or (N, L) for a batch; ``z`` must
    match.  With every ``lam`` equal to 1 it reduces exactly to mean binary
    cross-entropy.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != z.data.shape:
        raise ValueError(f"labels {y.shape} vs logits {z.data.shape}")
    lam = np.asarray(lam, dtype=np.float64)
    mask = np.ones_like(y) if active is None else \
        np.broadcast_to(np.asarray(active, dtype=np.float64), y.shape)
    denom = float(mask.sum())
    if denom == 0:
        raise DataEmpty("no active tags in the loss")
    c_pos = y * mask
    c_neg = (1.0 - y) * lam * mask
    pos = ad.mul(ad.constant(c_pos), ad.logsigmoid(z))
    neg = ad.mul(ad.constant(c_neg), ad.logsigmoid(ad.neg(z)))
    return ad.scale(ad.total(ad.add(pos, neg)), -1.0 / denom)


def predict_tags(logits: np.ndarray | Tensor, threshold: float = 0.5) -> np.ndarray:
    """Binary predictions: tag on iff sigmoid(z) > threshold (strict)."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    cut = math.log(threshold / (1.0 - threshold))
    return (z > cut).astype(np.int64)


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


class ScriptTagModel:
    """Hierarchical script encoder plus a per-attribute classification head."""

    def __init__(self, encoder: HierarchicalModel, n_tags: int, seed: int = 0):
        self.encoder = encoder
        self.head = ClassifierHead(n_tags, encoder.script_dim,
                                   np.random.default_rng(seed + 1))

    def logits(self, script: CompiledScript | Screenplay) -> Tensor:
        return self.head.logits(self.encoder.encode_script(script))

    def named_params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        out.update(self.head.named_params())
        return out


class LoglinesModel:
    """Bidirectional GRU over logline tokens feeding a linear classifier."""

    def __init__(self, vectors: TokenVectors, n_tags: int,
                 hidden_per_direction: int = 50, seed: int = 0):
        self.vectors = vectors
        self.encoder = SequenceEncoder(
            EncoderSpec(EncoderKind.GRU, vectors.dim, hidden_per_direction),
            np.random.default_rng(seed))
        self.head = ClassifierHead(n_tags, self.output_dim,
                                   np.random.default_rng(seed + 1))

    @property
    def output_dim(self) -> int:
        return self.encoder.output_dim

    def encode(self, logline: CompiledScript | Screenplay) -> Tensor:
        """Encode a compiled logline, or a raw one (``logline_screenplay``)
        compiled here."""
        ids = self.vectors.compiled(logline).ids
        if not ids.size:
            raise MissingLogline("empty logline")
        return ad.row(encode_tokens(ids, [ids.size], self.vectors.embeddings.matrix,
                                    self.encoder), 0)

    def logits(self, logline: CompiledScript | Screenplay) -> Tensor:
        return self.head.logits(self.encode(logline))

    def named_params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params("logline")
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

    def to_dict(self) -> dict:
        return {"lr": self.lr, "max_norm": self.max_norm,
                "max_epochs": self.max_epochs, "patience": self.patience,
                "threshold": self.threshold, "seed": self.seed,
                "stop_at_train_f1": self.stop_at_train_f1}


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
    wallclock: float | None = None


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
            log.warning("skipping %s: %s", it.title, MissingLogline(it.title))
            continue
        samples.append(Sample(it.title, x, y))
    return samples


def scores_for(model, samples: Sequence[Sample]) -> np.ndarray:
    """Sigmoid scores, one row per sample."""
    rows = []
    for s in samples:
        z = model.logits(s.x).data
        rows.append(1.0 / (1.0 + np.exp(-z)))
    return np.stack(rows)


def validation_ap(model, samples: Sequence[Sample], taxonomy: TagTaxonomy) -> float:
    if not samples:
        return 0.0
    scores = scores_for(model, samples)
    labels = np.stack([s.y for s in samples])
    keep = taxonomy.active.astype(bool)
    try:
        return average_precision(scores[:, keep], labels[:, keep])
    except NoPositives:
        return 0.0


def train(model, train_samples: Sequence[Sample], val_samples: Sequence[Sample],
          taxonomy: TagTaxonomy, config: TrainConfig = TrainConfig(),
          timing: bool = False) -> TrainResult:
    """Whole-script SGD: one optimizer step per screenplay.

    Keeps the parameters of the best validation-AP epoch and stops after
    ``patience`` epochs without improvement.  Fully deterministic for a
    fixed seed (the optional wallclock column is the one nondeterministic
    field and is off by default).
    """
    if not train_samples:
        raise DataEmpty("no training samples")
    if not val_samples:
        log.warning("no validation samples; early stopping uses training AP")
    params = model.named_params()
    opt = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    rows: list[LogRow] = []
    best_ap = -1.0
    best_epoch = 0
    best_params = {k: t.data.copy() for k, t in params.items()}
    strikes = 0
    train_gold = {s.key: taxonomy.tag_set(s.y) for s in train_samples}
    start = time.monotonic()

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_samples))
        losses = []
        for i in order:
            sample = train_samples[int(i)]
            opt.zero_grad()
            z = model.logits(sample.x)
            loss = reweighted_loss(sample.y, z, taxonomy.lam, taxonomy.active)
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"epoch {epoch}, script {sample.key!r}: loss={value!r}")
            loss.backward()
            clip_grad_norm(params.values(), config.max_norm)
            opt.step()
            losses.append(value)
        val_ap = validation_ap(model, val_samples or train_samples, taxonomy)
        rows.append(LogRow(epoch=epoch, train_loss=float(np.mean(losses)),
                           val_ap=val_ap, lr=config.lr,
                           wallclock=time.monotonic() - start if timing else None))
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
    out: dict[str, set[str]] = {}
    for s in samples:
        binary = predict_tags(model.logits(s.x), threshold)
        out[s.key] = taxonomy.tag_set(binary)
    return out
