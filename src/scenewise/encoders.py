"""Statement, scene, and script encoders and their three-tier composition.

Four encoder kinds share one interface: a bag-of-embeddings mean (BoE), an
attention-weighted bag (BoE+Attn), a bidirectional GRU taking its final
output (GRU), and an attention pooling over GRU outputs (GRU+Attn).
Attention scores one vector per input with a learned vector ``p``; the
default normalization is a softmax over the scores, and a strictly linear
normalization ``a_i = s_i / sum_j s_j`` is available as ``paper_linear``.

The hierarchical composition encodes action statements and dialogue
statements through separate statement and scene encoders, optionally
appends a mean character embedding per scene, and feeds the scene-embedding
sequence to a script encoder of the same kind.  Each tier encodes a batch
of sequences at once: all statements of a channel in a script are one
statement-tier batch, the channel's per-scene sequences of statement
vectors are one scene-tier batch, and the script is a batch of one.  A
batch reaches an encoder as its sequences' rows laid end to end plus their
lengths, which are always given; the GRU and attention kinds pad it into a
masked (B, T, D) batch with ``pad_runs``.  Every encode returns one
(B, output_dim) tensor; attention weights are not returned.
The model reads a script compiled once to embedding-row ids
(``corpus.CompiledScript``): numpy masks over its statement table pick each
channel's statements, and one gather per channel fetches their word rows.
Structural variants replace or drop tiers:

* ``full`` / ``plus_chars`` — both channels, character block included
* ``minus_action`` / ``minus_dialogue`` — one channel dropped entirely
* ``two_tier`` — per-channel word sequences go straight to scene encoders
* ``han`` — one statement and one scene encoder over all statements in
  their original interleaved order
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import ACTION, DIALOGUE, CompiledScript, TokenVectors
from .errors import EmptyScript, EmptyStatement, ShapeMismatch
from .parser import Screenplay


class EncoderKind(Enum):
    BOE = "boe"
    BOE_ATTN = "boe_attn"
    GRU = "gru"
    GRU_ATTN = "gru_attn"


SOFTMAX = "softmax"
PAPER_LINEAR = "paper_linear"


@dataclass(frozen=True)
class EncoderSpec:
    kind: EncoderKind
    input_dim: int = 100
    hidden_per_direction: int = 50
    attention_normalization: str = SOFTMAX

    @property
    def output_dim(self) -> int:
        if self.kind in (EncoderKind.BOE, EncoderKind.BOE_ATTN):
            return self.input_dim
        return 2 * self.hidden_per_direction


def attend(outputs: Tensor, p: Tensor, lengths,
           normalization: str = SOFTMAX) -> Tensor:
    """Pool a right-padded (B, T, H) batch of outputs, row ``b`` holding
    ``lengths[b]`` real steps, with attention vector ``p``: (B, H).

    ``softmax`` normalizes scores with a softmax; ``paper_linear`` divides
    each score by the sum of its sequence's scores, exactly as a linear
    normalization (weights may then be negative and the sum may be
    degenerate).
    """
    if normalization not in (SOFTMAX, PAPER_LINEAR):
        raise ValueError(f"unknown attention normalization {normalization!r}")
    return ad.attention_pool(outputs, p, lengths,
                             linear=normalization == PAPER_LINEAR)


class SequenceEncoder:
    """One encoder instance with its parameters."""

    def __init__(self, spec: EncoderSpec, rng: np.random.Generator):
        self.spec = spec
        self.gru = None
        self.p = None
        if spec.kind in (EncoderKind.GRU, EncoderKind.GRU_ATTN):
            self.gru = ad.init_bi_gru(rng, spec.input_dim, spec.hidden_per_direction)
        if spec.kind in (EncoderKind.BOE_ATTN, EncoderKind.GRU_ATTN):
            self.p = ad.parameter(ad.glorot(rng, (spec.output_dim,)))

    @property
    def output_dim(self) -> int:
        return self.spec.output_dim

    def encode(self, xs: Tensor, lengths) -> Tensor:
        """Encode a batch of sequences laid end to end in the rows of ``xs``,
        sequence ``b`` taking the next ``lengths[b]`` rows: (B, output_dim).
        """
        lengths = np.asarray(lengths)
        kind = self.spec.kind
        if kind is EncoderKind.BOE:
            return ad.mean_rows(xs, lengths)
        padded = pad_runs(xs, lengths)
        if kind is EncoderKind.BOE_ATTN:
            return attend(padded, self.p, lengths,
                          self.spec.attention_normalization)
        outputs = ad.bi_gru(padded, self.gru, lengths)
        if kind is EncoderKind.GRU:
            return ad.row(outputs, (np.arange(len(lengths)), lengths - 1))
        return attend(outputs, self.p, lengths, self.spec.attention_normalization)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.gru is not None:
            out.update(self.gru.named(f"{prefix}.gru"))
        if self.p is not None:
            out[f"{prefix}.p"] = self.p
        return out


def pad_runs(rows: Tensor, lengths: np.ndarray) -> Tensor:
    """Consecutive runs of ``lengths[b]`` rows as a right-padded
    (len(lengths), max(lengths), F) batch; no runs give a (0, 0, F) one."""
    if rows.data.ndim != 2 or lengths.sum() != rows.data.shape[0]:
        raise ShapeMismatch(f"runs {lengths} vs rows {rows.data.shape}")
    seq = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    step = np.arange(len(seq)) - np.repeat(starts, lengths)
    return ad.place(rows, (seq, step),
                    (len(lengths), lengths.max(initial=0), rows.data.shape[1]))


def _scene_rows(vecs: Tensor, kept, n_scenes: int) -> Tensor:
    """(n_scenes, F): row ``j`` of ``vecs`` at scene ``kept[j]``, zero rows
    for the other scenes."""
    return ad.place(vecs, np.asarray(kept), (n_scenes, vecs.data.shape[1]))


def encode_tokens(ids: np.ndarray, lengths, matrix: np.ndarray,
                  encoder: SequenceEncoder) -> Tensor:
    """Encode token sequences as one batch: (len(lengths), output_dim).

    ``ids`` are the sequences' rows of the embedding ``matrix`` laid end to
    end, sequence ``b`` taking the next ``lengths[b]``; they are gathered
    with one indexing.  Raises EmptyStatement if a sequence has zero tokens.
    """
    lengths = np.asarray(lengths)
    if not lengths.size or lengths.min() == 0:
        raise EmptyStatement("statement has no tokens")
    return encoder.encode(ad.constant(matrix[ids]), lengths)


class CharacterTable:
    """Trainable character embeddings as one (n_names + 1, dim) parameter,
    ``matrix``: row 0 is the UNK row that unseen names share, and the known
    names follow in sorted order; ``index`` maps each name to its row."""

    UNK_NAME = "<unk-char>"

    def __init__(self, names: list[str], dim: int, rng: np.random.Generator):
        self.index = {name: i for i, name
                      in enumerate([self.UNK_NAME] + sorted(set(names)))}
        self.matrix = ad.parameter(rng.normal(0.0, 0.1, size=(len(self.index), dim)))

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.matrix": self.matrix}


class Variant(Enum):
    FULL = "full"
    PLUS_CHARS = "plus_chars"
    MINUS_ACTION = "minus_action"
    MINUS_DIALOGUE = "minus_dialogue"
    TWO_TIER = "two_tier"
    HAN = "han"


_CHANNEL_VARIANTS = {
    Variant.FULL: ("action", "dialogue"),
    Variant.PLUS_CHARS: ("action", "dialogue"),
    Variant.MINUS_ACTION: ("dialogue",),
    Variant.MINUS_DIALOGUE: ("action",),
    Variant.TWO_TIER: ("action", "dialogue"),
    Variant.HAN: ("content",),
}


class HierarchicalModel:
    """Three-tier script encoder over compiled screenplays."""

    def __init__(self, spec: EncoderSpec, variant: Variant,
                 vectors: TokenVectors, characters: list[str],
                 include_chars: bool | None = None, char_dim: int = 10,
                 seed: int = 0):
        if include_chars is None:
            include_chars = variant in (Variant.FULL, Variant.PLUS_CHARS)
        if variant is Variant.PLUS_CHARS and not include_chars:
            raise ValueError("variant plus_chars always includes characters; "
                             "it cannot run with include_chars off")
        self.spec = spec
        self.variant = variant
        self.vectors = vectors
        self.include_chars = include_chars
        self.char_dim = char_dim
        self.seed = seed
        rng = np.random.default_rng(seed)

        # statement encoders, and two_tier's scene encoders, read word vectors
        word_spec = replace(spec, input_dim=vectors.dim)
        scene_spec = replace(spec, input_dim=word_spec.output_dim)

        self.statement_encoders: dict[str, SequenceEncoder] = {}
        self.scene_encoders: dict[str, SequenceEncoder] = {}
        for channel in _CHANNEL_VARIANTS[variant]:
            if variant is Variant.TWO_TIER:
                self.scene_encoders[channel] = SequenceEncoder(word_spec, rng)
            else:
                self.statement_encoders[channel] = SequenceEncoder(word_spec, rng)
                self.scene_encoders[channel] = SequenceEncoder(scene_spec, rng)

        self.char_table = CharacterTable(characters, dim=char_dim, rng=rng) \
            if include_chars else None

        layout: list[tuple[str, int]] = []
        for channel in _CHANNEL_VARIANTS[variant]:
            layout.append((channel, self.scene_encoders[channel].output_dim))
        if include_chars:
            layout.append(("characters", char_dim))
        self.block_layout = tuple(layout)

        self.script_encoder = SequenceEncoder(
            replace(spec, input_dim=self.scene_dim), rng)

    @property
    def scene_dim(self) -> int:
        return sum(dim for _, dim in self.block_layout)

    @property
    def script_dim(self) -> int:
        return self.script_encoder.output_dim

    def _encode_channel(self, script: CompiledScript, channel: str) -> Tensor:
        """(n_scenes, F): the channel's statements with tokens, encoded per
        scene; zero rows for scenes without such statements."""
        scene_enc = self.scene_encoders[channel]
        keep = script.lengths > 0
        if channel != "content":  # han content: all statements, interleaved
            keep &= script.kinds == (ACTION if channel == "action" else DIALOGUE)
        lengths = script.lengths[keep]
        if not lengths.size:
            return ad.constant(np.zeros((script.n_scenes, scene_enc.output_dim)))
        ids = script.ids[np.repeat(keep, script.lengths)]
        runs = np.bincount(script.scenes[keep], minlength=script.n_scenes)
        kept = np.flatnonzero(runs)
        runs = runs[kept]
        matrix = self.vectors.embeddings.matrix
        if self.variant is Variant.TWO_TIER:
            words = np.add.reduceat(lengths, np.cumsum(runs) - runs)
            vecs = encode_tokens(ids, words, matrix, scene_enc)
        else:
            stmt_vecs = encode_tokens(ids, lengths, matrix,
                                      self.statement_encoders[channel])
            vecs = scene_enc.encode(stmt_vecs, runs)
        return _scene_rows(vecs, kept, script.n_scenes)

    def _encode_characters(self, script: CompiledScript) -> Tensor:
        names = script.characters
        kept = [i for i, per in enumerate(names) if per]
        if not kept:
            return ad.constant(np.zeros((script.n_scenes, self.char_dim)))
        runs = [len(names[i]) for i in kept]
        index = self.char_table.index
        rows = ad.row(self.char_table.matrix,
                      [index.get(n, 0) for i in kept for n in names[i]])
        return _scene_rows(ad.mean_rows(rows, runs), kept, script.n_scenes)

    def encode_scenes(self, script: CompiledScript | Screenplay) -> Tensor:
        """(n_scenes, scene_dim): each scene's blocks concatenated in
        ``block_layout`` order.  A raw screenplay is compiled first."""
        script = self.vectors.compiled(script)
        return ad.concat([self._encode_characters(script) if name == "characters"
                          else self._encode_channel(script, name)
                          for name, _ in self.block_layout])

    def encode_script(self, script: CompiledScript | Screenplay) -> Tensor:
        script = self.vectors.compiled(script)
        if not script.n_scenes:
            raise EmptyScript(f"{script.title}: no scenes to encode")
        return ad.row(self.script_encoder.encode(self.encode_scenes(script),
                                                 [script.n_scenes]), 0)

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for channel, enc in self.statement_encoders.items():
            out.update(enc.named_params(f"{channel}_stmt"))
        for channel, enc in self.scene_encoders.items():
            out.update(enc.named_params(f"{channel}_scene"))
        out.update(self.script_encoder.named_params("script"))
        if self.char_table is not None:
            out.update(self.char_table.named_params("chars"))
        return out

    def to_config(self) -> dict:
        return {
            "variant": self.variant.value,
            "include_chars": self.include_chars,
            "kind": self.spec.kind.value,
            "input_dim": self.spec.input_dim,
            "hidden_per_direction": self.spec.hidden_per_direction,
            "attention_normalization": self.spec.attention_normalization,
            "char_dim": self.char_dim,
            "characters": sorted(self.char_table.index)
            if self.char_table else [],
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, config: dict, vectors: TokenVectors) -> "HierarchicalModel":
        spec = EncoderSpec(
            kind=EncoderKind(config["kind"]),
            input_dim=config["input_dim"],
            hidden_per_direction=config["hidden_per_direction"],
            attention_normalization=config["attention_normalization"],
        )
        names = [n for n in config["characters"] if n != CharacterTable.UNK_NAME]
        return cls(spec=spec, variant=Variant(config["variant"]), vectors=vectors,
                   characters=names, include_chars=config["include_chars"],
                   char_dim=config["char_dim"], seed=config["seed"])
