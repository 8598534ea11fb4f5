"""Statement, scene, and script encoders and their three-tier composition.

Four encoder kinds share one interface: a bag-of-embeddings mean (BoE), an
attention-weighted bag (BoE+Attn), a bidirectional GRU taking its final
output (GRU), and an attention pooling over GRU outputs (GRU+Attn).
Attention scores one vector per input with a learned vector ``p`` and
pools the batch with ``autodiff.attention_pool``, whose weights are the
softmax of the scores over each sequence's real steps.

The hierarchical composition encodes action statements and dialogue
statements through separate statement and scene encoders, optionally
appends a mean character embedding per scene, and feeds the scene-embedding
sequence to a script encoder of the same kind.  Each tier encodes a batch
of sequences at once: all statements of a channel in a script are one
statement-tier batch, the channel's per-scene sequences of statement
vectors are one scene-tier batch, and the script is a batch of one.  A
batch reaches an encoder as its sequences' rows laid end to end plus their
lengths, which are always given; the GRU and attention kinds pad it into a
masked (B, T, D) batch with ``pad_runs`` (``pad_rows`` lays out the same
batch on plain arrays, for the frozen descriptor target).  Every encode
returns one (B, output_dim) tensor; attention weights are not returned.
The model reads a script compiled once to embedding-row ids
(``corpus.CompiledScript``): numpy masks over its statement table pick each
channel's statements, and one gather per channel fetches their word rows.
Under BoE the script vector is the concatenation of each block's mean over
the scenes.  Only the character block has a parameter, so a compiled
script keeps one record on the model from its first encode: the other
blocks' means and where its speakers sit (``autodiff.RunLayout``).  The
character block's mean over the scenes of each scene's mean speaker row is
one tape node over that layout (``autodiff.mean_of_run_means``).  A raw
screenplay keeps no record.
A model's settings are one frozen record, ``ScriptModelSettings``:
``HierarchicalModel.settings`` returns it, a tag checkpoint stores it as
its ``model`` record, and its ``encoder`` rebuilds the model.
Structural variants replace or drop tiers:

* ``full`` — both channels, character block included
* ``minus_action`` / ``minus_dialogue`` — one channel dropped entirely
* ``two_tier`` — per-channel word sequences go straight to scene encoders
* ``han`` — one statement and one scene encoder over all statements in
  their original interleaved order
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import ACTION, DIALOGUE, CompiledScript, TokenVectors
from .errors import EmptyScript, EmptyStatement, ShapeMismatch
from .ioutil import check_intervals
from .parser import Screenplay


class EncoderKind(Enum):
    BOE = "boe"
    BOE_ATTN = "boe_attn"
    GRU = "gru"
    GRU_ATTN = "gru_attn"


@dataclass(frozen=True)
class EncoderSpec:
    kind: EncoderKind
    input_dim: int = 100
    hidden_per_direction: int = field(default=50, metadata={"interval": "[1, inf)"})

    def __post_init__(self):
        check_intervals(self)

    @property
    def output_dim(self) -> int:
        if self.kind in (EncoderKind.BOE, EncoderKind.BOE_ATTN):
            return self.input_dim
        return 2 * self.hidden_per_direction


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
        BoE takes each run's mean of the rows; the other kinds read the
        batch right-padded by :func:`pad_runs`, and the attention kinds pool
        it with :func:`autodiff.attention_pool`.
        """
        lengths = np.asarray(lengths)
        kind = self.spec.kind
        if kind is EncoderKind.BOE:
            return ad.mean_rows(xs, lengths)
        padded = pad_runs(xs, lengths)
        outputs = padded if kind is EncoderKind.BOE_ATTN \
            else ad.bi_gru(padded, self.gru, lengths)
        if kind is EncoderKind.GRU:
            return ad.row(outputs, (np.arange(len(lengths)), lengths - 1))
        return ad.attention_pool(outputs, self.p, lengths)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.gru is not None:
            out.update(self.gru.named(f"{prefix}.gru"))
        if self.p is not None:
            out[f"{prefix}.p"] = self.p
        return out


def _run_mask(lengths: np.ndarray) -> np.ndarray:
    """(len(lengths), max(lengths)) mask of the real steps of a right-padded
    batch of consecutive runs; its True cells in C order are the runs' rows
    in order."""
    return np.arange(lengths.max(initial=0)) < lengths[:, None]


def pad_runs(rows: Tensor, lengths: np.ndarray) -> Tensor:
    """Consecutive runs of ``lengths[b]`` rows as a right-padded
    (len(lengths), max(lengths), F) batch; no runs give a (0, 0, F) one."""
    if rows.data.ndim != 2 or lengths.sum() != rows.data.shape[0]:
        raise ShapeMismatch(f"runs {lengths} vs rows {rows.data.shape}")
    mask = _run_mask(lengths)
    return ad.place(rows, np.nonzero(mask), (*mask.shape, rows.data.shape[1]))


def pad_rows(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`pad_runs` on plain arrays, building no tape."""
    mask = _run_mask(lengths)
    padded = np.zeros((*mask.shape, rows.shape[1]))
    padded[mask] = rows
    return padded


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
    MINUS_ACTION = "minus_action"
    MINUS_DIALOGUE = "minus_dialogue"
    TWO_TIER = "two_tier"
    HAN = "han"


_CHANNEL_VARIANTS = {
    Variant.FULL: ("action", "dialogue"),
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
            include_chars = variant is Variant.FULL
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
        # BoE only, by identity: each compiled script's (F,) channel means
        # and its speaker layout (None without a character block or a speaker)
        self._boe_records: dict[CompiledScript, tuple[
            dict[str, np.ndarray], ad.RunLayout | None]] = {}

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

    def _speakers(self, script: CompiledScript) -> ad.RunLayout | None:
        """Where ``script``'s speakers sit, or None without one: the scenes
        with speakers, each one's number of speakers, and the speakers'
        ``char_table`` rows scene by scene (UNK for an unseen name)."""
        names = script.characters
        kept = [i for i, per in enumerate(names) if per]
        if not kept:
            return None
        index = self.char_table.index
        return ad.RunLayout([index.get(n, 0) for i in kept for n in names[i]],
                            [len(names[i]) for i in kept], kept, script.n_scenes)

    def _encode_characters(self, script: CompiledScript) -> Tensor:
        """(n_scenes, char_dim): each scene's mean speaker row; zero rows
        for scenes without speakers."""
        layout = self._speakers(script)
        if layout is None:
            return ad.constant(np.zeros((script.n_scenes, self.char_dim)))
        return _scene_rows(ad.mean_rows(ad.row(self.char_table.matrix,
                                               layout.index), layout.runs),
                           layout.at, script.n_scenes)

    def encode_scenes(self, script: CompiledScript | Screenplay) -> Tensor:
        """(n_scenes, scene_dim): each scene's blocks concatenated in
        ``block_layout`` order.  A raw screenplay is compiled first."""
        script = self.vectors.compiled(script)
        return ad.concat([self._encode_characters(script) if name == "characters"
                          else self._encode_channel(script, name)
                          for name, _ in self.block_layout])

    def encode_script(self, script: CompiledScript | Screenplay) -> Tensor:
        """(script_dim,): the script encoder over the scene sequence.

        Under BoE that is each block's mean over the scenes, concatenated
        in ``block_layout`` order.  A compiled script's channel means and
        speaker layout hold no parameter, so they are built on its first
        encode and kept as its one record; a raw screenplay, compiled here,
        keeps none.  The character block is one tape node over the
        character table.
        """
        raw = isinstance(script, Screenplay)
        script = self.vectors.compiled(script)
        if not script.n_scenes:
            raise EmptyScript(f"{script.title}: no scenes to encode")
        if self.spec.kind is not EncoderKind.BOE:
            return ad.row(self.script_encoder.encode(self.encode_scenes(script),
                                                     [script.n_scenes]), 0)
        record = self._boe_records.get(script)
        if record is None:
            means = {name: ad.mean_rows(self._encode_channel(script, name),
                                        [script.n_scenes]).data[0]
                     for name, _ in self.block_layout if name != "characters"}
            for mean in means.values():
                mean.flags.writeable = False
            record = means, self._speakers(script) if self.include_chars else None
            if not raw:
                self._boe_records[script] = record
        means, layout = record
        # the channels in block_layout order; the character block comes last
        blocks = [ad.constant(mean) for mean in means.values()]
        if self.include_chars:
            blocks.append(ad.constant(np.zeros(self.char_dim)) if layout is None
                          else ad.mean_of_run_means(self.char_table.matrix, layout))
        return ad.concat(blocks)

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

    def settings(self) -> ScriptModelSettings:
        return ScriptModelSettings(
            variant=self.variant.value, include_chars=self.include_chars,
            kind=self.spec.kind.value,
            hidden_per_direction=self.spec.hidden_per_direction,
            char_dim=self.char_dim,
            characters=sorted(self.char_table.index) if self.char_table else [],
            seed=self.seed)

    def to_config(self) -> dict:
        return asdict(self.settings())


@dataclass(frozen=True)
class ScriptModelSettings:
    """A :class:`HierarchicalModel`'s settings, a tag checkpoint's ``model``
    record: all that rebuilds the model from its word vectors, whose width
    is its input width (``characters`` holds UNK too)."""

    variant: Literal[tuple(v.value for v in Variant)]
    include_chars: bool
    kind: Literal[tuple(k.value for k in EncoderKind)]
    hidden_per_direction: int = field(metadata={"interval": "[1, inf)"})
    char_dim: int = field(metadata={"interval": "[1, inf)"})
    characters: list[str]
    seed: int = field(metadata={"interval": "[0, inf)"})
    type: Literal["script"] = "script"

    def __post_init__(self):
        check_intervals(self)

    def encoder(self, vectors: TokenVectors) -> HierarchicalModel:
        spec = EncoderSpec(EncoderKind(self.kind), vectors.dim,
                           self.hidden_per_direction)
        names = [n for n in self.characters if n != CharacterTable.UNK_NAME]
        return HierarchicalModel(spec, Variant(self.variant), vectors, names,
                                 self.include_chars, self.char_dim, self.seed)
