"""Corpus ingestion, vocabulary construction, dataset splitting, and the
synthetic-screenplay generator used by the test and acceptance suites.

File formats owned here:

* scripts: one UTF-8 plain-text screenplay per ``*.txt`` file, title = stem
* tags: JSON ``{title: {attribute: [tag, ...]}}``
* loglines: JSON ``{title: text}``
* embeddings: UTF-8 text lines ``token v1 .. v100`` (GloVe textual layout)

Every command reads a script entry through ``read_play``: the play of
``parser.parse_script``, which carries the scan's quality report, or the
one reason every command gives for skipping the entry; ``ingest`` logs
that reason, as it records it in its manifest.  A leading UTF-8
byte-order mark of any of these files is dropped as it is read, and a
tags or loglines file that is not JSON is a ``DataError`` naming its line
and column.  An embeddings file is read in one pass: each non-blank line
is split into its token and its values' text, and one ``np.loadtxt`` call
reads every row's values; a value is a decimal number as numpy reads it,
so ``1_0`` and non-ASCII digits, which ``float`` reads, are refused.  A
file that breaks a rule is read again, a line at a time, for the error of
its first faulty line.

A token is a maximal run of ``[a-z0-9']`` in the lowercased text, and
there is one tokenizer: a play's (or a scene's) statements' texts joined
by line feeds are lowercased, encoded, translated and decoded once, then
split back into statements.
"""

from __future__ import annotations

import json
import logging
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import chain, count
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from . import parser
from .errors import (
    DataError,
    EmbeddingDimMismatch,
    EmptyScript,
    NonFiniteEmbedding,
)
from .ioutil import (
    atomic_write_text,
    canonical_json,
    config_hash,
    decode_error,
    first_bad_byte,
    numbered_lines,
    sha256_hex,
    write_json,
)
from .parser import Scene, Screenplay, Statement, StatementKind

log = logging.getLogger(__name__)

# A token is a maximal run of [a-z0-9'] in the lowercased text.  Every other
# byte of its UTF-8 form becomes a space, but the line feed stays, so that a
# play's statements, joined by line feeds, are tokenized in one call and split
# back apart; each byte of a non-ASCII character is 0x80 or above, so such a
# character separates tokens as any other does.
_LINE_TOKEN_BYTES = bytes(
    b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789'\n" else 0x20
    for b in range(256))

UNK_TOKEN = "<unk>"


def _statement_tokens(texts: list[str]) -> list[list[str]]:
    """Each text's tokens, the maximal runs of ``[a-z0-9']`` in it
    lowercased, from one lowercase, encode, translate and decode of the
    texts' join by line feeds; a line feed inside a text is a space first."""
    if not texts:
        return []
    joined = "\n".join(texts)
    if joined.count("\n") != len(texts) - 1:
        joined = "\n".join([text.replace("\n", " ") for text in texts])
    lines = (joined.lower().encode("utf-8", "surrogatepass")
             .translate(_LINE_TOKEN_BYTES).decode("ascii").split("\n"))
    return list(map(str.split, lines))


def scene_tokens(scene: Scene) -> list[str]:
    """All statement tokens of a scene in original interleaved order."""
    return list(chain.from_iterable(
        _statement_tokens([stmt.text for stmt in scene.statements])))


# ---------------------------------------------------------------------------
# vocabulary and embeddings


class Vocabulary:
    """Corpus token inventory: the tokens that met the minimum count."""

    def __init__(self, tokens: list[str] | tuple[str, ...]):
        self.tokens = tuple(sorted(tokens))
        self.words = frozenset(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.tokens)

    def hash(self) -> str:
        return sha256_hex("\n".join(self.tokens))


class WordEmbeddings:
    """Pretrained token vectors in one ``(n + 1, dim)`` matrix.

    ``index`` maps each token to its row; the last row is the unknown
    vector (the ``<unk>`` row, else the mean of all rows), so row ``-1``
    serves every token the table lacks.
    """

    def __init__(self, tokens: Sequence[str], rows: np.ndarray):
        """The embeddings whose ``tokens[i]`` has the vector ``rows[i]``,
        ``rows`` an ``(n, dim)`` array; ``rows`` itself is copied, not kept."""
        n, self.dim = rows.shape
        self.index = {token: i for i, token in enumerate(tokens)}
        self.matrix = np.zeros((n + 1, self.dim))
        self.matrix[:-1] = rows
        if UNK_TOKEN in self.index:
            self.matrix[-1] = rows[self.index[UNK_TOKEN]]
        elif n:
            self.matrix[-1] = self.matrix[:-1].mean(axis=0)

    @classmethod
    def load(cls, path: str | Path, expected_dim: int = 100) -> "WordEmbeddings":
        """The embeddings file ``path``, read in one pass.

        Each non-blank line is split once into its token and the text of
        its values, and one ``np.loadtxt`` call reads all the value texts
        into the matrix, which is then checked whole: ``expected_dim``
        values a row, all finite, no token twice.  A file that breaks any
        rule is read again by :meth:`_refuse`, which raises the error of
        its first faulty line.
        """
        tokens: list[str] = []

        def value_texts():
            for _, line in numbered_lines(path):
                parts = line.split(None, 1)
                if parts:
                    tokens.append(parts[0])
                    # a token-only row yields a blank line, which loadtxt
                    # skips, so the matrix comes out a row short
                    yield parts[1] if len(parts) == 2 else ""

        texts = value_texts()
        # loadtxt warns on input without data, so a file whose first row
        # holds no value never reaches it
        first = next(texts, "")
        if not first:
            cls._refuse(path, expected_dim)
        try:
            rows = np.loadtxt(chain((first,), texts), comments=None, ndmin=2)
        except (ValueError, DataError):   # DataError: a byte that is not UTF-8
            cls._refuse(path, expected_dim)
        if rows.shape != (len(tokens), expected_dim) \
                or not np.isfinite(rows).all():
            cls._refuse(path, expected_dim)
        embeddings = cls(tokens, rows)
        if len(embeddings.index) != len(tokens):
            cls._refuse(path, expected_dim)
        return embeddings

    @staticmethod
    def _refuse(path: str | Path, expected_dim: int) -> NoReturn:
        """Raise the error of the first faulty line of embeddings file
        ``path``, reading it a line at a time: a byte that is not UTF-8, a
        token listed again, a row without ``expected_dim`` values, a value
        that is not a decimal number as numpy reads it, or a non-finite
        value; or, if it has no vector row, the DataError that says so."""
        first_line: dict[str, int] = {}
        for number, line in numbered_lines(path):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            where = f"{path} line {number}"
            first = first_line.setdefault(token, number)
            if first != number:
                raise DataError(f"{where}: {token!r} is listed again; its "
                                f"first row is line {first}")
            if len(values) != expected_dim:
                raise EmbeddingDimMismatch(
                    # first_line holds the tokens of this row and those before
                    f"{where}: embedding dim {len(values)}, expected "
                    f"{expected_dim}" if len(first_line) == 1 else
                    f"{where}: {len(values)} values for {token!r}, but the "
                    f"first row has {expected_dim}")
            try:
                vec = [float(v) for v in values]
            except ValueError as err:
                raise DataError(f"{where}: {err}") from None
            for v in values:
                # float() also reads '_' digit separators and non-ASCII digits
                if not v.isascii() or "_" in v:
                    raise DataError(f"{where}: {v!r} is not a plain decimal "
                                    f"number (ASCII digits, no '_')")
            if not all(map(math.isfinite, vec)):
                raise NonFiniteEmbedding(
                    f"{where}: non-finite value in the vector of {token!r}")
        if not first_line:
            raise DataError(f"{path}: no vector row")
        raise DataError(f"{path}: not rows of {expected_dim} numbers each")

    def __contains__(self, token: str) -> bool:
        return token in self.index


# ---------------------------------------------------------------------------
# compiled scripts

ACTION, DIALOGUE = 0, 1   # statement kinds in a compiled script


@dataclass(frozen=True, eq=False, slots=True)
class CompiledScript:
    """A screenplay as embedding-row ids, tokenized once.

    ``ids`` holds every statement's tokens end to end in the original
    statement order, as int32 rows of ``embeddings.matrix``; tokens outside
    ``vocabulary`` take the unknown row.  Statement ``i`` has ``lengths[i]``
    tokens (possibly none), sits in scene ``scenes[i]`` and is of kind
    ``kinds[i]`` (ACTION or DIALOGUE).  ``characters[s]`` holds scene
    ``s``'s speaking characters, sorted.  The ids mean nothing to another
    vocabulary or embedding matrix.
    """

    title: str
    ids: np.ndarray
    lengths: np.ndarray
    scenes: np.ndarray
    kinds: np.ndarray
    characters: tuple[tuple[str, ...], ...]
    vocabulary: Vocabulary
    embeddings: WordEmbeddings

    @property
    def n_scenes(self) -> int:
        return len(self.characters)


class TokenPass:
    """One tokenize pass over screenplays.

    Each play's statements are tokenized together, in one call.  Each
    distinct token gets a type number in first-seen order, and each
    screenplay keeps its tokens' type numbers end to end with its
    statements' lengths, scenes and kinds.  The vocabulary, the descriptor
    vocabulary and the compiled scripts are all read from this one pass.
    """

    def __init__(self, screenplays: Sequence[Screenplay]):
        # a token the index lacks takes the next type number as it is looked up
        index: defaultdict[str, int] = defaultdict(count().__next__)
        casts: dict[tuple[str, ...], tuple[str, ...]] = {}
        dialogue_kind = StatementKind.DIALOGUE
        self.type_ids: list[np.ndarray] = []   # per play, int32
        self.layouts = []   # per play: title, lengths, scenes, kinds, characters
        for play in screenplays:
            statements: list[Statement] = []
            sizes, characters = [], []
            for scene in play.scenes:
                statements += scene.statements
                sizes.append(len(scene.statements))
                cast = tuple(sorted({stmt.character for stmt in scene.statements
                                     if stmt.kind is dialogue_kind}))
                characters.append(casts.setdefault(cast, cast))
            per_statement = _statement_tokens([stmt.text for stmt in statements])
            token_counts = list(map(len, per_statement))
            self.type_ids.append(np.fromiter(
                map(index.__getitem__, chain.from_iterable(per_statement)),
                np.int32, sum(token_counts)))
            self.layouts.append((
                play.title, np.array(token_counts, np.int32),
                np.repeat(np.arange(len(sizes), dtype=np.int32), sizes),
                # a dialogue statement is 1 (DIALOGUE), an action 0 (ACTION)
                np.array([stmt.kind is dialogue_kind for stmt in statements],
                         np.int32),
                tuple(characters)))
        self.types = list(index)

    def _counts(self, which: Sequence[int] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Occurrences of each token type over the plays at ``which``
        (default all), and the number of those plays it occurs in."""
        chosen = range(len(self.type_ids)) if which is None else which
        total = np.zeros(len(self.types), dtype=np.int64)
        plays = np.zeros(len(self.types), dtype=np.int64)
        for i in chosen:
            counts = np.bincount(self.type_ids[i], minlength=len(self.types))
            total += counts
            plays += counts > 0
        return total, plays

    def vocabulary(self, min_count: int = 5) -> Vocabulary:
        """The tokens occurring at least ``min_count`` times in all plays."""
        total, _ = self._counts()
        return Vocabulary([t for t, c in zip(self.types, total) if c >= min_count])

    def descriptor_vocabulary(self, which: Sequence[int] | None = None,
                              min_movies: int = 50,
                              exclude_top: int = 500) -> tuple[str, ...]:
        """Tokens occurring in at least ``min_movies`` of the plays at
        ``which`` (default all), outside their ``exclude_top`` most frequent
        tokens (ties broken by the token).  A negative ``exclude_top``
        raises ``ValueError``."""
        if exclude_top < 0:
            raise ValueError(f"exclude_top must be at least 0, got {exclude_top}")
        total, doc_freq = self._counts(which)
        total = total.tolist()
        present = [i for i, n in enumerate(total) if n]
        by_frequency = sorted(present, key=lambda i: (-total[i], self.types[i]))
        top = set(by_frequency[:exclude_top])
        return tuple(sorted(self.types[i] for i in present
                            if doc_freq[i] >= min_movies and i not in top))

    def compile(self, vocabulary: Vocabulary,
                embeddings: WordEmbeddings) -> list[CompiledScript]:
        """Every play as embedding-row ids, in pass order.

        The plays' type numbers are overwritten with their row ids, so the
        ids take no second copy; the pass is spent afterwards.
        """
        unknown = len(embeddings.matrix) - 1
        words, row_of = vocabulary.words, embeddings.index.get
        rows = np.array([row_of(t, unknown) if t in words else unknown
                         for t in self.types], dtype=np.int32)
        scripts = []
        for ids, (title, lengths, scenes, kinds, characters) in zip(
                self.type_ids, self.layouts):
            ids[:] = rows[ids]
            scripts.append(CompiledScript(title, ids, lengths, scenes, kinds,
                                          characters, vocabulary, embeddings))
        self.type_ids, self.layouts = [], []
        return scripts


def compile_script(screenplay: Screenplay, vocabulary: Vocabulary,
                   embeddings: WordEmbeddings) -> CompiledScript:
    return TokenPass([screenplay]).compile(vocabulary, embeddings)[0]


def logline_screenplay(title: str, logline: str) -> Screenplay:
    """A logline as a screenplay of one scene holding one action statement,
    the form it is compiled in."""
    return Screenplay(title, [Scene(index=1, statements=[
        Statement(StatementKind.ACTION, logline)])])


@dataclass
class TokenVectors:
    """The vocabulary and embeddings that scripts are compiled against."""

    vocabulary: Vocabulary
    embeddings: WordEmbeddings

    @property
    def dim(self) -> int:
        return self.embeddings.dim

    def rows_sha256(self) -> str:
        """SHA-256 of the float64 bytes of the rows the vocabulary compiles
        to: each token's row, or the unknown row for a token the embeddings
        lack, in vocabulary order, then the unknown row."""
        unknown = len(self.embeddings.matrix) - 1
        row_of = self.embeddings.index.get
        ids = [row_of(t, unknown) for t in self.vocabulary.tokens] + [unknown]
        return sha256_hex(self.embeddings.matrix[ids].astype("<f8").tobytes())

    def compiled(self, script: CompiledScript | Screenplay) -> CompiledScript:
        """``script`` as row ids for this vocabulary and these embeddings.

        A raw screenplay is compiled here; a compiled one must have been
        compiled against these very objects, else its ids would gather the
        wrong rows, so it raises DataError.
        """
        if isinstance(script, Screenplay):
            return compile_script(script, self.vocabulary, self.embeddings)
        if script.vocabulary is not self.vocabulary \
                or script.embeddings is not self.embeddings:
            raise DataError(f"{script.title}: compiled against another "
                            f"vocabulary or embedding table")
        return script


# ---------------------------------------------------------------------------
# corpus


@dataclass
class CorpusItem:
    title: str
    screenplay: Screenplay
    tags: dict[str, tuple[str, ...]]
    logline: str | None = None
    # set by ingest: the screenplay and the logline compiled to row ids
    script: CompiledScript | None = None
    logline_script: CompiledScript | None = None


@dataclass(frozen=True)
class IngestConfig:
    min_count: int = 5
    cap: int = parser.DEFAULT_SCENE_CAP
    heldout_fraction: float = 0.2
    validation_fraction: float = 0.1
    seed: int = 0
    descriptor_min_movies: int = 50
    descriptor_top_exclude: int = 500
    expected_dim: int = 100


@dataclass
class Corpus:
    items: list[CorpusItem]
    split: dict[str, str]
    vocabulary: Vocabulary
    embeddings: WordEmbeddings
    descriptor_vocab: tuple[str, ...] = ()

    def _by_split(self, name: str) -> list[CorpusItem]:
        return [it for it in self.items if self.split[it.title] == name]

    @property
    def train_items(self) -> list[CorpusItem]:
        return self._by_split("train")

    @property
    def validation_items(self) -> list[CorpusItem]:
        return self._by_split("validation")

    @property
    def heldout_items(self) -> list[CorpusItem]:
        return self._by_split("heldout")

    def vectors(self) -> TokenVectors:
        return TokenVectors(self.vocabulary, self.embeddings)

    def characters(self) -> list[str]:
        """Distinct speaking characters over the training portion."""
        return sorted({name for it in self.train_items + self.validation_items
                       for cast in it.script.characters for name in cast})


def split_titles(titles: list[str], heldout_fraction: float,
                 validation_fraction: float, seed: int) -> dict[str, str]:
    """Deterministic seeded split, independent of input order.  Each
    fraction must lie in [0, 1)."""
    for name, fraction in (("heldout", heldout_fraction),
                           ("validation", validation_fraction)):
        if not 0.0 <= fraction < 1.0:
            raise DataError(f"{name} fraction {fraction!r} is outside [0, 1)")
    ordered = sorted(titles)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    n_heldout = int(round(len(ordered) * heldout_fraction))
    heldout = {ordered[i] for i in perm[:n_heldout]}
    rest = [ordered[i] for i in perm[n_heldout:]]
    n_val = int(round(len(rest) * validation_fraction))
    validation = set(rest[:n_val])
    out: dict[str, str] = {}
    for title in ordered:
        if title in heldout:
            out[title] = "heldout"
        elif title in validation:
            out[title] = "validation"
        else:
            out[title] = "train"
    return out


def _load_by_title(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise decode_error(path) from None
    except json.JSONDecodeError as err:
        raise DataError(f"{path} line {err.lineno} column {err.colno}: "
                        f"{err.msg}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: expected a JSON object keyed by title")
    return raw


def load_tags(path: str | Path) -> dict[str, dict[str, tuple[str, ...]]]:
    out = {}
    for title, attrs in _load_by_title(path).items():
        if not isinstance(attrs, dict) or not all(
                isinstance(vals, list) and all(isinstance(v, str) for v in vals)
                for vals in attrs.values()):
            raise DataError(f"{path}: the tags of {title!r} are not an object "
                            f"mapping each attribute to a list of tag strings")
        out[title] = {attr: tuple(vals) for attr, vals in attrs.items()}
    return out


def load_loglines(path: str | Path) -> dict[str, str | None]:
    """Loglines by title; a null logline counts as missing."""
    raw = _load_by_title(path)
    for title, text in raw.items():
        if text is not None and not isinstance(text, str):
            raise DataError(f"{path}: the logline of {title!r} is not a string")
    return raw


def script_files(scripts_dir: str | Path) -> list[Path]:
    """The ``*.txt`` entries of ``scripts_dir`` in name order.  A directory
    without any ``*.txt`` entry is a DataError."""
    paths = sorted(Path(scripts_dir).glob("*.txt"))
    if not paths:
        raise DataError(f"no *.txt scripts under {scripts_dir}")
    return paths


def read_script(path: Path) -> tuple[str | None, str | None]:
    """The UTF-8 text of script entry ``path`` (less a leading byte-order
    mark) and None, or None and the reason it is not a script: ``not a
    regular file`` (such as a directory) or ``undecodable: line N: ...``
    (:func:`ioutil.first_bad_byte`, which names no path)."""
    if not path.is_file():
        return None, "not a regular file"
    try:
        return path.read_text(encoding="utf-8-sig"), None
    except UnicodeDecodeError:
        return None, f"undecodable: {first_bad_byte(path) or 'not UTF-8 text'}"


def read_play(path: Path, cap: int | None) -> tuple[Screenplay | None, str | None]:
    """The play of script entry ``path``, its scenes split at ``cap`` and
    its quality report on it, and None; or None and the reason every
    command skips the entry: that of :func:`read_script`, ``empty: ...``,
    or ``no usable statements`` when no scene holds a statement."""
    text, problem = read_script(path)
    if problem is not None:
        return None, problem
    try:
        play = parser.parse_script(path.stem, text, cap=cap)
    except EmptyScript as err:
        return None, f"empty: {err}"
    if not any(scene.statements for scene in play.scenes):
        return None, "no usable statements"
    return play, None


def ingest(scripts_dir: str | Path, tags_path: str | Path,
           embeddings_path: str | Path, config: IngestConfig = IngestConfig(),
           loglines_path: str | Path | None = None) -> tuple[Corpus, dict]:
    """Parse, filter, split, and index a script directory.

    One tokenize pass over the kept scripts yields the vocabulary, the
    descriptor vocabulary, and each item's compiled script (and compiled
    logline).  Returns the corpus plus a manifest recording the split assignment and
    every exclusion with its reason.
    """
    scripts = script_files(scripts_dir)
    tags = load_tags(tags_path)
    loglines = load_loglines(loglines_path) if loglines_path else {}
    embeddings = WordEmbeddings.load(embeddings_path, expected_dim=config.expected_dim)

    excluded: list[dict] = []
    parsed: list[CorpusItem] = []
    for path in scripts:
        title = path.stem
        play, problem = read_play(path, config.cap)
        if problem is None and title not in tags:
            problem = "missing tags"
        if problem is not None:
            excluded.append({"title": title, "reason": problem})
            log.warning("skipping %s: %s", title, problem)
            continue
        parsed.append(CorpusItem(title=title, screenplay=play, tags=tags[title],
                                 logline=loglines.get(title)))

    parsed.sort(key=lambda it: it.title)
    split = split_titles([it.title for it in parsed], config.heldout_fraction,
                         config.validation_fraction, config.seed)
    tokens = TokenPass([it.screenplay for it in parsed])
    vocabulary = tokens.vocabulary(config.min_count)
    # a descriptor word needs a row of its own: a word outside the vocabulary
    # or the embedding file compiles to, and would pool as, the unknown row
    desc_vocab = tuple(t for t in tokens.descriptor_vocabulary(
        [i for i, it in enumerate(parsed)
         if split[it.title] in ("train", "validation")],
        min_movies=config.descriptor_min_movies,
        exclude_top=config.descriptor_top_exclude)
        if t in vocabulary and t in embeddings)
    for it, script in zip(parsed, tokens.compile(vocabulary, embeddings)):
        it.script = script
        if it.logline is not None:
            it.logline_script = compile_script(
                logline_screenplay(it.title, it.logline), vocabulary, embeddings)
    corpus = Corpus(items=parsed, split=split, vocabulary=vocabulary,
                    embeddings=embeddings, descriptor_vocab=desc_vocab)
    manifest = {
        "config": asdict(config),
        "config_hash": config_hash(asdict(config)),
        "splits": {name: sorted(it.title for it in corpus._by_split(name))
                   for name in ("train", "validation", "heldout")},
        "excluded": excluded,
        "vocabulary_size": len(vocabulary),
        "vocabulary_hash": vocabulary.hash(),
        "descriptor_vocabulary_size": len(desc_vocab),
    }
    return corpus, manifest


# ---------------------------------------------------------------------------
# synthetic corpus generator

FILLER_WORDS = (
    "the a walks into room looks at door and turns slowly while light "
    "falls across floor then she he waits near window before speaking again"
).split()

TOPIC_NAMES = ("ember", "frost", "raven", "sol", "vale", "onyx", "iris", "moss")

CHARACTER_POOL = ("ALEX", "BLAKE", "CASEY", "DEVON", "EMERY", "FINLEY",
                  "GREER", "HOLLIS")

ORDER_TOKENS = ("riddlea", "riddleb", "riddlec")

# a planted marker run draws 2 to this many distinct markers of its tag
PLANTED_RUN_MAX = 4


@dataclass(frozen=True)
class SynthSpec:
    n_scripts: int = 40
    n_tags: int = 3
    signal: float = 0.8
    seed: int = 0
    order_sensitive: bool = False
    attribute: str = "genre"
    scenes_range: tuple[int, int] = (5, 8)
    statements_range: tuple[int, int] = (4, 7)
    markers_per_tag: int = 12
    marker_spread: float = 0.25
    noise_vocab: int = 30
    embedding_dim: int = 100


def _topic_markers(spec: SynthSpec) -> dict[str, list[str]]:
    names = TOPIC_NAMES[:spec.n_tags]
    return {name: [f"{name}{j:02d}" for j in range(spec.markers_per_tag)]
            for name in names}


def _synthetic_embeddings(spec: SynthSpec, markers: dict[str, list[str]],
                          rng: np.random.Generator) -> dict[str, np.ndarray]:
    dim = spec.embedding_dim
    table: dict[str, np.ndarray] = {}
    block = max(4, dim // (spec.n_tags + len(ORDER_TOKENS) + 1))
    for t, (topic, words) in enumerate(sorted(markers.items())):
        direction = np.zeros(dim)
        lo = (t * block) % dim
        direction[lo:lo + block] = 1.0 / np.sqrt(block)
        # noise-vector norm ~= marker_spread relative to the unit topic direction
        for w in words:
            table[w] = direction + rng.normal(
                0.0, spec.marker_spread / np.sqrt(dim), size=dim)
    for i, tok in enumerate(ORDER_TOKENS):
        direction = np.zeros(dim)
        lo = ((spec.n_tags + i) * block) % dim
        direction[lo:lo + block] = 1.0 / np.sqrt(block)
        table[tok] = direction + rng.normal(0.0, 0.03, size=dim)
    for j in range(spec.noise_vocab):
        vec = rng.normal(0.0, 1.0, size=dim)
        table[f"drift{j:02d}"] = vec / np.linalg.norm(vec)
    for w in FILLER_WORDS:
        table[w] = rng.normal(0.0, 0.05, size=dim)
    return table


def _sentence(rng: np.random.Generator, n_words: int) -> list[str]:
    return [FILLER_WORDS[i] for i in rng.integers(0, len(FILLER_WORDS), n_words)]


def generate_synthetic_corpus(out_dir: str | Path, spec: SynthSpec = SynthSpec()) -> dict:
    """Write a synthetic corpus: scripts, tags, loglines, embeddings, tag
    embeddings, and a ground-truth record of the planted topics.

    A count, the seed, the signal share or the marker spread out of range
    raises ``ValueError`` naming its ``SynthSpec`` field, before anything
    is written.
    """
    scenes, statements = spec.scenes_range, spec.statements_range
    for name, ok, rule in (
            ("n_scripts", spec.n_scripts >= 1, "at least 1"),
            ("seed", spec.seed >= 0, "at least 0"),
            ("n_tags", 2 <= spec.n_tags <= len(TOPIC_NAMES),
             f"within [2, {len(TOPIC_NAMES)}], one topic name per tag"),
            ("n_tags", not spec.order_sensitive or spec.n_tags <= len(ORDER_TOKENS),
             f"at most {len(ORDER_TOKENS)} with order_sensitive, one rotation "
             "of the order tokens per tag"),
            ("scenes_range", 1 <= scenes[0] <= scenes[1],
             "(min, max) with 1 <= min <= max"),
            ("statements_range", 1 <= statements[0] <= statements[1],
             "(min, max) with 1 <= min <= max"),
            ("markers_per_tag", spec.markers_per_tag >= PLANTED_RUN_MAX,
             f"at least {PLANTED_RUN_MAX}, the most markers a planted run draws"),
            ("noise_vocab", spec.noise_vocab >= 0, "at least 0"),
            ("embedding_dim", spec.embedding_dim >= 1, "at least 1"),
            ("signal", 0.0 <= spec.signal <= 1.0, "within [0, 1]"),
            ("marker_spread",
             math.isfinite(spec.marker_spread) and spec.marker_spread >= 0.0,
             "finite and at least 0")):
        if not ok:
            raise ValueError(f"SynthSpec.{name} must be {rule}, "
                             f"got {getattr(spec, name)!r}")
    out = Path(out_dir)
    scripts_dir = out / "scripts"
    scripts_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    markers = _topic_markers(spec)
    topic_list = sorted(markers)
    table = _synthetic_embeddings(spec, markers, rng)

    tags_json: dict[str, dict[str, list[str]]] = {}
    loglines_json: dict[str, str] = {}

    for idx in range(spec.n_scripts):
        title = f"synth{idx:03d}"
        primary = topic_list[idx % len(topic_list)]
        assigned = [primary]
        if not spec.order_sensitive and rng.random() < 0.3:
            extra = topic_list[int(rng.integers(0, len(topic_list)))]
            if extra != primary:
                assigned.append(extra)
        cast = [CHARACTER_POOL[i] for i in
                rng.choice(len(CHARACTER_POOL), size=2, replace=False)]
        n_scenes = int(rng.integers(spec.scenes_range[0], spec.scenes_range[1] + 1))
        lines: list[str] = []
        for s in range(n_scenes):
            place = "INT." if s % 2 == 0 else "EXT."
            lines.append(f"{place} LOCATION {s + 1} - DAY")
            lines.append("")
            n_statements = int(rng.integers(spec.statements_range[0],
                                            spec.statements_range[1] + 1))
            statements: list[list[str]] = []
            kinds: list[str] = []
            for _ in range(n_statements):
                words = _sentence(rng, int(rng.integers(4, 9)))
                statements.append(words)
                kinds.append("dialogue" if rng.random() < 0.5 else "action")
            if spec.noise_vocab:
                for _ in range(int(rng.integers(1, 3))):
                    target = int(rng.integers(0, n_statements))
                    pos = int(rng.integers(0, len(statements[target]) + 1))
                    tok = f"drift{int(rng.integers(0, spec.noise_vocab)):02d}"
                    statements[target].insert(pos, tok)
            for tag in assigned:
                if rng.random() >= spec.signal:
                    continue
                target = int(rng.integers(0, n_statements))
                pos = int(rng.integers(0, len(statements[target]) + 1))
                if spec.order_sensitive:
                    shift = topic_list.index(tag)
                    seq = list(ORDER_TOKENS[shift:] + ORDER_TOKENS[:shift])
                    statements[target][pos:pos] = seq
                else:
                    picks = rng.choice(
                        spec.markers_per_tag,
                        size=int(rng.integers(2, PLANTED_RUN_MAX + 1)),
                        replace=False)
                    statements[target][pos:pos] = [markers[tag][p] for p in sorted(picks)]
            for words, kind in zip(statements, kinds):
                text = " ".join(words)
                if kind == "dialogue":
                    who = cast[int(rng.integers(0, len(cast)))]
                    lines.append(" " * 20 + who)
                    lines.append(" " * 10 + text)
                else:
                    lines.append(text)
                lines.append("")
        atomic_write_text(scripts_dir / f"{title}.txt", "\n".join(lines) + "\n")
        tags_json[title] = {spec.attribute: sorted(assigned)}
        if spec.order_sensitive:
            shift = topic_list.index(primary)
            seq = " ".join(ORDER_TOKENS[shift:] + ORDER_TOKENS[:shift])
            loglines_json[title] = f"a story told in the order of {seq}"
        else:
            sample = markers[primary][:2]
            loglines_json[title] = f"a story about {sample[0]} and {sample[1]}"

    emb_lines = [f"{tok} " + " ".join(f"{v:.6f}" for v in vec)
                 for tok, vec in sorted(table.items())]
    atomic_write_text(out / "embeddings.txt", "\n".join(emb_lines) + "\n")
    write_json(out / "tags.json", tags_json)
    write_json(out / "loglines.json", loglines_json)

    tag_emb_lines = []
    for topic in topic_list:
        vec = np.mean([table[w] for w in markers[topic]], axis=0)
        tag_emb_lines.append(f"{spec.attribute}\t{topic}\t"
                             + " ".join(f"{v:.6f}" for v in vec))
    atomic_write_text(out / "tag_embeddings.tsv", "\n".join(tag_emb_lines) + "\n")

    truth = {
        "attribute": spec.attribute,
        "topics": {t: markers[t] for t in topic_list},
        "order_tokens": list(ORDER_TOKENS) if spec.order_sensitive else [],
        "noise_vocab": [f"drift{j:02d}" for j in range(spec.noise_vocab)],
        "filler_count": len(FILLER_WORDS),
        "spec": asdict(spec),
    }
    write_json(out / "truth.json", truth)
    manifest = {
        "scripts_dir": str(scripts_dir),
        "tags": str(out / "tags.json"),
        "loglines": str(out / "loglines.json"),
        "embeddings": str(out / "embeddings.txt"),
        "tag_embeddings": str(out / "tag_embeddings.tsv"),
        "truth": str(out / "truth.json"),
        "spec": asdict(spec),
        "spec_hash": config_hash(asdict(spec)),
    }
    atomic_write_text(out / "synth_manifest.json",
                      canonical_json(manifest) + "\n")
    return manifest
