"""Multi-label evaluation: exact micro-averaged F-1, similarity-thresholded
F-1 over a tag-embedding space, and taxonomy complexity analyses
(equivalence merging, perplexity, pair permutations).

Similarity percentiles use the strict empirical CDF over all unordered
distinct tag pairs of an attribute: a pair's percentile is the share of
pairs strictly less similar, and a tag paired with itself is the 100th
percentile.  Under this convention no distinct pair reaches 100, so a
cutoff of 100 reproduces exact matching; percentiles are monotone in
similarity, so similarity F-1 is nondecreasing as the cutoff drops.

A ``TagEmbeddingSpace`` computes every ordered pair's percentile once, when
it is built: one ``np.searchsorted`` of the whole similarity matrix in the
sorted distinct-pair similarities, with 100 on the diagonal.
``similarity_f1`` and ``merge_equivalents`` read that table.
``similarity_f1`` matches each distinct (prediction set, gold set) pair
once per call and counts it once for every script that holds it, so a
corpus whose scripts repeat a few tag-set pairs costs a few matchings.  It
still resolves a pair's tags only when it pairs them, in the order the
pairs reach them, and matches the pairs in the order the scripts, in key
order, first reach them, so an unknown tag raises ``UnknownTag`` where a
per-pair lookup would.  It keeps nothing between calls.

The tag embeddings file is read a line at a time, dropping a leading
byte-order mark; a byte that is not UTF-8 is a data error naming the file
and the line of the first such byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    DomainError,
    EmbeddingDimMismatch,
    InvalidDistribution,
    NonFiniteEmbedding,
    UnknownTag,
)
from .ioutil import numbered_lines


@dataclass
class TagEmbeddingSpace:
    """Embeddings for one attribute's tags plus the pair-similarity
    distribution.

    ``similarities`` holds every ordered pair's cosine and ``percentiles``
    its percentile, both (n, n) and built once; ``_similarity_rows`` and
    ``_percentile_rows`` hold them as nested lists of floats, for per-pair
    reads.
    """

    attribute: str
    tags: tuple[str, ...]
    vectors: np.ndarray
    similarities: np.ndarray = field(init=False)
    percentiles: np.ndarray = field(init=False)
    _similarity_rows: list[list[float]] = field(init=False)
    _percentile_rows: list[list[float]] = field(init=False)
    _index: dict = field(init=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        norms = np.linalg.norm(self.vectors, axis=1)
        safe = np.where(norms == 0, 1.0, norms)
        unit = self.vectors / safe[:, None]
        self.similarities = unit @ unit.T
        n = len(self.tags)
        pair_sims = np.sort(self.similarities[np.triu_indices(n, k=1)])
        below = np.searchsorted(pair_sims, self.similarities, side="left")
        self.percentiles = 100.0 * below / max(pair_sims.size, 1)
        np.fill_diagonal(self.percentiles, 100.0)
        self._similarity_rows = self.similarities.tolist()
        self._percentile_rows = self.percentiles.tolist()
        self._index = {t: i for i, t in enumerate(self.tags)}

    def __contains__(self, tag: str) -> bool:
        return tag in self._index

    def _require(self, tag: str) -> int:
        if tag not in self._index:
            raise UnknownTag(f"{tag!r} not in attribute {self.attribute!r}")
        return self._index[tag]


def load_tag_embeddings(path: str | Path) -> dict[str, TagEmbeddingSpace]:
    """Read ``attribute<TAB>tag<TAB>floats`` lines into per-attribute spaces;
    a blank line (empty, or spaces and tabs only) is skipped.

    A line without three tab-separated fields, listing a tag of its
    attribute again, without values, with a value that is not a finite
    number, or with another width than its attribute's first vector is a
    data error that names the file and line.
    """
    groups: dict[str, list[tuple[str, np.ndarray]]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for number, line in numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        where = f"{path} line {number}"
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{where}: {len(fields)} tab-separated field(s), "
                            f"expected attribute, tag and values")
        attribute, tag, values = fields
        first = first_line.setdefault((attribute, tag), number)
        if first != number:
            raise DataError(f"{where}: {tag!r} of {attribute!r} is listed "
                            f"again; its first row is line {first}")
        try:
            vec = np.asarray([float(v) for v in values.split()])
        except ValueError as err:
            raise DataError(f"{where}: {err}") from None
        if not vec.size:
            raise DataError(f"{where}: no values for {tag!r}")
        if not np.isfinite(vec).all():
            raise NonFiniteEmbedding(
                f"{where}: non-finite value in the vector of {tag!r}")
        rows = groups.setdefault(attribute, [])
        if rows and vec.size != rows[0][1].size:
            raise EmbeddingDimMismatch(
                f"{where}: {vec.size} values for {tag!r}, but {attribute!r} "
                f"vectors have {rows[0][1].size}")
        rows.append((tag, vec))
    spaces = {}
    for attribute, rows in groups.items():
        rows.sort(key=lambda kv: kv[0])
        spaces[attribute] = TagEmbeddingSpace(
            attribute=attribute, tags=tuple(t for t, _ in rows),
            vectors=np.stack([v for _, v in rows]))
    return spaces


# ---------------------------------------------------------------------------
# F-1


def _check_aligned(predictions: Mapping[str, set], gold: Mapping[str, set]) -> None:
    if set(predictions) != set(gold):
        raise ValueError("predictions and gold cover different script sets")


def micro_f1(predictions: Mapping[str, set], gold: Mapping[str, set]) -> float:
    """Micro-averaged F-1 over all (script, tag) decisions of one attribute."""
    _check_aligned(predictions, gold)
    tp = fp = fn = 0
    for key in gold:
        p, g = set(predictions[key]), set(gold[key])
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def similarity_f1(predictions: Mapping[str, set], gold: Mapping[str, set],
                  space: TagEmbeddingSpace, cutoff: float) -> float:
    """F-1 with similarity-thresholded matching.

    Per script, candidate (prediction, gold) pairs are visited by descending
    similarity (exact matches first on ties); a pair whose percentile
    reaches the cutoff consumes both sides as one true positive.  Leftover
    predictions are false positives, leftover gold tags false negatives.
    At cutoff 100 only exact matches qualify, reproducing ``micro_f1``.

    A script's outcome depends only on its (prediction set, gold set)
    pair, and a corpus repeats few of them, so each distinct pair is
    resolved, sorted and matched once per call, and its counts are taken
    once for every script that holds it.  Pairs are matched in the order
    the scripts, in key order, first reach them, so the first unknown tag
    raises as a per-script pass would raise it.
    """
    _check_aligned(predictions, gold)
    sims, percentiles = space._similarity_rows, space._percentile_rows
    require = space._require
    # scripts per distinct pair, in the order the scripts first reach it
    pairs = Counter((frozenset(predictions[key]), frozenset(gold[key]))
                    for key in sorted(gold))
    tp = fp = fn = 0
    for (p, g), scripts in pairs.items():
        p, g = sorted(p), sorted(g)
        matched = 0
        if p and g:  # else no pair, so no tag to resolve
            # tags resolve in the order the pairs first reach them, so an
            # unknown one raises as a per-pair lookup would
            first = require(p[0])
            cols = [require(b) for b in g]
            rows = [first] + [require(a) for a in p[1:]]
            # by descending similarity, exact matches first on ties
            candidates = sorted((-sims[i][j], a != b, a, b, percentiles[i][j])
                                for a, i in zip(p, rows) for b, j in zip(g, cols))
            matched_p: set[str] = set()
            matched_g: set[str] = set()
            for _, _, a, b, percentile in candidates:
                if a in matched_p or b in matched_g:
                    continue
                if percentile >= cutoff:
                    matched_p.add(a)
                    matched_g.add(b)
                    matched += 1
        tp += scripts * matched
        fp += scripts * (len(p) - matched)
        fn += scripts * (len(g) - matched)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


# ---------------------------------------------------------------------------
# taxonomy analyses


def merge_equivalents(space: TagEmbeddingSpace,
                      cutoff: float) -> tuple[tuple[str, ...], ...]:
    """Partition tags by transitively merging pairs at or above the cutoff."""
    parent = {t: t for t in space.tags}

    def find(t: str) -> str:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for i, j in zip(*np.nonzero(np.triu(space.percentiles >= cutoff, k=1))):
        ra, rb = find(space.tags[i]), find(space.tags[j])
        if ra != rb:
            parent[rb] = ra
    classes: dict[str, list[str]] = {}
    for t in space.tags:
        classes.setdefault(find(t), []).append(t)
    return tuple(sorted(tuple(sorted(members)) for members in classes.values()))


def tag_perplexity(probabilities: Sequence[float]) -> float:
    """2 ** H of a tag distribution, with 0 * log 0 = 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidDistribution(
            f"probabilities must be nonnegative and sum to 1, got sum={p.sum()!r}")
    nz = p[p > 0]
    entropy = float(-(nz * np.log2(nz)).sum())
    return 2.0 ** entropy


def pair_permutations(n: int) -> int:
    """Number of ordered pairs of distinct tags: n! / (n-2)! = n (n - 1)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return n * (n - 1)


def merged_distribution(tag_counts: Mapping[str, float],
                        classes: Sequence[Sequence[str]]) -> np.ndarray:
    """Probabilities over merged tag classes from corpus counts."""
    counts = np.asarray([sum(tag_counts.get(t, 0) for t in members)
                         for members in classes], dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise InvalidDistribution("no tag occurrences")
    return counts / total


def similarity_report(predictions: Mapping[str, set], gold: Mapping[str, set],
                      space: TagEmbeddingSpace, cutoffs: Sequence[float],
                      tag_counts: Mapping[str, float]) -> dict:
    """Cutoff sweep: F-1 plus perplexity/cardinality reductions vs cutoff 100."""
    base_classes = merge_equivalents(space, 100.0)
    base_perplexity = tag_perplexity(merged_distribution(tag_counts, base_classes))
    base_cardinality = len(base_classes)
    out: dict = {"attribute": space.attribute, "cutoffs": {}}
    for cutoff in cutoffs:
        classes = merge_equivalents(space, cutoff)
        perplexity = tag_perplexity(merged_distribution(tag_counts, classes))
        entry = {
            "f1": similarity_f1(predictions, gold, space, cutoff),
            "perplexity": perplexity,
            "cardinality": len(classes),
            "perplexity_reduction": 1.0 - perplexity / base_perplexity,
            "cardinality_reduction": 1.0 - len(classes) / base_cardinality,
        }
        out["cutoffs"][f"{cutoff:g}"] = entry
    return out
