"""The per-pair percentile, similarity F-1 and equivalence merge, kept as
the tests' oracle.

``similarity`` reads one pair's cosine, and ``percentile`` resolves both
tags, then looks the pair's similarity up in the sorted similarities of
the distinct pairs (``pairs``) with ``np.searchsorted``;
``similarity_f1`` resolves and looks up each candidate pair of a script on
its own, and ``merge_equivalents`` asks ``percentile`` for every pair, as
``scenewise.evaluation`` once did.  ``TagEmbeddingSpace`` builds one
(n, n) percentile table instead, and the three functions read it; the
tests in ``test_evaluation.py`` check that values, partitions and
``UnknownTag`` errors are the same.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from scenewise.evaluation import TagEmbeddingSpace, _check_aligned


def pairs(space: TagEmbeddingSpace) -> list[tuple[str, str]]:
    """Every unordered pair of distinct tags, in index order."""
    n = len(space.tags)
    return [(space.tags[i], space.tags[j])
            for i in range(n) for j in range(i + 1, n)]


def similarity(space: TagEmbeddingSpace, a: str, b: str) -> float:
    ia, ib = space._require(a), space._require(b)
    return float(space.similarities[ia, ib])


def percentile(space: TagEmbeddingSpace, a: str, b: str) -> float:
    """Percentile of the pair's similarity within the space's pairs."""
    space._require(a)
    space._require(b)
    if a == b:
        return 100.0
    n = len(space.tags)
    pair_sims = np.sort(space.similarities[np.triu_indices(n, k=1)])
    if pair_sims.size == 0:
        return 0.0
    s = similarity(space, a, b)
    below = int(np.searchsorted(pair_sims, s, side="left"))
    return 100.0 * below / pair_sims.size


def similarity_f1(predictions: Mapping[str, set], gold: Mapping[str, set],
                  space: TagEmbeddingSpace, cutoff: float) -> float:
    _check_aligned(predictions, gold)
    tp = fp = fn = 0
    for key in sorted(gold):
        p, g = sorted(set(predictions[key])), sorted(set(gold[key]))
        candidates = sorted(
            ((similarity(space, a, b), a, b) for a in p for b in g),
            key=lambda t: (-t[0], t[1] != t[2], t[1], t[2]))
        matched_p: set[str] = set()
        matched_g: set[str] = set()
        for _, a, b in candidates:
            if a in matched_p or b in matched_g:
                continue
            if percentile(space, a, b) >= cutoff:
                matched_p.add(a)
                matched_g.add(b)
                tp += 1
        fp += len(p) - len(matched_p)
        fn += len(g) - len(matched_g)
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def merge_equivalents(space: TagEmbeddingSpace,
                      cutoff: float) -> tuple[tuple[str, ...], ...]:
    parent = {t: t for t in space.tags}

    def find(t: str) -> str:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for a, b in pairs(space):
        if percentile(space, a, b) >= cutoff:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    classes: dict[str, list[str]] = {}
    for t in space.tags:
        classes.setdefault(find(t), []).append(t)
    return tuple(sorted(tuple(sorted(members)) for members in classes.values()))
