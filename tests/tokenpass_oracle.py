"""The per-statement tokenize pass, kept as the tests' oracle.

``TokenPass`` tokenizes each statement with the regular expression
``[a-z0-9']+`` over its lowercased text, numbers each new token with
``setdefault`` as it is met, and appends each statement's length, scene and
kind to lists.  ``scenewise.corpus.TokenPass`` builds the same types and
arrays with one map per play; the fuzz test in ``test_compiled.py`` checks
that the two agree, dtypes included.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from scenewise.parser import Screenplay, StatementKind

_TOKEN_RE = re.compile(r"[a-z0-9']+")

ACTION, DIALOGUE = 0, 1


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace/punctuation tokenization."""
    return _TOKEN_RE.findall(text.lower())


class TokenPass:
    """``types`` in first-seen order, and per play its tokens' type numbers
    (``type_ids``) and its ``layouts``: title, lengths, scenes, kinds and
    characters."""

    def __init__(self, screenplays: Sequence[Screenplay]):
        index: dict[str, int] = {}
        casts: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.type_ids: list[np.ndarray] = []
        self.layouts = []
        for play in screenplays:
            tokens: list[str] = []
            lengths, scenes, kinds, characters = [], [], [], []
            for s, scene in enumerate(play.scenes):
                speakers = set()
                for stmt in scene.statements:
                    toks = tokenize(stmt.text)
                    tokens += toks
                    lengths.append(len(toks))
                    scenes.append(s)
                    if stmt.kind is StatementKind.DIALOGUE:
                        kinds.append(DIALOGUE)
                        speakers.add(stmt.character)
                    else:
                        kinds.append(ACTION)
                cast = tuple(sorted(speakers))
                characters.append(casts.setdefault(cast, cast))
            self.type_ids.append(np.array(
                [index.setdefault(t, len(index)) for t in tokens], dtype=np.int32))
            self.layouts.append((play.title, np.array(lengths, dtype=np.int32),
                                 np.array(scenes, dtype=np.int32),
                                 np.array(kinds, dtype=np.int32),
                                 tuple(characters)))
        self.types = list(index)
