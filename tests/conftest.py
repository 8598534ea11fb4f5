import numpy as np
import pytest

from scenewise.corpus import TokenVectors, Vocabulary, WordEmbeddings
from scenewise.parser import StatementKind


def make_vectors(tokens: list[str], rows) -> TokenVectors:
    """A vocabulary of ``tokens`` and embeddings giving ``tokens[i]`` the
    vector ``rows[i]``."""
    return TokenVectors(Vocabulary(tokens),
                        WordEmbeddings(tokens, np.asarray(rows, np.float64)))


def embedding_rows(embeddings: WordEmbeddings, tokens: list[str]) -> np.ndarray:
    """One row per token, looked up by name; tokens the table lacks take the
    unknown vector, the last row."""
    return embeddings.matrix[[embeddings.index.get(t, -1) for t in tokens]]


def action_texts(scene) -> list[str]:
    """The texts of a scene's action statements, in order."""
    return [s.text for s in scene.statements if s.kind is StatementKind.ACTION]


def dialogue_lines(scene) -> list[tuple[str, str]]:
    """(character, text) of each of a scene's dialogue statements, in order."""
    return [(s.character, s.text) for s in scene.statements
            if s.kind is StatementKind.DIALOGUE]


def speakers(scene) -> set[str]:
    """The characters with a dialogue statement in a scene."""
    return {s.character for s in scene.statements
            if s.kind is StatementKind.DIALOGUE}


@pytest.fixture
def tiny_vectors():
    rng = np.random.default_rng(42)
    tokens = ["alpha", "beta", "gamma", "delta", "sun", "moon", "tide", "dust"]
    return make_vectors(tokens, rng.normal(size=(len(tokens), 4)))
