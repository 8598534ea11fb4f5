import numpy as np
import pytest

from scenewise.corpus import TokenVectors, Vocabulary, WordEmbeddings


def make_vectors(table: dict[str, np.ndarray]) -> TokenVectors:
    dim = len(next(iter(table.values())))
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
    return TokenVectors(Vocabulary(list(arrays)),
                        WordEmbeddings(arrays, dim))


def embedding_rows(embeddings: WordEmbeddings, tokens: list[str]) -> np.ndarray:
    """One row per token, looked up by name; tokens the table lacks take the
    unknown vector, the last row."""
    return embeddings.matrix[[embeddings.index.get(t, -1) for t in tokens]]


@pytest.fixture
def tiny_vectors():
    rng = np.random.default_rng(42)
    tokens = ["alpha", "beta", "gamma", "delta", "sun", "moon", "tide", "dust"]
    return make_vectors({t: rng.normal(size=4) for t in tokens})
