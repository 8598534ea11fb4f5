import numpy as np
import pytest

from scenewise.corpus import TokenVectors, Vocabulary, WordEmbeddings


def make_vectors(table: dict[str, np.ndarray]) -> TokenVectors:
    dim = len(next(iter(table.values())))
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}
    return TokenVectors(Vocabulary(list(arrays)),
                        WordEmbeddings(arrays, dim))


@pytest.fixture
def tiny_vectors():
    rng = np.random.default_rng(42)
    tokens = ["alpha", "beta", "gamma", "delta", "sun", "moon", "tide", "dust"]
    return make_vectors({t: rng.normal(size=4) for t in tokens})
