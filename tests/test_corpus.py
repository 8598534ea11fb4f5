import json

import numpy as np
import pytest

from scenewise import corpus as cp
from scenewise import parser
from scenewise.corpus import (
    IngestConfig,
    SynthSpec,
    TokenPass,
    Vocabulary,
    WordEmbeddings,
    generate_synthetic_corpus,
    ingest,
    load_loglines,
    load_tags,
    split_titles,
    tokenize,
)
from scenewise.errors import DataError
from scenewise.parser import StatementKind


def test_tokenize_basic():
    assert tokenize("What's her name?") == ["what's", "her", "name"]
    assert tokenize("We TRACK alongside.") == ["we", "track", "alongside"]


def test_vocabulary_min_count():
    plays = [parser.parse_script("a", "hello world\n" * 5 + "rare thing\n", cap=None)]
    vocab = TokenPass(plays).vocabulary(min_count=5)
    assert "hello" in vocab and "world" in vocab
    assert "rare" not in vocab


def test_vocabulary_hash_stable():
    v1 = Vocabulary(["b", "a"])
    v2 = Vocabulary(["a", "b"])
    assert v1.hash() == v2.hash()


def test_descriptor_vocabulary_filters():
    plays = []
    for i in range(6):
        text = "common words here\n" + (f"special{i:02d} marker\n" if i < 5 else "")
        plays.append(parser.parse_script(f"s{i}", text, cap=None))
    # "marker" occurs in 5 movies; exclude the 3 most frequent tokens
    vocab = TokenPass(plays).descriptor_vocabulary(min_movies=5, exclude_top=3)
    assert "marker" in vocab
    assert "common" not in vocab  # top-frequency exclusion
    assert not any(v.startswith("special") for v in vocab)  # below min_movies


def test_split_deterministic_and_order_independent():
    titles = [f"t{i}" for i in range(20)]
    s1 = split_titles(titles, 0.2, 0.1, seed=7)
    s2 = split_titles(list(reversed(titles)), 0.2, 0.1, seed=7)
    assert s1 == s2
    assert sum(1 for v in s1.values() if v == "heldout") == 4


def test_split_fractions_disjoint():
    titles = [f"t{i}" for i in range(50)]
    split = split_titles(titles, 0.2, 0.1, seed=0)
    counts = {"train": 0, "validation": 0, "heldout": 0}
    for v in split.values():
        counts[v] += 1
    assert counts["heldout"] == 10
    assert counts["validation"] == 4
    assert sum(counts.values()) == 50


def test_synthetic_corpus_well_formed(tmp_path):
    spec = SynthSpec(n_scripts=6, n_tags=2, signal=1.0, seed=3)
    manifest = generate_synthetic_corpus(tmp_path, spec)
    scripts = sorted((tmp_path / "scripts").glob("*.txt"))
    assert len(scripts) == 6
    truth = json.loads((tmp_path / "truth.json").read_text())
    tags = json.loads((tmp_path / "tags.json").read_text())
    assert manifest["spec"]["n_scripts"] == 6

    for path in scripts:
        raw = parser.RawScript.from_text(path.stem, path.read_text())
        classes = parser.classify_lines(raw)
        assert all(c.kind is not StatementKind.OTHER for c in classes)
        play = parser.segment_scenes(raw, classes)
        assigned = tags[path.stem]["genre"]
        for scene in play.scenes:
            toks = set(cp.scene_tokens(scene))
            for tag in assigned:
                # signal 1.0 plants at least one marker per scene per tag
                assert toks & set(truth["topics"][tag]), (path.stem, scene.index)


def test_synthetic_corpus_statistics_in_range(tmp_path):
    spec = SynthSpec(n_scripts=8, n_tags=3, signal=0.5, seed=11,
                     scenes_range=(4, 6), statements_range=(3, 5))
    generate_synthetic_corpus(tmp_path, spec)
    for path in sorted((tmp_path / "scripts").glob("*.txt")):
        play = parser.parse_script(path.stem, path.read_text(), cap=None)
        assert 4 <= len(play.scenes) <= 6
        for scene in play.scenes:
            assert 3 <= len(scene.statements) <= 5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_synthetic_corpus_satisfies_parser_invariants(tmp_path, seed):
    spec = SynthSpec(n_scripts=3, n_tags=2, signal=0.7, seed=seed,
                     order_sensitive=seed % 2 == 1)
    generate_synthetic_corpus(tmp_path / str(seed), spec)
    for path in sorted((tmp_path / str(seed) / "scripts").glob("*.txt")):
        play = parser.parse_script(path.stem, path.read_text(), cap=10)
        assert play.scenes[0].index == 1
        assert [s.index for s in play.scenes] == list(range(1, len(play.scenes) + 1))
        for scene in play.scenes:
            assert len(scene.statements) <= 10
            assert scene.characters == {c for c, _ in scene.dialogue_statements}
        split_again = parser.split_long_scenes(play, cap=10)
        assert split_again == play
        table = parser.to_table(play)
        assert parser.to_table(parser.parse_table(table)) == table


def test_synthetic_corpus_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    spec = SynthSpec(n_scripts=4, seed=9)
    generate_synthetic_corpus(a, spec)
    generate_synthetic_corpus(b, spec)
    for name in ("tags.json", "embeddings.txt", "loglines.json",
                 "tag_embeddings.tsv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for pa in sorted((a / "scripts").glob("*.txt")):
        assert pa.read_bytes() == (b / "scripts" / pa.name).read_bytes()


@pytest.fixture(scope="module")
def synth_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SynthSpec(n_scripts=10, n_tags=3, signal=0.9, seed=5)
    manifest = generate_synthetic_corpus(out, spec)
    return out, manifest


def test_ingest_round_trip(synth_corpus):
    out, _ = synth_corpus
    config = IngestConfig(min_count=2, heldout_fraction=0.2,
                          validation_fraction=0.1, seed=1,
                          descriptor_min_movies=2, descriptor_top_exclude=10)
    corpus, manifest = ingest(out / "scripts", out / "tags.json",
                              out / "embeddings.txt", config,
                              loglines_path=out / "loglines.json")
    assert len(corpus.items) == 10
    assert manifest["excluded"] == []
    assert set(manifest["splits"]) == {"train", "validation", "heldout"}
    assert len(corpus.heldout_items) == 2
    assert corpus.items == sorted(corpus.items, key=lambda it: it.title)
    assert all(it.logline for it in corpus.items)
    assert corpus.characters()


def test_descriptor_vocabulary_keeps_only_embedded_tokens(tmp_path, synth_corpus):
    # a descriptor word without a vector would pool, and rank among the
    # nearest words, as the one unknown vector all such words share
    out, _ = synth_corpus
    config = IngestConfig(min_count=2, descriptor_min_movies=2,
                          descriptor_top_exclude=10)
    full, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                     config)
    dropped = {t for t in full.descriptor_vocab if t.startswith("drift")}
    assert len(dropped) >= 3
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("".join(
        line for line in (out / "embeddings.txt").read_text().splitlines(True)
        if line.split(" ", 1)[0] not in dropped))
    corpus, manifest = ingest(out / "scripts", out / "tags.json", embeddings,
                              config)
    assert set(corpus.descriptor_vocab) == set(full.descriptor_vocab) - dropped
    assert all(t in corpus.embeddings for t in corpus.descriptor_vocab)
    assert manifest["descriptor_vocabulary_size"] == len(corpus.descriptor_vocab)


def test_ingest_deterministic(synth_corpus):
    out, _ = synth_corpus
    config = IngestConfig(min_count=2, seed=4)
    _, m1 = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt", config)
    _, m2 = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt", config)
    assert m1 == m2


def test_ingest_excludes_malformed(tmp_path, synth_corpus):
    out, _ = synth_corpus
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in (out / "scripts").glob("*.txt"):
        (scripts / p.name).write_text(p.read_text())
    (scripts / "zzbroken.txt").write_text("\n\n  \n")
    corpus, manifest = ingest(scripts, out / "tags.json", out / "embeddings.txt",
                              IngestConfig(min_count=2))
    assert len(corpus.items) == 10
    assert {e["title"] for e in manifest["excluded"]} == {"zzbroken"}


def test_ingest_skips_missing_tags(tmp_path, synth_corpus):
    out, _ = synth_corpus
    tags = json.loads((out / "tags.json").read_text())
    first = sorted(tags)[0]
    del tags[first]
    tags_path = tmp_path / "tags.json"
    tags_path.write_text(json.dumps(tags))
    corpus, manifest = ingest(out / "scripts", tags_path, out / "embeddings.txt",
                              IngestConfig(min_count=2))
    assert first not in {it.title for it in corpus.items}
    assert any(e["title"] == first and e["reason"] == "missing tags"
               for e in manifest["excluded"])


def test_embeddings_dim_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("tok 0.1 0.2 0.3\n")
    with pytest.raises(cp.EmbeddingDimMismatch):
        WordEmbeddings.load(path, expected_dim=100)
    emb = WordEmbeddings.load(path, expected_dim=3)
    assert emb.dim == 3
    assert np.allclose(emb.rows(["tok"]), [[0.1, 0.2, 0.3]])
    assert np.allclose(emb.rows(["missing"]), emb.matrix[-1:])


def test_token_below_min_count_maps_to_unk(synth_corpus):
    out, _ = synth_corpus
    config = IngestConfig(min_count=2)
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       config)
    play = parser.parse_script("t", "notarealtokenatall\n", cap=None)
    script = corpus.vectors().compiled(play)
    assert np.allclose(corpus.embeddings.matrix[script.ids[0]],
                       corpus.embeddings.matrix[-1])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_embeddings_reject_non_finite_values(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_text(f"tok 0.1 0.2 0.3\nbad 0.1 {value} 0.3\n")
    with pytest.raises(cp.NonFiniteEmbedding, match="'bad'"):
        WordEmbeddings.load(path, expected_dim=3)


def test_embedding_rows_gather_one_matrix():
    table = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 5.0])}
    emb = WordEmbeddings(table, 2)
    assert np.array_equal(emb.matrix[-1], [2.0, 3.5])
    rows = emb.rows(["b", "zzz", "a"])
    assert np.array_equal(rows, np.stack([table["b"], [2.0, 3.5], table["a"]]))
    assert emb.rows([]).shape == (0, 2)
    with_unk = WordEmbeddings({**table, cp.UNK_TOKEN: np.array([9.0, 9.0])}, 2)
    assert np.array_equal(with_unk.rows(["zzz"]), [[9.0, 9.0]])



@pytest.mark.parametrize("tags", [
    {"heat": {"genre": "drama"}},         # a string, not a list of tags
    {"heat": ["drama"]},                  # a list, not attributes
    {"heat": {"genre": ["drama", 3]}},    # a tag that is not a string
], ids=["string", "list", "number"])
def test_load_tags_rejects_malformed_entry(tmp_path, tags):
    path = tmp_path / "tags.json"
    path.write_text(json.dumps({"alien": {"genre": ["horror"]}, **tags}))
    with pytest.raises(DataError, match="'heat'"):
        load_tags(path)


def test_load_tags_rejects_non_object(tmp_path):
    path = tmp_path / "tags.json"
    path.write_text(json.dumps([["heat", "drama"]]))
    with pytest.raises(DataError, match="keyed by title"):
        load_tags(path)


def test_load_loglines_rejects_non_string(tmp_path):
    path = tmp_path / "loglines.json"
    path.write_text(json.dumps({"alien": "in space", "heat": ["a", "heist"]}))
    with pytest.raises(DataError, match="'heat'"):
        load_loglines(path)
    path.write_text(json.dumps({"alien": "in space", "heat": None}))
    assert load_loglines(path) == {"alien": "in space", "heat": None}
