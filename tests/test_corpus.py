import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import parser_oracle as oracle
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
    read_script,
    split_titles,
)
from scenewise.errors import DataError
from scenewise.ioutil import sha256_hex

from conftest import dialogue_lines, embedding_rows, speakers


def test_tokenize_basic():
    def tokens(text):
        return cp.scene_tokens(parser.Scene(index=1, statements=[
            parser.Statement(parser.StatementKind.ACTION, text)]))

    assert tokens("What's her name?") == ["what's", "her", "name"]
    assert tokens("We TRACK alongside.") == ["we", "track", "alongside"]


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


def test_negative_descriptor_exclusion_is_refused_when_built():
    # a negative count would slice away every token but the rarest
    with pytest.raises(ValueError, match=r"^IngestConfig\.descriptor_top_exclude "
                       r"must be a finite int in \[0, inf\), got -1$"):
        IngestConfig(descriptor_top_exclude=-1)
    plays = [parser.parse_script("s", "common words here\n", cap=None)]
    none = IngestConfig(descriptor_top_exclude=0).descriptor_top_exclude
    assert TokenPass(plays).descriptor_vocabulary(min_movies=1,
                                                  exclude_top=none) == \
        ("common", "here", "words")


def test_split_deterministic_and_order_independent():
    titles = [f"t{i}" for i in range(20)]
    s1 = split_titles(titles, 0.2, 0.1, seed=7)
    s2 = split_titles(list(reversed(titles)), 0.2, 0.1, seed=7)
    assert s1 == s2
    assert sum(1 for v in s1.values() if v == "heldout") == 4


@pytest.mark.parametrize("heldout,validation,named", [
    (-0.2, 0.1, "heldout_fraction"), (1.0, 0.1, "heldout_fraction"),
    (0.2, -0.5, "validation_fraction"), (0.2, 1.0, "validation_fraction"),
    (float("nan"), 0.1, "heldout_fraction")])
def test_split_fraction_outside_unit_interval_is_refused_when_built(
        heldout, validation, named):
    value = heldout if named == "heldout_fraction" else validation
    with pytest.raises(ValueError, match=rf"^IngestConfig\.{named} must be a "
                       rf"finite float in \[0, 1\), got {value!r}$"):
        IngestConfig(heldout_fraction=heldout, validation_fraction=validation)
    ends = IngestConfig(heldout_fraction=0.0, validation_fraction=0.0)
    assert split_titles(["a", "b"], ends.heldout_fraction,
                        ends.validation_fraction, seed=0) == {"a": "train",
                                                              "b": "train"}


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
        play = parser.parse_script(path.stem, path.read_text(), cap=None)
        assert play.quality["counts"]["OTHER"] == 0
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
            assert speakers(scene) == {c for c, _ in dialogue_lines(scene)}
        split_again = oracle.split_long_scenes(play, cap=10)
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


def test_synthetic_spec_record_keeps_its_bytes(tmp_path):
    # the spec is written with asdict: its range tuples become JSON lists,
    # so the hash and the truth file are those of the old list-making record
    spec = SynthSpec(n_scripts=2, n_tags=2, seed=3)
    manifest = generate_synthetic_corpus(tmp_path, spec)
    written = json.loads((tmp_path / "synth_manifest.json").read_text())
    assert written["spec"]["scenes_range"] == [5, 8]
    assert written["spec_hash"] == manifest["spec_hash"] == \
        "0fac8c0434909f689b93cd6501e69f13bb0c079bdd47bcb7831a8a100216e127"
    assert sha256_hex((tmp_path / "truth.json").read_bytes()) == \
        "529650aac3267b83b38868453427653ec66231bd16b547df0e9565dd76e553fa"


@pytest.mark.parametrize("field,value", [
    ("n_scripts", 0), ("n_tags", 1), ("n_tags", 9), ("markers_per_tag", 3),
    ("scenes_range", (5, 2)), ("scenes_range", (0, 3)),
    ("statements_range", (0, 0)), ("noise_vocab", -1), ("embedding_dim", 0),
    ("signal", 7.0), ("signal", -5.0), ("signal", math.nan),
    ("marker_spread", -1.0), ("marker_spread", math.inf),
    ("marker_spread", math.nan), ("seed", -1),
])
def test_synthetic_counts_out_of_range_raise_before_writing(tmp_path, field,
                                                            value):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"^SynthSpec\.{field} must be .*, "
                       rf"got {re.escape(repr(value))}$"):
        generate_synthetic_corpus(out, SynthSpec(**{field: value}))
    assert not out.exists()


def test_order_sensitive_corpus_refuses_more_tags_than_orders(tmp_path):
    # a fourth tag would get the first tag's rotation of the order tokens
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"^SynthSpec\.n_tags must be at most 3 "
                       r"with order_sensitive, .*, got 4$"):
        generate_synthetic_corpus(out, SynthSpec(n_tags=4, order_sensitive=True))
    assert not out.exists()
    generate_synthetic_corpus(out, SynthSpec(n_scripts=1, n_tags=4))


def test_order_sensitive_corpus_keeps_its_bytes(tmp_path):
    spec = SynthSpec(n_scripts=3, n_tags=len(cp.ORDER_TOKENS),
                     order_sensitive=True, seed=4)
    assert generate_synthetic_corpus(tmp_path, spec)["spec_hash"] == \
        "f37549b40ac41ada91ede4dbeb1c883b55cd25e8091728d3361a2561f41ba998"
    for name, digest in [
            ("truth.json",
             "59445e1e40f33f0edb0f911bc8bfb2d31bab21b47a8b27593c8745e34f4850ff"),
            ("loglines.json",
             "36c6ad46f6fa8ad663f09b6a2029dc18b3f9a6423fea83fc56e00d80333d3eea"),
            ("scripts/synth002.txt",
             "d396c8270a8609e3fccde01fef04c9a9fbb39d0a9c27f37b228bbe948e05f2e3")]:
        assert sha256_hex((tmp_path / name).read_bytes()) == digest, name


def test_synthetic_counts_take_their_range_ends(tmp_path):
    spec = SynthSpec(n_scripts=1, n_tags=len(cp.TOPIC_NAMES),
                     markers_per_tag=cp.PLANTED_RUN_MAX, scenes_range=(1, 1),
                     statements_range=(1, 1), noise_vocab=0, signal=0.0,
                     marker_spread=0.0)
    manifest = generate_synthetic_corpus(tmp_path, spec)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(truth["topics"]) == manifest["spec"]["n_tags"] == 8


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


def test_descriptor_vocabulary_keeps_only_vocabulary_words(synth_corpus):
    # a word below --min-count compiles to the unknown row, so it cannot be
    # picked out of the compiled ids as a descriptor word
    out, _ = synth_corpus
    paths = (out / "scripts", out / "tags.json", out / "embeddings.txt")
    loose = IngestConfig(min_count=2, descriptor_min_movies=2,
                         descriptor_top_exclude=10)
    strict = IngestConfig(min_count=8, descriptor_min_movies=2,
                          descriptor_top_exclude=10)
    full, _ = ingest(*paths, loose)
    corpus, manifest = ingest(*paths, strict)
    assert all(t in full.vocabulary for t in full.descriptor_vocab)
    kept = tuple(t for t in full.descriptor_vocab if t in corpus.vocabulary)
    assert corpus.descriptor_vocab == kept
    assert 0 < len(kept) < len(full.descriptor_vocab)
    assert manifest["descriptor_vocabulary_size"] == len(kept)


def walked_characters(corpus):
    """The training portion's speakers, read off the parsed scenes."""
    names = set()
    for it in corpus.train_items + corpus.validation_items:
        for scene in it.screenplay.scenes:
            names.update(speakers(scene))
    return sorted(names)


def test_characters_match_walk_over_scenes(synth_corpus):
    out, _ = synth_corpus
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       IngestConfig(min_count=2, validation_fraction=0.2))
    assert corpus.validation_items and corpus.heldout_items
    assert corpus.characters() == walked_characters(corpus)
    # the film fragments, cut into 3-statement scenes, change speakers
    # from scene to scene
    vocabulary, embeddings = Vocabulary([]), WordEmbeddings([], np.zeros((0, 2)))
    items = []
    for path in sorted((Path(__file__).parent / "data").glob("*.txt")):
        play = parser.parse_script(path.stem, path.read_text(encoding="utf-8"),
                                   cap=3)
        items.append(cp.CorpusItem(path.stem, play, {}, script=cp.compile_script(
            play, vocabulary, embeddings)))
    fragments = cp.Corpus(items, {it.title: "train" for it in items},
                          vocabulary, embeddings)
    assert fragments.characters() == walked_characters(fragments)
    assert len(fragments.characters()) >= 4


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


@pytest.mark.parametrize("make", [False, True])
def test_ingest_refuses_directory_without_scripts(tmp_path, synth_corpus, make):
    out, _ = synth_corpus
    scripts = tmp_path / "scripts"
    if make:
        scripts.mkdir()
        (scripts / "notes.md").write_text("INT. ROOM - DAY\n")
    with pytest.raises(DataError) as err:
        ingest(scripts, out / "tags.json", out / "embeddings.txt",
               IngestConfig(min_count=2))
    assert str(err.value) == f"no *.txt scripts under {scripts}"


def test_ingest_excludes_entry_that_is_not_a_regular_file(tmp_path,
                                                          synth_corpus):
    out, _ = synth_corpus
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for p in (out / "scripts").glob("*.txt"):
        (scripts / p.name).write_text(p.read_text())
    (scripts / "zdir.txt").mkdir()
    corpus, manifest = ingest(scripts, out / "tags.json", out / "embeddings.txt",
                              IngestConfig(min_count=2))
    assert len(corpus.items) == 10
    assert manifest["excluded"] == [{"title": "zdir",
                                     "reason": "not a regular file"}]


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


def test_ingest_says_why_it_skips_a_script_without_tags(tmp_path, synth_corpus,
                                                        caplog):
    out, _ = synth_corpus
    tags = json.loads((out / "tags.json").read_text())
    first = sorted(tags)[0]
    del tags[first]
    tags_path = tmp_path / "tags.json"
    tags_path.write_text(json.dumps(tags))
    with caplog.at_level("WARNING", logger="scenewise.corpus"):
        ingest(out / "scripts", tags_path, out / "embeddings.txt",
               IngestConfig(min_count=2))
    assert f"skipping {first}: missing tags" in [r.getMessage()
                                                 for r in caplog.records]


def test_embeddings_dim_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("\ntok 0.1 0.2 0.3\n")
    with pytest.raises(cp.EmbeddingDimMismatch) as err:
        WordEmbeddings.load(path, expected_dim=100)
    assert str(err.value) == f"{path} line 2: embedding dim 3, expected 100"
    emb = WordEmbeddings.load(path, expected_dim=3)
    assert emb.dim == 3
    assert np.allclose(embedding_rows(emb, ["tok"]), [[0.1, 0.2, 0.3]])
    assert np.allclose(embedding_rows(emb, ["missing"]), emb.matrix[-1:])


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
    path.write_text(f"tok 0.1 0.2 0.3\n\nbad 0.1 {value} 0.3\n")
    with pytest.raises(cp.NonFiniteEmbedding) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == (f"{path} line 3: non-finite value in the vector "
                              f"of 'bad'")


def test_embeddings_reject_row_of_another_width_naming_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("tok 0.1 0.2 0.3\nok 1 2 3\nshort 0.1 0.2\n")
    with pytest.raises(cp.EmbeddingDimMismatch) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == (f"{path} line 3: 2 values for 'short', but the "
                              f"first row has 3")


def test_embeddings_reject_non_numeric_value_naming_file_and_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 0.1 0.2\n\nb 1.0 abc\n")
    with pytest.raises(DataError) as err:
        WordEmbeddings.load(path, expected_dim=2)
    assert str(err.value) == (f"{path} line 3: could not convert string to "
                              f"float: 'abc'")


def test_embeddings_reject_token_listed_twice_naming_both_lines(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 0.1 0.2\nb 1.0 2.0\n\na 0.3 0.4\n")
    with pytest.raises(DataError) as err:
        WordEmbeddings.load(path, expected_dim=2)
    assert str(err.value) == (f"{path} line 4: 'a' is listed again; its first "
                              f"row is line 1")


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_embeddings_reject_a_file_without_a_vector_row(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == f"{path}: no vector row"


# decimals whose nearest double is hard to get right: 17 significant digits,
# the least subnormal, a decimal on the edge of the normal range, ties that
# round to even (2**53 + 1, 2**53 + 3 and 1 + 2**-53), a negative zero, the
# shortened forms and the largest double
HARD_DECIMALS = [
    ["0.10000000000000001", "4.9e-324", "2.2250738585072011e-308"],
    ["9007199254740993", "9007199254740995",
     "1.00000000000000011102230246251565404236316680908203125"],
    ["-0.0", "+1", ".5"],
    ["5.", "1E5", "-1.7976931348623157e308"],
]


def test_embeddings_read_each_value_as_float_does(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("".join(f"w{i} {' '.join(row)}\n"
                            for i, row in enumerate(HARD_DECIMALS)))
    emb = WordEmbeddings.load(path, expected_dim=3)
    want = np.array([[float(v) for v in row] for row in HARD_DECIMALS])
    assert emb.matrix[:-1].tobytes() == want.tobytes()
    assert emb.index == {f"w{i}": i for i in range(len(HARD_DECIMALS))}


PLAIN_ROWS = "a 0.1 0.2 0.3\nb -1 2.5 1e-3\n<unk> 7 8 9\n"


@pytest.mark.parametrize("text", [
    PLAIN_ROWS.replace("\n", "\r\n"),
    PLAIN_ROWS.replace("\n", "\r"),
    PLAIN_ROWS.rstrip("\n"),
    "a\t0.1\t0.2  0.3\nb \x0b-1\x1c2.5\xa0\xa01e-3 \t\n<unk>\x0c7 8 9\n",
    "\n \na 0.1 0.2 0.3\n\n\t\nb -1 2.5 1e-3\n<unk> 7 8 9\n\n  \n",
], ids=["crlf", "lone_cr", "no_final_newline", "whitespace_runs", "blank_lines"])
def test_embeddings_read_line_ends_and_whitespace_as_plain_rows(tmp_path, text):
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    plain.write_text(PLAIN_ROWS, encoding="utf-8")
    other.write_bytes(text.encode("utf-8"))
    want, got = (WordEmbeddings.load(p, expected_dim=3) for p in (plain, other))
    assert got.index == want.index == {"a": 0, "b": 1, "<unk>": 2}
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert np.array_equal(got.matrix[-1], [7.0, 8.0, 9.0])


@pytest.mark.parametrize("text, message", [
    ("tok\nb 1 2 3\n", "line 1: embedding dim 0, expected 3"),
    ("\ntok \t\nb 1 2 3\n", "line 2: embedding dim 0, expected 3"),
    ("a 1 2 3\ntok\nb 1 2 3\n", "line 2: 0 values for 'tok', but the first "
                                "row has 3"),
    ("a 1 2 3\nb 4 5 6\ntok\n", "line 3: 0 values for 'tok', but the first "
                                "row has 3"),
], ids=["first", "first_after_blank", "middle", "last"])
def test_embeddings_reject_a_token_without_values_naming_its_line(
        tmp_path, text, message):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    with pytest.raises(cp.EmbeddingDimMismatch) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == f"{path} {message}"


FILLER_ROWS = "".join(f"f{i} 1 2 3\n" for i in range(1000))   # over 8 KiB


@pytest.mark.parametrize("data, error, message", [
    (b"a 1 2 3\nb 1 nan 3\nc 1 x 3\n", cp.NonFiniteEmbedding,
     "line 2: non-finite value in the vector of 'b'"),
    (b"a 1 2 3\nb 1 x 3\nc 1 nan 3\n", DataError,
     "line 2: could not convert string to float: 'x'"),
    (b"a 1 2 3\nb 1 2\na 4 5 6\n", cp.EmbeddingDimMismatch,
     "line 2: 2 values for 'b', but the first row has 3"),
    (b"a 1 2 3\na 1 2\n", DataError,
     "line 2: 'a' is listed again; its first row is line 1"),
    (b"a 1 2 3\nb 1 1_0 3\nc 1 inf 3\n", DataError,
     "line 2: '1_0' is not a plain decimal number (ASCII digits, no '_')"),
    (b"a 1 2 3\nb 1 inf 3\n" + FILLER_ROWS.encode() + b"c 1 \xff 3\n",
     cp.NonFiniteEmbedding, "line 2: non-finite value in the vector of 'b'"),
    (b"a 1 2 3\nb 1 \xff 3\nc 1 inf 3\n", DataError,
     "line 2: byte 0xff is not UTF-8 text (invalid start byte)"),
], ids=["non_finite", "non_numeric", "width", "repeated", "underscore",
        "non_finite_then_bad_byte", "bad_byte"])
def test_embeddings_name_the_first_of_two_faulty_lines(tmp_path, data, error,
                                                        message):
    path = tmp_path / "emb.txt"
    path.write_bytes(data)
    with pytest.raises(error) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == f"{path} {message}"


@pytest.mark.parametrize("data, line", [
    (b"a 1 2 3\nb 1 nan 3\nc 1 \xff 3\n", 2),
    (b"a 1 2 3\r\nz 1 2 3\rb 1 nan 3\r\nc 1 \xff 3\n", 3),
    (b"\xef\xbb\xbfa 1 2 3\n\nb 1 nan 3\nc \xff\n", 3),
], ids=["newlines", "mixed_breaks", "mark_and_blank"])
def test_embeddings_name_a_faulty_line_before_a_bad_byte_in_its_chunk(
        tmp_path, data, line):
    # the bad byte is in the same 8 KiB decode chunk as the earlier fault
    path = tmp_path / "emb.txt"
    path.write_bytes(data)
    with pytest.raises(cp.NonFiniteEmbedding) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == (f"{path} line {line}: non-finite value in the "
                              f"vector of 'b'")


@pytest.mark.parametrize("value", ["1_0", "١", "１.5"],
                         ids=["underscore", "arabic_indic", "fullwidth"])
def test_embeddings_refuse_a_numeral_float_reads_but_numpy_does_not(tmp_path,
                                                                     value):
    assert float(value) in (10.0, 1.0, 1.5)
    path = tmp_path / "emb.txt"
    path.write_text(f"a 1 2 3\n\nb 1 {value} 3\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        WordEmbeddings.load(path, expected_dim=3)
    assert str(err.value) == (f"{path} line 3: {value!r} is not a plain "
                              f"decimal number (ASCII digits, no '_')")


BOM = "\ufeff"
BOM_SCRIPTS = [
    "INT. ROOM - DAY\n\nShe waits.\n" + " " * 20 + "ANNA\n" + " " * 10
    + "Hello.\n",
    (Path(__file__).parent / "data" / "pulp_fiction_fragment.txt").read_text(
        encoding="utf-8"),
    (Path(__file__).parent / "data" / "messy_fragment.txt").read_text(
        encoding="utf-8"),
]


@pytest.mark.parametrize("text", BOM_SCRIPTS, ids=["room", "pulp", "messy"])
def test_script_with_byte_order_mark_reads_as_without(tmp_path, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(BOM + text, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert read_script(marked) == read_script(plain) == (text, None)
    play = parser.parse_script("t", read_script(marked)[0])
    unmarked = parser.parse_script("t", text)
    assert (play, play.quality) == (unmarked, unmarked.quality)
    assert play.quality["counts"]["SCENE_HEADING"] >= 1


def test_embeddings_with_byte_order_mark_load_as_without(tmp_path):
    text = "a 0.1 0.2\nb 1.0 2.0\n<unk> 0.5 0.5\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(BOM + text, encoding="utf-8")
    want, got = (WordEmbeddings.load(p, expected_dim=2) for p in (plain, marked))
    assert got.index == want.index == {"a": 0, "b": 1, "<unk>": 2}
    assert got.matrix.tobytes() == want.matrix.tobytes()


def test_embedding_rows_gather_one_matrix():
    rows = np.array([[1.0, 2.0], [3.0, 5.0]])
    emb = WordEmbeddings(["a", "b"], rows)
    assert np.array_equal(emb.matrix[-1], [2.0, 3.5])
    assert np.array_equal(embedding_rows(emb, ["b", "zzz", "a"]),
                          [rows[1], [2.0, 3.5], rows[0]])
    assert embedding_rows(emb, []).shape == (0, 2)
    with_unk = WordEmbeddings(["a", cp.UNK_TOKEN, "b"],
                              np.insert(rows, 1, [9.0, 9.0], axis=0))
    assert np.array_equal(embedding_rows(with_unk, ["zzz"]), [[9.0, 9.0]])
    assert np.array_equal(embedding_rows(with_unk, ["b"]), rows[1:])
    assert not np.shares_memory(emb.matrix, rows)



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
