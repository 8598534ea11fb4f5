import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evaluation_oracle
from scenewise.errors import (
    DataError,
    DomainError,
    EmbeddingDimMismatch,
    InvalidDistribution,
    NonFiniteEmbedding,
    UnknownTag,
)
from scenewise.evaluation import (
    TagEmbeddingSpace,
    load_tag_embeddings,
    merge_equivalents,
    merged_distribution,
    micro_f1,
    pair_permutations,
    similarity_f1,
    similarity_report,
    tag_perplexity,
)


def space_of(tags, vectors, attribute="genre"):
    return TagEmbeddingSpace(attribute=attribute, tags=tuple(tags),
                             vectors=np.asarray(vectors, dtype=float))


def random_space(seed, n_tags=5, dim=6, attribute="genre"):
    rng = np.random.default_rng(seed)
    tags = tuple(f"tag{i}" for i in range(n_tags))
    return space_of(tags, rng.normal(size=(n_tags, dim)), attribute)


def pct(space, a, b):
    """The space's percentile table at the pair ``(a, b)``."""
    return float(space.percentiles[space.tags.index(a), space.tags.index(b)])


# ---------------------------------------------------------------------------
# micro F1


def test_micro_f1_perfect():
    gold = {"a": {"x"}, "b": {"y"}}
    assert micro_f1(gold, gold) == 1.0


def test_micro_f1_all_negative_predictions():
    gold = {"a": {"x"}, "b": set()}
    pred = {"a": set(), "b": set()}
    assert micro_f1(pred, gold) == 0.0


def test_micro_f1_hand_count():
    gold = {"s1": {"a"}, "s2": {"b"}}
    pred = {"s1": {"a"}, "s2": {"a"}}
    # TP=1, FP=1, FN=1 -> P = R = 1/2 -> F1 = 0.5
    assert micro_f1(pred, gold) == 0.5


def test_micro_f1_symmetric_under_tag_permutation():
    gold = {"s1": {"a", "b"}, "s2": {"c"}}
    pred = {"s1": {"a"}, "s2": {"b", "c"}}
    rename = {"a": "z", "b": "y", "c": "x"}
    gold2 = {k: {rename[t] for t in v} for k, v in gold.items()}
    pred2 = {k: {rename[t] for t in v} for k, v in pred.items()}
    assert micro_f1(pred, gold) == micro_f1(pred2, gold2)


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_identical_tag_is_100():
    s = random_space(0)
    assert pct(s, "tag0", "tag0") == 100.0


def test_percentile_distinct_pairs_below_100():
    s = random_space(1)
    for a, b in evaluation_oracle.pairs(s):
        assert pct(s, a, b) < 100.0


def test_percentile_most_dissimilar_pair_lowest():
    s = random_space(2)
    pairs = evaluation_oracle.pairs(s)
    percentiles = {p: pct(s, *p) for p in pairs}
    sims = {p: evaluation_oracle.similarity(s, *p) for p in pairs}
    worst = min(pairs, key=lambda p: sims[p])
    assert percentiles[worst] == min(percentiles.values())
    assert percentiles[worst] == 0.0


def test_percentile_four_tag_hand_computed():
    # unit vectors at known angles make cosines explicit
    vectors = [[1, 0], [1, 0], [0, 1], [-1, 0]]
    s = space_of(["a", "b", "c", "d"], vectors)
    # pair sims: ab=1, ac=0, ad=-1, bc=0, bd=-1, cd=0  -> sorted [-1,-1,0,0,0,1]
    assert pct(s, "a", "b") == pytest.approx(100 * 5 / 6)
    assert pct(s, "a", "c") == pytest.approx(100 * 2 / 6)
    assert pct(s, "a", "d") == 0.0


# ---------------------------------------------------------------------------
# similarity F1


def random_fixture(seed, n_scripts=8, n_tags=5):
    rng = np.random.default_rng(seed)
    space = random_space(seed + 1000, n_tags=n_tags)
    gold, pred = {}, {}
    for i in range(n_scripts):
        key = f"s{i}"
        gold[key] = {t for t in space.tags if rng.random() < 0.4}
        pred[key] = {t for t in space.tags if rng.random() < 0.4}
    return pred, gold, space


@pytest.mark.parametrize("seed", range(25))
def test_similarity_f1_cutoff_100_equals_micro(seed):
    pred, gold, space = random_fixture(seed)
    assert similarity_f1(pred, gold, space, 100.0) == micro_f1(pred, gold)


@pytest.mark.parametrize("seed", range(25))
def test_similarity_f1_monotone_in_cutoff(seed):
    pred, gold, space = random_fixture(seed)
    values = [similarity_f1(pred, gold, space, c)
              for c in (100, 95, 90, 85, 80, 75, 70)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo


def test_similarity_f1_cutoff_zero_matches_everything_possible():
    pred, gold, space = random_fixture(99)
    pred = {k: v or {"tag0"} for k, v in pred.items()}
    gold = {k: v or {"tag1"} for k, v in gold.items()}
    f1 = similarity_f1(pred, gold, space, 0.0)
    # every prediction matches up to gold availability
    tp = sum(min(len(pred[k]), len(gold[k])) for k in gold)
    p_total = sum(len(v) for v in pred.values())
    g_total = sum(len(v) for v in gold.values())
    assert f1 == pytest.approx(2 * tp / (p_total + g_total))


def test_similarity_f1_crime_heist_style_pair():
    # "crime" and "heist" nearly parallel, "romance" far away
    vectors = [[1.0, 0.0], [0.96, 0.28], [-1.0, 0.2], [0.1, -1.0]]
    space = space_of(["crime", "heist", "pastoral", "romance"], vectors)
    pred = {"s": {"crime"}}
    gold = {"s": {"heist"}}
    cutoff = pct(space, "crime", "heist")
    assert similarity_f1(pred, gold, space, cutoff) == 1.0  # TP at its percentile
    assert similarity_f1(pred, gold, space, 100.0) == 0.0  # FP above it


def test_similarity_f1_one_to_one_consumption():
    # two predictions near one gold tag: only one can claim it
    vectors = [[1.0, 0.0], [0.99, 0.14], [0.98, 0.2]]
    space = space_of(["g", "p1", "p2"], vectors)
    pred = {"s": {"p1", "p2"}}
    gold = {"s": {"g"}}
    f1 = similarity_f1(pred, gold, space, 0.0)
    # TP=1, FP=1, FN=0
    assert f1 == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# the percentile table against the per-pair oracle


def oracle_spaces():
    """Random spaces of 0 to 9 tags, with repeated and zero vectors, so
    that pair similarities tie and percentiles share values."""
    spaces = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = seed % 10
        vectors = rng.normal(size=(n, 4))
        if n >= 3:
            vectors[rng.integers(n)] = vectors[rng.integers(n)]
            vectors[rng.integers(n)] = 0.0
        if seed % 4 == 0:
            vectors = np.round(vectors)  # coarse vectors: many tied cosines
        spaces.append(space_of([f"t{i}" for i in range(n)], vectors))
    return spaces


def oracle_cutoffs(space):
    """Fixed cutoffs and every percentile the space reaches, so a pair
    sits exactly on a cutoff."""
    return sorted({100.0, 90.0, 80.0, 70.0, 50.0, 0.0}
                  | set(space.percentiles.ravel().tolist()))


def test_percentile_table_matches_per_pair_oracle():
    for space in oracle_spaces():
        n = len(space.tags)
        assert space.percentiles.shape == (n, n)
        for i, a in enumerate(space.tags):
            for j, b in enumerate(space.tags):
                want = evaluation_oracle.percentile(space, a, b)
                assert space.percentiles[i, j] == want, (space.tags, a, b)
                # the per-pair reads of similarity_f1 are the same floats
                got = space._percentile_rows[i][j]
                assert type(got) is float and got == want, (space.tags, a, b)


def test_similarity_f1_and_merge_match_per_pair_oracle():
    for seed, space in enumerate(oracle_spaces()):
        rng = np.random.default_rng(seed + 500)
        tags = list(space.tags)
        pred, gold = {}, {}
        for i in range(12):
            pred[f"s{i}"] = {t for t in tags if rng.random() < 0.35}
            gold[f"s{i}"] = {t for t in tags if rng.random() < 0.35}
        for cutoff in oracle_cutoffs(space):
            assert similarity_f1(pred, gold, space, cutoff) == \
                evaluation_oracle.similarity_f1(pred, gold, space, cutoff)
            assert merge_equivalents(space, cutoff) == \
                evaluation_oracle.merge_equivalents(space, cutoff)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnknownTag as err:
        return f"UnknownTag: {err}"


@pytest.mark.parametrize("pred, gold", [
    ({"s": {"x"}}, {"s": set()}),               # no pair: nothing resolved
    ({"s": set()}, {"s": {"x", "tag0"}}),
    ({"s": {"x"}}, {"s": {"tag0"}}),
    ({"s": {"tag0"}}, {"s": {"tag1", "y"}}),
    ({"s": {"tag0", "x"}}, {"s": {"tag1", "y"}}),  # y is reached first
    ({"s": {"tag2", "x"}}, {"s": {"tag1"}}),
    ({"s": {"x", "y"}}, {"s": {"z"}}),
    ({"a": {"tag0"}, "b": {"x"}}, {"a": {"tag0"}, "b": set()}),
    ({"a": {"tag0"}, "b": {"x"}}, {"a": {"y"}, "b": {"tag1"}}),
])
def test_similarity_f1_unknown_tags_raise_as_oracle(pred, gold):
    space = random_space(8, n_tags=3)
    for cutoff in (100.0, 0.0):
        assert outcome(similarity_f1, pred, gold, space, cutoff) == \
            outcome(evaluation_oracle.similarity_f1, pred, gold, space, cutoff)


def test_similarity_f1_unknown_tags_fuzz_against_oracle():
    space = random_space(9, n_tags=4)
    names = list(space.tags) + ["u0", "u1"]
    odds = [0.35] * len(space.tags) + [0.06, 0.06]
    rng = np.random.default_rng(3)
    raised = 0

    def draw():
        return {f"s{i}": {t for t, p in zip(names, odds) if rng.random() < p}
                for i in range(3)}

    for _ in range(300):
        pred, gold = draw(), draw()
        cutoff = float(rng.choice([100.0, 80.0, 0.0]))
        want = outcome(evaluation_oracle.similarity_f1, pred, gold, space, cutoff)
        assert outcome(similarity_f1, pred, gold, space, cutoff) == want
        raised += isinstance(want, str)
    assert 50 < raised < 250  # both outcomes are exercised


# ---------------------------------------------------------------------------
# merging


def test_merge_all_singletons_above_all_percentiles():
    s = random_space(5)
    classes = merge_equivalents(s, 100.0)
    assert len(classes) == len(s.tags)


def test_merge_cutoff_zero_single_class():
    s = random_space(6)
    classes = merge_equivalents(s, 0.0)
    assert len(classes) == 1
    assert set(classes[0]) == set(s.tags)


def test_merge_transitive_chain():
    # a~b and b~c highly similar; a~c less so, still one class via transitivity
    vectors = [[1.0, 0.0], [0.95, 0.31], [0.81, 0.59], [-1.0, 0.0], [0.0, -1.0]]
    s = space_of(["a", "b", "c", "x", "y"], vectors)
    pct_ab = pct(s, "a", "b")
    pct_bc = pct(s, "b", "c")
    pct_ac = pct(s, "a", "c")
    cutoff = min(pct_ab, pct_bc)
    assert pct_ac < cutoff
    classes = merge_equivalents(s, cutoff)
    assert ("a", "b", "c") in classes


def test_merge_class_count_nonincreasing():
    s = random_space(7)
    counts = [len(merge_equivalents(s, c)) for c in (100, 80, 60, 40, 20, 0)]
    for hi, lo in zip(counts, counts[1:]):
        assert lo <= hi


# ---------------------------------------------------------------------------
# perplexity and permutations


def test_perplexity_uniform_eight():
    assert tag_perplexity([1 / 8] * 8) == pytest.approx(8.0, abs=1e-12)


def test_perplexity_point_mass():
    assert tag_perplexity([1.0, 0.0, 0.0]) == 1.0


def test_perplexity_half_quarter_quarter():
    assert tag_perplexity([0.5, 0.25, 0.25]) == pytest.approx(2 ** 1.5)


def test_perplexity_invalid():
    with pytest.raises(InvalidDistribution):
        tag_perplexity([0.5, 0.4])
    with pytest.raises(InvalidDistribution):
        tag_perplexity([1.5, -0.5])


def test_pair_permutations_values():
    assert pair_permutations(2) == 2
    assert pair_permutations(5) == 20
    for n in range(2, 101):
        p = pair_permutations(n)
        assert n * n - n - p == 0
        assert p == math.factorial(n) // math.factorial(n - 2)


def test_pair_permutations_domain():
    with pytest.raises(DomainError):
        pair_permutations(1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_merging_never_increases_perplexity(seed, n_tags):
    rng = np.random.default_rng(seed)
    space = random_space(seed, n_tags=n_tags)
    counts = {t: int(rng.integers(1, 50)) for t in space.tags}
    base = tag_perplexity(merged_distribution(counts, merge_equivalents(space, 100)))
    for cutoff in (90, 70, 50, 20, 0):
        merged = tag_perplexity(
            merged_distribution(counts, merge_equivalents(space, cutoff)))
        assert merged <= base + 1e-9
        base = merged


# ---------------------------------------------------------------------------
# file I/O and report


def test_load_tag_embeddings_round_trip(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("genre\tcrime\t1.0 0.0\ngenre\theist\t0.9 0.1\n"
                    "mood\tdark\t0.0 1.0\n")
    spaces = load_tag_embeddings(path)
    assert set(spaces) == {"genre", "mood"}
    assert spaces["genre"].tags == ("crime", "heist")
    assert evaluation_oracle.similarity(spaces["genre"], "crime", "crime") \
        == pytest.approx(1.0)


def test_load_tag_embeddings_drops_a_byte_order_mark(tmp_path):
    text = ("genre\tcrime\t1.0 0.0\ngenre\theist\t0.9 0.1\n"
            "mood\tdark\t0.0 1.0\n")
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_tag_embeddings(plain), load_tag_embeddings(marked)
    assert list(got) == list(want) == ["genre", "mood"]
    for attribute, space in want.items():
        assert got[attribute].tags == space.tags
        assert np.array_equal(got[attribute].vectors, space.vectors)
        assert np.array_equal(got[attribute].percentiles, space.percentiles)


@pytest.mark.parametrize("second, message", [
    (b"genre\theist\t0.9 x\n", "could not convert"),
    (b"genre\theist\t0.9 \xff\n", "byte 0xff is not UTF-8 text"),
], ids=["text", "byte"])
def test_load_tag_embeddings_numbers_lines_after_a_mark(tmp_path, second,
                                                        message):
    # the mark is no line, and the error still names the file and line
    path = tmp_path / "tags.tsv"
    path.write_bytes(b"\xef\xbb\xbfgenre\tcrime\t1.0 0.0\n" + second)
    with pytest.raises(DataError, match=message) as err:
        load_tag_embeddings(path)
    assert str(err.value).startswith(f"{path} line 2: ")


def test_load_tag_embeddings_name_a_faulty_line_before_a_bad_byte(tmp_path):
    # the bad byte is in the same 8 KiB decode chunk as the repeated tag
    path = tmp_path / "tags.tsv"
    path.write_bytes(b"genre\tcrime\t1.0 0.0\ngenre\tcrime\t0.9 0.1\n"
                     b"genre\theist\t0.9 \xff\n")
    with pytest.raises(DataError) as err:
        load_tag_embeddings(path)
    assert str(err.value) == (f"{path} line 2: 'crime' of 'genre' is listed "
                              f"again; its first row is line 1")


@pytest.mark.parametrize("bad, error, message", [
    ("genre\theist\t0.9 nan\n", NonFiniteEmbedding, "non-finite"),
    ("genre\theist\t0.9 inf\n", NonFiniteEmbedding, "non-finite"),
    ("genre\theist\t0.9 0.1 0.3\n", EmbeddingDimMismatch, "3 values"),
    ("genre heist 0.9 0.1\n", DataError, "1 tab-separated field"),
    ("genre\theist\n", DataError, "2 tab-separated field"),
    ("genre\theist\t\n", DataError, "no values"),
    ("genre\theist\t0.9 x\n", DataError, "could not convert"),
    ("genre\tcrime\t0.9 0.1\n", DataError,
     "'crime' of 'genre' is listed again; its first row is line 1"),
], ids=["nan", "inf", "ragged", "spaces", "two-fields", "empty", "text",
        "repeated"])
def test_load_tag_embeddings_rejects_bad_line(tmp_path, bad, error, message):
    path = tmp_path / "tags.tsv"
    path.write_text("genre\tcrime\t1.0 0.0\n" + bad)
    with pytest.raises(error, match=message) as err:
        load_tag_embeddings(path)
    assert isinstance(err.value, DataError)
    assert f"{path} line 2" in str(err.value)


def test_similarity_report_shape():
    pred, gold, space = random_fixture(3)
    counts = {t: 5 for t in space.tags}
    report = similarity_report(pred, gold, space, [100, 90, 70], counts)
    assert report["attribute"] == "genre"
    assert set(report["cutoffs"]) == {"100", "90", "70"}
    base = report["cutoffs"]["100"]
    assert base["perplexity_reduction"] == 0.0
    assert base["cardinality_reduction"] == 0.0
    assert report["cutoffs"]["70"]["perplexity_reduction"] >= 0.0
