"""Compiled scripts against the per-call path they replace.

The oracle below is the composition the encoders used before scripts were
compiled at ingest: every encode re-tokenized each statement, filtered the
tokens by the vocabulary and looked each one's embedding row up by name.
The compiled path must give bitwise the same logits and gradients, and the
single tokenize pass must give the vocabularies that per-token Counters give.
"""

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenewise import autodiff as ad
from scenewise.classifier import (
    LoglineEncoder,
    ScriptTagModel,
    TagTaxonomy,
    make_samples,
)
from scenewise.corpus import (
    UNK_TOKEN,
    IngestConfig,
    SynthSpec,
    TokenPass,
    TokenVectors,
    Vocabulary,
    WordEmbeddings,
    compile_script,
    generate_synthetic_corpus,
    ingest,
    logline_screenplay,
    scene_tokens,
)
from scenewise.encoders import (
    EncoderKind,
    EncoderSpec,
    HierarchicalModel,
    Variant,
    _scene_rows,
)
from scenewise.errors import DataError, EmptyScript, EmptyStatement
from scenewise.parser import (
    Scene,
    Screenplay,
    Statement,
    StatementKind,
    parse_script,
)

import tokenpass_oracle
from conftest import action_texts, dialogue_lines, embedding_rows, speakers
from tape_ops import dot, stack
from test_encoders import action, dialogue, scene_of
from test_parser import raw_scripts


# ---------------------------------------------------------------------------
# the per-call oracle


def oracle_rows(vectors: TokenVectors, tokens: list[str]) -> np.ndarray:
    """One embedding row per token, looked up by name; tokens outside the
    vocabulary take the ``<unk>`` name."""
    vocabulary = vectors.vocabulary
    return embedding_rows(
        vectors.embeddings, [t if t in vocabulary else UNK_TOKEN for t in tokens])


def oracle_encode_tokens(sequences, vectors, encoder):
    lengths = [len(tokens) for tokens in sequences]
    if not lengths or min(lengths) == 0:
        raise EmptyStatement("statement has no tokens")
    rows = oracle_rows(vectors, [t for tokens in sequences for t in tokens])
    return encoder.encode(ad.constant(rows), lengths)


def oracle_channel_statements(scene, channel):
    if channel == "action":
        texts = action_texts(scene)
    elif channel == "dialogue":
        texts = [text for _, text in dialogue_lines(scene)]
    else:
        texts = [s.text for s in scene.statements]
    return [toks for toks in map(tokenpass_oracle.tokenize, texts) if toks]


def oracle_channel(model, scenes, channel):
    per_scene = [oracle_channel_statements(s, channel) for s in scenes]
    scene_enc = model.scene_encoders[channel]
    kept = [i for i, stmts in enumerate(per_scene) if stmts]
    if not kept:
        return ad.constant(np.zeros((len(scenes), scene_enc.output_dim)))
    if model.variant is Variant.TWO_TIER:
        words = [[tok for stmt in per_scene[i] for tok in stmt] for i in kept]
        vecs = oracle_encode_tokens(words, model.vectors, scene_enc)
    else:
        runs = [len(per_scene[i]) for i in kept]
        stmt_vecs = oracle_encode_tokens(
            [stmt for i in kept for stmt in per_scene[i]], model.vectors,
            model.statement_encoders[channel])
        vecs = scene_enc.encode(stmt_vecs, runs)
    return _scene_rows(vecs, kept, len(scenes))


def oracle_characters(model, scenes):
    names = [sorted(speakers(scene)) for scene in scenes]
    kept = [i for i, per in enumerate(names) if per]
    if not kept:
        return ad.constant(np.zeros((len(scenes), model.char_dim)))
    runs = [len(names[i]) for i in kept]
    table = model.char_table
    rows = stack([ad.row(table.matrix, table.index.get(n, 0))
                  for i in kept for n in names[i]])
    return _scene_rows(ad.mean_rows(rows, runs), kept, len(scenes))


def oracle_script(model, play):
    if not play.scenes:
        raise EmptyScript(play.title)
    scenes = ad.concat([oracle_characters(model, play.scenes)
                        if name == "characters"
                        else oracle_channel(model, play.scenes, name)
                        for name, _ in model.block_layout])
    return ad.row(model.script_encoder.encode(scenes, [len(play.scenes)]), 0)


def oracle_logline(model: ScriptTagModel, text: str):
    encoder = model.encoder
    rows = oracle_rows(encoder.vectors, tokenpass_oracle.tokenize(text))
    return model.head.logits(ad.row(
        encoder.token_encoder.encode(ad.constant(rows), [len(rows)]), 0))


def oracle_vocabulary(plays, min_count):
    counts = Counter()
    for play in plays:
        for scene in play.scenes:
            counts.update(scene_tokens(scene))
    return Vocabulary([tok for tok, c in counts.items() if c >= min_count])


def oracle_descriptor_vocabulary(plays, min_movies, exclude_top):
    doc_freq, total = Counter(), Counter()
    for play in plays:
        seen = set()
        for scene in play.scenes:
            toks = scene_tokens(scene)
            total.update(toks)
            seen.update(toks)
        doc_freq.update(seen)
    by_frequency = sorted(total, key=lambda t: (-total[t], t))
    top = set(by_frequency[:exclude_top])
    return tuple(t for t in sorted(doc_freq)
                 if doc_freq[t] >= min_movies and t not in top)


# ---------------------------------------------------------------------------
# fixtures: empty statements, empty channels and unknown tokens

WORDS = ["alpha", "beta", "gamma", "delta", "sun", "moon", "tide", "dust"]


def vectors_for(with_unk: bool) -> TokenVectors:
    """Embeddings lacking ``ghost``, a vocabulary lacking ``tide``; with
    ``with_unk`` the file also has an ``<unk>`` row."""
    r = np.random.default_rng(4)
    table = {t: r.normal(size=4) for t in WORDS}
    if with_unk:
        table[UNK_TOKEN] = r.normal(size=4)
    vocab = [t for t in WORDS if t != "tide"] + ["ghost"]
    return TokenVectors(Vocabulary(vocab), WordEmbeddings(table, 4))


def edge_plays() -> list[Screenplay]:
    return [
        Screenplay("mixed", [
            scene_of(action("alpha beta zzz"), dialogue("...", "ANNA"),
                     dialogue("gamma delta", "BO"), action("sun ghost"), index=1),
            # the action channel has no tokens
            scene_of(action("!!!"), dialogue("moon tide", "ANNA"), index=2),
            scene_of(index=3),
            scene_of(dialogue("qqq beta alpha", "CY"), action("dust alpha tide"),
                     dialogue("sun", "ANNA"), index=4),
        ]),
        # the only dialogue line has no tokens
        Screenplay("mute", [
            scene_of(action("delta delta gamma"), dialogue("...", "ANNA"), index=1),
            scene_of(action("moon"), action("zzz yyy"), index=2),
        ]),
    ]


def loglines_model(vectors, n_tags, seed=0):
    return ScriptTagModel(LoglineEncoder(vectors, hidden_per_direction=2,
                                         seed=seed), n_tags, seed=seed)


def tag_model(vectors, kind, variant, seed=3):
    spec = EncoderSpec(kind, input_dim=4, hidden_per_direction=2)
    encoder = HierarchicalModel(spec, variant, vectors, ["ANNA", "BO"],
                                char_dim=2, seed=seed)
    return ScriptTagModel(encoder, n_tags=3, seed=seed)


def logits_and_grads(params, fn):
    for t in params.values():
        t.grad = None
    z = fn()
    weights = ad.constant(np.linspace(0.5, 1.5, z.data.size))
    dot(z, weights).backward()
    return z.data.copy(), {name: None if t.grad is None else t.grad.copy()
                           for name, t in params.items()}


def assert_bitwise(expected, got):
    (z0, g0), (z1, g1) = expected, got
    assert np.array_equal(z0, z1), np.abs(z0 - z1).max()
    assert g0.keys() == g1.keys()
    for name in g0:
        if g0[name] is None:
            assert g1[name] is None, name
        else:
            assert np.array_equal(g0[name], g1[name]), name


# ---------------------------------------------------------------------------
# the compiled path equals the oracle


@pytest.mark.parametrize("with_unk", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("kind", list(EncoderKind))
def test_compiled_logits_and_gradients_match_oracle(kind, variant, with_unk):
    vectors = vectors_for(with_unk)
    model = tag_model(vectors, kind, variant)
    params = model.named_params()
    for play in edge_plays():
        expected = logits_and_grads(
            params, lambda: model.head.logits(oracle_script(model.encoder, play)))
        script = vectors.compiled(play)
        assert_bitwise(expected, logits_and_grads(
            params, lambda: model.logits(script)))
        # a raw screenplay is compiled on the way in
        assert_bitwise(expected, logits_and_grads(
            params, lambda: model.logits(play)))


@pytest.mark.parametrize("kind", list(EncoderKind))
def test_speaker_layout_is_kept_per_compiled_script(kind):
    """BoE keeps a compiled script's speaker layout (None for a play
    without speakers) in its record from its first encode; a repeat encode
    reads it and still equals the oracle.  A raw screenplay keeps nothing, and the
    other kinds keep no layout at all."""
    vectors = vectors_for(with_unk=True)
    model = tag_model(vectors, kind, Variant.FULL)
    params = model.named_params()
    plays = edge_plays() + [Screenplay("silent", [scene_of(action("sun dust"),
                                                           index=1)])]
    for play in plays:
        model.logits(play)
    assert not model.encoder._boe_records
    scripts = [vectors.compiled(play) for play in plays]
    for play, script in list(zip(plays, scripts)) * 2:
        expected = logits_and_grads(
            params, lambda: model.head.logits(oracle_script(model.encoder, play)))
        assert_bitwise(expected, logits_and_grads(
            params, lambda: model.logits(script)))
    records = model.encoder._boe_records
    if kind is not EncoderKind.BOE:
        assert not records
        return
    assert list(records) == scripts
    assert [records[s][1] is None for s in scripts] == [False, False, True]


@pytest.mark.parametrize("with_unk", [False, True])
@pytest.mark.parametrize("text", ["alpha beta", "zzz tide ghost alpha", "sun"])
def test_compiled_logline_matches_oracle(with_unk, text):
    vectors = vectors_for(with_unk)
    model = loglines_model(vectors, n_tags=3, seed=2)
    params = model.named_params()
    expected = logits_and_grads(params, lambda: oracle_logline(model, text))
    raw = logline_screenplay("t", text)
    assert_bitwise(expected, logits_and_grads(params, lambda: model.logits(raw)))


def test_unknown_tokens_gather_the_unknown_row():
    for with_unk in (False, True):
        vectors = vectors_for(with_unk)
        play = Screenplay("t", [scene_of(action("zzz tide ghost alpha"))])
        script = vectors.compiled(play)
        unknown = len(vectors.embeddings.matrix) - 1
        assert script.ids.dtype == np.int32
        assert script.ids.tolist() == [unknown] * 3 + [
            vectors.embeddings.index["alpha"]]
        assert np.array_equal(vectors.embeddings.matrix[script.ids],
                              oracle_rows(vectors, tokenpass_oracle.tokenize(
                                  play.scenes[0].statements[0].text)))


def test_compiled_layout_keeps_empty_statements():
    vectors = vectors_for(False)
    script = vectors.compiled(edge_plays()[0])
    assert script.lengths.tolist() == [3, 0, 2, 2, 0, 2, 3, 3, 1]
    assert script.scenes.tolist() == [0, 0, 0, 0, 1, 1, 3, 3, 3]
    assert script.kinds.tolist() == [0, 1, 1, 0, 0, 1, 1, 0, 1]
    assert script.characters == (("ANNA", "BO"), ("ANNA",), (), ("ANNA", "CY"))
    assert script.n_scenes == 4
    assert len(script.ids) == script.lengths.sum()
    assert {a.dtype for a in (script.ids, script.lengths, script.scenes,
                              script.kinds)} == {np.dtype(np.int32)}


def test_empty_play_raises_empty_script():
    vectors = vectors_for(False)
    model = tag_model(vectors, EncoderKind.BOE, Variant.FULL)
    with pytest.raises(EmptyScript):
        model.logits(Screenplay("void", []))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("compiled")
    generate_synthetic_corpus(out, SynthSpec(n_scripts=12, n_tags=2, seed=5))
    corpus, _ = ingest(out / "scripts", out / "tags.json", out / "embeddings.txt",
                       IngestConfig(min_count=3, descriptor_min_movies=3,
                                    descriptor_top_exclude=10),
                       loglines_path=out / "loglines.json")
    return corpus


@pytest.mark.parametrize("kind", list(EncoderKind))
def test_ingest_compiled_scripts_match_oracle(small_corpus, kind):
    vectors = small_corpus.vectors()
    model = tag_model(vectors, kind, Variant.FULL)
    params = model.named_params()
    taxonomy = TagTaxonomy.from_items(small_corpus.items, "genre")
    samples = make_samples(small_corpus.items, taxonomy)
    for it, sample in zip(small_corpus.items, samples):
        assert sample.x is it.script
        expected = logits_and_grads(
            params, lambda: model.head.logits(oracle_script(model.encoder,
                                                            it.screenplay)))
        assert_bitwise(expected, logits_and_grads(
            params, lambda: model.logits(sample.x)))


def test_ingest_compiled_loglines_match_oracle(small_corpus):
    model = loglines_model(small_corpus.vectors(), n_tags=2, seed=1)
    params = model.named_params()
    taxonomy = TagTaxonomy.from_items(small_corpus.items, "genre")
    samples = make_samples(small_corpus.items, taxonomy, use_loglines=True)
    assert len(samples) == len(small_corpus.items)
    for it, sample in zip(small_corpus.items, samples):
        expected = logits_and_grads(params,
                                    lambda: oracle_logline(model, it.logline))
        assert_bitwise(expected, logits_and_grads(
            params, lambda: model.logits(sample.x)))


# ---------------------------------------------------------------------------
# the vocabulary guard


def test_compiled_script_refuses_another_vocabulary(small_corpus):
    script = small_corpus.items[0].script
    own = small_corpus.vectors()
    same_tokens = Vocabulary(small_corpus.vocabulary.tokens)
    for vectors in (TokenVectors(same_tokens, own.embeddings),
                    TokenVectors(own.vocabulary, WordEmbeddings(
                        {t: own.embeddings.matrix[i]
                         for t, i in own.embeddings.index.items()}, own.dim))):
        model = tag_model(vectors, EncoderKind.BOE, Variant.FULL)
        with pytest.raises(DataError, match=small_corpus.items[0].title):
            model.logits(script)
        loglines = loglines_model(vectors, n_tags=2)
        with pytest.raises(DataError):
            loglines.logits(small_corpus.items[0].logline_script)
    # the tables it was compiled against take it
    tag_model(own, EncoderKind.BOE, Variant.FULL).logits(script)


# ---------------------------------------------------------------------------
# one tokenize pass gives the Counter vocabularies


def assert_vocabularies_match(plays, min_count, which, min_movies, exclude_top):
    tokens = TokenPass(plays)
    vocab = tokens.vocabulary(min_count)
    expected = oracle_vocabulary(plays, min_count)
    assert vocab.tokens == expected.tokens
    assert vocab.hash() == expected.hash()
    assert tokens.descriptor_vocabulary(which, min_movies, exclude_top) == \
        oracle_descriptor_vocabulary([plays[i] for i in which], min_movies,
                                     exclude_top)


def test_token_pass_matches_counter_oracle_on_synthetic_corpus(small_corpus):
    plays = [it.screenplay for it in small_corpus.items]
    which = [0, 2, 3, 5, 7, 8, 11]
    for min_count, min_movies, exclude_top in [(1, 1, 0), (3, 3, 10), (5, 2, 25),
                                               (2, 6, 3), (1, 1, 1000)]:
        assert_vocabularies_match(plays, min_count, which, min_movies,
                                  exclude_top)


def test_descriptor_vocabulary_breaks_frequency_ties_by_token():
    # b, c and d tie at 3 occurrences behind a's 4, first seen in the order
    # d, c, b: excluding the top two drops a and b, the first of the tie by
    # token, not by first sight
    plays = [parse_script(f"s{i}", text, cap=None) for i, text in
             enumerate(["d c b a a\n", "a c b d\n", "c b a d\n"])]
    tokens = TokenPass(plays)
    assert tokens.descriptor_vocabulary(None, min_movies=3, exclude_top=2) \
        == ("c", "d")
    assert tokens.descriptor_vocabulary([0, 1, 2], min_movies=3,
                                        exclude_top=2) == ("c", "d")
    assert oracle_descriptor_vocabulary(plays, 3, 2) == ("c", "d")


def _fuzz_plays(texts):
    plays = []
    for i, text in enumerate(texts):
        try:
            plays.append(parse_script(f"fuzz{i}", text, cap=3))
        except EmptyScript:
            pass
    return plays


@settings(max_examples=150, deadline=None)
@given(st.lists(raw_scripts(), min_size=1, max_size=6), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 6), st.data())
def test_token_pass_matches_counter_oracle_on_fuzzed_scripts(
        texts, min_count, min_movies, exclude_top, data):
    plays = _fuzz_plays(texts)
    which = data.draw(st.lists(st.integers(0, max(len(plays) - 1, 0)),
                               unique=True, max_size=len(plays)).map(sorted))
    assert_vocabularies_match(plays, min_count, which, min_movies, exclude_top)
    vectors = TokenVectors(TokenPass(plays).vocabulary(min_count),
                           vectors_for(True).embeddings)
    for play, script in zip(plays, TokenPass(plays).compile(
            vectors.vocabulary, vectors.embeddings)):
        alone = compile_script(play, vectors.vocabulary, vectors.embeddings)
        for name in ("ids", "lengths", "scenes", "kinds"):
            assert np.array_equal(getattr(script, name), getattr(alone, name))
        flat = [t for scene in play.scenes for t in scene_tokens(scene)]
        assert np.array_equal(vectors.embeddings.matrix[script.ids],
                              oracle_rows(vectors, flat))


# ---------------------------------------------------------------------------
# the tokenize pass against the per-statement oracle

# text that str.lower maps to ASCII (dotted capital I, the Kelvin sign),
# apostrophes, tabs and newlines, other non-ASCII letters, and any text
TEXTS = st.one_of(
    st.text(alphabet=st.sampled_from(list("abzAKZ09' \t\n.,-")
                                     + ["\u0130", "\u212a", "\u00e9", "\u00df",
                                        "\u01c5", "\u0301"]), max_size=24),
    st.text(max_size=12))
STATEMENTS = st.builds(
    lambda dialogue, text, who: Statement(StatementKind.DIALOGUE, text, who)
    if dialogue else Statement(StatementKind.ACTION, text),
    st.booleans(), TEXTS, st.sampled_from(["MIA", "JULES", "VINCENT"]))
# scenes and statements may be empty; a logline may hold a newline
PLAYS = st.one_of(
    st.builds(lambda title, scenes: Screenplay(title, [
        Scene(index=i + 1, statements=stmts) for i, stmts in enumerate(scenes)]),
        st.sampled_from(["a", "b"]),
        st.lists(st.lists(STATEMENTS, max_size=5), max_size=4)),
    st.builds(logline_screenplay, st.just("log"), TEXTS))


def assert_pass_matches_oracle(plays):
    tokens, expected = TokenPass(plays), tokenpass_oracle.TokenPass(plays)
    assert tokens.types == expected.types
    assert len(tokens.type_ids) == len(expected.type_ids) == len(plays)
    for ids, want in zip(tokens.type_ids, expected.type_ids):
        assert ids.dtype == want.dtype and np.array_equal(ids, want)
    assert len(tokens.layouts) == len(plays)
    for layout, want in zip(tokens.layouts, expected.layouts):
        assert layout[0] == want[0] and layout[4] == want[4]
        for got, arr in zip(layout[1:4], want[1:4]):
            assert got.dtype == arr.dtype and np.array_equal(got, arr)


@settings(max_examples=200, deadline=None)
@given(st.lists(PLAYS, max_size=5), st.lists(raw_scripts(), max_size=3))
def test_token_pass_matches_per_statement_oracle(plays, texts):
    assert_pass_matches_oracle(plays + _fuzz_plays(texts))


# each play's statements are joined by line feeds and tokenized in one call
JOIN_EDGES = {
    "no scenes": Screenplay("none", []),
    "no statements": Screenplay("empty", [scene_of(index=1), scene_of(index=2)]),
    "empty first and last": Screenplay("ends", [
        scene_of(action("..."), dialogue("alpha beta", "ANNA"), index=1),
        scene_of(index=2),
        scene_of(action("gamma"), dialogue("", "BO"), index=3)]),
    "line feed only": Screenplay("feed", [scene_of(
        action("sun"), action("\n"), dialogue("\n", "ANNA"), action("moon"))]),
    "other breaks": Screenplay("breaks", [scene_of(
        action("alpha\r\nbeta"), action("gamma\rdelta"),
        dialogue("sun\x0bmoon", "ANNA"), action(" "), action("tide dust"))]),
    "feeds inside": Screenplay("inside", [scene_of(
        action("alpha\nbeta\n"), action("\ngamma"), action("delta"))]),
    "logline": logline_screenplay("log", "a story\nabout ember\n"),
}


@pytest.mark.parametrize("play", JOIN_EDGES.values(), ids=JOIN_EDGES)
def test_token_pass_matches_per_statement_oracle_at_join_edges(play):
    assert_pass_matches_oracle([play])


def test_token_pass_keeps_each_break_inside_its_statement():
    assert_pass_matches_oracle(list(JOIN_EDGES.values()))
    tokens = TokenPass([JOIN_EDGES["other breaks"], JOIN_EDGES["feeds inside"],
                        JOIN_EDGES["no statements"], JOIN_EDGES["logline"]])
    assert [layout[1].tolist() for layout in tokens.layouts] == [
        [2, 2, 2, 0, 2], [2, 1, 1], [], [4]]
    assert all(layout[1].dtype == np.int32 for layout in tokens.layouts)


def test_token_pass_leaves_no_reference_cycle(small_corpus):
    # a pass runs for every raw play compiled at inference; a cycle would
    # keep its token index alive until the cyclic collector next runs
    plays = [it.screenplay for it in small_corpus.items]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        TokenPass(plays)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_token_pass_matches_per_statement_oracle_on_synthetic_corpus(
        small_corpus):
    assert_pass_matches_oracle([it.screenplay for it in small_corpus.items])


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(exclude_categories=())))
def test_tokenize_matches_regex_oracle(text):
    # any code point, lone surrogates included
    assert scene_tokens(scene_of(action(text))) == tokenpass_oracle.tokenize(text)


def test_tokenize_lowercases_before_splitting():
    text = "\u0130STANBUL, 5\u212a run\tisn't caf\u00e9s\nend"
    assert scene_tokens(scene_of(action(text))) == \
        ["i", "stanbul", "5k", "run", "isn't", "caf", "s", "end"]
