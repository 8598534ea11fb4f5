import copy
import dataclasses
import pickle
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import parser_oracle as oracle
from conftest import action_texts, dialogue_lines, speakers
from scenewise.errors import EmptyScript
from scenewise.parser import (
    Scene,
    Screenplay,
    Statement,
    StatementKind,
    parse_script,
    parse_table,
    script_lines,
    to_table,
)

ACTION, DIALOGUE = StatementKind.ACTION, StatementKind.DIALOGUE

DATA = Path(__file__).parent / "data"

FRAGMENT = """\
EXT. APARTMENT BUILDING COURTYARD - MORNING

Vincent and Jules.

We TRACK alongside them toward one of the apartments.

                         VINCENT
               What's her name?

                         JULES
               Mia.

                         VINCENT
               How did Marsellus and her meet?
"""


def statements(text: str) -> list[tuple[StatementKind, str | None, str]]:
    """(kind, character, text) of each statement of ``text``, in order."""
    play = parse_script("t", text, cap=None)
    return [(s.kind, s.character, s.text)
            for scene in play.scenes for s in scene.statements]


def test_classify_scene_heading():
    text = "EXT. APARTMENT BUILDING COURTYARD - MORNING\nVincent and Jules.\n"
    play = parse_script("t", text)
    assert [s.heading for s in play.scenes] == [
        "EXT. APARTMENT BUILDING COURTYARD - MORNING"]
    assert statements(text) == [(ACTION, None, "Vincent and Jules.")]


def test_classify_dialogue_inherits_character():
    text = "                         VINCENT\n               What's her name?\n"
    assert statements(text) == [(DIALOGUE, "VINCENT", "What's her name?")]
    report = parse_script("t", text).quality
    assert report["character_cues"] == 1
    assert report["counts"]["DIALOGUE"] == 2


def test_classify_unindented_action():
    text = "                    JULES\nVincent and Jules.\n"
    assert statements(text) == [(ACTION, None, "Vincent and Jules.")]


def test_classify_blank_parenthetical_transition_other():
    text = ("   \n"
            "                    JULES\n"
            "          (quietly)\n"
            "          Hi.\n"
            "                                   CUT TO:\n"
            "        42.\n")
    assert statements(text) == [(DIALOGUE, "JULES", "Hi.")]
    report = parse_script("t", text).quality
    assert report["counts"] == {"SCENE_HEADING": 0, "ACTION": 0, "DIALOGUE": 2,
                                "PARENTHETICAL": 1, "TRANSITION": 1, "BLANK": 1,
                                "OTHER": 1}


def test_classify_voice_over_marker_stripped():
    text = ("                    JULES (V.O.)\n          Hello.\n"
            "                    MIA (CONT'D)\n          Bye.\n")
    assert statements(text) == [(DIALOGUE, "JULES", "Hello."),
                                (DIALOGUE, "MIA", "Bye.")]


def test_parenthetical_keeps_dialogue_open():
    text = "                    JULES\n          (calmly)\n          Mia.\n"
    assert statements(text) == [(DIALOGUE, "JULES", "Mia.")]


def test_segment_fragment_matches_table_structure():
    play = parse_script("Pulp Fiction", FRAGMENT, cap=None)
    assert len(play.scenes) == 1
    scene = play.scenes[0]
    assert scene.heading == "EXT. APARTMENT BUILDING COURTYARD - MORNING"
    assert action_texts(scene) == [
        "Vincent and Jules.",
        "We TRACK alongside them toward one of the apartments.",
    ]
    assert dialogue_lines(scene) == [
        ("VINCENT", "What's her name?"),
        ("JULES", "Mia."),
        ("VINCENT", "How did Marsellus and her meet?"),
    ]
    assert speakers(scene) == {"VINCENT", "JULES"}


def test_fixture_parses_to_scene_four():
    text = (DATA / "pulp_fiction_fragment.txt").read_text()
    play = parse_script("Pulp Fiction", text)
    assert len(play.scenes) == 4
    rows = [r for r in script_lines(play) if r.scene_no == 4]
    kinds = [r.kind for r in rows]
    assert kinds == [StatementKind.SCENE_HEADING, StatementKind.ACTION,
                     StatementKind.ACTION, StatementKind.DIALOGUE,
                     StatementKind.DIALOGUE, StatementKind.DIALOGUE]
    assert [r.character for r in rows] == [None, None, None,
                                           "VINCENT", "JULES", "VINCENT"]


def test_no_headings_single_scene():
    text = "One line.\nTwo lines.\nThree.\nFour.\nFive.\n"
    play = parse_script("x", text, cap=None)
    assert len(play.scenes) == 1
    assert play.scenes[0].heading is None
    assert len(action_texts(play.scenes[0])) == 5


def test_adjacent_headings_keep_empty_scene():
    text = "INT. A - DAY\nINT. B - DAY\nSome action.\n"
    play = parse_script("x", text, cap=None)
    assert len(play.scenes) == 2
    assert play.scenes[0].statements == []
    assert action_texts(play.scenes[1]) == ["Some action."]


def test_empty_script_raises():
    with pytest.raises(EmptyScript):
        parse_script("x", "\n  \n\n")


def test_statement_is_frozen_slotted_and_hashable():
    stmt = Statement(DIALOGUE, "Mia.", "JULES")
    with pytest.raises(dataclasses.FrozenInstanceError):
        stmt.text = "Vincent."
    assert not hasattr(stmt, "__dict__")
    assert hash(stmt) == hash(Statement(DIALOGUE, "Mia.", "JULES"))
    assert {stmt, Statement(DIALOGUE, "Mia.", "JULES")} == {stmt}


# ``Statement`` as the dataclass decorator builds it, with its own
# ``__init__``: the reference for the hand-written one
@dataclasses.dataclass(frozen=True, slots=True)
class GeneratedStatement:
    kind: StatementKind
    text: str
    character: str | None = None


def _as_generated(stmt: Statement) -> GeneratedStatement:
    return GeneratedStatement(stmt.kind, stmt.text, stmt.character)


def _outcome(cls, *args, **kwargs) -> tuple:
    """(repr, fields) of ``cls(*args, **kwargs)``, or the TypeError's text,
    with the class name left out."""
    try:
        made = cls(*args, **kwargs)
    except TypeError as err:
        return ("TypeError", str(err).replace(f"{cls.__name__}.", "C."))
    return (repr(made).replace(f"{cls.__name__}(", "C(", 1),
            dataclasses.astuple(made))


@pytest.mark.parametrize("args, kwargs", [
    ((DIALOGUE, "Mia.", "JULES"), {}),
    ((ACTION, "He waits."), {}),
    ((DIALOGUE, "Mia."), {"character": "JULES"}),
    ((), {"kind": ACTION, "text": "He waits."}),
    ((), {"text": "Mia.", "character": "JULES", "kind": DIALOGUE}),
    ((ACTION, "He waits.", None), {}),
    ((ACTION,), {}),
    ((), {}),
    ((ACTION, "He waits.", None, "extra"), {}),
    ((ACTION, "He waits."), {"kind": ACTION}),
    ((ACTION, "He waits."), {"speaker": "JULES"}),
], ids=["positional", "default_character", "keyword_character", "keywords",
        "keywords_reordered", "explicit_none", "too_few", "none", "too_many",
        "kind_twice", "unknown_keyword"])
def test_statement_init_builds_what_the_generated_init_built(args, kwargs):
    assert _outcome(Statement, *args, **kwargs) == \
        _outcome(GeneratedStatement, *args, **kwargs)


def test_statement_keeps_the_generated_dataclass_surface():
    assert Statement.__match_args__ == GeneratedStatement.__match_args__ \
        == ("kind", "text", "character")
    assert Statement.__slots__ == GeneratedStatement.__slots__
    assert [f.name for f in dataclasses.fields(Statement)] == \
        [f.name for f in dataclasses.fields(GeneratedStatement)]
    # the decorator writes the docstring from the signature of __init__
    assert Statement.__doc__ == "Statement(kind: 'StatementKind', text: 'str', " \
        "character: 'str | None' = None)"
    stmt = Statement(DIALOGUE, "Mia.", "JULES")
    assert repr(stmt) == \
        "Statement(kind=<StatementKind.DIALOGUE: 'Dial.'>, text='Mia.', " \
        "character='JULES')"
    match stmt:
        case Statement(kind, text, character):
            assert (kind, text, character) == (DIALOGUE, "Mia.", "JULES")
    assert Statement(ACTION, "x") != Statement(ACTION, "x", "JULES")
    assert hash(stmt) == hash(_as_generated(stmt))


@pytest.mark.parametrize("stmt", [Statement(DIALOGUE, "Mia.", "JULES"),
                                  Statement(ACTION, "He waits.")],
                         ids=["dialogue", "action"])
def test_statement_copies_replaces_and_pickles_as_before(stmt):
    old = _as_generated(stmt)
    for made, reference in [
            (dataclasses.replace(stmt, text="Vincent."),
             dataclasses.replace(old, text="Vincent.")),
            (dataclasses.replace(stmt, character=None),
             dataclasses.replace(old, character=None)),
            (copy.copy(stmt), copy.copy(old)),
            (copy.deepcopy(stmt), copy.deepcopy(old)),
            (pickle.loads(pickle.dumps(stmt)), pickle.loads(pickle.dumps(old)))]:
        assert type(made) is Statement
        assert _as_generated(made) == reference
    assert pickle.loads(pickle.dumps(stmt)) == stmt
    with pytest.raises(TypeError):
        dataclasses.replace(stmt, speaker="JULES")


def test_scanned_statements_are_frozen_statements():
    play = parse_script("t", FRAGMENT)
    stmts = [s for scene in play.scenes for s in scene.statements]
    assert {s.kind for s in stmts} == {ACTION, DIALOGUE}
    for stmt in stmts:
        assert type(stmt) is Statement
        with pytest.raises(dataclasses.FrozenInstanceError):
            stmt.text = "Vincent."
        with pytest.raises(dataclasses.FrozenInstanceError):
            stmt.character = "VINCENT"


def _scene_with(n: int) -> str:
    return "INT. A - DAY\n" + "".join(f"line {i}\n" for i in range(n))


@pytest.mark.parametrize("n,expected", [(130, [60, 60, 10]), (60, [60]), (61, [60, 1])])
def test_split_long_scenes_sizes(n, expected):
    out = parse_script("x", _scene_with(n), cap=60)
    assert [len(s.statements) for s in out.scenes] == expected
    assert [s.index for s in out.scenes] == list(range(1, len(expected) + 1))
    assert [s.heading for s in out.scenes] == ["INT. A - DAY"] + [None] * (len(expected) - 1)


def test_split_preserves_order_and_count():
    out = parse_script("x", _scene_with(130), cap=60)
    texts = [s.text for scene in out.scenes for s in scene.statements]
    assert texts == [f"line {i}" for i in range(130)]


def test_split_idempotent():
    # splitting the capped scan again, with the two-pass split, changes nothing
    once = parse_script("x", _scene_with(130), cap=60)
    assert oracle.split_long_scenes(once, cap=60) == once


def test_split_recomputes_characters():
    text = ("INT. A\n" + " " * 10 + "A\n" + "    hi\n" * 2
            + " " * 10 + "B\n" + "    yo\n" * 2)
    out = parse_script("x", text, cap=2)
    assert [len(s.statements) for s in out.scenes] == [2, 2]
    assert speakers(out.scenes[0]) == {"A"}
    assert speakers(out.scenes[1]) == {"B"}


def test_cap_below_one_raises():
    with pytest.raises(ValueError, match="cap must be >= 1"):
        parse_script("x", _scene_with(3), cap=0)


def test_to_table_round_trip_fragment():
    play = parse_script("Pulp Fiction", FRAGMENT, cap=None)
    table = to_table(play)
    rebuilt = parse_table(table)
    assert rebuilt == play
    assert to_table(rebuilt) == table


def test_to_table_empty_scene_single_row():
    play = Screenplay("x", [Scene(index=1, heading="INT. A - DAY")])
    lines = to_table(play).strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split("\t")[3] == "Scene"


def test_table_layout_matches_expected_columns():
    play = parse_script("Pulp Fiction", FRAGMENT, cap=None)
    lines = to_table(play).splitlines()
    assert lines[0] == "Title\tLine\tScene\tType\tCharacter\tText"
    first = lines[1].split("\t")
    assert first == ["Pulp Fiction", "1", "1", "Scene", "",
                     "EXT. APARTMENT BUILDING COURTYARD - MORNING"]
    dial = lines[4].split("\t")
    assert dial == ["Pulp Fiction", "4", "1", "Dial.", "VINCENT", "What's her name?"]


@st.composite
def screenplays(draw):
    n_scenes = draw(st.integers(1, 4))
    scenes = []
    text_alpha = st.text(alphabet="abcdefg XYZ.,'", min_size=1, max_size=20).map(
        lambda s: s.strip()).filter(lambda s: s)
    for i in range(n_scenes):
        stmts = []
        for _ in range(draw(st.integers(0, 6))):
            if draw(st.booleans()):
                stmts.append(Statement(StatementKind.ACTION, draw(text_alpha)))
            else:
                who = draw(st.sampled_from(["ANNA", "BO", "CY"]))
                stmts.append(Statement(StatementKind.DIALOGUE, draw(text_alpha),
                                       character=who))
        scenes.append(Scene(index=i + 1, heading=f"INT. PLACE {i} - DAY",
                            statements=stmts))
    return Screenplay("Prop Script", scenes)


@settings(max_examples=40, deadline=None)
@given(screenplays())
def test_table_round_trip_property(play):
    table = to_table(play)
    rebuilt = parse_table(table)
    assert rebuilt == play
    assert to_table(rebuilt) == table


def test_dialogue_kind_iff_character():
    text = (DATA / "pulp_fiction_fragment.txt").read_text()
    play = parse_script("Pulp Fiction", text)
    for r in script_lines(play):
        if r.kind is StatementKind.DIALOGUE:
            assert r.character
        else:
            assert r.character is None


def test_messy_fragment_classification():
    text = (DATA / "messy_fragment.txt").read_text()
    play = parse_script("Red Harvest", text)
    # title page lines become an unheaded leading scene; two slug scenes follow
    assert len(play.scenes) == 3
    assert play.scenes[0].heading is None
    platform = play.scenes[1]
    assert platform.heading == "EXT. RAILWAY PLATFORM - NIGHT"
    # page number, transitions, and the parenthetical never become statements
    texts = [s.text for s in platform.statements]
    assert not any("2." == t for t in texts)
    assert not any("CUT TO" in t for t in texts)
    assert not any(t.startswith("(") for t in texts)
    # wrapped dialogue keeps per-line statements attributed to the cue
    assert dialogue_lines(platform) == [
        ("PORTER", "Last train out tonight, missus."),
        ("PORTER", "Best be quick about it."),
        ("WIDOW", "I'm in no hurry anymore."),
    ]
    assert speakers(platform) == {"PORTER", "WIDOW"}
    bar = play.scenes[2]
    assert dialogue_lines(bar) == [("BARTENDER", "We're closed.")]
    # action paragraphs survive line by line
    assert "The porter shrugs and disappears into the fog." \
        in action_texts(platform)


def test_the_quality_report_is_outside_a_plays_value():
    play = parse_script("Pulp Fiction", FRAGMENT)
    bare = dataclasses.replace(play, quality=None)
    assert play.quality is not None
    assert bare == play
    assert repr(bare) == repr(play)


def test_quality_report_counts():
    report = parse_script("Pulp Fiction", FRAGMENT).quality
    assert report["heading_count"] == 1
    assert report["counts"]["ACTION"] == 2
    assert report["counts"]["DIALOGUE"] == 6  # 3 cues + 3 bodies
    assert report["character_cues"] == 3
    assert report["quality_score"] == 1.0


def test_heading_needs_standard_prefix():
    play = parse_script("t", "SCENE: THE DOCKS\n")
    assert play.scenes[0].heading is None
    assert statements("SCENE: THE DOCKS\n") == [(ACTION, None, "SCENE: THE DOCKS")]


def test_cue_with_tab_keeps_table_round_trip():
    text = "INT. ROOM - DAY\n\n\t\t\tBOB\tSMITH\n\t\tHello there.\n"
    play = parse_script("t", text)
    assert dialogue_lines(play.scenes[0]) == [("BOB SMITH", "Hello there.")]
    assert parse_table(to_table(play)) == play


RAW_BODIES = st.one_of(
    st.sampled_from(["INT. HOUSE - DAY", "EXT. ROAD - NIGHT", "I/E. CAR",
                     "CUT TO:", "FADE IN:", "(beat)", "(V.O.)", "BOB\tSMITH",
                     "ANNA (V.O.)", "MIA (CONT'D)", "Mia walks in.", "...", "",
                     "int. lower slug", "FADE OUT.", "42.",
                     "JULES\n\n          Mia.", "\t\t\tMIA\t(CONT'D)",
                     "Q" * 40, "Q" * 41]),
    st.text(alphabet="abcXYZ \t.:()'-/", max_size=30),
    st.text(max_size=20),
)


@st.composite
def raw_scripts(draw):
    indents = st.sampled_from(["", " " * 4, " " * 10, " " * 20, "\t", "\t\t",
                               "\t\t\t", "  \t", "\t  "])
    lines = draw(st.lists(st.tuples(indents, RAW_BODIES, st.booleans()),
                          max_size=25))
    return "\n".join(indent + (body.upper() if shout else body)
                     for indent, body, shout in lines)


@settings(max_examples=300, deadline=None)
@given(raw_scripts(), st.sampled_from([None, 1, 3, 60]))
def test_parse_raw_text_fuzz(text, cap):
    try:
        play = parse_script("Fuzz Script", text, cap=cap)
    except EmptyScript:
        return
    assert parse_table(to_table(play)) == play


@settings(max_examples=40, deadline=None)
@given(raw_scripts(), st.integers(1, 7))
def test_split_conserves_statements_property(text, cap):
    try:
        whole = parse_script("Prop Script", text, cap=None)
    except EmptyScript:
        return
    out = parse_script("Prop Script", text, cap=cap)
    assert [s for scene in out.scenes for s in scene.statements] == \
        [s for scene in whole.scenes for s in scene.statements]
    assert all(len(s.statements) <= cap for s in out.scenes)
    assert oracle.split_long_scenes(out, cap=cap) == out


@settings(max_examples=400, deadline=None)
@given(raw_scripts(), st.sampled_from([None, 1, 2, 3, 60]))
def test_scan_matches_two_pass_oracle(text, cap):
    raw = oracle.RawScript.from_text("Fuzz Script", text)
    try:
        expected = oracle.segment_scenes(raw)
    except EmptyScript:
        with pytest.raises(EmptyScript):
            parse_script("Fuzz Script", text, cap=cap)
        return
    if cap is not None:
        expected = oracle.split_long_scenes(expected, cap)
    play = parse_script("Fuzz Script", text, cap=cap)
    assert (play, play.quality) == (expected, oracle.quality_report(raw))


@pytest.mark.parametrize("text", [
    "INT. ROOM - DAY\n\nFADE\tIN:\n\t\tFADE\tTO BLACK.\nCUT\tTO:\n",
    "          ANNA (V.O.) (CONT'D)\n          Hi.\n          BOB (2)\n    Yo.\n",
    "          1234\n    (beat)\n          MIA\t(O.S.)\n\tWait.\n    42.\n",
    "INT.\tHALL\n" + " " * 10 + "Q" * 41 + "\n    after\n" + " " * 10 + "Q" * 40,
])
def test_scan_matches_two_pass_oracle_on_tabs_and_cue_markers(text):
    # cases the fuzz alphabet does not reach: a tab inside a transition,
    # stacked or unknown cue markers, and cue-like lines without letters
    raw = oracle.RawScript.from_text("Cases", text)
    expected = oracle.split_long_scenes(oracle.segment_scenes(raw), 2)
    play = parse_script("Cases", text, cap=2)
    assert (play, play.quality) == (expected, oracle.quality_report(raw))


def _cue_lines(text: str) -> list[str]:
    raw = oracle.RawScript.from_text("t", text)
    return [line for line, cls in zip(raw.lines, oracle.classify_lines(raw))
            if cls.is_character_cue]


@pytest.mark.parametrize("paren", [True, False], ids=["paren", "no_paren"])
@pytest.mark.parametrize("tab", [True, False], ids=["tab", "no_tab"])
def test_raw_script_fuzz_draws_cues_with_and_without_parens(paren, tab):
    # the scan names a cue without ")" with no marker pass, so the fuzz that
    # checks it against the oracle must reach cues on both sides, with tabs
    found = find(raw_scripts(),
                 lambda text: any((")" in line) is paren and ("\t" in line) is tab
                                  for line in _cue_lines(text)),
                 settings=settings(database=None, derandomize=True,
                                   max_examples=2000, phases=[Phase.generate]))
    assert _cue_lines(found)
