from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenewise import parser as sp
from scenewise.errors import EmptyScript
from scenewise.parser import (
    ParserConfig,
    RawScript,
    Scene,
    Screenplay,
    Statement,
    StatementKind,
    classify_line,
    classify_lines,
    parse_script,
    parse_table,
    quality_report,
    script_lines,
    segment_scenes,
    split_long_scenes,
    to_table,
)

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


def test_classify_scene_heading():
    cls = classify_line("EXT. APARTMENT BUILDING COURTYARD - MORNING", None)
    assert cls.kind is StatementKind.SCENE_HEADING


def test_classify_dialogue_inherits_character():
    cue = classify_line("                         VINCENT", None)
    assert cue.is_character_cue and cue.character == "VINCENT"
    body = classify_line("               What's her name?", cue)
    assert body.kind is StatementKind.DIALOGUE
    assert body.character == "VINCENT"
    assert not body.is_character_cue


def test_classify_unindented_action():
    assert classify_line("Vincent and Jules.", None).kind is StatementKind.ACTION


def test_classify_blank_parenthetical_transition_other():
    assert classify_line("   ", None).kind is StatementKind.BLANK
    cue = classify_line("                    JULES", None)
    paren = classify_line("          (quietly)", cue)
    assert paren.kind is StatementKind.PARENTHETICAL
    assert paren.character == "JULES"
    assert classify_line("                                   CUT TO:", None).kind \
        is StatementKind.TRANSITION
    assert classify_line("        42.", None).kind is StatementKind.OTHER


def test_classify_voice_over_marker_stripped():
    cue = classify_line("                    JULES (V.O.)", None)
    assert cue.character == "JULES"
    cue2 = classify_line("                    MIA (CONT'D)", None)
    assert cue2.character == "MIA"


def test_parenthetical_keeps_dialogue_open():
    cue = classify_line("                    JULES", None)
    paren = classify_line("          (calmly)", cue)
    body = classify_line("          Mia.", paren)
    assert body.kind is StatementKind.DIALOGUE and body.character == "JULES"


def test_segment_fragment_matches_table_structure():
    raw = RawScript.from_text("Pulp Fiction", FRAGMENT)
    play = segment_scenes(raw)
    assert len(play.scenes) == 1
    scene = play.scenes[0]
    assert scene.heading == "EXT. APARTMENT BUILDING COURTYARD - MORNING"
    assert scene.action_statements == [
        "Vincent and Jules.",
        "We TRACK alongside them toward one of the apartments.",
    ]
    assert scene.dialogue_statements == [
        ("VINCENT", "What's her name?"),
        ("JULES", "Mia."),
        ("VINCENT", "How did Marsellus and her meet?"),
    ]
    assert scene.characters == {"VINCENT", "JULES"}


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
    play = segment_scenes(RawScript.from_text("x", text))
    assert len(play.scenes) == 1
    assert play.scenes[0].heading is None
    assert len(play.scenes[0].action_statements) == 5


def test_adjacent_headings_keep_empty_scene():
    text = "INT. A - DAY\nINT. B - DAY\nSome action.\n"
    play = segment_scenes(RawScript.from_text("x", text))
    assert len(play.scenes) == 2
    assert play.scenes[0].statements == []
    assert play.scenes[1].action_statements == ["Some action."]


def test_empty_script_raises():
    with pytest.raises(EmptyScript):
        segment_scenes(RawScript.from_text("x", "\n  \n\n"))


def _scene_with(n: int) -> Screenplay:
    stmts = [Statement(StatementKind.ACTION, f"line {i}") for i in range(n)]
    return Screenplay("x", [Scene(index=1, heading="INT. A - DAY", statements=stmts)])


@pytest.mark.parametrize("n,expected", [(130, [60, 60, 10]), (60, [60]), (61, [60, 1])])
def test_split_long_scenes_sizes(n, expected):
    out = split_long_scenes(_scene_with(n), cap=60)
    assert [len(s.statements) for s in out.scenes] == expected
    assert [s.index for s in out.scenes] == list(range(1, len(expected) + 1))


def test_split_preserves_order_and_count():
    out = split_long_scenes(_scene_with(130), cap=60)
    texts = [s.text for scene in out.scenes for s in scene.statements]
    assert texts == [f"line {i}" for i in range(130)]


def test_split_idempotent():
    once = split_long_scenes(_scene_with(130), cap=60)
    twice = split_long_scenes(once, cap=60)
    assert once == twice


def test_split_recomputes_characters():
    stmts = ([Statement(StatementKind.DIALOGUE, "hi", character="A")] * 2
             + [Statement(StatementKind.DIALOGUE, "yo", character="B")] * 2)
    play = Screenplay("x", [Scene(index=1, heading="INT. A", statements=stmts)])
    out = split_long_scenes(play, cap=2)
    assert out.scenes[0].characters == {"A"}
    assert out.scenes[1].characters == {"B"}


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


@settings(max_examples=40, deadline=None)
@given(screenplays(), st.integers(1, 7))
def test_split_conserves_statements_property(play, cap):
    out = split_long_scenes(play, cap=cap)
    assert sum(len(s.statements) for s in out.scenes) == \
        sum(len(s.statements) for s in play.scenes)
    assert all(len(s.statements) <= cap for s in out.scenes)
    assert split_long_scenes(out, cap=cap) == out


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
    assert platform.dialogue_statements == [
        ("PORTER", "Last train out tonight, missus."),
        ("PORTER", "Best be quick about it."),
        ("WIDOW", "I'm in no hurry anymore."),
    ]
    assert platform.characters == {"PORTER", "WIDOW"}
    bar = play.scenes[2]
    assert bar.dialogue_statements == [("BARTENDER", "We're closed.")]
    # action paragraphs survive line by line
    assert "The porter shrugs and disappears into the fog." \
        in platform.action_statements


def test_quality_report_counts():
    raw = RawScript.from_text("Pulp Fiction", FRAGMENT)
    report = quality_report(raw)
    assert report["heading_count"] == 1
    assert report["counts"]["ACTION"] == 2
    assert report["counts"]["DIALOGUE"] == 6  # 3 cues + 3 bodies
    assert report["character_cues"] == 3
    assert report["quality_score"] == 1.0


def test_configurable_heading_prefixes():
    config = ParserConfig(heading_prefixes=("SCENE:",))
    cls = classify_line("SCENE: THE DOCKS", None, config)
    assert cls.kind is StatementKind.SCENE_HEADING
    default = classify_line("SCENE: THE DOCKS", None)
    assert default.kind is not StatementKind.SCENE_HEADING


def test_cue_with_tab_keeps_table_round_trip():
    text = "INT. ROOM - DAY\n\n\t\t\tBOB\tSMITH\n\t\tHello there.\n"
    play = parse_script("t", text)
    assert play.scenes[0].dialogue_statements == [("BOB SMITH", "Hello there.")]
    assert parse_table(to_table(play)) == play


RAW_BODIES = st.one_of(
    st.sampled_from(["INT. HOUSE - DAY", "EXT. ROAD - NIGHT", "I/E. CAR",
                     "CUT TO:", "FADE IN:", "(beat)", "(V.O.)", "BOB\tSMITH",
                     "ANNA (V.O.)", "MIA (CONT'D)", "Mia walks in.", "...", "",
                     "int. lower slug"]),
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
