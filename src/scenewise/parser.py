"""Screenplay structure parsing.

``parse_script`` is the one scan over the lines of a raw screenplay: it
classifies each line by standard-format cues (capitalization and
indentation), groups the statements into scenes at slug lines, and counts
every line kind for the quality report, which the play it returns carries
as ``quality`` (outside the play's equality and ``repr``).  The scan keeps
one piece of state: the speaker of the previous non-blank line, which an
indented line continues.  A statement is an action line, a dialogue line
(with its speaking character), or the scene heading; parentheticals,
transitions, character cues and lines without letters are structural and
never become statements.  A line's indent is
measured only when it starts with a space, and a line holding tabs has
them replaced by spaces once, for the text it keeps; the transition
pattern alone reads the tabs as written.  A cue is named by its text less
its markers, and only a text holding ``)`` can carry a marker.

``Statement`` is a frozen, slotted dataclass with one ``__init__`` of its
own, which writes the three slots through the class's slot descriptors;
equality, hashing, ``repr``, copying and pickling are the dataclass's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import EmptyScript

HEADING_PREFIXES = ("INT.", "EXT.", "INT/EXT", "EXT/INT", "I/E.")
CUE_INDENT = 10        # a character cue starts at least this far in ...
MAX_CUE_LENGTH = 40    # ... and is at most this long
DIALOGUE_INDENT = 4    # dialogue bodies and parentheticals
TAB_WIDTH = 8          # indentation is measured with tabs expanded
DEFAULT_SCENE_CAP = 60

_TRANSITION_RE = re.compile(r"(TO:|FADE IN:?|FADE OUT\.?|FADE TO BLACK\.?)$")
_CUE_SUFFIX_RE = re.compile(r"\s*\((?:V\.?O\.?|O\.?S\.?|O\.?C\.?|CONT'?D\.?)\)\s*$",
                            re.IGNORECASE)
_LETTER_RE = re.compile(r"[A-Za-z]")


class StatementKind(Enum):
    SCENE_HEADING = "Scene"
    ACTION = "Action"
    DIALOGUE = "Dial."
    PARENTHETICAL = "Paren."
    TRANSITION = "Trans."
    BLANK = "Blank"
    OTHER = "Other"


@dataclass(frozen=True)
class ScriptLine:
    """One post-processed row: heading, action, or dialogue statement."""

    line_no: int
    scene_no: int
    kind: StatementKind
    character: str | None
    text: str


@dataclass(frozen=True, slots=True, init=False)
class Statement:
    kind: StatementKind  # ACTION or DIALOGUE
    text: str
    character: str | None = None

    # the scan builds one per statement: a frozen dataclass's generated
    # __init__ writes each field through object.__setattr__, and writing
    # the slot descriptors directly takes about three fifths of its time
    def __init__(self, kind: StatementKind, text: str,
                 character: str | None = None):
        _set_kind(self, kind)
        _set_text(self, text)
        _set_character(self, character)


_set_kind = Statement.__dict__["kind"].__set__
_set_text = Statement.__dict__["text"].__set__
_set_character = Statement.__dict__["character"].__set__


@dataclass
class Scene:
    index: int
    heading: str | None = None
    statements: list[Statement] = field(default_factory=list)


@dataclass
class Screenplay:
    title: str
    scenes: list[Scene]
    # the scan's quality report; not part of the play's value
    quality: dict | None = field(default=None, compare=False, repr=False)


def _strip_cue_markers(name: str) -> str:
    prev = None
    while prev != name and ")" in name:
        prev = name
        name = _CUE_SUFFIX_RE.sub("", name)
    return name.strip()


def parse_script(title: str, text: str,
                 cap: int | None = DEFAULT_SCENE_CAP) -> Screenplay:
    """Parse a raw screenplay and report its line counts, in one line scan.

    Each scene heading opens a scene; a script without any heading becomes
    a single scene.  A scene that already holds ``cap`` statements is
    continued by a new scene without a heading (no cap if ``cap`` is
    None).  The report counts lines by kind (a character cue counts as
    DIALOGUE) and scores the fraction of non-blank lines carrying structure
    the model consumes (headings, action, dialogue, cues); the play carries
    it as ``quality``.  Unrecognizable lines count as OTHER; only a script
    without a non-blank line raises (``EmptyScript``).
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    lines = text.splitlines()
    blank = headings = actions = dialogue = parentheticals = transitions = 0
    other = cues = 0
    speaker: str | None = None
    scenes: list[Scene] = []
    current: Scene | None = None
    action_kind, dialogue_kind = StatementKind.ACTION, StatementKind.DIALOGUE
    has_letter = _LETTER_RE.search
    for line in lines:
        stripped = line.strip()
        if not stripped:
            blank += 1
            continue
        # the text a heading, cue or statement keeps; every test but the
        # transition pattern reads a tab as it reads a space
        plain = stripped
        if "\t" in line:
            line = line.expandtabs(TAB_WIDTH)
            plain = stripped.replace("\t", " ")
        indent = len(line) - len(line.lstrip(" ")) if line[0] == " " else 0
        if stripped == stripped.upper():
            if stripped.startswith(HEADING_PREFIXES):
                headings += 1
                speaker = None
                current = Scene(index=len(scenes) + 1, heading=plain)
                scenes.append(current)
                continue
            if _TRANSITION_RE.search(stripped):
                transitions += 1
                speaker = None
                continue
            if (indent >= CUE_INDENT and len(stripped) <= MAX_CUE_LENGTH
                    and has_letter(stripped)):
                # a marker ends in ")"; without one the name is ``plain``,
                # already stripped
                name = _strip_cue_markers(plain) if ")" in plain else plain
                if name:
                    dialogue += 1
                    cues += 1
                    speaker = name
                    continue
        kind = action_kind
        if indent >= DIALOGUE_INDENT:
            if stripped[0] == "(":
                parentheticals += 1  # the speaker carries on past it
                continue
            if speaker is not None:
                kind = dialogue_kind
        if kind is dialogue_kind:
            dialogue += 1
        elif has_letter(stripped):
            actions += 1
            speaker = None
        else:
            other += 1
            speaker = None
            continue
        if current is None or len(current.statements) == cap:
            current = Scene(index=len(scenes) + 1)
            scenes.append(current)
        current.statements.append(Statement(kind, plain, speaker))
    if blank == len(lines):
        raise EmptyScript(f"{title}: no non-blank line")
    if not scenes:
        # only structural lines (e.g. transitions); keep one empty scene
        scenes.append(Scene(index=1))

    counts = {"SCENE_HEADING": headings, "ACTION": actions,
              "DIALOGUE": dialogue, "PARENTHETICAL": parentheticals,
              "TRANSITION": transitions, "BLANK": blank, "OTHER": other}
    report = {
        "title": title,
        "line_count": len(lines),
        "counts": counts,
        "character_cues": cues,
        "heading_count": headings,
        "quality_score": round((headings + actions + dialogue)
                               / (len(lines) - blank), 6),
    }
    return Screenplay(title=title, scenes=scenes, quality=report)


# ---------------------------------------------------------------------------
# tabular form

TABLE_HEADER = ("Title", "Line", "Scene", "Type", "Character", "Text")


def script_lines(sp: Screenplay) -> list[ScriptLine]:
    """Post-processed rows with canonical sequential line numbers."""
    rows: list[ScriptLine] = []
    n = 0
    for scene in sp.scenes:
        if scene.heading is not None or not scene.statements:
            n += 1
            rows.append(ScriptLine(n, scene.index, StatementKind.SCENE_HEADING,
                                   None, scene.heading or ""))
        for stmt in scene.statements:
            n += 1
            rows.append(ScriptLine(n, scene.index, stmt.kind, stmt.character,
                                   stmt.text))
    return rows


def to_table(sp: Screenplay) -> str:
    """Emit the tabular form as TSV with a header row."""
    lines = ["\t".join(TABLE_HEADER)]
    for r in script_lines(sp):
        lines.append("\t".join([sp.title, str(r.line_no), str(r.scene_no),
                                r.kind.value, r.character or "", r.text]))
    return "\n".join(lines) + "\n"


def parse_table(tsv: str) -> Screenplay:
    """Reconstruct a screenplay from its tabular form."""
    lines = tsv.splitlines()
    if not lines or lines[0].split("\t") != list(TABLE_HEADER):
        raise ValueError("not a screenplay table: bad header")
    title = ""
    scenes: dict[int, Scene] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != len(TABLE_HEADER):
            raise ValueError(f"row {lineno}: expected {len(TABLE_HEADER)} columns")
        title, _, scene_no, kind_s, character, text = cols
        idx = int(scene_no)
        scene = scenes.get(idx)
        if scene is None:
            scene = Scene(index=idx, heading=None)
            scenes[idx] = scene
        if kind_s == StatementKind.SCENE_HEADING.value:
            scene.heading = text or None
        elif kind_s == StatementKind.ACTION.value:
            scene.statements.append(Statement(StatementKind.ACTION, text))
        elif kind_s == StatementKind.DIALOGUE.value:
            scene.statements.append(Statement(StatementKind.DIALOGUE, text,
                                              character=character))
        else:
            raise ValueError(f"row {lineno}: unknown row type {kind_s!r}")
    ordered = [scenes[i] for i in sorted(scenes)]
    return Screenplay(title=title, scenes=ordered)
