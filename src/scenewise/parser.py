"""Screenplay structure parsing.

Raw screenplay text is classified line by line using standard-format cues
(capitalization and indentation), segmented into scenes at slug lines, and
post-processed into an ordered statement representation that keeps action
lines, dialogue lines (with their speaking character), and the scene
heading.  Slug lines open scenes; parentheticals, transitions, and
character-cue lines are structural and never become statements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import EmptyScript

DEFAULT_HEADING_PREFIXES = ("INT.", "EXT.", "INT/EXT", "EXT/INT", "I/E.")
DEFAULT_SCENE_CAP = 60

_TRANSITION_RE = re.compile(r"(TO:|FADE IN:?|FADE OUT\.?|FADE TO BLACK\.?)$")
_CUE_SUFFIX_RE = re.compile(r"\s*\((?:V\.?O\.?|O\.?S\.?|O\.?C\.?|CONT'?D\.?)\)\s*$",
                            re.IGNORECASE)
_NO_LETTERS_RE = re.compile(r"^[^A-Za-z]*$")


class StatementKind(Enum):
    SCENE_HEADING = "Scene"
    ACTION = "Action"
    DIALOGUE = "Dial."
    PARENTHETICAL = "Paren."
    TRANSITION = "Trans."
    BLANK = "Blank"
    OTHER = "Other"


@dataclass(frozen=True)
class ParserConfig:
    """Formatting thresholds; indentation is measured after expanding tabs to 8."""

    heading_prefixes: tuple[str, ...] = DEFAULT_HEADING_PREFIXES
    cue_indent: int = 10
    dialogue_indent: int = 4
    tab_width: int = 8
    max_cue_length: int = 40


@dataclass(frozen=True)
class RawScript:
    """Verbatim input: title plus raw lines, order and whitespace preserved."""

    title: str
    lines: tuple[str, ...]

    @classmethod
    def from_text(cls, title: str, text: str) -> "RawScript":
        return cls(title=title, lines=tuple(text.splitlines()))


@dataclass(frozen=True)
class LineClass:
    """Classification of one raw line.

    ``is_character_cue`` marks the all-caps name line that opens a dialogue
    block; cue lines never become statements themselves.
    """

    kind: StatementKind
    character: str | None = None
    is_character_cue: bool = False


@dataclass(frozen=True)
class ScriptLine:
    """One post-processed row: heading, action, or dialogue statement."""

    line_no: int
    scene_no: int
    kind: StatementKind
    character: str | None
    text: str


@dataclass(frozen=True)
class Statement:
    kind: StatementKind  # ACTION or DIALOGUE
    text: str
    character: str | None = None


@dataclass
class Scene:
    index: int
    heading: str | None = None
    statements: list[Statement] = field(default_factory=list)

    @property
    def action_statements(self) -> list[str]:
        return [s.text for s in self.statements if s.kind is StatementKind.ACTION]

    @property
    def dialogue_statements(self) -> list[tuple[str, str]]:
        return [(s.character, s.text) for s in self.statements
                if s.kind is StatementKind.DIALOGUE]

    @property
    def characters(self) -> set[str]:
        return {s.character for s in self.statements
                if s.kind is StatementKind.DIALOGUE}


@dataclass
class Screenplay:
    title: str
    scenes: list[Scene]


def _indent(line: str, tab_width: int) -> int:
    expanded = line.expandtabs(tab_width)
    return len(expanded) - len(expanded.lstrip(" "))


def _normalize(line: str) -> str:
    return line.strip().replace("\t", " ")


def _strip_cue_markers(name: str) -> str:
    prev = None
    while prev != name:
        prev = name
        name = _CUE_SUFFIX_RE.sub("", name)
    return name.strip()


def classify_line(raw: str, previous: LineClass | None,
                  config: ParserConfig = ParserConfig()) -> LineClass:
    """Classify a single raw line given the previous line's classification.

    Unrecognizable lines become OTHER; classification never aborts.
    """
    stripped = raw.strip()
    if not stripped:
        return LineClass(StatementKind.BLANK)

    indent = _indent(raw, config.tab_width)
    upper = stripped == stripped.upper()

    if upper and any(stripped.startswith(p) for p in config.heading_prefixes):
        return LineClass(StatementKind.SCENE_HEADING)

    if upper and _TRANSITION_RE.search(stripped):
        return LineClass(StatementKind.TRANSITION)

    has_letters = not _NO_LETTERS_RE.match(stripped)

    if (upper and has_letters and indent >= config.cue_indent
            and len(stripped) <= config.max_cue_length):
        name = _strip_cue_markers(_normalize(stripped))
        if name:
            return LineClass(StatementKind.DIALOGUE, character=name,
                             is_character_cue=True)

    if stripped.startswith("(") and indent >= config.dialogue_indent:
        character = previous.character if previous is not None else None
        return LineClass(StatementKind.PARENTHETICAL, character=character)

    in_dialogue = (previous is not None and previous.character is not None
                   and previous.kind in (StatementKind.DIALOGUE,
                                         StatementKind.PARENTHETICAL))
    if indent >= config.dialogue_indent and in_dialogue:
        return LineClass(StatementKind.DIALOGUE, character=previous.character)

    if not has_letters:
        return LineClass(StatementKind.OTHER)

    return LineClass(StatementKind.ACTION)


def classify_lines(raw: RawScript,
                   config: ParserConfig = ParserConfig()) -> list[LineClass]:
    """Classify every line of a raw script in order."""
    context: LineClass | None = None
    out: list[LineClass] = []
    for line in raw.lines:
        cls = classify_line(line, context, config)
        out.append(cls)
        if cls.kind is not StatementKind.BLANK:
            context = cls
    return out


def segment_scenes(raw: RawScript, classes: Sequence[LineClass] | None = None,
                   config: ParserConfig = ParserConfig()) -> Screenplay:
    """Group classified lines into scenes.

    Each scene heading opens a scene; slug lines, parentheticals,
    transitions, and cue lines are dropped from the statement lists.  A
    script without any heading becomes a single scene.
    """
    if classes is None:
        classes = classify_lines(raw, config)
    if all(not line.strip() for line in raw.lines):
        raise EmptyScript(f"{raw.title}: no non-blank line")

    scenes: list[Scene] = []
    current: Scene | None = None
    for line, cls in zip(raw.lines, classes):
        if cls.kind is StatementKind.SCENE_HEADING:
            current = Scene(index=len(scenes) + 1, heading=_normalize(line))
            scenes.append(current)
            continue
        if cls.is_character_cue or cls.kind in (StatementKind.BLANK,
                                                StatementKind.PARENTHETICAL,
                                                StatementKind.TRANSITION,
                                                StatementKind.OTHER):
            continue
        if current is None:
            current = Scene(index=1, heading=None)
            scenes.append(current)
        if cls.kind is StatementKind.ACTION:
            current.statements.append(Statement(StatementKind.ACTION, _normalize(line)))
        elif cls.kind is StatementKind.DIALOGUE:
            current.statements.append(Statement(StatementKind.DIALOGUE, _normalize(line),
                                                character=cls.character))
    if not scenes:
        # only structural lines (e.g. transitions); keep one empty scene
        scenes.append(Scene(index=1, heading=None))
    return Screenplay(title=raw.title, scenes=scenes)


def split_long_scenes(sp: Screenplay, cap: int = DEFAULT_SCENE_CAP) -> Screenplay:
    """Split scenes so no scene holds more than ``cap`` statements.

    Cuts at statement boundaries, greedily filling each piece; pieces are
    reindexed consecutively and only the first piece keeps the heading.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    scenes: list[Scene] = []
    for scene in sp.scenes:
        if len(scene.statements) <= cap:
            scenes.append(Scene(index=len(scenes) + 1, heading=scene.heading,
                                statements=list(scene.statements)))
            continue
        for start in range(0, len(scene.statements), cap):
            piece = scene.statements[start:start + cap]
            scenes.append(Scene(index=len(scenes) + 1,
                                heading=scene.heading if start == 0 else None,
                                statements=piece))
    return Screenplay(title=sp.title, scenes=scenes)


def parse_script(title: str, text: str, config: ParserConfig = ParserConfig(),
                 cap: int | None = DEFAULT_SCENE_CAP) -> Screenplay:
    """Full pipeline: classify, segment, and apply the scene cap."""
    raw = RawScript.from_text(title, text)
    sp = segment_scenes(raw, config=config)
    if cap is not None:
        sp = split_long_scenes(sp, cap)
    return sp


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


# ---------------------------------------------------------------------------
# quality report


def quality_report(raw: RawScript, config: ParserConfig = ParserConfig()) -> dict:
    """Counts by line kind plus a [0, 1] score of how much content was usable.

    The score is the fraction of non-blank lines carrying structure the
    model consumes (headings, action, dialogue, cues); ingestion layers can
    threshold on it instead of a fixed error criterion.
    """
    classes = classify_lines(raw, config)
    counts = {kind.name: 0 for kind in StatementKind}
    cue_count = 0
    for cls in classes:
        counts[cls.kind.name] += 1
        if cls.is_character_cue:
            cue_count += 1
    non_blank = len(classes) - counts["BLANK"]
    usable = counts["SCENE_HEADING"] + counts["ACTION"] + counts["DIALOGUE"]
    score = usable / non_blank if non_blank else 0.0
    return {
        "title": raw.title,
        "line_count": len(classes),
        "counts": counts,
        "character_cues": cue_count,
        "heading_count": counts["SCENE_HEADING"],
        "quality_score": round(score, 6),
    }
