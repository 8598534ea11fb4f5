"""The two-pass screenplay classifier, kept as the tests' oracle.

``classify_lines`` builds one ``LineClass`` per line; ``segment_scenes``
walks that list into scenes, ``split_long_scenes`` copies them into
pieces of at most ``cap`` statements, and ``quality_report`` classifies
the lines again for its counts.  ``scenewise.parser`` does all three in
one line scan; the fuzz test in ``test_parser.py`` checks that the two
agree.  The
formatting constants are restated here rather than imported, so the
oracle does not share them with the code it checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from scenewise.errors import EmptyScript
from scenewise.parser import Scene, Screenplay, Statement, StatementKind

DEFAULT_HEADING_PREFIXES = ("INT.", "EXT.", "INT/EXT", "EXT/INT", "I/E.")
DEFAULT_SCENE_CAP = 60

_TRANSITION_RE = re.compile(r"(TO:|FADE IN:?|FADE OUT\.?|FADE TO BLACK\.?)$")
_CUE_SUFFIX_RE = re.compile(r"\s*\((?:V\.?O\.?|O\.?S\.?|O\.?C\.?|CONT'?D\.?)\)\s*$",
                            re.IGNORECASE)
_NO_LETTERS_RE = re.compile(r"^[^A-Za-z]*$")


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
