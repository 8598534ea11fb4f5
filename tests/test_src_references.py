"""Every function and class defined in ``src/`` has a use outside the tests.

A definition is used when its name appears in ``src/`` or ``benchmarks/``
as a name, an attribute, or a word of a string that is not a docstring
(the benchmark tracer finds library functions by dotted name).  The match
is by name only, so it is lenient: any use of the name counts.  A
re-export from the package ``__init__`` is not a use.  Code only tests
call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# kept on purpose, though only tests call them
KEPT = {
    "pair_permutations",  # the paper's appendix formula (criterion 6)
    "parse_table",        # round trip of parser.to_table
    "parse_csv",          # round trip of trajectories.export_csv
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def docstrings(tree):
    """The ids of the docstring nodes of a module and its definitions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def scan():
    """(definitions in src/ as {name: [file:line]}, names used in src/ and
    benchmarks/)."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and SRC in path.parents:
                defined.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skip):
                used.update(re.findall(r"\w+", node.value))
    return defined, used


def test_every_src_definition_has_a_use_outside_the_tests():
    defined, used = scan()
    unused = {name: where for name, where in defined.items()
              if name not in used and name not in KEPT
              and not (name.startswith("__") and name.endswith("__"))}
    assert unused == {}


def test_kept_definitions_exist_and_have_no_other_use():
    defined, used = scan()
    assert KEPT <= defined.keys()
    assert not KEPT & used
