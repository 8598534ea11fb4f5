"""Every function and class defined in ``src/`` has a use outside the tests.

A module-level function or class is used when code in ``src/`` or
``benchmarks/``:

- reaches it as ``module.name``;
- imports it by name and then uses that name;
- names it in its own module, outside its own body; or
- names it in a dotted string such as ``"autodiff.Adam.step"`` (the
  benchmark tracer finds library functions by dotted name).

Each name is resolved through the imports and the function scopes of the
file it appears in, so ``np.<name>``, a local variable or a word in a plain
string that only shares a definition's name is not a use.  Methods and
nested functions are matched by name: one is used when its name appears as
a name or an attribute outside its own body, or as a later part of a dotted
string.  A re-export from a package ``__init__`` is not a use.  Code only
tests call belongs in the tests; the tape ops that only tests build graphs
from live in ``tests/tape_ops.py``, and none of them may be defined in
``autodiff`` as well.
"""

import ast
import re
import textwrap
from collections import defaultdict
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
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


class Module:
    """A parsed file: its dotted name, its top-level definitions, and its
    module scope, each top-level name mapped to the dotted path it names."""

    def __init__(self, path: Path, base: Path):
        parts = path.relative_to(base).with_suffix("").parts
        self.package = parts[-1] == "__init__"
        self.name = ".".join(parts[:-1] if self.package else parts)
        self.path = path
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.defs = {node.name: node for node in self.tree.body
                     if isinstance(node, DEFINITIONS)}
        self.scope = {name: f"{self.name}.{name}" for name in self.defs}
        for node in self.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.scope.update(self.bound_by(node))

    def bound_by(self, node):
        """(alias, dotted path) for each name an import binds."""
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                yield (a.asname, a.name) if a.asname else (top, top)
            return
        base = node.module or ""
        if node.level:
            package = self.name.split(".")
            package = package[:len(package) - node.level + self.package]
            base = ".".join(package + ([node.module] if node.module else []))
        for a in node.names:
            yield a.asname or a.name, f"{base}.{a.name}"


def local_scope(fn, mod: Module) -> dict:
    """What a function binds itself: the dotted path of each import, None
    for any other local name."""
    args = fn.args
    out = {a.arg: None for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs, args.vararg, args.kwarg) if a}
    free: set[str] = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(mod.bound_by(node))
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.setdefault(node.id, None)
        elif isinstance(node, DEFINITIONS):
            out.setdefault(node.name, None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.setdefault(node.name, None)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return {name: path for name, path in out.items() if name not in free}


class Scan:
    """The uses that the files of ``modules`` make of the modules' top-level
    definitions (``used``, by dotted path) and of any name (``by_name``,
    with the definitions enclosing each use)."""

    def __init__(self, modules: dict[str, Module]):
        self.modules = modules
        self.short = {name.rsplit(".", 1)[-1]: name for name in modules}
        self.used: set[str] = set()
        self.by_name: dict[str, list[list]] = defaultdict(list)

    def resolve(self, path):
        """The scanned module or top-level definition a dotted path names,
        as its own dotted path, following re-imports; None for any other."""
        if path is None or path in self.modules:
            return path
        module, _, name = path.rpartition(".")
        target = self.modules[module].scope.get(name) \
            if module in self.modules else None
        return path if target == path else self.resolve(target)

    def target(self, node, scopes):
        """What a name, or an attribute of a scanned module, names."""
        if isinstance(node, ast.Name):
            scope = next((s for s in reversed(scopes) if node.id in s), {})
            return self.resolve(scope.get(node.id))
        if isinstance(node, ast.Attribute):
            module = self.target(node.value, scopes)
            if module in self.modules:
                return self.resolve(f"{module}.{node.attr}")
        return None

    def walk(self, node, mod: Module, scopes, inside, docstrings) -> None:
        if isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Load):
            self.by_name[getattr(node, "id", None) or node.attr].append(inside)
            found = self.target(node, scopes)
            if found and found not in self.modules:
                module, _, name = found.rpartition(".")
                if all(d is not self.modules[module].defs[name] for d in inside):
                    self.used.add(found)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            for dotted in DOTTED.findall(node.value):
                self.dotted(dotted, inside)
        if isinstance(node, SCOPES):
            scopes = scopes + [local_scope(node, mod)]
        if isinstance(node, DEFINITIONS):
            inside = inside + [node]
        for child in ast.iter_child_nodes(node):
            self.walk(child, mod, scopes, inside, docstrings)

    def dotted(self, text: str, inside) -> None:
        """A dotted string: ``module.name`` uses the definition, and each
        later part is a use by name."""
        first, *rest = text.split(".")
        path = self.short.get(first)
        while path in self.modules and rest:
            path = self.resolve(f"{path}.{rest.pop(0)}")
        if path and path not in self.modules:
            self.used.add(path)
            for part in rest:
                self.by_name[part].append(inside)


def unused(src: Path, others: list[Path]) -> dict[str, list[str]]:
    """{name: [file:line]} of the functions and classes defined under
    ``src`` that no code under ``src`` or ``others`` uses."""
    modules = {}
    for base in (src, *others):
        for path in sorted(base.rglob("*.py")):
            mod = Module(path, base)
            modules[mod.name] = mod
    scan = Scan(modules)
    for mod in modules.values():
        if not mod.package:  # a re-export is not a use
            docstrings = {id(node.body[0].value) for node in ast.walk(mod.tree)
                          if isinstance(node, (ast.Module, *DEFINITIONS))
                          and node.body and isinstance(node.body[0], ast.Expr)
                          and isinstance(node.body[0].value, ast.Constant)}
            scan.walk(mod.tree, mod, [mod.scope], [], docstrings)
    out: dict[str, list[str]] = {}
    for mod in modules.values():
        if src not in mod.path.parents:
            continue
        for node in ast.walk(mod.tree):
            if not isinstance(node, DEFINITIONS) or \
                    (node.name.startswith("__") and node.name.endswith("__")):
                continue
            if mod.defs.get(node.name) is node:
                used = f"{mod.name}.{node.name}" in scan.used
            else:
                used = any(all(d is not node for d in inside)
                           for inside in scan.by_name[node.name])
            if not used:
                out.setdefault(node.name, []).append(
                    f"{mod.path.relative_to(src.parent)}:{node.lineno}")
    return out


def top_level_names(path: Path) -> set[str]:
    return set(Module(path, path.parent).defs)


def test_every_src_definition_has_a_use_outside_the_tests():
    found = unused(SRC, [ROOT / "benchmarks"])
    assert {name: where for name, where in found.items()
            if name not in KEPT} == {}


def test_kept_definitions_exist_and_have_no_other_use():
    assert KEPT <= unused(SRC, [ROOT / "benchmarks"]).keys()


def test_no_test_only_tape_op_is_defined_in_autodiff():
    assert top_level_names(SRC / "scenewise" / "autodiff.py") \
        & top_level_names(ROOT / "tests" / "tape_ops.py") == set()


def plant(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def test_guard_resolves_names_instead_of_matching_words(tmp_path):
    # mul, sqrt and total share their names only with an error label, a
    # numpy call and a local variable, so each is unused
    plant(tmp_path, {
        "src/pkg/__init__.py": "from .ops import total\n",
        "src/pkg/ops.py": '''
            import numpy as np

            def _check(a, b, op):
                if a.shape != b.shape:
                    raise ValueError(f"{op}: {a.shape} vs {b.shape}")

            def mul(a, b):
                _check(a, b, "mul")
                return mul(a, b) if a is None else a * b

            def sqrt(a):
                return np.sqrt(a)

            def total(a):
                return a.sum()

            def reached(a):
                return a

            def traced(a):
                return a

            def helper(a):
                return a

            def caller(a):
                return helper(a)

            class Box:
                def method(self):
                    return self.method

                def spare(self):
                    return self.spare
            ''',
        "src/pkg/report.py": '''
            from . import ops
            from .ops import caller

            def summary(rows):
                total = 0.0
                for row in rows:
                    total += row
                return ops.reached(total), caller(total), np_sum(rows)

            def np_sum(rows):
                return sum(rows)
            ''',
        "benchmarks/bench.py": '''
            from pkg import report

            TARGETS = ("ops.traced", "pkg.ops.Box.method", "sqrt total mul")
            report.summary([1.0])
            ''',
    })
    assert set(unused(tmp_path / "src", [tmp_path / "benchmarks"])) == \
        {"mul", "sqrt", "total", "spare"}
