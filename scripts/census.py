"""Who reaches what: a census of the names ``src/repro`` defines.

    python scripts/census.py            # leads: names only tests reach
    python scripts/census.py --knobs    # leads: settings nothing sets
    python scripts/census.py NAME ...   # each name's references, by tree

The first form lists each public function, class, method, constant, field
and keyword parameter of ``src/repro`` that no file outside ``tests/``
reaches, apart from its own module: a word use reaches a name, a keyword
in a call of its function reaches a parameter, a constructor keyword or
attribute read reaches a field.  ``--knobs`` lists each field of a
``*Config`` / ``*Params`` class that no constructor keyword and no
``replace(..., field=)`` outside ``tests/`` and its own module sets: a
field every caller leaves at its default, however often it is read.
Leads to check by hand, not verdicts.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "benchmarks", "examples", "scripts", "tests")
WORD = re.compile(r"[A-Za-z_]\w*")


def _files():
    return ((tree, path) for tree in TREES for path in sorted((ROOT / tree).rglob("*.py")))


def _params(func, qualified, owner):
    args = func.args
    for arg in args.args[len(args.args) - len(args.defaults):] + args.kwonlyargs:
        yield "keyword", f"{qualified}({arg.arg}=)", arg.arg, owner


def _definitions(path):
    """``(kind, qualified name, name, owner)`` per definition; a keyword's
    owner is the name its callers call, a field's its class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (("constant", t.id, t.id, None) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.FunctionDef):
            yield "function", node.name, node.name, None
            yield from _params(node, node.name, node.name)
        elif isinstance(node, ast.ClassDef):
            yield "class", node.name, node.name, None
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield "field", f"{node.name}.{item.target.id}", item.target.id, node.name
                elif isinstance(item, ast.FunctionDef):
                    qualified = f"{node.name}.{item.name}"
                    yield "method", qualified, item.name, None
                    owner = node.name if item.name == "__init__" else item.name
                    yield from _params(item, qualified, owner)


def _uses(path):
    """The words, ``(callee, keyword)`` pairs and attribute names of ``path``."""
    text, calls, attrs = path.read_text(), set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.update((callee, kw.arg) for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return set(WORD.findall(text)), calls, attrs


def _reached(kind, name, owner, uses):
    if kind in ("keyword", "field"):  # a field is also reached by an attribute read
        field = kind == "field"
        return any((owner, name) in calls or field and name in attrs for _, calls, attrs in uses)
    return any(name in words for words, _, _ in uses)


def leads() -> None:
    uses = {path: _uses(path) for tree, path in _files() if tree != "tests"}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        others = [use for other, use in uses.items() if other != path]
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for kind, qualified, name, owner in _definitions(path):
            private = any(n.startswith("_") for n in (name, qualified, owner or ""))
            if not private and not _reached(kind, name, owner, others):
                print(f"{kind:9} {module}:{qualified}")


def knobs() -> None:
    calls = {path: _uses(path)[1] for tree, path in _files() if tree != "tests"}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sets = set().union(*(c for other, c in calls.items() if other != path))
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for kind, qualified, name, owner in _definitions(path):
            knob = kind == "field" and owner.endswith(("Config", "Params"))
            if knob and not {(owner, name), ("replace", name)} & sets:
                print(f"knob      {module}:{qualified}")


def references(names) -> None:
    for name in names:
        found = {tree: [] for tree in TREES}
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        for tree, path in _files():
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    found[tree].append(f"{path.relative_to(ROOT)}:{number}")
        print(f"{name}: " + ", ".join(f"{tree} {len(found[tree])}" for tree in TREES))
        print("".join(f"  {tree:10} {at}\n" for tree in TREES for at in found[tree]), end="")


if __name__ == "__main__":
    if sys.argv[1:] == ["--knobs"]:
        knobs()
    else:
        references(sys.argv[1:]) if sys.argv[1:] else leads()
