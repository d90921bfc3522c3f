"""The two checks ``make lint`` can always run: no untyped ``def`` inside the
strictly typed island, no unused import anywhere in ``src/``.

``ruff`` and ``mypy`` are the real tools and CI runs them; a sandbox without
them still gets the part of their verdict an AST walk can give.  The island
is read from ``pyproject.toml``: every ``[[tool.mypy.overrides]]`` module
pattern with ``disallow_untyped_defs``.  Exit status 1 with one line per
finding.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path
from typing import Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def island_files() -> List[Path]:
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    files: Set[Path] = set()
    for override in config["tool"]["mypy"].get("overrides", []):
        if not override.get("disallow_untyped_defs"):
            continue
        modules = override["module"]
        for module in [modules] if isinstance(modules, str) else modules:
            path = SRC.joinpath(*module.removesuffix(".*").split("."))
            files.update(path.rglob("*.py") if module.endswith(".*") else [path.with_suffix(".py")])
    return sorted(files)


def untyped_defs(tree: ast.AST) -> Iterator[str]:
    """``disallow_untyped_defs`` + ``disallow_incomplete_defs``, as mypy reads them."""
    methods = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        params = [p for p in params if p is not None]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        if id(node) in methods and not static:
            params = params[1:]  # self / cls
        missing = [p.arg for p in params if p.annotation is None]
        # mypy takes an ``__init__`` with an annotated argument as returning None
        needs_return = node.returns is None and not (
            node.name == "__init__" and params and not missing
        )
        if missing or needs_return:
            what = ", ".join(missing + (["return"] if needs_return else []))
            yield f"{node.lineno}: def {node.name} lacks annotations ({what})"


def unused_imports(tree: ast.Module, source: str) -> Iterator[str]:
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations and ``__all__`` entries name things too
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if alias.name != "*" and bound not in used:
                yield f"{node.lineno}: unused import {bound}"


def main() -> int:
    island = set(island_files())
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        found = list(unused_imports(tree, source))
        if path in island:
            found += untyped_defs(tree)
        findings += [f"{path.relative_to(ROOT)}:{finding}" for finding in found]
    print("\n".join(findings) if findings else f"lint_island: {len(island)} island modules clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
