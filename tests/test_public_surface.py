"""Every name the package and the benchmark define has a caller.

A module-level function or class (public or private), a public method, or
a module-level constant must be referenced by name somewhere in
``src/rbmstruct`` or ``perfbench`` outside its own definition: as an
identifier, an attribute, an import, or a ``perfbench.spans.SPAN_HOOKS``
string. Tests do not count as callers. Functions named ``test_*`` are
called by pytest's collection, and dunder names by Python.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(tree: ast.AST) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_HOOKS" for t in node.targets
        ):
            out.update(c.value for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return out


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of each top-level def, class and
    constant, and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield f"{module}.{t.id}", t.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith(("__", "test_")):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method.name, method


def test_every_public_name_is_referenced():
    files = sorted((ROOT / "src" / "rbmstruct").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    total = sum((_references(t) for t in trees.values()), Counter())
    unreferenced = {
        qual
        for module, tree in trees.items()
        for qual, name, node in _definitions(module, tree)
        if total[name] == _references(node)[name]
    }
    assert unreferenced == set()
