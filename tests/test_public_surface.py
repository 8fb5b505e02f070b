"""Every public name of the package and the benchmark has a caller.

A public module-level function or class, or a public method, must be
referenced by name somewhere in ``src/rbmstruct`` or ``perfbench``
outside its own definition: as an identifier, an attribute, an import, or
a ``perfbench.spans.SPAN_HOOKS`` string. Tests do not count as callers.
Functions named ``test_*`` are called by pytest's collection.
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


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level def and class and
    each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith(("_", "test_")):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{module}.{node.name}.{method.name}", method


def test_every_public_name_is_referenced():
    files = sorted((ROOT / "src" / "rbmstruct").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    total = sum((_references(t) for t in trees.values()), Counter())
    unreferenced = {
        qual
        for module, tree in trees.items()
        for qual, node in _public_definitions(module, tree)
        if total[node.name] == _references(node)[node.name]
    }
    assert unreferenced == set()
