"""No dead library surface: every top-level function, class and method under
``src/gsp4transfer`` is named by some code that is not its own unit test."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gsp4transfer").glob("*.py"))
# the library itself, the scripts, the benchmark and the acceptance criteria
READERS = [*SOURCES, *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# name -> why it stays with no reader
ALLOWED = {"param_to_json": "the scalar-route oracle that TestTransferOracle compares transfer output against"}


def _names(tree: ast.AST):
    """Every name a tree references, as an ``ast.Name`` or an ``ast.Attribute``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, kinds[:2]))


def test_every_definition_has_a_reader():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    references = Counter(name for tree in trees.values() for name in _names(tree))
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in _definitions(trees[path])
        # dunder methods are called by the language (operators, dataclass hooks), not by name
        if not (node.name.startswith("__") and node.name.endswith("__")) and node.name not in ALLOWED
        and references[node.name] == Counter(_names(node))[node.name]
    ]
    assert not unread, f"defined under src/ but referenced only by their own definition or by unit tests: {unread}"
