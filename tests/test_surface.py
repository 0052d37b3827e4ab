"""No dead library surface: every top-level function, class and method under
``src/gsp4transfer`` is named by some code that is not its own unit test,
every optional parameter of one is both set and left at its default there,
and every field of a dataclass there is read there."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gsp4transfer").glob("*.py"))
# the library itself, the scripts, the benchmark and the acceptance criteria
READERS = [*SOURCES, *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# name -> why it stays with no reader
ALLOWED = {"param_to_json": "the scalar-route oracle that TestTransferOracle compares transfer output against"}
# function.parameter -> why the option stays though no reader sets it, or none leaves it at its default
ALLOWED_OPTIONS = {
    "estimate_with_sweep.grid": "the fit's grid, whose rules (at least 5 distinct points in (1, 1.5]) "
                                "test_grid_validation checks",
    "estimate_with_sweep.min_place": "the fit window's floor, which test_window_is_the_places_above_min_place "
                                     "and test_empty_window_refused vary",
}


def _reader_trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}


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
    trees = _reader_trees()
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


def _optional_parameters(node: ast.FunctionDef, method: bool):
    """(name, index among the arguments a call passes) of each parameter with
    a default; the index is None for a keyword-only one, and a method's
    first parameter, bound to the instance or class, is not passed."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - method
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_option_is_set_and_left_by_some_reader():
    """An option that every reader sets wants no default, and one that no
    reader sets wants no parameter.  A call counts by the name it calls,
    ``f(...)`` or ``x.f(...)``, outside the function's own definition."""
    trees = _reader_trees()
    calls = defaultdict(list)  # called name -> the calls
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name | ast.Attribute):
                calls[getattr(call.func, "id", None) or call.func.attr].append(call)
    unused = []
    for path in SOURCES:
        for node in _definitions(trees[path]):
            if isinstance(node, ast.ClassDef) or node.name.startswith("__"):
                continue
            own = {id(call) for call in ast.walk(node)}
            outside = [call for call in calls[node.name] if id(call) not in own]
            method = node not in trees[path].body and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            for name, index in _optional_parameters(node, method):
                passed = [
                    any(k.arg == name for k in call.keywords)
                    or (index is not None and len(call.args) > index)
                    for call in outside
                ]
                if f"{node.name}.{name}" not in ALLOWED_OPTIONS and not (any(passed) and not all(passed)):
                    unused.append(f"{node.name}.{name}")
    assert not unused, f"options that no reader sets, or that every reader sets: {sorted(unused)}"


def _dataclass_fields(tree: ast.Module):
    """(class, field) of each field declared in a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def test_every_dataclass_field_is_read():
    """A field that no reader reads as ``x.field`` holds a value that nothing
    uses.  A read inside the field's own class counts."""
    trees = _reader_trees()
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for path in SOURCES for cls, name in _dataclass_fields(trees[path]) if name not in reads]
    assert not unread, f"dataclass fields under src/ that no reader reads: {unread}"
