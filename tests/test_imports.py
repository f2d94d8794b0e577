"""Every name a ``quotrel`` module imports is used in that module, every
private helper is referenced, and every private name read is bound.

No linter is part of the toolchain, so this stdlib-``ast`` scan stands in for
one: a name counts as used when it is read anywhere in the module, including
inside quoted annotations, or when the module lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quotrel"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from typing import Callable, Iterable\n"
        "def f(x: 'Iterable[int]') -> None:\n"
        "    return os.sep\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"regex", "Callable"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name} imports unused names: {unused}"


# -- the budget is read from one scope ------------------------------------------


def budget_owners(tree: ast.Module, module: str) -> tuple[list[str], list[str]]:
    """Qualified names of the functions taking a ``budget`` parameter, and of
    the scopes storing a ``budget`` attribute: ``x.budget = ...``,
    ``setattr(x, "budget", ...)``, or a ``budget`` field in a class body."""
    params, stores = [], []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    if any(x.arg == "budget" for x in a.posonlyargs + a.args + a.kwonlyargs):
                        params.append(name)
                elif any(
                    isinstance(sub, ast.Name) and sub.id == "budget"
                    and isinstance(sub.ctx, ast.Store)
                    for stmt in child.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for sub in ast.walk(stmt)
                ):
                    stores.append(name)
                visit(child, name)
                continue
            if (
                isinstance(child, ast.Attribute) and child.attr == "budget"
                and isinstance(child.ctx, ast.Store)
            ) or (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == "setattr" and len(child.args) > 1
                and isinstance(child.args[1], ast.Constant)
                and child.args[1].value == "budget"
            ):
                stores.append(scope)
            visit(child, scope)

    visit(tree, module)
    return params, stores


def test_budget_scan_flags_parameters_and_stores():
    tree = ast.parse(
        "def f(x, budget=None):\n"
        "    pass\n"
        "class A:\n"
        "    budget: int = 3\n"
        "    def __init__(self, *, budget):\n"
        "        self.budget = budget\n"
        "def g(obj):\n"
        "    setattr(obj, 'budget', 1)\n"
        "    budget = 2\n"
        "    return budget\n"
    )
    assert budget_owners(tree, "m") == (
        ["m.f", "m.A.__init__"], ["m.A", "m.A.__init__", "m.g"])


def test_budget_is_read_from_one_scope():
    """Only the Buchberger loop is handed a budget, and only the CLI's
    options store one; everything else reads ``poly.current_budget``."""
    params, stores = [], []
    for path in sorted(SRC.glob("*.py")):
        p, s = budget_owners(ast.parse(path.read_text()), path.stem)
        params += p
        stores += s
    assert params == ["groebner._buchberger"]
    assert stores == ["cli._Options"]


# -- every private helper has a caller, and every caller a helper ---------------


def private_definitions(tree: ast.Module) -> list[str]:
    """Private functions and classes defined anywhere in the module."""
    return [
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def references(tree: ast.Module) -> set[str]:
    """Names the module reads: bare names, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unbound_private_reads(tree: ast.Module) -> set[str]:
    """Private bare names the module reads but binds nowhere."""
    bound = set(imported_names(tree))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name):
            (reads if isinstance(node.ctx, ast.Load) else bound).add(node.id)
    return {n for n in reads - bound if n.startswith("_") and not n.startswith("__")}


def test_helper_scans_flag_orphans_and_dangling_calls():
    tree = ast.parse(
        "from .other import _shared\n"
        "def _used(): return _gone() + _shared\n"
        "def _orphan(): pass\n"
        "class _Kept:\n"
        "    def _method(self, _arg): return _arg\n"
        "def api(): return _used() + _Kept()._method(1)\n"
    )
    assert set(private_definitions(tree)) - references(tree) == {"_orphan"}
    assert unbound_private_reads(tree) == {"_gone"}


def test_every_private_helper_is_called():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    orphans = [f"{module}.{name}" for module, tree in trees.items()
               for name in private_definitions(tree) if name not in used]
    assert not orphans, f"private helpers nothing refers to: {orphans}"


def test_every_private_name_read_is_bound():
    """A deleted helper that a caller still names fails only when that call
    runs; this finds it without running anything."""
    dangling = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                for name in unbound_private_reads(ast.parse(path.read_text()))]
    assert not dangling, f"private names bound nowhere: {dangling}"
