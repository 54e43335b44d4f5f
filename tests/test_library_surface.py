"""The library holds no name that only tests use.

Every top-level function, class and assigned name of a ``flowguard``
module, and every public method and property of its top-level classes,
must be referenced outside its own definition: by other code in ``src/``
(the ``__init__`` exports do not count), by a demo, by the benchmark, or
by the README. The benchmark's tracer wraps the functions it names, so
each of them must exist.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowguard"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def node_names(n: ast.AST) -> set[str]:
    """The name, attribute or identifier-like string constant that the
    node ``n`` itself uses (the benchmark looks functions up by name)."""
    if isinstance(n, ast.Name):
        return {n.id}
    if isinstance(n, ast.Attribute):
        return {n.attr}
    if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
        return {n.value}
    return set()


def referenced_names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes the code under ``node`` uses, leaving out the
    subtree ``skip``. An import alone is not a use."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is not skip:
            out |= node_names(n)
            stack.extend(ast.iter_child_nodes(n))
    return out


@functools.cache
def file_uses(path: Path) -> frozenset[str]:
    return frozenset(referenced_names(ast.parse(path.read_text())))


def public_methods(stmt: ast.stmt) -> list[ast.FunctionDef]:
    """The public methods and properties of a top-level class."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [f for f in stmt.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_top_level_name_is_used_outside_the_tests(module):
    others = [p for p in MODULES if p != module]
    others += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(file_uses, others))
    readme = (ROOT / "README.md").read_text()
    tree = ast.parse(module.read_text())
    definitions = [(stmt, defined_names(stmt)) for stmt in tree.body]
    definitions += [(f, {f.name}) for stmt in tree.body for f in public_methods(stmt)]
    unused = []
    for node, names in definitions:
        own_module = referenced_names(tree, skip=node)
        for name in sorted(names):
            if name not in used | own_module and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(name)
    assert not unused, f"{module.name}: only tests use {unused}"


def tracer_table(name: str) -> tuple[tuple[str, str], ...]:
    """The ``(module, function)`` table ``name`` of the benchmark's tracer,
    read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (value,) = (
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets)
    )
    return ast.literal_eval(value)


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_every_function_the_tracer_wraps_exists(table):
    """``Tracer.install`` looks each entry up with ``getattr``, so a
    missing one crashes every traced benchmark run."""
    entries = tracer_table(table)
    missing = [
        f"{module}.{name}"
        for module, name in entries
        if not callable(getattr(importlib.import_module(f"flowguard.{module}"), name, None))
    ]
    assert entries and not missing, f"{table} names functions flowguard lacks: {missing}"
