"""The library holds no name that only tests use.

Every top-level function, class and assigned name of a ``flowguard``
module must be referenced outside its own definition: by other code in
``src/`` (the ``__init__`` exports do not count), by a demo, by the
benchmark, or by the README.
"""

import ast
import functools
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


def referenced_names(node: ast.AST) -> set[str]:
    """Names and attributes the code uses, plus string constants spelling an
    identifier (the benchmark looks functions up by name). An import alone
    is not a use."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


@functools.cache
def file_uses(path: Path) -> frozenset[str]:
    return frozenset(referenced_names(ast.parse(path.read_text())))


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_top_level_name_is_used_outside_the_tests(module):
    others = [p for p in MODULES if p != module]
    others += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(file_uses, others))
    readme = (ROOT / "README.md").read_text()
    body = ast.parse(module.read_text()).body
    uses = [referenced_names(stmt) for stmt in body]
    unused = []
    for stmt in body:
        own_module = set().union(*(u for s, u in zip(body, uses) if s is not stmt))
        for name in sorted(defined_names(stmt)):
            if name not in used | own_module and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(name)
    assert not unused, f"{module.name}: only tests use {unused}"
