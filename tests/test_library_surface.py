"""The library holds no name that only tests use.

Every top-level function, class and assigned name of a ``flowguard``
module, and every public method and property of its top-level classes,
must be referenced outside its own definition: by other code in ``src/``
(the ``__init__`` exports do not count), by a demo, by the benchmark, or
by the README. The benchmark's tracer wraps the functions it names, so
each of them must exist. No module imports a name it does not use.
"""

import ast
import builtins
import functools
import importlib
import importlib.util
import json
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
    return frozenset(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))


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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tree = ast.parse(module.read_text(encoding="utf-8"))
    definitions = [(stmt, defined_names(stmt)) for stmt in tree.body]
    definitions += [(f, {f.name}) for stmt in tree.body for f in public_methods(stmt)]
    unused = []
    for node, names in definitions:
        own_module = referenced_names(tree, skip=node)
        for name in sorted(names):
            if name not in used | own_module and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(name)
    assert not unused, f"{module.name}: only tests use {unused}"


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(module):
    """A name a module imports at module level is used in that module, so
    that moving code out of a module takes its imports along."""
    tree = ast.parse(module.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__"
        for alias in stmt.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - used, f"{module.name}: unused imports {sorted(imported - used)}"


def test_the_concrete_machine_computes_its_own_effect():
    """``impl_model`` neither imports nor names ``advance`` or
    ``action_effect``, the specification's effect: were the two machines to
    share it, step simulation would compare it with itself."""
    tree = ast.parse((PACKAGE / "impl_model.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for alias in n.names
    }
    shared = {"advance", "action_effect"} & (imported | referenced_names(tree))
    assert not shared, f"impl_model uses the specification's effect: {sorted(shared)}"


def tracer_table(name: str) -> tuple[tuple[str, str], ...]:
    """The ``(module, function)`` table ``name`` of the benchmark's tracer,
    read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
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


def test_no_handler_names_a_class_beside_its_base():
    """An ``except`` tuple under ``src/`` that names a class and one of its
    base classes catches nothing more for the subclass, and it reads as
    though the base did not cover it."""
    redundant = []
    for module in MODULES:
        namespace = {**vars(builtins), **vars(importlib.import_module(f"flowguard.{module.stem}"))}
        for n in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(n, ast.ExceptHandler) and isinstance(n.type, ast.Tuple):
                names = [ast.unparse(t) for t in n.type.elts]
                classes = [eval(name, namespace) for name in names]
                redundant += [
                    f"{module.name}:{n.lineno}: {sub} beside {base}"
                    for sub, cls in zip(names, classes)
                    for base, other in zip(names, classes)
                    if cls is not other and issubclass(cls, other)
                ]
    assert not redundant, f"except tuples that name a class beside its base: {redundant}"


def test_the_tracer_hooks_count_the_cli_work(tmp_path, capsys, monkeypatch):
    """The tracer's hooks still see the work they measure: the ``sweep``
    command's walk through its ``next_fn`` keyword (``check`` walks no
    script once its exploration passes the sweep), ``drive`` through the
    fields of its ``RunRecord``, safety preservation through its verdict's
    ``explored_states``, replay through its rows, a policy-edit mutant's
    abstract steps through the rebound ``spec_next``, and every byte the
    trace-log digests hash through ``tracelog.hashlib``."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cli = importlib.import_module("flowguard.cli")  # loads every module the tracer wraps
    tracelog = importlib.import_module("flowguard.tracelog")
    flow, log = str(ROOT / "flows" / "read_agent.json"), str(tmp_path / "run.log")
    max_steps = json.loads(Path(flow).read_text(encoding="utf-8"))["constants"]["max_steps"]

    fed = {}  # command -> the states given to its digesters, in order

    class Recording(tracelog.RunDigester):
        def __call__(self, s):
            fed[command].append(s)
            return super().__call__(s)

    monkeypatch.setattr(tracelog, "RunDigester", Recording)
    hashed = {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["check", "--flow", flow, "--depth", "2"])]
        before = tracer.counts["spec_model.spec_next.calls"]
        codes.append(cli.main(["check", "--flow", flow, "--depth", "4", "--mutation", "drop-allowlist-guard"]))
        mutant_steps = tracer.counts["spec_model.spec_next.calls"] - before
        codes.append(cli.main(["sweep", "--flow", flow, "--depth", "2"]))
        for command, argv in (("run", ["--steps", "5", "--out", log]), ("replay", [log])):
            fed[command], before = [], tracer.counts["tracelog.state_digest.bytes_hashed"]
            codes.append(cli.main([command, "--flow", flow, *argv]))
            hashed[command] = tracer.counts["tracelog.state_digest.bytes_hashed"] - before
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 1, 0, 0, 0]
    for command, states in fed.items():
        # A digester hashes each state it is given, except the one it was given last.
        digested = [s for k, s in enumerate(states) if k == 0 or s is not states[k - 1]]
        assert len(digested) > 1
        assert hashed[command] == sum(len(json.dumps(tracelog.state_document(s, max_steps), sort_keys=True)) for s in digested)
    assert tracer.counts["havoc.sweep.next_calls"] > 0
    assert tracer.counts["spec_model.check_safety_preserved.explored_states"] > 0
    assert tracer.counts["havoc.drive.steps"] == 5
    assert tracer.counts["tracelog.replay_trace_log.rows"] == 5
    assert mutant_steps > 0


def test_each_variant_is_spelled_once_in_its_class():
    """No string in ``src/`` spells an action or event literal: every
    ``Name`` and ``Name(`` is written and read from the class, so adding or
    renaming a variant touches its class statement alone."""
    from flowguard.actions import Action, BoundaryEvent

    names = tuple(cls.__name__ for cls in Action.__args__ + BoundaryEvent.__args__)
    spelled = [
        f"{module.name}:{n.lineno}: {n.value!r}"
        for module in sorted(PACKAGE.glob("*.py"))
        for n in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(n, ast.Constant)
        and isinstance(n.value, str)
        and (n.value in names or n.value.startswith(tuple(f"{name}(" for name in names)))
    ]
    assert not spelled, f"variant names spelled as strings: {spelled}"


# The ``Path`` methods that read or write text, and the position of their
# ``encoding`` among their positional arguments.
TEXT_METHODS = {"read_text": 0, "write_text": 1}


def test_every_text_file_is_opened_with_an_encoding():
    """An ``open()``, ``Path.read_text()`` or ``Path.write_text()`` under
    ``src/``, ``tests/`` or ``demos/`` either reads or writes bytes or names its
    encoding: without one, text is decoded and encoded in the locale's
    encoding, so the same flow file would load on one machine and not on
    another, and a test would pass under one locale and fail under
    another."""
    unnamed = []
    for module in (m for d in (PACKAGE, ROOT / "tests", ROOT / "demos") for m in sorted(d.glob("*.py"))):
        for n in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(n, ast.Call):
                continue
            keywords = {k.arg: k.value for k in n.keywords}
            if isinstance(n.func, ast.Name) and n.func.id == "open":
                mode = n.args[1] if len(n.args) > 1 else keywords.get("mode")
                named = isinstance(mode, ast.Constant) and "b" in mode.value
            elif isinstance(n.func, ast.Attribute) and n.func.attr in TEXT_METHODS:
                named = len(n.args) > TEXT_METHODS[n.func.attr]
            else:
                continue
            if not named and "encoding" not in keywords:
                unnamed.append((str(module.relative_to(ROOT)), n.lineno))
    assert not unnamed, f"text read or written without encoding=: {sorted(unnamed)}"
