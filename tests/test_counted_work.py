"""Counted work: the CLI's calls of the two step functions and of the
event judge, counted in-process, are bounded by what the checks range
over and not by the depth once the reachable set has closed. The flows
are the shipped ones and a small deterministic family of synthetic ones
built here (``bench/flowgen.py`` belongs to the benchmark).

Every module-level binding that a command calls through is replaced by a
counter, as the benchmark's tracer does:
- ``impl_next``: ``refinement``'s for the obligations, gates and
  fitness, ``havoc``'s for ``run``, ``tracelog``'s for ``replay``;
- ``spec_next``: ``refinement``'s for the shipped bundle and ``gates``'s
  for the seeded errors;
- ``emits``: ``cli``'s for ``run``, ``refinement``'s for ``check``'s
  sweep certificate.

``check`` judges its havoc sweep on its ``CheckRun``'s reachable layers,
stepping each of their pairs again through ``refinement``'s binding, so
those calls are counted with the obligations'. It calls ``havoc.sweep``
only when that judgement does not pass. The ``sweep`` command steps
through the ``next_fn`` default, bound when ``havoc`` is imported, so
``cli.sweep`` is replaced by one that passes a counting ``next_fn``, as
the benchmark tracer's ``_sweep_wrapper`` does. Its count still grows
as |alphabet|^depth (ROADMAP.md items 6 and 14).
"""

import json
import time
from collections import Counter

import pytest

import flowguard.cli as cli
import flowguard.gates as gates
import flowguard.havoc as havoc
import flowguard.refinement as refinement
import flowguard.tracelog as tracelog
from flowguard.actions import ReadPathAction, StepAction, ToolCallAction
from flowguard.cli import main
from flowguard.flowfile import FlowDefinition, serialize_flow
from flowguard.impl_model import FlowGraph, NodeKind, impl_next
from flowguard.refinement import CheckRun
from flowguard.spec_model import SpecConstants, emits, spec_next
from conftest import FLOWS, shipped

SHIPPED = ("read_agent", "rag_barrier", "rag_no_barrier")
BINDINGS = (
    (impl_next, (refinement, havoc, tracelog)),
    (spec_next, (refinement, gates)),
    (emits, (cli, refinement)),
)


@pytest.fixture
def calls(monkeypatch):
    """A ``Counter`` that grows by one under a function's name per call of
    it through the bindings the commands use."""
    counts: Counter = Counter()

    def counting(fn):
        def counted(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        return counted

    for fn, modules in BINDINGS:
        for module in modules:
            monkeypatch.setattr(module, fn.__name__, counting(fn))
    return counts


@pytest.fixture
def sweep_steps(monkeypatch) -> list[int]:
    """The step calls of each sweep that a command runs, one entry per
    sweep."""
    steps: list[int] = []

    def sweep(*args, next_fn=impl_next, **kwargs):
        steps.append(0)

        def counted_next(c, state, action):
            steps[-1] += 1
            return next_fn(c, state, action)

        return havoc.sweep(*args, next_fn=counted_next, **kwargs)

    monkeypatch.setattr(cli, "sweep", sweep)
    return steps


def counted(calls, argv) -> Counter:
    """The calls that the command ``argv`` makes, by function name."""
    calls.clear()
    assert main(argv) in (0, 1)
    return Counter(calls)


# One letter per node kind: its label, and one admitted and one rejected
# value of the action variant its edges dispatch on.
KINDS = {
    "R": (NodeKind.READ, "read", (ReadPathAction("/ws/a"), ReadPathAction("/wsx/a"))),
    "T": (NodeKind.TOOL, "tool", (ToolCallAction("search"), ToolCallAction("rm"))),
    "S": (NodeKind.STEP, "step", (StepAction(),)),
}
# (node kinds along the chain, max_steps, whether the chain closes into a cycle)
SYNTHETIC = (("RTS", 2, False), ("RS", 3, False), ("RRR", 3, True))


def synthetic_flow(kinds: str, max_steps: int, cyclic: bool) -> FlowDefinition:
    """A chain of one node per letter of ``kinds``, ending at a Terminal
    node or, when ``cyclic``, back at its entry."""
    names = [f"n{i}" for i in range(len(kinds))]
    targets = names[1:] + (names[:1] if cyclic else ["end"])
    node_kinds = [(n, KINDS[k][0]) for n, k in zip(names, kinds)] + ([] if cyclic else [("end", NodeKind.TERMINAL)])
    edges = tuple((n, KINDS[k][1], t) for n, k, t in zip(names, kinds, targets))
    alphabet = tuple(dict.fromkeys(a for k in kinds for a in KINDS[k][2]))
    constants = SpecConstants("/ws", frozenset({"search"}), max_steps)
    return FlowDefinition(f"synthetic-{kinds}", constants, FlowGraph("n0", tuple(node_kinds), edges), alphabet)


def assert_no_more_work_past_closure(flow: FlowDefinition, path: str, calls, sweep_steps, out: str) -> None:
    """``check`` and ``gates`` make as many calls of each step function at
    depth ``max_steps + 3`` as at ``max_steps + 1``, and ``check`` at most
    four ``impl_next`` calls per (candidate state, action) pair: one for
    each step obligation, and, from the reachable states among the
    candidates only, one to find the reachable layers and one to judge
    its havoc sweep on them. Neither command calls ``havoc.sweep``."""
    m = flow.constants.max_steps
    for command in ("check", "gates"):
        at = {d: counted(calls, [command, "--flow", path, "--depth", str(d), "--out", out]) for d in (m + 1, m + 3)}
        assert at[m + 1] == at[m + 3], (command, at)
        assert at[m + 3]["impl_next"] > 0 and at[m + 3]["spec_next"] > 0, (command, at)
        if command == "check":
            candidates = CheckRun(flow.impl_constants, flow.alphabet, m + 3).candidates
            assert at[m + 3]["impl_next"] <= 4 * len(flow.alphabet) * len(candidates)
    assert sweep_steps == []


@pytest.mark.parametrize("name", SHIPPED)
def test_check_and_gates_do_no_more_work_past_closure(name, calls, sweep_steps, tmp_path, capsys):
    """Each shipped flow's reachable set closes within ``max_steps`` + 1
    layers, so its work is bounded as ``assert_no_more_work_past_closure``
    states."""
    flow, out = shipped(name), str(tmp_path / "report.json")
    assert_no_more_work_past_closure(flow, str(FLOWS / f"{name}.json"), calls, sweep_steps, out)


@pytest.mark.parametrize("kinds, max_steps, cyclic", SYNTHETIC, ids=[k for k, _, _ in SYNTHETIC])
def test_synthetic_flows_do_no_more_work_past_closure(kinds, max_steps, cyclic, calls, sweep_steps, tmp_path, capsys):
    """The same bound on flows the shipped ones do not cover: a chain
    with every node kind, one without a Tool node, and a cycle of Read
    nodes that only the step budget halts."""
    flow = synthetic_flow(kinds, max_steps, cyclic)
    path = tmp_path / "flow.json"
    path.write_text(serialize_flow(flow), encoding="utf-8")
    assert_no_more_work_past_closure(flow, str(path), calls, sweep_steps, str(tmp_path / "report.json"))


def test_gates_judge_no_emitted_event(calls, tmp_path, capsys):
    """The gates read ``CheckRun``'s layers and never its sweep
    certificate, so on every shipped and synthetic flow they make no
    ``emits`` call, where ``check`` makes some."""
    paths = [str(FLOWS / f"{name}.json") for name in SHIPPED]
    for kinds, max_steps, cyclic in SYNTHETIC:
        path = tmp_path / f"{kinds}.json"
        path.write_text(serialize_flow(synthetic_flow(kinds, max_steps, cyclic)), encoding="utf-8")
        paths.append(str(path))
    for path in paths:
        argv = ["--flow", path, "--depth", "6", "--out", str(tmp_path / "report.json")]
        ran = counted(calls, ["gates", *argv])
        assert ran["emits"] == 0 and ran["impl_next"] > 0, (path, ran)
        assert counted(calls, ["check", *argv])["emits"] > 0, path


@pytest.mark.parametrize("name", SHIPPED)
def test_check_judges_6_to_the_40_scripts_in_under_a_second(name, calls, sweep_steps, tmp_path, capsys):
    """``check --depth 40`` passes the sweep row of all 6^40 scripts
    without walking them (about 1.6e31 step calls), making no more
    ``impl_next`` calls than at depth ``max_steps`` + 1."""
    flow, out = shipped(name), tmp_path / "report.json"
    argv = ["check", "--flow", str(FLOWS / f"{name}.json"), "--out", str(out), "--depth"]
    closed = counted(calls, [*argv, str(flow.constants.max_steps + 1)])
    calls.clear()
    start = time.perf_counter()
    assert main([*argv, "40"]) == 0
    assert time.perf_counter() - start < 1.0
    rows = json.loads(out.read_text(encoding="utf-8"))["obligations"]
    assert rows[-1] == {"name": "havoc_sweep", "status": "pass", "sequences": 6**40}
    assert calls["impl_next"] == closed["impl_next"] and sweep_steps == []


@pytest.mark.parametrize("strategy", ["random", "adversarial"])
def test_run_and_replay_make_one_step_call_per_row(strategy, calls, tmp_path, capsys):
    """``run`` steps once and judges each event at most once per row."""
    log = tmp_path / "t.log"
    argv = ["run", "--flow", str(FLOWS / "read_agent.json"), "--strategy", strategy, "--steps", "50"]
    ran = counted(calls, [*argv, "--out", str(log)])
    assert ran["impl_next"] == 50 and 0 < ran["emits"] <= 50
    rows = log.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 50 and all(json.loads(row)["i"] == i for i, row in enumerate(rows))
    assert counted(calls, ["replay", "--flow", str(FLOWS / "read_agent.json"), str(log)])["impl_next"] == len(rows)


# n + n^2 + ... + n^depth for the six actions of every shipped flow
SWEEP_STEPS = {4: 1_554, 6: 55_986}


@pytest.mark.parametrize("depth", sorted(SWEEP_STEPS))
@pytest.mark.parametrize("name", SHIPPED)
def test_check_and_sweep_step_once_per_script_prefix(name, depth, calls, sweep_steps, tmp_path, capsys):
    """``sweep`` runs one walk, which steps once per prefix of the scripts
    of length ``depth``: |alphabet|^k calls at each length k from 1 to
    ``depth``, although the flow reaches 4 states. ``check`` runs no
    walk: it passes the same ``sequences`` with fewer step calls, its
    obligations' included, than the walk alone makes."""
    n = len(shipped(name).alphabet)
    assert SWEEP_STEPS[depth] == sum(n**k for k in range(1, depth + 1))
    out = tmp_path / "report.json"
    argv = ["--flow", str(FLOWS / f"{name}.json"), "--depth", str(depth), "--out", str(out)]
    assert main(["sweep", *argv]) == 0
    assert sweep_steps == [SWEEP_STEPS[depth]]
    sweep_steps.clear()
    assert counted(calls, ["check", *argv])["impl_next"] < SWEEP_STEPS[depth]
    assert sweep_steps == []
    assert json.loads(out.read_text(encoding="utf-8"))["obligations"][-1]["sequences"] == n**depth
