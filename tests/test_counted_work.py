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
- ``emits``: ``cli``'s for ``run``.

The sweep steps through its ``next_fn`` default, bound when ``havoc`` is
imported, so ``cli.sweep`` is replaced by one that passes a counting
``next_fn``, as the benchmark tracer's ``_sweep_wrapper`` does. Its count
still grows as |alphabet|^depth (ROADMAP.md items 6 and 14).
"""

import json
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
    (emits, (cli,)),
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


def assert_no_more_work_past_closure(flow: FlowDefinition, path: str, calls, out: str) -> None:
    """``check`` and ``gates`` make as many calls of each step function at
    depth ``max_steps + 3`` as at ``max_steps + 1``, and ``check`` at most
    four ``impl_next`` calls per (candidate state, action) pair: one for
    each step obligation, and one to find the reachable layers."""
    m = flow.constants.max_steps
    for command in ("check", "gates"):
        at = {d: counted(calls, [command, "--flow", path, "--depth", str(d), "--out", out]) for d in (m + 1, m + 3)}
        assert at[m + 1] == at[m + 3], (command, at)
        assert at[m + 3]["impl_next"] > 0 and at[m + 3]["spec_next"] > 0, (command, at)
        if command == "check":
            candidates = CheckRun(flow.impl_constants, flow.alphabet, m + 3).candidates
            assert at[m + 3]["impl_next"] <= 4 * len(flow.alphabet) * len(candidates)


@pytest.mark.parametrize("name", SHIPPED)
def test_check_and_gates_do_no_more_work_past_closure(name, calls, tmp_path, capsys):
    """Each shipped flow's reachable set closes within ``max_steps`` + 1
    layers, so its work is bounded as ``assert_no_more_work_past_closure``
    states."""
    assert_no_more_work_past_closure(shipped(name), str(FLOWS / f"{name}.json"), calls, str(tmp_path / "report.json"))


@pytest.mark.parametrize("kinds, max_steps, cyclic", SYNTHETIC, ids=[k for k, _, _ in SYNTHETIC])
def test_synthetic_flows_do_no_more_work_past_closure(kinds, max_steps, cyclic, calls, tmp_path, capsys):
    """The same bound on flows the shipped ones do not cover: a chain
    with every node kind, one without a Tool node, and a cycle of Read
    nodes that only the step budget halts."""
    flow = synthetic_flow(kinds, max_steps, cyclic)
    path = tmp_path / "flow.json"
    path.write_text(serialize_flow(flow), encoding="utf-8")
    assert_no_more_work_past_closure(flow, str(path), calls, str(tmp_path / "report.json"))


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
def test_check_and_sweep_step_once_per_script_prefix(name, depth, sweep_steps, tmp_path, capsys):
    """``check`` and ``sweep`` each run one sweep, which steps once per
    prefix of the scripts of length ``depth``: |alphabet|^k calls at each
    length k from 1 to ``depth``, although the flow reaches 4 states."""
    n = len(shipped(name).alphabet)
    assert SWEEP_STEPS[depth] == sum(n**k for k in range(1, depth + 1))
    argv = ["--flow", str(FLOWS / f"{name}.json"), "--depth", str(depth), "--out", str(tmp_path / "report.json")]
    for command in ("check", "sweep"):
        sweep_steps.clear()
        assert main([command, *argv]) in (0, 1)
        assert sweep_steps == [SWEEP_STEPS[depth]], command
