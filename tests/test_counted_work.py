"""Counted work: the CLI's calls of the concrete step function, counted
in-process, are bounded by what the checks range over and not by the
depth once the reachable set has closed.

Every module-level binding of ``impl_next`` that a command steps through
(``refinement``'s for the obligations, gates and fitness, ``havoc``'s for
``run``, ``tracelog``'s for ``replay``) is replaced by a counter, as the
benchmark's tracer does. The sweep steps through its ``next_fn``
default, bound when ``havoc`` is imported, so ``check``'s sweep is not
counted here: its work still grows as |alphabet|^depth (ROADMAP.md
items 6 and 14).
"""

import json

import pytest

import flowguard.havoc as havoc
import flowguard.refinement as refinement
import flowguard.tracelog as tracelog
from flowguard.cli import main
from flowguard.impl_model import impl_next
from flowguard.refinement import CheckRun
from conftest import FLOWS, shipped

SHIPPED = ("read_agent", "rag_barrier", "rag_no_barrier")


@pytest.fixture
def steps(monkeypatch):
    """A list that grows by one entry per call of ``impl_next`` through
    the bindings the commands step through."""
    calls: list = []

    def counting(c, s, a):
        calls.append(None)
        return impl_next(c, s, a)

    for module in (refinement, havoc, tracelog):
        monkeypatch.setattr(module, "impl_next", counting)
    return calls


def counted(steps, argv) -> int:
    """The ``impl_next`` calls that the command ``argv`` makes."""
    steps.clear()
    assert main(argv) in (0, 1)
    return len(steps)


@pytest.mark.parametrize("name", SHIPPED)
def test_check_and_gates_do_no_more_work_past_closure(name, steps, tmp_path, capsys):
    """Each shipped flow's reachable set closes within ``max_steps`` + 1
    layers, so ``check`` and ``gates`` make as many step calls at depth
    ``max_steps + 3`` as at ``max_steps + 1``. ``check`` makes at most
    four per (candidate state, action) pair: one for each step
    obligation, and one to find the reachable layers."""
    flow = shipped(name)
    path, out = str(FLOWS / f"{name}.json"), str(tmp_path / "report.json")
    m = flow.constants.max_steps
    for command in ("check", "gates"):
        at = {d: counted(steps, [command, "--flow", path, "--depth", str(d), "--out", out]) for d in (m + 1, m + 3)}
        assert at[m + 1] == at[m + 3] > 0, (command, at)
        if command == "check":
            candidates = CheckRun(flow.impl_constants, flow.alphabet, m + 3).candidates
            assert at[m + 3] <= 4 * len(flow.alphabet) * len(candidates)


@pytest.mark.parametrize("strategy", ["random", "adversarial"])
def test_run_and_replay_make_one_step_call_per_row(strategy, steps, tmp_path, capsys):
    log = tmp_path / "t.log"
    argv = ["run", "--flow", str(FLOWS / "read_agent.json"), "--strategy", strategy, "--steps", "50"]
    assert counted(steps, [*argv, "--out", str(log)]) == 50
    rows = log.read_text().splitlines()[1:]
    assert len(rows) == 50 and all(json.loads(row)["i"] == i for i, row in enumerate(rows))
    assert counted(steps, ["replay", "--flow", str(FLOWS / "read_agent.json"), str(log)]) == len(rows)
