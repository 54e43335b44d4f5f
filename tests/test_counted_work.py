"""Counted work: the CLI's calls of the two step functions and of the
event judge, counted in-process, are bounded by what the checks range
over and not by the depth once the reachable set has closed.

Every module-level binding that a command calls through is replaced by a
counter, as the benchmark's tracer does:
- ``impl_next``: ``refinement``'s for the obligations, gates and
  fitness, ``havoc``'s for ``run``, ``tracelog``'s for ``replay``;
- ``spec_next``: ``refinement``'s for the shipped bundle and ``gates``'s
  for the seeded errors;
- ``emits``: ``cli``'s for ``run``.

The sweep steps through its ``next_fn`` default, bound when ``havoc`` is
imported, so ``check``'s sweep is not counted here: its work still grows
as |alphabet|^depth (ROADMAP.md items 6 and 14).
"""

import json
from collections import Counter

import pytest

import flowguard.cli as cli
import flowguard.gates as gates
import flowguard.havoc as havoc
import flowguard.refinement as refinement
import flowguard.tracelog as tracelog
from flowguard.cli import main
from flowguard.impl_model import impl_next
from flowguard.refinement import CheckRun
from flowguard.spec_model import emits, spec_next
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


def counted(calls, argv) -> Counter:
    """The calls that the command ``argv`` makes, by function name."""
    calls.clear()
    assert main(argv) in (0, 1)
    return Counter(calls)


@pytest.mark.parametrize("name", SHIPPED)
def test_check_and_gates_do_no_more_work_past_closure(name, calls, tmp_path, capsys):
    """Each shipped flow's reachable set closes within ``max_steps`` + 1
    layers, so ``check`` and ``gates`` make as many calls of each step
    function at depth ``max_steps + 3`` as at ``max_steps + 1``. ``check``
    makes at most four ``impl_next`` calls per (candidate state, action)
    pair: one for each step obligation, and one to find the reachable
    layers."""
    flow = shipped(name)
    path, out = str(FLOWS / f"{name}.json"), str(tmp_path / "report.json")
    m = flow.constants.max_steps
    for command in ("check", "gates"):
        at = {d: counted(calls, [command, "--flow", path, "--depth", str(d), "--out", out]) for d in (m + 1, m + 3)}
        assert at[m + 1] == at[m + 3], (command, at)
        assert at[m + 3]["impl_next"] > 0 and at[m + 3]["spec_next"] > 0, (command, at)
        if command == "check":
            candidates = CheckRun(flow.impl_constants, flow.alphabet, m + 3).candidates
            assert at[m + 3]["impl_next"] <= 4 * len(flow.alphabet) * len(candidates)


@pytest.mark.parametrize("strategy", ["random", "adversarial"])
def test_run_and_replay_make_one_step_call_per_row(strategy, calls, tmp_path, capsys):
    """``run`` steps once and judges each event at most once per row."""
    log = tmp_path / "t.log"
    argv = ["run", "--flow", str(FLOWS / "read_agent.json"), "--strategy", strategy, "--steps", "50"]
    ran = counted(calls, [*argv, "--out", str(log)])
    assert ran["impl_next"] == 50 and 0 < ran["emits"] <= 50
    rows = log.read_text().splitlines()[1:]
    assert len(rows) == 50 and all(json.loads(row)["i"] == i for i, row in enumerate(rows))
    assert counted(calls, ["replay", "--flow", str(FLOWS / "read_agent.json"), str(log)])["impl_next"] == len(rows)
