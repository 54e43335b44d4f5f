"""Trace-log digests and rows: the run-scoped digester agrees with
``state_digest`` on every sequence of states, every rendered row is the
sorted-key JSON of its fields and replays, logs captured before the
digester existed still come out of ``run`` byte for byte and still
replay, and render plus replay encode and parse a number of literals
linear in the number of rows.

``tests/golden/tracelog/`` holds a small cyclic flow of Read nodes
(``cyclic_reads.json``, its step budget above the run length, so the
history grows all run long) and the logs of ``run --seed 7 --steps 300``
on it, one per strategy (``cyclic_reads.<strategy>.log``).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.tracelog as tracelog
from flowguard.actions import (
    NoAction,
    ReadPathAction,
    StepAction,
    ToolCallAction,
    format_action,
    format_impl_event,
)
from flowguard.cli import main
from flowguard.flowfile import FlowDefinition, load_flow
from flowguard.havoc import ScriptedOracle, drive
from flowguard.impl_model import FlowGraph, ImplConstants, ImplState, impl_init, impl_next
from flowguard.spec_model import SpecConstants
from flowguard.tracelog import (
    ReplayVerdict,
    RunDigester,
    TraceLogError,
    parse_trace_log,
    render_trace_log,
    replay_trace_log,
    state_digest,
)
from test_cli import JSON_TYPES, PY_TYPES, scalar

GOLDEN = Path(__file__).resolve().parent / "golden" / "tracelog"
FLOW = GOLDEN / "cyclic_reads.json"
STRATEGIES = ("random", "adversarial")

# ---------------------------------------------------------------------------
# Random small flows and runs on them

KINDS = {"Read": "read", "Tool": "tool", "Step": "step", "Terminal": None}
# Values JSON escapes: a quote, a backslash, non-ASCII text and a lone surrogate.
ESCAPED = ("/ws/\"q\" é", "/ws/b\\c", "/ws/\ud800")
rooted = st.sampled_from(("/ws", "/ws/a") + ESCAPED) | st.text(max_size=4).map("/ws/".__add__)
paths = rooted | st.sampled_from(("/wsx/a", "/etc/pw", "\ud800")) | st.text(max_size=5)
tools = st.sampled_from(("search", "rm", "t\\☃", "\"q\"", "\ud800")) | st.text(max_size=4)
actions = st.one_of(
    st.just(NoAction()),
    st.just(StepAction()),
    st.builds(ReadPathAction, paths),
    st.builds(ToolCallAction, tools),
)
# Actions a node of each kind effects, so that most runs grow a history.
FITTING = {
    "Read": st.builds(ReadPathAction, rooted),
    "Tool": st.just(ToolCallAction("search")),
    "Step": st.just(StepAction()),
    "Terminal": actions,
}


@st.composite
def flow_constants(draw, max_steps=st.integers(0, 30)):
    """Constants over a random graph of 1-4 nodes, with a step budget drawn
    from ``max_steps``."""
    entry = draw(st.sampled_from(("Read", "Tool", "Step")))
    kinds = [entry] + draw(st.lists(st.sampled_from(sorted(KINDS)), max_size=3))
    names = [f"n{i}" for i in range(len(kinds))]
    edges = tuple(
        (name, KINDS[kind], draw(st.sampled_from(names)))
        for name, kind in zip(names, kinds)
        if KINDS[kind] is not None
    )
    spec = SpecConstants(
        workspace_root="/ws",
        allowed_tools=frozenset({"search"}) | draw(st.frozensets(tools, max_size=2)),
        max_steps=draw(max_steps),
    )
    return ImplConstants(spec, FlowGraph(names[0], tuple(zip(names, kinds)), edges))


@st.composite
def scripts(draw):
    """Constants from ``flow_constants`` and a script of 1-25 actions, most
    of them fitting the node the run has reached."""
    c = draw(flow_constants())
    state, script = impl_init(c), []
    for _ in range(draw(st.integers(1, 25))):
        script.append(draw(FITTING[c.graph.kind_of(state.current_node).value] | actions))
        ((_, state),) = impl_next(c, state, script[-1])
    return c, script


@st.composite
def runs(draw):
    """Constants from ``flow_constants`` and the states of a run on them,
    in row order: pre-state, post-state, pre-state..."""
    c, script = draw(scripts())
    record = drive(c, ScriptedOracle(script), len(script))
    return c, [s for step in record.trace.steps for s in (step.pre_state, step.post_state)]


def _equal_copy(s: ImplState) -> ImplState:
    """A state equal to ``s`` that shares none of its tuples."""
    return ImplState(
        s.current_node,
        tuple(list(s.read_paths)),
        tuple(list(s.tool_calls)),
        s.step_count,
        s.halted,
        tuple((node, a) for node, a in s.history),
        s.last_node,
        s.last_action,
    )


def _last_entry_changed(s: ImplState) -> list[ImplState]:
    """``s``, then ``s`` with its last history entry replaced. The run's
    next state is one entry longer than that copy but does not extend it."""
    if not s.history:
        return [s]
    node, a = s.history[-1]
    other = StepAction() if a == NoAction() else NoAction()
    return [s, s._replace(history=s.history[:-1] + ((node, other),))]


def _insert_repeat(c, states, data):
    k = data.draw(st.integers(0, len(states)))
    return states[:k] + [data.draw(st.sampled_from(states))] + states[k:]


ORDERS = {
    "run-order": lambda c, states, data: states,
    "shuffled": lambda c, states, data: data.draw(st.permutations(states)),
    "repeated": _insert_repeat,
    "back-to-init": lambda c, states, data: states + [impl_init(c)] + states,
    "equal-copies": lambda c, states, data: [x for s in states for x in (s, _equal_copy(s))],
    "last-entry-changed": lambda c, states, data: [x for s in states for x in _last_entry_changed(s)],
}


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=60, deadline=None)
@given(run=runs(), data=st.data())
def test_digester_matches_state_digest(order, run, data):
    c, states = run
    sequence = ORDERS[order](c, states, data)
    digest = RunDigester()
    assert [digest(s) for s in sequence] == [state_digest(s) for s in sequence]


@settings(max_examples=60, deadline=None)
@given(run=scripts())
def test_every_rendered_row_is_the_sorted_json_of_its_fields(run):
    c, script = run
    defn = FlowDefinition('a "random" flow \\ é \ud800', c.spec, c.graph, (NoAction(),))
    record = drive(c, ScriptedOracle(script), len(script))
    text = render_trace_log(defn, record, strategy="scripted", seed=None)
    expected = [
        json.dumps(
            {
                "i": i,
                "pre": state_digest(step.pre_state),
                "action": format_action(step.action),
                "event": format_impl_event(step.event),
                "post": state_digest(step.post_state),
            },
            sort_keys=True,
        )
        for i, step in enumerate(record.trace.steps)
    ]
    assert text.split("\n")[1:] == expected + [""]
    assert replay_trace_log(defn, text) == ReplayVerdict(True, len(script))


# ---------------------------------------------------------------------------
# Golden logs


def _log(strategy: str) -> Path:
    return GOLDEN / f"cyclic_reads.{strategy}.log"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_reproduces_golden_log(strategy, tmp_path):
    out = tmp_path / "run.log"
    argv = ["run", "--flow", str(FLOW), "--strategy", strategy, "--seed", "7", "--steps", "300", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == _log(strategy).read_bytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_replay_accepts_golden_log(strategy):
    assert main(["replay", "--flow", str(FLOW), str(_log(strategy))]) == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_replay_rejects_golden_log_with_one_post_digest_changed(strategy, tmp_path):
    lines = _log(strategy).read_text(encoding="utf-8").splitlines(keepends=True)
    row = 250
    doc = json.loads(lines[row + 1])
    doc["post"] = "0" * 16
    lines[row + 1] = json.dumps(doc, sort_keys=True) + "\n"
    tampered = "".join(lines)

    verdict = replay_trace_log(load_flow(FLOW), tampered)
    assert not verdict.passed
    assert verdict.steps == row
    assert verdict.detail == f"post-state digest mismatch at row {row}"
    log = tmp_path / "tampered.log"
    log.write_text(tampered, encoding="utf-8")
    assert main(["replay", "--flow", str(FLOW), str(log)]) == 1


# ---------------------------------------------------------------------------
# Linearity


def test_render_and_replay_format_a_linear_number_of_actions(monkeypatch):
    """Every step of the run is effected, so the history grows all run
    long; the literals are still encoded and parsed once each."""
    n = 400
    defn = load_flow(FLOW)
    record = drive(defn.impl_constants, ScriptedOracle([ReadPathAction("/ws/a")] * n), n)
    assert len(record.final_state.history) == n  # every step effected

    calls = {"format_action": 0, "dumps": 0, "parse_action": 0}

    def counting(name, original):
        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return count

    monkeypatch.setattr(tracelog, "format_action", counting("format_action", tracelog.format_action))
    monkeypatch.setattr(tracelog, "parse_action", counting("parse_action", tracelog.parse_action))
    monkeypatch.setattr(json, "dumps", counting("dumps", json.dumps))
    text = render_trace_log(defn, record, strategy="scripted", seed=None)
    assert replay_trace_log(defn, text).passed

    literals = {json.loads(ln)["action"] for ln in text.splitlines()[1:]}
    assert calls["format_action"] <= 8 * n
    assert 0 < calls["dumps"] <= n
    assert 0 < calls["parse_action"] <= len(literals)


# ---------------------------------------------------------------------------
# Damaged logs


@pytest.mark.parametrize("line", [0, 1], ids=["header", "row"])
def test_an_integer_too_long_to_convert_is_an_unusable_log(line, tmp_path, capsys):
    """``json.loads`` refuses an integer of more than 4,300 digits with a
    plain ValueError; replay reports it as a log it cannot replay."""
    lines = _log("random").read_text(encoding="utf-8").splitlines()
    lines[line] = '{"i": %s}' % ("9" * 5000)
    text = "\n".join(lines) + "\n"
    with pytest.raises(TraceLogError, match="not valid JSON lines"):
        parse_trace_log(text)
    log = tmp_path / "long-int.log"
    log.write_text(text, encoding="utf-8")
    assert main(["replay", "--flow", str(FLOW), str(log)]) == 2
    assert capsys.readouterr().err.startswith("cannot replay: not valid JSON lines: ")


GOLDEN_LINES = _log("random").read_text(encoding="utf-8").splitlines()


@st.composite
def damaged_logs(draw):
    """The golden random-strategy log with one line (header or row)
    damaged: a key deleted or given a value of another JSON type, the line
    cut short, the line duplicated, or the line replaced by a JSON scalar."""
    lines = list(GOLDEN_LINES)
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("delete-key", "retype-key", "truncate", "duplicate", "scalar")))
    if how in ("delete-key", "retype-key"):
        doc = json.loads(lines[k])
        key = draw(st.sampled_from(sorted(doc)))
        if how == "delete-key":
            del doc[key]
        else:
            other = draw(st.sampled_from([t for t in JSON_TYPES if t != PY_TYPES[type(doc[key])]]))
            doc[key] = draw(JSON_TYPES[other])
        lines[k] = json.dumps(doc, sort_keys=True)
    elif how == "truncate":
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k]) - 1))]
    elif how == "duplicate":
        lines.insert(k, lines[k])
    else:
        lines[k] = json.dumps(draw(scalar))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def damaged_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@settings(max_examples=80, deadline=None)
@given(text=damaged_logs())
def test_replay_answers_a_damaged_log_with_an_exit_code(damaged_dir, text):
    """A damaged log is a failed replay or an unusable input, never an
    uncaught exception."""
    log = damaged_dir / "damaged.log"
    log.write_text(text, encoding="utf-8")
    assert main(["replay", "--flow", str(FLOW), str(log)]) in (0, 1, 2)
