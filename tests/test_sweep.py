"""The havoc sweep's prefix-tree walk against the brute-force replay it
replaced (``sweep_reference.py``): the same verdict in every field, on
random small flows and on broken step functions, at a number of step
calls that follows the prefix tree and a number of state checks and state
hashes that follows the distinct states."""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.havoc as havoc
import flowguard.impl_model as impl_model
import sweep_reference as ref
from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoAction,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolEvent,
)
from flowguard.cli import main
from flowguard.flowfile import serialize_flow
from flowguard.havoc import sweep
from flowguard.impl_model import STUTTER, ImplState, NodeKind, impl_init, impl_next
from flowguard.spec_model import emits, path_under_root
from test_havoc import broken_next
from conftest import shipped
from test_tracelog import FITTING, _equal_copy, flow_constants


def overstepping_next(c, s, a):
    """``impl_next`` with one step more than the bound allows."""
    return impl_next(c._replace(spec=c.spec._replace(max_steps=c.spec.max_steps + 1)), s, a)


def forgetful_next(c, s, a):
    """``impl_next`` that drops the history of every effected step."""
    ((event, nxt),) = impl_next(c, s, a)
    return ((event, nxt if nxt is s else nxt._replace(history=())),)


def hushed_next(c, s, a):
    """``overstepping_next`` that reports every step as ``STUTTER``, so
    that only the state checks can catch it."""
    ((_event, nxt),) = overstepping_next(c, s, a)
    return ((STUTTER, nxt),)


def overreading_next(c, s, a):
    """``impl_next`` that, once halted at a Read node, still effects a
    rooted read: it appends the path, but neither counts the step nor
    extends the history, so every state it reaches is safe and keeps the
    invariant."""
    node = s.current_node
    if (
        s.halted
        and isinstance(a, ReadPathAction)
        and c.graph.kind_of(node) is NodeKind.READ
        and path_under_root(c.spec.workspace_root, a.path)
    ):
        event = ImplEvent(ReadEvent(a.path), Dispatch(node, "read", c.graph.edge_target(node, "read")))
        return ((event, s._replace(read_paths=s.read_paths + (a.path,))),)
    return impl_next(c, s, a)


MACHINES = {
    "impl_next": impl_next,
    "broken_next": broken_next,
    "overstepping_next": overstepping_next,
    "forgetful_next": forgetful_next,
    "hushed_next": hushed_next,
    "overreading_next": overreading_next,
}


def copying_stutters(next_fn):
    """``next_fn`` returning an equal but not identical copy of the
    pre-state on a stutter, so the sweep cannot tell it is one."""

    def next_copy(c, s, a):
        ((event, nxt),) = next_fn(c, s, a)
        return ((event, _equal_copy(nxt) if nxt is s else nxt),)

    return next_copy


STUTTERS = {"identical": lambda fn: fn, "copied": copying_stutters}


@st.composite
def shallow_bounds(draw):
    """Flow constants whose step bound a depth-4 sweep can reach."""
    c = draw(flow_constants())
    return c._replace(spec=c.spec._replace(max_steps=draw(st.integers(0, 4))))


@pytest.mark.parametrize("stutter", STUTTERS)
@pytest.mark.parametrize("machine", MACHINES)
@settings(max_examples=40, deadline=None)
@given(
    c=flow_constants() | shallow_bounds(),
    alphabet=st.lists(st.one_of(*FITTING.values()), min_size=1, max_size=4, unique=True),
    depth=st.integers(0, 4),
)
def test_sweep_matches_brute_force_on_random_flows(machine, stutter, c, alphabet, depth):
    """Alphabets come in random order and lean toward actions some node
    kind effects, so that runs get past the entry node."""
    next_fn = STUTTERS[stutter](MACHINES[machine])
    alphabet = tuple(alphabet)
    assert sweep(c, alphabet, depth, next_fn=next_fn) == ref.sweep(c, alphabet, depth, next_fn=next_fn)


SHIPPED = {name: shipped(name) for name in ("read_agent", "rag_barrier", "rag_no_barrier")}


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("flow", SHIPPED)
def test_sweep_matches_brute_force_on_shipped_flows(flow, machine):
    fx = SHIPPED[flow]
    c = fx.impl_constants
    next_fn = MACHINES[machine]
    for alphabet in (fx.alphabet, fx.alphabet[::-1]):
        for depth in range(5):
            assert sweep(c, alphabet, depth, next_fn=next_fn) == ref.sweep(c, alphabet, depth, next_fn=next_fn)


def test_broken_machines_fail_with_every_detail():
    """The broken machines above reach each of the sweep's three checks.
    A step past the bound fails at the event check, which judges step
    capacity for every effected event; hushed, it fails at safety."""
    fx = shipped("read_agent")
    c = fx.impl_constants
    details = {
        machine: sweep(c, fx.alphabet, 5, next_fn=MACHINES[machine]).violation.detail
        for machine in ("broken_next", "overstepping_next", "forgetful_next", "hushed_next")
    }
    assert details["broken_next"] == "out-of-policy event ToolEvent(tool='rm')"
    assert details["overstepping_next"] == "out-of-policy event ReadEvent(path='/ws/x')"
    assert details["hushed_next"] == "safety predicate violated"
    assert details["forgetful_next"] == "inductive invariant violated"


def test_sweep_catches_a_read_past_the_step_budget():
    """A rooted read after the machine has halted breaks no state check,
    and its guard admits its value: only the step capacity of the event
    check catches it."""
    fx = shipped("read_agent")
    c = fx.impl_constants
    verdict = sweep(c, fx.alphabet, 6, next_fn=overreading_next)
    script = ("NoAction", "NoAction", "ReadPathAction(/ws/x)", "ToolCallAction(search)", "StepAction")
    detail = "out-of-policy event ReadEvent(path='/ws/x')"
    assert verdict.violation == (script + ("ReadPathAction(/ws/x)",), 5, detail)
    assert verdict == ref.sweep(c, fx.alphabet, 6, next_fn=overreading_next)


def test_emits_refuses_another_effect_and_a_step_past_the_bound():
    c = shipped("read_agent").impl_constants
    spec, s0 = c.spec, impl_init(c)
    read = ReadPathAction("/ws/x")
    assert emits(spec, s0, read, ReadEvent("/ws/x"))
    assert not emits(spec, s0, read, ToolEvent("search"))
    assert not emits(spec, s0, read, ReadEvent("/ws/y"))
    assert not emits(spec, s0, StepAction(), ReadEvent("/ws/x"))
    at_bound = s0._replace(step_count=spec.max_steps)
    assert not emits(spec, at_bound, read, ReadEvent("/ws/x"))
    assert not emits(spec, at_bound, StepAction(), StepEvent())


# ---------------------------------------------------------------------------
# Step calls and skipped checks


def _counting(fn):
    def counted(*args):
        counted.calls += 1
        return fn(*args)

    counted.calls = 0
    return counted


def test_sweep_steps_each_prefix_once():
    fx = shipped("read_agent")
    c = fx.impl_constants
    next_fn = _counting(impl_next)
    assert sweep(c, fx.alphabet, 4, next_fn=next_fn).passed
    assert next_fn.calls == sum(6**k for k in range(1, 5)) == 1554


def _recording(next_fn):
    """``next_fn`` that keeps every (pre-state, post-state) it steps."""

    def recorded(c, s, a):
        result = next_fn(c, s, a)
        recorded.steps.append((s, result[0][1]))
        return result

    recorded.steps = []
    return recorded


def _judging(monkeypatch):
    """Swap the sweep's two state checks for ones that keep every state
    they judge; returns the two lists."""
    judged = []
    for name in ("impl_safety", "impl_inv"):
        check, states = getattr(impl_model, name), []

        def judging(c, s, check=check, states=states):
            states.append(s)
            return check(c, s)

        monkeypatch.setattr(havoc, name, judging)
        judged.append(states)
    return judged


def test_stutters_skip_only_the_state_checks_already_made(monkeypatch):
    """Each distinct post-state runs both state predicates exactly once: a
    stutter out of a judged state, identical or an equal copy, runs
    neither again. Init is judged only once some step reaches it as a
    post-state, which a Read at the entry node never does."""
    fx = shipped("read_agent")
    c = fx.impl_constants
    init = impl_init(c)
    cases = ((fx.alphabet, True), ((ReadPathAction("/ws/x"),), False))
    for stutter, (alphabet, init_reached) in itertools.product(STUTTERS.values(), cases):
        safety, inv = _judging(monkeypatch)
        next_fn = _recording(stutter(impl_next))
        assert sweep(c, alphabet, 4, next_fn=next_fn).passed
        post_states = {post for _pre, post in next_fn.steps}
        assert safety == inv
        assert len(safety) == len(post_states) and set(safety) == post_states
        assert (init in safety) is init_reached


def test_sweep_hashes_no_identity_stutter_and_judges_each_state_once(monkeypatch):
    """A count-based guard on the cost of a step, at depth 6 (55,986 step
    calls, most of them stutters): only the post-states of effected steps
    are hashed, each once, besides init; and each visited state, init
    included, runs each state predicate once."""
    fx = shipped("read_agent")
    c = fx.impl_constants
    hashed = []
    state_hash = ImplState.__hash__

    def recording_hash(s):
        hashed.append(s)
        return state_hash(s)

    monkeypatch.setattr(ImplState, "__hash__", recording_hash)
    safety, inv = _judging(monkeypatch)
    next_fn = _recording(impl_next)  # its steps keep every post-state alive, so ids stay theirs
    verdict = sweep(c, fx.alphabet, 6, next_fn=next_fn)
    assert verdict.passed
    assert len(next_fn.steps) == sum(6**k for k in range(1, 7)) == 55986
    init = next_fn.steps[0][0]
    effected = [post for pre, post in next_fn.steps if post is not pre]
    per_object = Counter(id(s) for s in hashed)
    assert per_object.pop(id(init)) <= len(fx.alphabet) + 1
    assert per_object == Counter(map(id, effected))
    for judged in (safety, inv):
        assert len(judged) == len(set(judged)) == len(verdict.visited_states)


def test_sweep_judges_the_events_of_effected_steps_only(monkeypatch):
    """The sweep skips the event check for ``STUTTER``, which always
    passes it: of the 55,986 step calls of a depth-6 sweep, only the
    9,033 effected ones run it."""
    fx = shipped("read_agent")
    c = fx.impl_constants
    checks = _counting(emits)
    monkeypatch.setattr(havoc, "emits", checks)
    events = []

    def next_fn(c, s, a):
        result = impl_next(c, s, a)
        events.append(result[0][0])
        return result

    assert sweep(c, fx.alphabet, 6, next_fn=next_fn).passed
    assert len(events) == 55986
    assert checks.calls == sum(event is not STUTTER for event in events) == 9033


def test_a_stutter_out_of_init_is_checked(monkeypatch):
    """Init has not been checked as a post-state, so a stutter out of it
    is, and so is an equal copy of init."""
    c = shipped("read_agent").impl_constants
    init = impl_init(c)

    def not_init(c, s):
        return s != init

    monkeypatch.setattr(havoc, "impl_safety", not_init)
    monkeypatch.setattr(ref, "impl_safety", not_init)
    for stutter in STUTTERS.values():
        next_fn = stutter(impl_next)
        verdict = sweep(c, (NoAction(),), 3, next_fn=next_fn)
        assert verdict == ref.sweep(c, (NoAction(),), 3, next_fn=next_fn)
        assert verdict.violation.step_index == 0
        assert verdict.violation.detail == "safety predicate violated"


def test_empty_alphabet():
    c = shipped("read_agent").impl_constants
    for depth in range(3):
        assert sweep(c, (), depth) == ref.sweep(c, (), depth)
    assert sweep(c, (), 1).sequences == 0


def test_sweep_at_depth_5000_does_not_recurse(tmp_path):
    path = tmp_path / "step_only.json"
    path.write_text(serialize_flow(shipped("read_agent")._replace(alphabet=(StepAction(),))), encoding="utf-8")
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--flow", str(path), "--depth", "5000", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (report["sequences"], report["visited_states"]) == (1, 1)
