"""Refinement obligations, the perturbed exploration universe, and the
trace-level soundness composition."""


import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.gates as gates
import flowguard.impl_model as impl_model
import flowguard.refinement as refinement
import flowguard.spec_model as spec_model
from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    ToolCallAction,
    ToolEvent,
    format_action,
)
from flowguard.cli import main
from flowguard.flowfile import FlowDefinition, FlowFileError, flow_to_document, load_flow, parse_flow
from flowguard.gates import SEEDED_ERRORS, permissive_stub
from flowguard.havoc import ScriptedOracle, SeededRandomOracle, Trace, drive
from flowguard.impl_model import impl_init, impl_next, impl_safety
from flowguard.refinement import (
    Bundle,
    CheckRun,
    check_refinement_init,
    check_refinement_next,
    check_soundness,
    obligations,
    perturbations,
    project_variables,
    reachable_layers,
)
from flowguard.spec_model import POLICY, Obligation, Step, check_safety_preserved, spec_init, spec_next, spec_safety
from conftest import FLOWS, shipped
from test_havoc import havoc_traces
from test_tracelog import FITTING, FLOW, actions, flow_constants


@pytest.fixture(scope="module")
def agent_c(agent):
    return agent.impl_constants


@pytest.fixture(scope="module")
def alphabet(agent):
    return agent.alphabet


# ---------------------------------------------------------------------------
# abstraction functions


def test_projected_init_equals_abstract_init(agent_c):
    b = Bundle()
    assert b.variables_abs(impl_init(agent_c)) == spec_init(agent_c.spec)


@pytest.mark.parametrize(
    "field, name",
    [
        ("next_relation", "spec_next"),
        ("safety", "spec_safety"),
        ("variables_abs", "project_variables"),
        ("event_abs", "project_event"),
        ("inv", "impl_inv"),
    ],
)
def test_bundle_defaults_follow_a_module_rebinding(monkeypatch, field, name):
    """``Bundle()`` reads each shipped function when it is built, so a
    wrapper bound in its place at module level, as the benchmark's tracer
    binds its counters, serves every bundle built after."""
    shipped = getattr(refinement, name)
    monkeypatch.setattr(refinement, name, lambda *args: shipped(*args))
    assert getattr(Bundle(), field) is getattr(refinement, name) is not shipped


def test_event_projection_drops_dispatch():
    b = Bundle()
    ev = ImplEvent(ReadEvent("/ws/a"), Dispatch("scan", "read", "search"))
    assert b.event_abs(ev) == ReadEvent("/ws/a")
    assert b.event_abs(ImplEvent(NoEffect())) == NoEffect()


def test_variables_projection_erases_bookkeeping(agent_c):
    s = impl_init(agent_c)
    _, s2 = impl_next(agent_c, s, ReadPathAction("/ws/x"))[0]
    abs2 = project_variables(s2)
    assert abs2.read_paths == ("/ws/x",) and abs2.step_count == 1
    assert not hasattr(abs2, "history")


# ---------------------------------------------------------------------------
# R1


def test_refinement_init_passes_on_fixture(agent_c):
    assert check_refinement_init(agent_c, Bundle()).passed


def test_refinement_init_fails_for_contradictory_inv(agent_c):
    b = Bundle(inv=lambda c, s: False)
    verdict = check_refinement_init(agent_c, b)
    assert not verdict.passed and "invariant" in verdict.detail


def test_refinement_init_fails_for_a_projection_off_the_abstract_init(agent_c):
    b = Bundle(variables_abs=lambda s: project_variables(s)._replace(step_count=1))
    verdict = check_refinement_init(agent_c, b)
    assert not verdict.passed and verdict.detail == "abstracted initial state differs from the abstract init"


def test_refinement_init_tolerates_empty_projection_at_init(agent_c):
    # a projection that forgets read_paths still matches at init: both empty
    b = Bundle(variables_abs=lambda s: project_variables(s)._replace(read_paths=()))
    assert check_refinement_init(agent_c, b).passed


# ---------------------------------------------------------------------------
# R2/R3 and the invariant obligation


def test_refinement_next_passes_on_read_agent(agent_c, alphabet):
    v = check_refinement_next(agent_c, Bundle(), alphabet, 4)
    assert all(o.passed for o in v), v
    reachable = sum(map(len, reachable_layers(agent_c, alphabet, 4)[:4]))
    assert {o.explored_states for o in v} == {v[0].explored_states}
    assert v[0].explored_states > reachable > 0


def test_refinement_next_passes_on_both_rag_modes(rag_barrier, rag_no_barrier):
    for fx in (rag_barrier, rag_no_barrier):
        v = check_refinement_next(fx.impl_constants, Bundle(), fx.alphabet, 4)
        assert all(o.passed for o in v), (fx.provenance, v)


def test_event_collapse_breaks_step_simulation(agent_c, alphabet):
    b = Bundle(event_abs=lambda e: NoEffect())
    _inv, r2, _r3 = check_refinement_next(agent_c, b, alphabet, 4)
    assert not r2.passed
    cx = r2.counterexample
    # the collapsed event claims a stutter, but the post-state moved
    assert cx is not None and not isinstance(cx.event.effect, NoEffect)


def test_gutted_inv_fails_the_invariant_obligation(agent_c, alphabet):
    """Assuming nothing while still owing the declared invariant must
    fail: the widened state set contains junk the declared invariant
    rejects."""
    inv, r2, _r3 = check_refinement_next(agent_c, permissive_stub(Bundle()), alphabet, 4)
    assert not inv.passed
    assert r2.passed  # the simulation itself is indifferent to the widening
    assert inv.counterexample is not None


def test_weakened_safety_breaks_transport(agent_c, alphabet):
    """If the bundle's safety predicate forgets the allowlist conjunct,
    junk states with a stray tool record satisfy abstract safety while
    concrete safety fails: the transport obligation catches it."""

    def lax_safety(c, s):
        return all(p.startswith(c.workspace_root) for p in s.read_paths) and s.step_count <= c.max_steps

    _inv, _r2, r3 = check_refinement_next(agent_c, Bundle(safety=lax_safety), alphabet, 4)
    assert not r3.passed
    cx = r3.counterexample
    assert cx is not None and not impl_safety(agent_c, cx.post_state)


def test_matching_queries_use_the_identical_action(agent_c, alphabet):
    seen_actions = []

    def spy_next(c, s, a):
        seen_actions.append(a)
        return spec_next(c, s, a)

    check_refinement_next(agent_c, Bundle(next_relation=spy_next), alphabet, 2)
    assert seen_actions and all(a in alphabet for a in seen_actions)
    assert set(seen_actions) == set(alphabet)


def test_perturbations_are_deterministic_and_wellformed(agent_c, alphabet):
    s = impl_init(agent_c)
    first = perturbations(agent_c, s, alphabet)
    second = perturbations(agent_c, s, alphabet)
    assert first == second
    assert all(p.current_node in dict(agent_c.graph.node_kinds) for p in first)


def test_depth_zero_checks_init_only(agent_c, alphabet):
    v = check_refinement_next(agent_c, Bundle(), alphabet, 0)
    assert all(o.passed and o.explored_states == 0 for o in v)


def test_a_negative_depth_is_refused_before_any_check(agent_c, alphabet, agent_flow_text, monkeypatch, capsys):
    """A negative depth would slice the reachable layers from their end and
    pass with nothing explored. ``CheckRun`` refuses it, so ``check --depth
    -1`` exits 2 before it judges any obligation, and ``run_gates`` still
    refuses it before G1 loads the flow. The one layered search refuses it
    too, so neither of its public entry points passes over no state, and
    safety preservation refuses it before it looks at init."""
    with pytest.raises(ValueError, match="depth must be >= 0"):
        CheckRun(agent_c, alphabet, -1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        check_refinement_next(agent_c, Bundle(), alphabet, -1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        check_safety_preserved(agent_c.spec, alphabet, -3)
    with pytest.raises(ValueError, match="depth must be >= 0"):  # before the vacuous pass of an unsafe init
        check_safety_preserved(agent_c.spec, alphabet, -1, safety=lambda c, s: False)
    vacuous = check_safety_preserved(agent_c.spec, alphabet, 0, safety=lambda c, s: False)
    assert vacuous == Obligation("safety_preserved", True, explored_states=0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        reachable_layers(agent_c, alphabet, -2)

    judged = []

    def counting_safety(c, s):
        judged.append(s)
        return spec_safety(c, s)

    monkeypatch.setattr(refinement, "spec_safety", counting_safety)
    monkeypatch.setattr(gates, "gate_resolution", lambda *args, **kwargs: judged.append(args))
    assert main(["check", "--flow", str(FLOWS / "read_agent.json"), "--depth", "-1"]) == 2
    assert "error: depth must be >= 0" in capsys.readouterr().err
    with pytest.raises(ValueError, match="depth must be >= 0"):
        gates.run_gates(agent_flow_text, -1)
    assert judged == []


@st.composite
def parsed_flows(draw):
    """A random flow of ``flow_constants`` with at most 3 steps, and an
    alphabet of an action fitting each kind of node on its graph and at
    most one other action, written as a document whose
    ``count_all_actions`` key is true, false or absent and whose
    ``prefix_mode`` key is "guarded", "bare" or absent, and parsed; None
    when the parser refuses it."""
    c = draw(flow_constants(max_steps=st.integers(0, 3)))
    fitting = [draw(FITTING[kind.value]) for kind in sorted({k for _, k in c.graph.node_kinds})]
    alphabet = tuple(dict.fromkeys(fitting + draw(st.lists(actions, max_size=1))))
    doc = flow_to_document(FlowDefinition("random", c.spec, c.graph, alphabet))
    if (key := draw(st.sampled_from((True, False, None)))) is None:
        del doc["constants"]["count_all_actions"]
    else:
        doc["constants"]["count_all_actions"] = key
    if (mode := draw(st.sampled_from(("guarded", "bare", None)))) is None:
        del doc["constants"]["prefix_mode"]
    else:
        doc["constants"]["prefix_mode"] = mode
    try:
        return parse_flow(json.dumps(doc))
    except FlowFileError:
        return None


@settings(max_examples=60, deadline=None)
@given(flow=parsed_flows())
def test_every_flow_the_parser_accepts_closes_within_its_step_budget(flow):
    """Every effected action consumes a step and the machine halts at the
    bound, so no state lies more than ``max_steps`` steps from init: the
    reachable set closes within ``max_steps + 1`` layers, whatever the
    graph and alphabet."""
    if flow is not None:
        m = flow.constants.max_steps
        assert len(reachable_layers(flow.impl_constants, flow.alphabet, m + 2)) <= m + 1


@pytest.mark.parametrize("flow", ["read_agent", "rag_barrier", "rag_no_barrier"])
def test_each_counterexample_is_a_real_transition(flow):
    """The first failed obligation of the permissive stub and of each seeded
    error, at the step-bound floor, reports a ``Step`` that its machine
    takes: a concrete step for the step obligations, a step of the
    (mutated) abstract relation for ``safety_preserved``. Its detail names
    the step's action."""
    fx = shipped(flow)
    c = fx.impl_constants
    run = CheckRun(c, fx.alphabet, fx.constants.max_steps + 1)
    edits = {"permissive-stub": permissive_stub, **SEEDED_ERRORS}
    for name, edit in edits.items():
        b = edit(Bundle())
        failed = next(o for o in obligations(run, b) if not o.passed)
        cx = failed.counterexample
        assert isinstance(cx, Step), (name, failed)
        if failed.name == "safety_preserved":
            successors = b.next_relation(c.spec, cx.pre_state, cx.action)
        else:
            assert failed.name in ("inv_inductive", "r2_step_simulation", "r3_safety_transport"), (name, failed)
            successors = impl_next(c, cx.pre_state, cx.action)
        assert (cx.event, cx.post_state) in successors, (name, failed)
        assert format_action(cx.action) in failed.detail, (name, failed)


# ---------------------------------------------------------------------------
# The recorded effect: each machine computes its own, and R2 compares them


def _edited_routes(edit):
    """``impl_model._compile_route`` with ``edit(c, reads, tools, effect)``,
    which returns new ones, applied to the effect of every route it compiles."""
    compile_route = impl_model._compile_route

    def compile_edited(c, node, a):
        route = compile_route(c, node, a)
        if route is None:
            return None
        room, target, event, reads, tools = route
        reads, tools, effect = edit(c, reads, tools, event.effect)
        return room, target, ImplEvent(effect, event.dispatch), reads, tools

    return compile_edited


def _root_for_each(reads, root):
    return tuple(root for _ in reads)


# Edits of the concrete machine's own effect, made where it is defined.
CONCRETE_EFFECT_EDITS = {
    "records-the-root": lambda c, reads, tools, effect: (_root_for_each(reads, c.spec.workspace_root), tools, effect),
    "reads-into-tool-calls": lambda c, reads, tools, effect: ((), tools + reads, effect),
    "emits-the-root": lambda c, reads, tools, effect: (
        reads, tools, ReadEvent(c.spec.workspace_root) if isinstance(effect, ReadEvent) else effect
    ),
}


def _spec_effect_edits(root: str):
    """Edits of the specification's effect definitions, ``advance`` and
    ``action_effect``, for a flow whose workspace root is ``root``."""
    advance, action_effect = spec_model.advance, spec_model.action_effect

    def advance_recording_the_root(s, reads, tools):
        return advance(s, _root_for_each(reads, root), tools)

    def action_effect_recording_the_root(a):
        effect = action_effect(a)
        return effect if effect is None else (effect[0], _root_for_each(effect[1], root), effect[2])

    return {"advance": advance_recording_the_root, "action_effect": action_effect_recording_the_root}


def _rebind_everywhere(monkeypatch, original, edited):
    """Point every binding of ``original`` in the package at ``edited``, as
    editing its definition would."""
    for name, module in list(sys.modules.items()):
        if name.startswith("flowguard."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, edited)


def _check_report(flow: str, capsys) -> tuple[int, dict]:
    code = main(["check", "--flow", str(FLOWS / f"{flow}.json"), "--depth", "6"])
    report = json.loads(capsys.readouterr().out)
    return code, {o["name"]: o["status"] for o in report["obligations"]}


@pytest.mark.parametrize("flow", ["read_agent", "rag_barrier", "rag_no_barrier"])
@pytest.mark.parametrize("edit", CONCRETE_EFFECT_EDITS, ids=str)
def test_an_edited_concrete_effect_fails_step_simulation(flow, edit, monkeypatch, capsys):
    """A concrete machine that records the workspace root for each path
    read, appends the path to the tool calls, or emits the root as the
    read's event fails ``check --depth 6`` at ``r2_step_simulation`` on
    every shipped flow: the policy machine records and emits the path."""
    monkeypatch.setattr(impl_model, "_compile_route", _edited_routes(CONCRETE_EFFECT_EDITS[edit]))
    code, status = _check_report(flow, capsys)
    assert code == 1 and status["r2_step_simulation"] == "fail"


@pytest.mark.parametrize("flow", ["read_agent", "rag_barrier", "rag_no_barrier"])
@pytest.mark.parametrize("definition", ["advance", "action_effect"])
def test_an_edited_specification_effect_fails_step_simulation(flow, definition, monkeypatch, capsys):
    """``advance`` or ``action_effect`` recording the workspace root for
    each path read, wherever the package binds it, fails ``check --depth
    6`` at ``r2_step_simulation`` on every shipped flow: only the policy
    machine computes its effect with them, so the concrete machine still
    records the path."""
    edited = _spec_effect_edits(shipped(flow).constants.workspace_root)[definition]
    _rebind_everywhere(monkeypatch, getattr(spec_model, definition), edited)
    code, status = _check_report(flow, capsys)
    assert code == 1 and status["r2_step_simulation"] == "fail"


# ---------------------------------------------------------------------------
# soundness composition


def test_soundness_on_every_bounded_trace(agent_c, alphabet):
    # refinement holds at depth 4, so every trace of length <= 4 must pass
    b = Bundle()
    for depth in range(5):
        for trace in havoc_traces(agent_c, alphabet, depth):
            assert check_soundness(agent_c, b, trace).passed


def test_soundness_on_empty_trace(agent_c):
    assert check_soundness(agent_c, Bundle(), Trace(())).passed


def _single_read_trace(c):
    return drive(c, ScriptedOracle([ReadPathAction("/ws/x")]), 1).trace


def test_corrupt_read_paths_fails_at_concrete_stage(agent_c):
    trace = _single_read_trace(agent_c)
    s = trace.steps[0]
    bad = Trace(
        (Step(s.pre_state, s.action, s.event, s.post_state._replace(read_paths=("/etc/pw",))),)
    )
    v = check_soundness(agent_c, Bundle(), bad)
    assert (v.passed, v.name) == (False, "concrete_safety")
    assert "read path" in v.detail


def test_corrupt_tool_calls_fails_at_concrete_stage(agent_c):
    trace = _single_read_trace(agent_c)
    s = trace.steps[0]
    bad_state = s.post_state._replace(tool_calls=("rm",))
    bad = Trace((Step(s.pre_state, s.action, s.event, bad_state),))
    v = check_soundness(agent_c, Bundle(), bad)
    assert (v.name, "tool call" in v.detail) == ("concrete_safety", True)


def test_corrupt_step_count_fails_at_concrete_stage(agent_c):
    trace = _single_read_trace(agent_c)
    s = trace.steps[0]
    bad_state = s.post_state._replace(step_count=99)
    bad = Trace((Step(s.pre_state, s.action, s.event, bad_state),))
    v = check_soundness(agent_c, Bundle(), bad)
    assert (v.name, "step count" in v.detail) == ("concrete_safety", True)


def test_unliftable_step_fails_at_lift_stage(agent_c):
    s0 = impl_init(agent_c)
    ev = ImplEvent(ToolEvent("rm"), Dispatch("scan", "tool", "tick"))
    bad = Trace((Step(s0, ToolCallAction("rm"), ev, s0),))
    v = check_soundness(agent_c, Bundle(), bad)
    assert (v.passed, v.name) == (False, "trace_lift")


def test_overpermissive_relation_fails_at_abstract_stage(agent_c):
    """With a guard-dropped abstract relation the bad step lifts, but the
    lifted run violates abstract safety."""
    s0 = impl_init(agent_c)
    ev = ImplEvent(ToolEvent("rm"), Dispatch("scan", "tool", "tick"))
    bad = Trace((Step(s0, ToolCallAction("rm"), ev, s0),))
    drop_allowlist = SEEDED_ERRORS["drop-allowlist-guard"](Bundle())
    v = check_soundness(agent_c, drop_allowlist, bad)
    assert (v.passed, v.name) == (False, "abstract_safety")


def test_soundness_keeps_one_verdict_per_distinct_element_of_a_long_run():
    """After ``check_soundness`` judges a 1000-step run whose read paths grow
    with it, each of the constants' verdict tables holds no more entries
    than the distinct elements (or step counts) its conjunct's field met,
    however many states held them."""
    flow = load_flow(FLOW)
    c = flow.impl_constants
    trace = drive(c, SeededRandomOracle(1, flow.alphabet), 1000).trace
    assert check_soundness(c, Bundle(), trace).passed
    states = list(trace.states())
    assert len(states[-1].read_paths) > 100
    for k in POLICY:
        values = [getattr(s, k.field) for s in states]
        met = set(values) if k.action is None else {v for value in values for v in value}
        table = c.spec._holds[k.holds or k.guard]
        assert len(table) <= len(met) and set(table) <= met


def test_refinement_plus_soundness_matches_sweep(agent_c, alphabet):
    """Cross-check two independent routes: the refinement verdict plus
    per-trace soundness on one side, direct safety scanning on the other."""
    assert all(o.passed for o in check_refinement_next(agent_c, Bundle(), alphabet, 3))
    for trace in havoc_traces(agent_c, alphabet, 3):
        assert all(impl_safety(agent_c, s) for s in trace.states())
        assert check_soundness(agent_c, Bundle(), trace).passed
