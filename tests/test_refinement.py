"""Refinement obligations, the perturbed exploration universe, and the
trace-level soundness composition."""

import dataclasses

import pytest

from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    ToolCallAction,
    ToolEvent,
)
from flowguard.fixtures import rag_flow, read_agent
from flowguard.gates import SEEDED_ERRORS, default_spec_bundle
from flowguard.havoc import ScriptedOracle, Trace, TraceStep, drive
from flowguard.impl_model import impl_init, impl_next, impl_safety, impl_wf
from flowguard.refinement import (
    check_refinement_init,
    check_refinement_next,
    check_soundness,
    default_bundle,
    perturbations,
    project_variables,
)
from flowguard.spec_model import spec_init, spec_next
from test_havoc import havoc_traces


@pytest.fixture(scope="module")
def agent_c():
    return read_agent().constants


@pytest.fixture(scope="module")
def alphabet():
    return read_agent().alphabet


# ---------------------------------------------------------------------------
# abstraction functions


def test_projected_init_equals_abstract_init(agent_c):
    b = default_bundle()
    assert b.variables_abs(impl_init(agent_c)) == spec_init(b.constants_abs(agent_c))


def test_event_projection_drops_dispatch():
    b = default_bundle()
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
    assert check_refinement_init(agent_c, default_bundle()).passed


def test_refinement_init_fails_for_contradictory_inv(agent_c):
    b = dataclasses.replace(default_bundle(), inv=lambda c, s: False)
    verdict = check_refinement_init(agent_c, b)
    assert not verdict.passed and "invariant" in verdict.detail


def test_refinement_init_tolerates_empty_projection_at_init(agent_c):
    # a projection that forgets read_paths still matches at init: both empty
    b = dataclasses.replace(
        default_bundle(),
        variables_abs=lambda s: dataclasses.replace(project_variables(s), read_paths=()),
    )
    assert check_refinement_init(agent_c, b).passed


# ---------------------------------------------------------------------------
# R2/R3 and the invariant obligation


def test_refinement_next_passes_on_read_agent(agent_c, alphabet):
    v = check_refinement_next(agent_c, default_bundle(), alphabet, 4)
    assert v.passed, v
    assert v.explored_states > v.reachable_states > 0


def test_refinement_next_passes_on_both_rag_modes():
    for barrier in (True, False):
        fx = rag_flow(barrier)
        v = check_refinement_next(fx.constants, default_bundle(), fx.alphabet, 4)
        assert v.passed, (barrier, v)


def test_refinement_passes_in_step_only_accounting_mode():
    fx = read_agent()
    spec = dataclasses.replace(fx.constants.spec, count_all_actions=False)
    c = dataclasses.replace(fx.constants, spec=spec)
    v = check_refinement_next(c, default_bundle(), fx.alphabet, 4)
    assert v.passed, v


def test_event_collapse_breaks_step_simulation(agent_c, alphabet):
    b = dataclasses.replace(default_bundle(), event_abs=lambda e: NoEffect())
    v = check_refinement_next(agent_c, b, alphabet, 4)
    assert not v.r2
    cx = v.r2_counterexample
    # the collapsed event claims a stutter, but the post-state moved
    assert cx is not None and not isinstance(cx.event.effect, NoEffect)


def test_gutted_inv_fails_the_invariant_obligation(agent_c, alphabet):
    """Assuming well-formedness only while still owing the declared
    invariant must fail: the widened state set contains junk the declared
    invariant rejects."""
    v = check_refinement_next(agent_c, default_bundle(), alphabet, 4, assume_inv=impl_wf)
    assert not v.inv_inductive
    assert v.r2  # the simulation itself is indifferent to the widening
    assert v.inv_counterexample is not None


def test_weakened_safety_breaks_transport(agent_c, alphabet):
    """If the bundle's safety predicate forgets the allowlist conjunct,
    junk states with a stray tool record satisfy abstract safety while
    concrete safety fails: the transport obligation catches it."""

    def lax_safety(c, s):
        return all(p.startswith(c.workspace_root) for p in s.read_paths) and s.step_count <= c.max_steps

    v = check_refinement_next(
        agent_c, default_bundle(), alphabet, 4, safety=lax_safety
    )
    assert not v.r3
    cx = v.r3_counterexample
    assert cx is not None and not impl_safety(agent_c, cx.post_state)


def test_matching_queries_use_the_identical_action(agent_c, alphabet):
    seen_actions = []

    def spy_next(c, s, a):
        seen_actions.append(a)
        return spec_next(c, s, a)

    check_refinement_next(agent_c, default_bundle(), alphabet, 2, next_relation=spy_next)
    assert seen_actions and all(a in alphabet for a in seen_actions)
    assert set(seen_actions) == set(alphabet)


def test_perturbations_are_deterministic_and_wellformed(agent_c, alphabet):
    s = impl_init(agent_c)
    first = perturbations(agent_c, s, alphabet)
    second = perturbations(agent_c, s, alphabet)
    assert first == second
    assert all(impl_wf(agent_c, p) for p in first)


def test_depth_zero_checks_init_only(agent_c, alphabet):
    v = check_refinement_next(agent_c, default_bundle(), alphabet, 0)
    assert v.passed and v.explored_states == 0


# ---------------------------------------------------------------------------
# soundness composition


def test_soundness_on_every_bounded_trace(agent_c, alphabet):
    # refinement holds at depth 4, so every trace of length <= 4 must pass
    b = default_bundle()
    for depth in range(5):
        for trace in havoc_traces(agent_c, alphabet, depth):
            assert check_soundness(agent_c, b, trace).passed


def test_soundness_on_empty_trace(agent_c):
    assert check_soundness(agent_c, default_bundle(), Trace(())).passed


def _single_read_trace(c):
    return drive(c, ScriptedOracle([ReadPathAction("/ws/x")]), 1).trace


def test_corrupt_read_paths_fails_at_concrete_stage(agent_c):
    trace = _single_read_trace(agent_c)
    s = trace.steps[0]
    bad = Trace(
        (TraceStep(s.pre_state, s.action, s.event, dataclasses.replace(s.post_state, read_paths=("/etc/pw",))),)
    )
    v = check_soundness(agent_c, default_bundle(), bad)
    assert (v.passed, v.stage) == (False, 3)
    assert "read path" in v.detail


def test_corrupt_tool_calls_fails_at_concrete_stage(agent_c):
    trace = _single_read_trace(agent_c)
    s = trace.steps[0]
    bad_state = dataclasses.replace(s.post_state, tool_calls=("rm",))
    bad = Trace((TraceStep(s.pre_state, s.action, s.event, bad_state),))
    v = check_soundness(agent_c, default_bundle(), bad)
    assert (v.stage, "tool call" in v.detail) == (3, True)


def test_corrupt_step_count_fails_at_concrete_stage(agent_c):
    trace = _single_read_trace(agent_c)
    s = trace.steps[0]
    bad_state = dataclasses.replace(s.post_state, step_count=99)
    bad = Trace((TraceStep(s.pre_state, s.action, s.event, bad_state),))
    v = check_soundness(agent_c, default_bundle(), bad)
    assert (v.stage, "step count" in v.detail) == (3, True)


def test_unliftable_step_fails_at_lift_stage(agent_c):
    s0 = impl_init(agent_c)
    ev = ImplEvent(ToolEvent("rm"), Dispatch("scan", "tool", "tick"))
    bad = Trace((TraceStep(s0, ToolCallAction("rm"), ev, s0),))
    v = check_soundness(agent_c, default_bundle(), bad)
    assert (v.passed, v.stage) == (False, 1)


def test_overpermissive_relation_fails_at_abstract_stage(agent_c):
    """With a guard-dropped abstract relation the bad step lifts, but the
    lifted run violates abstract safety: stage 2."""
    s0 = impl_init(agent_c)
    ev = ImplEvent(ToolEvent("rm"), Dispatch("scan", "tool", "tick"))
    bad = Trace((TraceStep(s0, ToolCallAction("rm"), ev, s0),))
    drop_allowlist = (
        SEEDED_ERRORS["drop-allowlist-guard"].apply(default_spec_bundle(agent_c, "")).bundle.next_relation
    )
    v = check_soundness(agent_c, default_bundle(), bad, next_relation=drop_allowlist)
    assert (v.passed, v.stage) == (False, 2)


def test_refinement_plus_soundness_matches_sweep(agent_c, alphabet):
    """Cross-check two independent routes: the refinement verdict plus
    per-trace soundness on one side, direct safety scanning on the other."""
    assert check_refinement_next(agent_c, default_bundle(), alphabet, 3).passed
    for trace in havoc_traces(agent_c, alphabet, 3):
        assert all(impl_safety(agent_c, s) for s in trace.states())
        assert check_soundness(agent_c, default_bundle(), trace).passed
