"""Differential tests for the policy table: every guard, state predicate and
seeded error derived from ``spec_model.POLICY`` (and the invariant derived
from ``impl_model.INVARIANT``) agrees with the hand-written definitions in
policy_reference.py over random small constants, states and actions."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import policy_reference as ref
from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
)
from flowguard.fixtures import rag_flow, read_agent
from flowguard.gates import SEEDED_ERRORS
from flowguard.havoc import action_out_of_policy
from flowguard.impl_model import ImplConstants, ImplState, event_in_policy, impl_inv, impl_next, impl_safety
from flowguard.refinement import Bundle, _failed_conjunct, perturbations
from flowguard.spec_model import SpecConstants, SpecState, spec_next, spec_safety

GRAPHS = (read_agent().constants.graph, rag_flow(True).constants.graph, rag_flow(False).constants.graph)

paths = st.sampled_from(("/ws", "/ws/", "/ws/a", "/wsx/a", "/etc/pw", "/", "")) | st.text(max_size=6)
tools = st.sampled_from(("search", "rm", "__unlisted__", "")) | st.text(max_size=4)

constants = st.builds(
    SpecConstants,
    workspace_root=st.sampled_from(("/ws", "/ws/", "/", "/wsx")),
    allowed_tools=st.frozensets(tools, max_size=3),
    max_steps=st.integers(0, 4),
    prefix_mode=st.sampled_from(("guarded", "bare")),
    count_all_actions=st.booleans(),
)
actions = st.one_of(
    st.just(NoAction()),
    st.just(StepAction()),
    st.builds(ReadPathAction, paths),
    st.builds(ToolCallAction, tools),
)
spec_states = st.builds(
    SpecState,
    read_paths=st.lists(paths, max_size=3).map(tuple),
    tool_calls=st.lists(tools, max_size=3).map(tuple),
    step_count=st.integers(0, 6),
    halted=st.booleans(),
)
boundary_events = st.one_of(
    st.just(NoEffect()),
    st.just(StepEvent()),
    st.builds(ReadEvent, paths),
    st.builds(ToolEvent, tools),
)


@st.composite
def impl_cases(draw):
    """Constants over one of the fixture graphs and a state on that graph."""
    graph = draw(st.sampled_from(GRAPHS))
    return ImplConstants(draw(constants), graph), draw(impl_states(graph))


@st.composite
def impl_states(draw, graph):
    nodes = st.sampled_from(sorted(graph.nodes))
    history = draw(st.lists(st.tuples(nodes, actions), max_size=4).map(tuple))
    # Mostly a consistent last step, sometimes a junk one.
    if history and draw(st.booleans()):
        last_node, last_action = history[-1]
    else:
        last_node, last_action = draw(st.none() | nodes), draw(actions)
    return ImplState(
        current_node=draw(nodes),
        read_paths=draw(st.lists(paths, max_size=3).map(tuple)),
        tool_calls=draw(st.lists(tools, max_size=3).map(tuple)),
        step_count=draw(st.integers(0, 6)),
        halted=draw(st.booleans()),
        history=history,
        last_node=last_node,
        last_action=last_action,
    )


def _mutant(mutation_id: str):
    return SEEDED_ERRORS[mutation_id].apply(Bundle())


@settings(max_examples=150)
@given(constants, spec_states, actions)
def test_spec_next_matches_reference(c, s, a):
    assert spec_next(c, s, a) == ref.spec_next(c, s, a)


@settings(max_examples=60)
@given(c=constants, data=st.data())
def test_spec_next_matches_reference_on_a_warm_move_table(c, data):
    """One ``SpecConstants`` steps every drawn (state, action) pair twice,
    under the shipped policy and two seeded edits of it, so the moves it
    compiled for earlier pairs answer later ones: the same (policy, action)
    at several step counts and halted flags. Every stutter hands back the
    pre-state object itself."""
    relations = (
        (spec_next, ref.spec_next),
        (_mutant("drop-allowlist-guard").next_relation, ref.seeded_next_drop_allowlist),
        (_mutant("step-bound-off-by-one").next_relation, ref.seeded_next_bound_off_by_one),
    )
    pairs = data.draw(st.lists(st.tuples(spec_states, actions), min_size=1, max_size=6))
    counters = st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=2, max_size=4)
    for base, a in pairs + pairs:
        for step_count, halted in data.draw(counters):
            s = replace(base, step_count=step_count, halted=halted)
            for relation, reference in relations:
                succs = relation(c, s, a)
                assert succs == reference(c, s, a)
                assert all(nxt is s for event, nxt in succs if event == NoEffect())


@settings(max_examples=150)
@given(constants, spec_states)
def test_spec_safety_matches_reference(c, s):
    assert spec_safety(c, s) == ref.spec_safety(c, s)


@settings(max_examples=150)
@given(impl_cases(), actions)
def test_impl_next_matches_reference(case, a):
    c, s = case
    assert impl_next(c, s, a) == ref.impl_next(c, s, a)


@settings(max_examples=60)
@given(
    fixture=st.sampled_from((read_agent(), rag_flow(True), rag_flow(False))),
    spec=constants,
    data=st.data(),
)
def test_impl_next_matches_reference_on_a_warm_route_table(fixture, spec, data):
    """One ``ImplConstants`` steps every drawn (state, action) pair, so the
    routes it compiled for earlier pairs answer later ones: the same
    (node, action) at several step counts and halted flags, with actions
    from the flow's alphabet and from outside it. Every stutter hands back
    the pre-state object itself."""
    graph = fixture.constants.graph
    c = ImplConstants(spec, graph)
    flow_actions = st.sampled_from(fixture.alphabet)
    routes = data.draw(
        st.lists(st.tuples(impl_states(graph), flow_actions | actions), min_size=1, max_size=6)
    )
    counters = st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=2, max_size=4)
    for base, a in routes + routes:
        for step_count, halted in data.draw(counters):
            s = replace(base, step_count=step_count, halted=halted)
            ((event, nxt),) = impl_next(c, s, a)
            assert ((event, nxt),) == ref.impl_next(c, s, a)
            assert (nxt is s) == (event.effect == NoEffect())


@settings(max_examples=150)
@given(impl_cases())
def test_impl_predicates_match_reference(case):
    c, s = case
    assert impl_safety(c, s) == ref.impl_safety(c, s)
    assert impl_inv(c, s) == ref.impl_inv(c, s)
    assert _failed_conjunct(c, s) == ref.failed_conjunct(c, s)


@settings(max_examples=150)
@given(impl_cases(), boundary_events, st.booleans())
def test_event_in_policy_matches_reference(case, effect, wrapped):
    c, pre = case
    event = effect
    if wrapped:
        dispatch = None if isinstance(effect, NoEffect) else Dispatch("a", "read", "b")
        event = ImplEvent(effect, dispatch)
    assert event_in_policy(c, pre, event) == ref.event_in_policy(c, pre, event)


@settings(max_examples=150)
@given(constants, actions)
def test_action_out_of_policy_matches_reference(c, a):
    assert action_out_of_policy(c, a) == ref.action_out_of_policy(c, a)


@settings(max_examples=100)
@given(impl_cases(), st.lists(actions, min_size=1, max_size=6).map(tuple))
def test_perturbations_match_reference(case, alphabet):
    c, s = case
    assert perturbations(c, s, alphabet) == ref.perturbations(c, s, alphabet)


@settings(max_examples=150)
@given(constants, spec_states, actions)
def test_seeded_relations_match_reference(c, s, a):
    drop_allowlist = _mutant("drop-allowlist-guard").next_relation
    off_by_one = _mutant("step-bound-off-by-one").next_relation
    assert drop_allowlist(c, s, a) == ref.seeded_next_drop_allowlist(c, s, a)
    assert off_by_one(c, s, a) == ref.seeded_next_bound_off_by_one(c, s, a)


@settings(max_examples=150)
@given(impl_cases())
def test_seeded_invariant_matches_reference(case):
    c, s = case
    assume_inv = _mutant("drop-history-clause").assume_inv
    assert assume_inv(c, s) == ref.inv_without_history_length(c, s)
