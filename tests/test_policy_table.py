"""Differential tests for the policy table: every guard, state predicate and
seeded error derived from ``spec_model.POLICY`` (and the invariant derived
from ``impl_model.INVARIANT``) agrees with the hand-written definitions in
policy_reference.py over random small constants, states and actions.
The last section pins the contract of the state records and of the caches
the constants carry."""


import pytest
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
from flowguard.flowfile import flow_digest, parse_flow, serialize_flow, with_prefix_mode
from flowguard.gates import SEEDED_ERRORS
from flowguard.impl_model import (
    ImplConstants,
    ImplState,
    event_in_policy,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from flowguard.refinement import Bundle, CheckRun, _failed_conjunct, obligations, perturbations, project_variables
from flowguard.spec_model import (
    POLICY,
    READ_PATHS_ROOTED,
    SpecConstants,
    SpecState,
    admits_value,
    spec_init,
    spec_next,
    spec_safety,
    violated,
)
from conftest import shipped

FLOWS = tuple(shipped(name) for name in ("read_agent", "rag_barrier", "rag_no_barrier"))
GRAPHS = tuple(flow.graph for flow in FLOWS)

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
    """Constants over one of the shipped graphs and a state on that graph."""
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
    return SEEDED_ERRORS[mutation_id](Bundle())


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
            s = base._replace(step_count=step_count, halted=halted)
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
    fixture=st.sampled_from(FLOWS),
    spec=constants,
    data=st.data(),
)
def test_impl_next_matches_reference_on_a_warm_route_table(fixture, spec, data):
    """One ``ImplConstants`` steps every drawn (state, action) pair, so the
    routes it compiled for earlier pairs answer later ones: the same
    (node, action) at several step counts and halted flags, with actions
    from the flow's alphabet and from outside it. Every stutter hands back
    the pre-state object itself."""
    graph = fixture.graph
    c = ImplConstants(spec, graph)
    flow_actions = st.sampled_from(fixture.alphabet)
    routes = data.draw(
        st.lists(st.tuples(impl_states(graph), flow_actions | actions), min_size=1, max_size=6)
    )
    counters = st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=2, max_size=4)
    for base, a in routes + routes:
        for step_count, halted in data.draw(counters):
            s = base._replace(step_count=step_count, halted=halted)
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
    assert (not admits_value(c, a)) == ref.action_out_of_policy(c, a)


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


def _first_failing(c: SpecConstants, s):
    """The first conjunct of the policy whose ``holds`` rejects its field
    of ``s``, judged directly, without the verdict table."""
    return next((k for k in POLICY if not k.holds(c, getattr(s, k.field))), None)


@st.composite
def verdict_cases(draw):
    """A shipped flow with random guarded constants, and states on its graph
    whose paths lie under the root, outside it, or under the sibling
    ``root + "x/"``, whose tools are listed or not, and whose step counts
    lie around ``max_steps``."""
    flow = draw(st.sampled_from(FLOWS))
    root = draw(st.sampled_from(("/ws", "/rag", "/ws/a")))
    listed = ("search", "fetch", "grep")
    allowed = draw(st.frozensets(st.sampled_from(listed), max_size=2))
    max_steps = draw(st.integers(0, 4))
    c = SpecConstants(root, allowed, max_steps, "guarded", draw(st.booleans()))
    paths = st.sampled_from(
        (root, root + "/", root + "/a", root + "/a/b", root + "x/a", root + "x", root[:-1], "/etc/pw")
    )
    states = st.builds(
        ImplState,
        current_node=st.sampled_from(sorted(flow.graph.nodes)),
        read_paths=st.lists(paths, max_size=3).map(tuple),
        tool_calls=st.lists(st.sampled_from(listed + ("rm", "__unlisted__")), max_size=3).map(tuple),
        step_count=st.integers(max(0, max_steps - 2), max_steps + 2),
        halted=st.booleans(),
        history=st.just(()),
        last_node=st.none(),
        last_action=st.just(NoAction()),
    )
    return flow._replace(constants=c), draw(st.lists(states, min_size=1, max_size=6))


@settings(max_examples=60)
@given(verdict_cases())
def test_violated_matches_the_conjuncts_on_a_warm_verdict_table(case):
    """One constants object judges every drawn state twice, so the verdicts
    its ``_holds`` table kept for earlier values answer later ones; under
    both prefix modes, ``violated`` and ``impl_safety`` agree with the
    first conjunct whose ``holds`` fails when called directly. The bare
    constants are derived from the guarded flow after its table is warm,
    and must not answer with its verdicts: ``root + "x/a"`` is outside the
    root when guarded and under it when bare."""
    defn, states = case
    sibling = ImplState(defn.graph.entry, read_paths=(defn.constants.workspace_root + "x/a",))
    for mode in ("guarded", "bare"):
        defn = with_prefix_mode(defn, mode)
        c = defn.impl_constants
        for s in states + [sibling] + states:
            expected = _first_failing(c.spec, s)
            assert violated(c.spec, s) is expected
            assert impl_safety(c, s) is (expected is None)
        assert c.spec._holds
        assert violated(c.spec, sibling) is (READ_PATHS_ROOTED if mode == "guarded" else None)


# ---------------------------------------------------------------------------
# State records and the constants' caches


def test_states_are_immutable():
    for s in (ImplState("a", ("/ws/a",)), SpecState(("/ws/a",))):
        for name in s._fields:
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))
        with pytest.raises(AttributeError):
            s.extra = 1


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.provenance)
def test_equal_states_built_along_different_paths_are_equal_with_equal_hashes(flow):
    """A step's post-state, the same values through the keyword
    constructor and through ``_replace`` of the initial state, and the
    reference model's post-state are equal and hash alike; so are the
    abstract post-state, the abstraction of the concrete one, and their
    rebuilt copies."""
    c = flow.impl_constants
    reachable = [s for layer in CheckRun(c, flow.alphabet, 3).layers for s in layer]
    for s in reachable:
        for a in flow.alphabet:
            ((_event, post),) = impl_next(c, s, a)
            ((_ref_event, ref_post),) = ref.impl_next(c, s, a)
            fields = post._asdict()
            concrete = (post, ref_post, ImplState(**fields), impl_init(c)._replace(**fields))
            # The first abstract successor is the effected one, if any.
            abstract_post = spec_next(c.spec, project_variables(s), a)[0][1]
            abstract_fields = abstract_post._asdict()
            abstract = (
                abstract_post,
                ref.spec_next(c.spec, project_variables(s), a)[0][1],
                SpecState(**abstract_fields),
                spec_init(c.spec)._replace(**abstract_fields),
            ) + ((project_variables(post),) if post is not s else ())
            for states in (concrete, abstract):
                assert all(x == states[0] and hash(x) == hash(states[0]) for x in states)


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.provenance)
def test_warm_caches_leave_the_constants_value_alone(flow):
    """Running every obligation fills ``_moves``, ``_routes`` and ``_holds``;
    the constants still equal a fresh parse of the same flow, print the
    same and give the same flow digest."""
    fresh = parse_flow(serialize_flow(flow))
    before = (repr(flow.constants), flow_digest(flow))
    c = flow.impl_constants
    assert all(o.passed for o in obligations(CheckRun(c, flow.alphabet, 4), Bundle()))
    assert c._routes and c.spec._moves and c.spec._holds
    assert not (fresh.constants._moves or fresh.constants._holds)
    assert flow.constants == fresh.constants and hash(flow.constants) == hash(fresh.constants)
    assert c == fresh.impl_constants and repr(c) == repr(fresh.impl_constants)
    assert (repr(flow.constants), flow_digest(flow)) == before == (repr(fresh.constants), flow_digest(fresh))
