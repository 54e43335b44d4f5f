"""Differential tests for the policy table: every guard, state predicate and
seeded error derived from ``spec_model.POLICY`` (and the invariant derived
from ``impl_model.INVARIANT``) agrees with the hand-written definitions in
policy_reference.py over random small constants, states and actions.
The last section pins the contract of the state records and of the caches
the constants carry."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policy_reference as ref
from flowguard.actions import (
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
)
from flowguard.flowfile import flow_digest, parse_flow, serialize_flow
from flowguard.gates import SEEDED_ERRORS
from flowguard.havoc import sweep
from flowguard.impl_model import (
    ImplConstants,
    ImplState,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from flowguard.refinement import Bundle, CheckRun, obligations, perturbations, project_variables
from flowguard.spec_model import (
    POLICY,
    READ_PATHS_ROOTED,
    STEP_BOUNDED,
    TOOL_ALLOWLISTED,
    SpecConstants,
    SpecState,
    admits_value,
    emits,
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
    nodes = st.sampled_from([n for n, _ in graph.node_kinds])
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
    at several step counts, below and at the bound. Every stutter hands
    back the pre-state object itself."""
    relations = (
        (spec_next, ref.spec_next),
        (_mutant("drop-allowlist-guard").next_relation, ref.seeded_next_drop_allowlist),
        (_mutant("step-bound-off-by-one").next_relation, ref.seeded_next_bound_off_by_one),
    )
    pairs = data.draw(st.lists(st.tuples(spec_states, actions), min_size=1, max_size=6))
    counters = st.lists(st.integers(0, 6), min_size=2, max_size=4)
    for base, a in pairs + pairs:
        for step_count in data.draw(counters):
            s = base._replace(step_count=step_count)
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
    (node, action) at every step count from ``max_steps - 1`` to
    ``max_steps + 2`` in a drawn order, and at drawn ones, with actions
    from the flow's alphabet and from outside it. ``emits`` judges each
    step's event on the same constants, so both read the one step-capacity
    table, and a verdict kept for one step count that answered another
    would show. Every stutter hands back the pre-state object itself."""
    graph = fixture.graph
    c = ImplConstants(spec, graph)
    flow_actions = st.sampled_from(fixture.alphabet)
    routes = data.draw(
        st.lists(st.tuples(impl_states(graph), flow_actions | actions), min_size=1, max_size=6)
    )
    around_bound = st.permutations(range(max(0, spec.max_steps - 1), spec.max_steps + 3))
    counters = st.lists(st.integers(0, 6), max_size=3)
    for base, a in routes + routes:
        for step_count in data.draw(around_bound) + data.draw(counters):
            s = base._replace(step_count=step_count)
            ((event, nxt),) = impl_next(c, s, a)
            assert ((event, nxt),) == ref.impl_next(c, s, a)
            assert (nxt is s) == (event.effect == NoEffect())
            assert emits(c.spec, s, a, event.effect) == ref.emits(c.spec, s, a, event.effect)


@settings(max_examples=150)
@given(impl_cases())
def test_impl_predicates_match_reference(case):
    c, s = case
    assert impl_safety(c, s) == ref.impl_safety(c, s)
    assert impl_inv(c, s) == ref.impl_inv(c, s)
    k = violated(c.spec, s)
    assert (k.violation if k is not None else "unknown") == ref.failed_conjunct(c, s)


def own_effect(a):
    """The event an effected ``a`` emits; ``NoEffect`` for ``NoAction``."""
    match a:
        case ReadPathAction(path):
            return ReadEvent(path)
        case ToolCallAction(tool):
            return ToolEvent(tool)
        case StepAction():
            return StepEvent()
    return NoEffect()


@settings(max_examples=150)
@given(c=constants, s=spec_states, a=actions, data=st.data())
def test_emits_matches_reference(c, s, a, data):
    """``emits`` against the hand-written rule and against the events
    ``spec_next`` offers, for every action variant and every event kind,
    the action's own effect included. One constants object judges the
    drawn event at every step count from ``max_steps - 2`` to
    ``max_steps + 2``, in a drawn order, so its move and its step-capacity
    verdicts, kept for earlier step counts, answer later ones. It answers
    alike on a cold and a warm move table."""
    effect = data.draw(boundary_events | st.just(own_effect(a)))
    for offset in data.draw(st.permutations(range(-2, 3))):
        s = s._replace(step_count=max(0, c.max_steps + offset))
        cold = emits(c, s, a, effect)
        offered = {e for e, _ in spec_next(c, s, a)}
        assert cold == emits(c, s, a, effect) == ref.emits(c, s, a, effect) == (effect in offered)


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


def conjunct_holds(c: SpecConstants, k, value) -> bool:
    """The state predicate of conjunct ``k`` on its field's ``value``, from
    the one definition and without the verdict tables: a sequence conjunct
    holds when its guard admits every element, the step bound when its
    ``holds`` admits the step count."""
    return all(k.guard(c, v) for v in value) if k.holds is None else k.holds(c, value)


def _first_failing(c: SpecConstants, s):
    """The first conjunct of the policy that rejects its field of ``s``,
    judged directly."""
    return next((k for k in POLICY if not conjunct_holds(c, k, getattr(s, k.field))), None)


@st.composite
def verdict_cases(draw):
    """A shipped flow with random constants, and states on its graph
    whose paths lie under the root, outside it, or under the sibling
    ``root + "x/"``, whose tools are listed or not, and whose step counts
    lie around ``max_steps``. A sequence holds up to 8 elements drawn from
    a few values, so it repeats values and mixes admitted and rejected
    ones."""
    flow = draw(st.sampled_from(FLOWS))
    root = draw(st.sampled_from(("/ws", "/rag", "/ws/a")))
    listed = ("search", "fetch", "grep")
    allowed = draw(st.frozensets(st.sampled_from(listed), max_size=2))
    max_steps = draw(st.integers(0, 4))
    c = SpecConstants(root, allowed, max_steps)
    paths = st.sampled_from(
        (root, root + "/", root + "/a", root + "/a/b", root + "x/a", root + "x", root[:-1], "/etc/pw")
    )
    states = st.builds(
        ImplState,
        current_node=st.sampled_from([n for n, _ in flow.graph.node_kinds]),
        read_paths=st.lists(paths, max_size=8).map(tuple),
        tool_calls=st.lists(st.sampled_from(listed + ("rm", "__unlisted__")), max_size=8).map(tuple),
        step_count=st.integers(max(0, max_steps - 2), max_steps + 2),
        history=st.just(()),
        last_node=st.none(),
        last_action=st.just(NoAction()),
    )
    return flow._replace(constants=c), draw(st.lists(states, min_size=1, max_size=6))


@settings(max_examples=60)
@given(verdict_cases())
def test_violated_matches_the_conjuncts_on_a_warm_verdict_table(case):
    """One constants object judges every drawn state twice, so the verdicts
    its ``_holds`` tables kept for earlier elements answer later ones, in
    the same sequence and in others; ``violated`` and ``impl_safety`` agree
    with the first conjunct that fails when judged directly. Each table
    keeps only elements and step counts the states hold. Constants derived
    with ``_replace(allowed_tools=...)`` after those tables are warm must
    not answer with their verdicts: ``rm`` is refused before the allowlist
    widens and admitted after, and ``root + "x/a"`` is outside the root
    under both."""
    defn, states = case
    c = defn.impl_constants
    sibling = ImplState(defn.graph.entry, read_paths=(c.spec.workspace_root + "x/a",))
    called_rm = ImplState(defn.graph.entry, tool_calls=("rm",))
    extra = [sibling, called_rm]
    for spec in (c.spec, c.spec._replace(allowed_tools=c.spec.allowed_tools | {"rm"})):
        c = c._replace(spec=spec)
        for s in states + extra + states:
            expected = _first_failing(c.spec, s)
            assert violated(c.spec, s) is expected
            assert impl_safety(c, s) is (expected is None)
        assert c.spec._holds
        for k in POLICY:
            values = [getattr(s, k.field) for s in states + extra]
            met = set(values) if k.action is None else {v for value in values for v in value}
            assert set(c.spec._holds.get(k.holds or k.guard, ())) <= met
        assert violated(c.spec, sibling) is READ_PATHS_ROOTED
        assert violated(c.spec, called_rm) is (None if "rm" in spec.allowed_tools else TOOL_ALLOWLISTED)


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


def _capacity_table(spec: SpecConstants) -> dict:
    """The step guard's verdicts ``spec`` keeps, by step count; {} when none."""
    return dict(spec._holds.get(STEP_BOUNDED.guard, {}))


def test_check_and_sweep_keep_a_step_capacity_verdict_per_step_count_met():
    """A depth-6 sweep on read_agent steps at the step counts 0 to
    ``max_steps``, and the obligations of ``check`` at most at one more, in
    the perturbed states: the step-capacity table keeps one verdict for
    each count met, at most ``max_steps + 2`` entries, each the step
    guard's own."""
    flow = shipped("read_agent")
    c, m = flow.impl_constants, flow.constants.max_steps
    assert sweep(c, flow.alphabet, 6).passed
    assert set(_capacity_table(c.spec)) == set(range(m + 1))
    assert all(o.passed for o in obligations(CheckRun(c, flow.alphabet, 6), Bundle()))
    table = _capacity_table(c.spec)
    assert set(range(m + 1)) <= set(table) <= set(range(m + 2))
    assert table == {n: n < m for n in table}


COPIES = {
    "copy": copy.copy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "_replace": lambda v: v._replace(),
}


@pytest.mark.parametrize("route", COPIES.values(), ids=COPIES.keys())
def test_a_copy_of_the_constants_starts_with_empty_verdict_tables(route):
    """Copied, pickled or rebuilt with ``_replace``, warmed constants give
    equal constants with empty move and verdict tables; stepping the copy
    fills tables of its own and leaves the original's as they were."""
    flow = shipped("read_agent")
    c = flow.impl_constants
    assert sweep(c, flow.alphabet, 4).passed
    warm = _capacity_table(c.spec)
    other = route(c.spec)
    assert other == c.spec and other is not c.spec
    assert not other._moves and not other._holds
    assert sweep(ImplConstants(other, flow.graph), flow.alphabet, 4).passed
    assert other._holds[STEP_BOUNDED.guard] is not c.spec._holds[STEP_BOUNDED.guard]
    assert _capacity_table(other) == warm == _capacity_table(c.spec)
