"""Concrete dispatch machine: policy-gated dispatch, rejection semantics,
the inductive invariant, and graph validation."""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

import pytest

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
from flowguard.impl_model import (
    FlowGraph,
    FlowGraphError,
    ImplConstants,
    NodeKind,
    event_in_policy,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
    impl_wf,
)
from flowguard.spec_model import SpecConstants


@pytest.fixture(scope="module")
def c(agent):
    return agent.impl_constants


def only(succs):
    assert len(succs) == 1
    return succs[0]


# ---------------------------------------------------------------------------
# graph validation


def test_graph_rejects_dangling_entry():
    with pytest.raises(FlowGraphError):
        FlowGraph(entry="ghost", node_kinds=(("a", NodeKind.TERMINAL),), edges=())


def test_graph_rejects_dangling_edge_targets():
    with pytest.raises(FlowGraphError):
        FlowGraph(
            entry="a",
            node_kinds=(("a", NodeKind.STEP),),
            edges=(("a", "step", "ghost"),),
        )


def test_graph_rejects_non_terminal_sinks():
    with pytest.raises(FlowGraphError):
        FlowGraph(entry="a", node_kinds=(("a", NodeKind.READ),), edges=())


def test_graph_rejects_duplicate_dispatch_edges():
    with pytest.raises(FlowGraphError):
        FlowGraph(
            entry="a",
            node_kinds=(("a", NodeKind.STEP), ("b", NodeKind.TERMINAL)),
            edges=(("a", "step", "b"), ("a", "step", "a")),
        )


def test_graph_normalization_makes_equal_graphs_equal():
    g1 = FlowGraph(
        entry="a",
        node_kinds=(("b", NodeKind.TERMINAL), ("a", NodeKind.STEP)),
        edges=(("a", "step", "b"),),
    )
    g2 = FlowGraph(
        entry="a",
        node_kinds=(("a", NodeKind.STEP), ("b", NodeKind.TERMINAL)),
        edges=(("a", "step", "b"),),
    )
    assert g1 == g2


# ---------------------------------------------------------------------------
# init


def test_init_satisfies_invariant(c):
    assert impl_inv(c, impl_init(c))


def test_init_sits_at_entry(c):
    assert impl_init(c).current_node == c.graph.entry
    assert impl_init(c).last_node is None


# ---------------------------------------------------------------------------
# dispatch semantics


def test_read_at_read_node_dispatches(c):
    event, s2 = only(impl_next(c, impl_init(c), ReadPathAction("/ws/a.txt")))
    assert event.effect == ReadEvent("/ws/a.txt")
    assert event.dispatch is not None and event.dispatch.edge_label == "read"
    assert s2.read_paths == ("/ws/a.txt",)
    assert len(s2.history) == 1
    assert s2.step_count == 1
    assert s2.current_node == "search"
    assert (s2.last_node, s2.last_action) == ("scan", ReadPathAction("/ws/a.txt"))


def test_kind_mismatch_stutters(c):
    # an allowlisted tool call at a Read node is policy-fine but kind-wrong
    s0 = impl_init(c)
    event, s2 = only(impl_next(c, s0, ToolCallAction("search")))
    assert event.effect == NoEffect() and s2 == s0


def test_out_of_policy_read_stutters(c):
    s0 = impl_init(c)
    event, s2 = only(impl_next(c, s0, ReadPathAction("/etc/pw")))
    assert event.effect == NoEffect() and s2 == s0


def test_halted_state_absorbs_everything(c, agent):
    halted = dataclasses.replace(impl_init(c), halted=True, step_count=3)
    for a in agent.alphabet:
        event, s2 = only(impl_next(c, halted, a))
        assert event.effect == NoEffect() and s2 == halted


def test_terminal_node_absorbs_everything(rag_barrier):
    c = rag_barrier.impl_constants
    s = dataclasses.replace(impl_init(c), current_node="done")
    for a in rag_barrier.alphabet:
        event, s2 = only(impl_next(c, s, a))
        assert event.effect == NoEffect() and s2 == s


def test_missing_edge_stutters():
    # a Read node whose only outgoing edge is not labeled "read"
    spec = SpecConstants("/ws", frozenset(), 3)
    graph = FlowGraph(
        entry="r",
        node_kinds=(("r", NodeKind.READ), ("t", NodeKind.TERMINAL)),
        edges=(("r", "weird", "t"),),
    )
    c2 = ImplConstants(spec, graph)
    event, s2 = only(impl_next(c2, impl_init(c2), ReadPathAction("/ws/a")))
    assert event.effect == NoEffect() and s2 == impl_init(c2)


def test_reaching_the_bound_halts(c):
    s = impl_init(c)
    script = [ReadPathAction("/ws/x"), ToolCallAction("search"), StepAction()]
    for a in script:
        _, s = only(impl_next(c, s, a))
    assert s.step_count == 3 and s.halted


# ---------------------------------------------------------------------------
# invariant and safety predicates


def test_inv_rejects_history_count_mismatch(c):
    s = dataclasses.replace(impl_init(c), step_count=3)
    assert not impl_inv(c, s)  # |history| == 0 != 3


def test_inv_rejects_premature_halt(c):
    s = dataclasses.replace(impl_init(c), halted=True, step_count=1)
    assert not impl_inv(c, s)  # halted requires count >= max (3)


def test_inv_rejects_inconsistent_last_node(c):
    s = dataclasses.replace(impl_init(c), last_node="scan")
    assert not impl_inv(c, s)  # empty history cannot witness last_node


def test_wf_is_weaker_than_inv(c):
    junk = dataclasses.replace(impl_init(c), step_count=99)
    assert impl_wf(c, junk) and not impl_inv(c, junk)


def test_safety_rejects_unlisted_tool_record(c):
    s = dataclasses.replace(impl_init(c), tool_calls=("rm",))
    assert not impl_safety(c, s)


def test_every_state_reachable_within_depth_5_is_safe(c, agent):
    # exhaustive reachability is the oracle
    from flowguard.refinement import reachable_layers

    layers = reachable_layers(c, agent.alphabet, 5)
    states = [s for layer in layers for s in layer]
    assert len(states) >= 4
    assert all(impl_safety(c, s) for s in states)
    assert all(impl_inv(c, s) for s in states)


def test_event_policy_judgment(c):
    s0 = impl_init(c)
    assert event_in_policy(c, s0, ReadEvent("/ws/a"))
    assert not event_in_policy(c, s0, ReadEvent("/etc/pw"))
    assert event_in_policy(c, s0, ToolEvent("search"))
    assert not event_in_policy(c, s0, ToolEvent("rm"))
    assert event_in_policy(c, s0, StepEvent())
    at_bound = dataclasses.replace(s0, step_count=3)
    assert not event_in_policy(c, at_bound, StepEvent())
    assert event_in_policy(c, at_bound, NoEffect())


# ---------------------------------------------------------------------------
# properties over random scripts


script_st = st.lists(
    st.one_of(
        st.just(NoAction()),
        st.just(StepAction()),
        st.sampled_from(["/ws/x", "/ws/deep/f", "/etc/pw"]).map(ReadPathAction),
        st.sampled_from(["search", "rm"]).map(ToolCallAction),
    ),
    max_size=8,
)


@given(script_st)
def test_events_couple_to_records(agent, script):
    """A ReadEvent is emitted iff a path was appended in that step, a
    ToolEvent iff a tool was appended, a StepEvent iff the counter moved,
    and NoEffect iff the state is unchanged."""
    c = agent.impl_constants
    s = impl_init(c)
    for a in script:
        event, s2 = only(impl_next(c, s, a))
        match event.effect:
            case ReadEvent(path):
                assert s2.read_paths == s.read_paths + (path,)
            case ToolEvent(tool):
                assert s2.tool_calls == s.tool_calls + (tool,)
            case StepEvent():
                assert s2.step_count == s.step_count + 1
                assert s2.read_paths == s.read_paths and s2.tool_calls == s.tool_calls
            case NoEffect():
                assert s2 == s
        s = s2


@given(script_st)
def test_inv_is_inductive_along_runs(agent, script):
    c = agent.impl_constants
    s = impl_init(c)
    assert impl_inv(c, s)
    for a in script:
        _, s = only(impl_next(c, s, a))
        assert impl_inv(c, s)


@given(script_st)
def test_history_records_the_dispatching_node(agent, script):
    c = agent.impl_constants
    s = impl_init(c)
    for a in script:
        pre = s
        event, s = only(impl_next(c, s, a))
        if event.dispatch is not None:
            assert s.history[-1] == (pre.current_node, a)
