"""Concrete dispatch machine: policy-gated dispatch, rejection semantics,
the inductive invariant, and graph validation."""

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
from flowguard.gates import permissive_stub
from flowguard.impl_model import (
    STUTTER,
    FlowGraph,
    FlowGraphError,
    ImplConstants,
    NodeKind,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from flowguard.refinement import Bundle
from flowguard.spec_model import SpecConstants, emits


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


def test_graph_rejects_duplicate_node_names():
    with pytest.raises(FlowGraphError, match="^duplicate node names$"):
        FlowGraph(entry="a", node_kinds=(("a", NodeKind.TERMINAL), ("a", NodeKind.TERMINAL)), edges=())


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
    """A state at the step bound (``max_steps`` 3) effects no action."""
    halted = impl_init(c)._replace(step_count=3)
    for a in agent.alphabet:
        event, s2 = only(impl_next(c, halted, a))
        assert event.effect == NoEffect() and s2 == halted


def test_terminal_node_absorbs_everything(rag_barrier):
    c = rag_barrier.impl_constants
    s = impl_init(c)._replace(current_node="done")
    for a in rag_barrier.alphabet:
        event, s2 = only(impl_next(c, s, a))
        assert event.effect == NoEffect() and s2 == s


def test_graph_refuses_edges_that_can_never_fire():
    """A node dispatches only its own kind's variant, along that variant's
    label, so an edge with another label, or out of a Terminal node, could
    never be taken; the graph refuses it, naming the edge, and refuses a
    Read, Tool or Step node without its own label's edge, naming the node."""
    kinds = (("r", NodeKind.READ), ("t", NodeKind.TERMINAL))
    for edges, error in (
        ((("r", "weird", "t"),), "edge 'r' -'weird'-> 't' can never fire"),
        ((("r", "tool", "t"),), "edge 'r' -'tool'-> 't' can never fire"),
        ((("r", "read", "t"), ("r", "step", "r")), "edge 'r' -'step'-> 'r' can never fire"),
        ((("r", "read", "t"), ("t", "read", "r")), "edge 't' -'read'-> 'r' can never fire"),
        ((), "Read node 'r' has no 'read' edge"),
    ):
        with pytest.raises(FlowGraphError) as refused:
            FlowGraph(entry="r", node_kinds=kinds, edges=edges)
        assert str(refused.value) == error


def test_each_variant_dispatches_from_its_own_kind_along_its_own_label():
    """One node of each kind, each with its own label's edge to its own
    target: an action leaves only the node of its variant's kind, along its
    variant's label, and stutters at the other two."""
    kinds = {"r": NodeKind.READ, "t": NodeKind.TOOL, "s": NodeKind.STEP}
    labels = {"r": "read", "t": "tool", "s": "step"}
    graph = FlowGraph(
        entry="r",
        node_kinds=tuple(kinds.items()) + tuple((f"{n}-{labels[n]}", NodeKind.TERMINAL) for n in kinds),
        edges=tuple((n, labels[n], f"{n}-{labels[n]}") for n in kinds),
    )
    c2 = ImplConstants(SpecConstants("/ws", frozenset({"search"}), 10), graph)
    own = {ReadPathAction("/ws/a"): "r", ToolCallAction("search"): "t", StepAction(): "s"}
    for a, home in own.items():
        for node in kinds:
            s0 = impl_init(c2)._replace(current_node=node)
            event, s2 = only(impl_next(c2, s0, a))
            if node == home:
                assert event.dispatch == (node, labels[node], f"{node}-{labels[node]}")
                assert s2.current_node == f"{node}-{labels[node]}"
            else:
                assert event.effect == NoEffect() and s2 is s0
    s0 = impl_init(c2)
    assert only(impl_next(c2, s0, NoAction())) == (STUTTER, s0)


def test_reaching_the_bound_halts(c):
    """After three effected steps the machine is back at its Read entry,
    at the bound, and stutters on the read it took first."""
    s = impl_init(c)
    script = [ReadPathAction("/ws/x"), ToolCallAction("search"), StepAction()]
    for a in script:
        _, s = only(impl_next(c, s, a))
    assert s.step_count == c.spec.max_steps == 3 and s.current_node == c.graph.entry
    assert only(impl_next(c, s, script[0])) == (STUTTER, s)


# ---------------------------------------------------------------------------
# invariant and safety predicates


def test_inv_rejects_history_count_mismatch(c):
    s = impl_init(c)._replace(step_count=3)
    assert not impl_inv(c, s)  # |history| == 0 != 3


def test_inv_rejects_inconsistent_last_node(c):
    s = impl_init(c)._replace(last_node="scan")
    assert not impl_inv(c, s)  # empty history cannot witness last_node


def test_wf_is_weaker_than_inv(c):
    """G2's stub assumes nothing: it admits junk the invariant rejects."""
    junk = impl_init(c)._replace(step_count=99)
    assert permissive_stub(Bundle()).assume_inv(c, junk) and not impl_inv(c, junk)


def test_safety_rejects_unlisted_tool_record(c):
    s = impl_init(c)._replace(tool_calls=("rm",))
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
    s0, spec = impl_init(c), c.spec
    assert emits(spec, s0, ReadPathAction("/ws/a"), ReadEvent("/ws/a"))
    assert not emits(spec, s0, ReadPathAction("/etc/pw"), ReadEvent("/etc/pw"))
    assert emits(spec, s0, ToolCallAction("search"), ToolEvent("search"))
    assert not emits(spec, s0, ToolCallAction("rm"), ToolEvent("rm"))
    assert emits(spec, s0, StepAction(), StepEvent())
    at_bound = s0._replace(step_count=3)
    assert not emits(spec, at_bound, StepAction(), StepEvent())
    assert emits(spec, at_bound, StepAction(), NoEffect())


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
