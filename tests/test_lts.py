"""The contained machine as a labelled transition system: ``impl_next`` as
its step relation and ``drive`` as its oracle-driven run."""

from flowguard.actions import NoAction, NoEffect, ReadPathAction, StepAction, StepEvent
from flowguard.fixtures import rag_flow
from flowguard.havoc import HistoryEntry, ScriptedOracle, SeededRandomOracle, drive
from flowguard.impl_model import FlowGraph, ImplConstants, NodeKind, impl_init, impl_inv, impl_next, impl_safety
from flowguard.spec_model import SpecConstants
from test_havoc import assert_machine_trace, havoc_traces


def test_step_on_machine_with_step_entry():
    # the rag flow enters at a Step node: a fresh StepAction dispatches
    c = rag_flow(barrier=True).constants
    init = impl_init(c)
    ((event, nxt),) = impl_next(c, init, StepAction())
    assert event.effect == StepEvent()
    assert nxt.step_count == init.step_count + 1


def test_step_relation_at_the_bound_is_a_stutter():
    # a one-node ticker with max_steps=2: at the boundary state the only
    # successor is the stutter
    c = ImplConstants(
        SpecConstants("/ws", frozenset(), 2),
        FlowGraph(entry="tick", node_kinds=(("tick", NodeKind.STEP),), edges=(("tick", "step", "tick"),)),
    )
    state = impl_init(c)
    for _ in range(2):  # consume the whole budget
        ((_, state),) = impl_next(c, state, StepAction())
    assert state.step_count == 2
    succs = impl_next(c, state, StepAction())
    assert len(succs) == 1 and succs[0][0].effect == NoEffect()


def test_every_enumerated_trace_chains(agent):
    for trace in havoc_traces(agent.constants, agent.alphabet, 3):
        assert_machine_trace(agent.constants, trace)


def test_impl_enumeration_stays_safe(agent):
    # the exhaustive run is the oracle: every state reached in 3 steps
    # satisfies the concrete safety predicate
    for trace in havoc_traces(agent.constants, agent.alphabet, 3):
        for state in trace.states():
            assert impl_safety(agent.constants, state)
            assert impl_inv(agent.constants, state)


def test_oracle_history_is_nonempty_and_grows(agent):
    seen_lengths = []

    class Probe:
        def choose(self, history):
            assert len(history) >= 1
            assert isinstance(history[-1], HistoryEntry)
            assert history[-1].action is None and history[-1].event is None
            seen_lengths.append(len(history))
            return NoAction()

    drive(agent.constants, Probe(), 3)
    assert seen_lengths == [1, 2, 3]


def test_rejected_out_of_root_read_is_noeffect(agent):
    trace = drive(agent.constants, ScriptedOracle([ReadPathAction("/etc/pw")]), 1).trace
    event = trace.steps[0].event
    assert event.dispatch is None  # stutter
    assert trace.steps[0].post_state == trace.steps[0].pre_state


def test_havoc_coverage_membership(agent):
    # any oracle-driven run of length d is in the depth-d havoc set
    traces = set(havoc_traces(agent.constants, agent.alphabet, 3))
    for seed in range(5):
        assert drive(agent.constants, SeededRandomOracle(seed, agent.alphabet), 3).trace in traces
