"""Oracle strategies, the enforcement-loop driver, the contained machine
as a labelled transition system (``impl_next`` as its step relation and
``drive`` as its oracle-driven run), and the exhaustive sweep."""

import itertools

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
from flowguard.havoc import (
    AdversarialOracle,
    ScriptedOracle,
    SeededRandomOracle,
    drive,
    sweep,
)
from flowguard.impl_model import (
    FlowGraph,
    ImplConstants,
    NodeKind,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from flowguard.spec_model import SpecConstants, admits_value, emits


def havoc_traces(c, alphabet, depth):
    """Every trace of length ``depth``: one driven run per script, in
    ``itertools.product`` order. ``impl_next`` is deterministic, so the
    scripts give every trace of the machine exactly once."""
    return [drive(c, ScriptedOracle(script), depth).trace for script in itertools.product(alphabet, repeat=depth)]


def assert_machine_trace(c, trace):
    """The trace starts at init, chains, and every step is the one
    ``impl_next`` takes."""
    state = impl_init(c)
    for t in trace.steps:
        assert t.pre_state == state
        assert impl_next(c, t.pre_state, t.action) == ((t.event, t.post_state),)
        state = t.post_state


def test_scripted_mixed_actions(agent):
    script = [ReadPathAction("/ws/a"), ReadPathAction("/etc/pw"), ToolCallAction("search")]
    record = drive(agent.impl_constants, ScriptedOracle(script), 3)
    effects = [e.effect for e in record.emitted_events]
    assert effects.count(ReadEvent("/ws/a")) == 1
    assert effects.count(ToolEvent("search")) == 1
    assert effects[1] == NoEffect()  # the out-of-root read
    assert record.rejected_count == 1


def test_zero_steps_is_empty(agent):
    record = drive(agent.impl_constants, ScriptedOracle([]), 0)
    assert len(record.trace.steps) == 0 and record.rejected_count == 0


def test_drive_and_the_drawing_oracles_refuse_what_they_cannot_run(agent):
    with pytest.raises(ValueError, match="^steps must be >= 0$"):
        drive(agent.impl_constants, ScriptedOracle([]), -1)
    with pytest.raises(ValueError, match="^alphabet must be nonempty$"):
        SeededRandomOracle(0, ())
    with pytest.raises(ValueError, match="^alphabet must be nonempty$"):
        AdversarialOracle(0, (), agent.constants)


def test_two_scripted_steps_on_a_step_entry_machine(rag_no_barrier):
    # plan and fetch are both Step nodes
    record = drive(rag_no_barrier.impl_constants, ScriptedOracle([StepAction(), StepAction()]), 2)
    assert [e.effect for e in record.emitted_events] == [StepEvent(), StepEvent()]


def test_script_exhaustion_pads_with_noaction(agent):
    record = drive(agent.impl_constants, ScriptedOracle([StepAction()]), 4)
    # the padded NoActions stutter but are not counted as rejections
    assert record.rejected_count == 1  # only the kind-mismatched StepAction
    assert all(isinstance(e.effect, NoEffect) for e in record.emitted_events)


def test_drive_trace_validates(agent):
    record = drive(agent.impl_constants, SeededRandomOracle(5, agent.alphabet), 12)
    assert_machine_trace(agent.impl_constants, record.trace)


def test_rejected_count_matches_its_definition(agent):
    record = drive(agent.impl_constants, SeededRandomOracle(9, agent.alphabet), 30)
    recount = sum(
        1
        for step in record.trace.steps
        if isinstance(step.event.effect, NoEffect) and not isinstance(step.action, NoAction)
    )
    assert record.rejected_count == recount


def test_adversarial_run_emits_nothing_out_of_policy(agent):
    c = agent.impl_constants
    record = drive(c, AdversarialOracle(7, agent.alphabet, agent.constants), 100)
    for step in record.trace.steps:
        assert emits(c.spec, step.pre_state, step.action, step.event.effect)


def test_adversarial_weights_prefer_out_of_policy_actions(agent):
    oracle = AdversarialOracle(0, agent.alphabet, agent.constants)
    by_action = dict(zip(agent.alphabet, oracle.weights))
    assert by_action[ReadPathAction("/etc/pw")] == 4.0
    assert by_action[ToolCallAction("rm")] == 4.0
    assert by_action[ReadPathAction("/ws/x")] == 1.0
    assert by_action[NoAction()] == 1.0


def test_static_policy_judgment(agent):
    spec = agent.constants
    assert not admits_value(spec, ReadPathAction("/etc/pw"))
    assert admits_value(spec, ReadPathAction("/ws/x"))
    assert not admits_value(spec, ToolCallAction("rm"))
    assert admits_value(spec, StepAction())


# ---------------------------------------------------------------------------
# the step relation and its runs


def test_step_on_machine_with_step_entry(rag_barrier):
    # the rag flow enters at a Step node: a fresh StepAction dispatches
    c = rag_barrier.impl_constants
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
    for trace in havoc_traces(agent.impl_constants, agent.alphabet, 3):
        assert_machine_trace(agent.impl_constants, trace)


def test_impl_enumeration_stays_safe(agent):
    # the exhaustive run is the oracle: every state reached in 3 steps
    # satisfies the concrete safety predicate
    c = agent.impl_constants
    for trace in havoc_traces(c, agent.alphabet, 3):
        for state in trace.states():
            assert impl_safety(c, state)
            assert impl_inv(c, state)


def test_strategy_sees_each_step_index_and_its_pre_state(agent):
    seen = []

    class Probe:
        def choose(self, i, state):
            seen.append((i, state))
            return ReadPathAction("/ws/x") if i == 0 else NoAction()

    record = drive(agent.impl_constants, Probe(), 3)
    assert [i for i, _ in seen] == [0, 1, 2]
    assert all(state is step.pre_state for (_, state), step in zip(seen, record.trace.steps))
    assert seen[1][1] is not seen[0][1]  # the read was effected


def test_rejected_out_of_root_read_is_noeffect(agent):
    trace = drive(agent.impl_constants, ScriptedOracle([ReadPathAction("/etc/pw")]), 1).trace
    event = trace.steps[0].event
    assert event.dispatch is None  # stutter
    assert trace.steps[0].post_state == trace.steps[0].pre_state


def test_havoc_coverage_membership(agent):
    # any oracle-driven run of length d is in the depth-d havoc set
    traces = set(havoc_traces(agent.impl_constants, agent.alphabet, 3))
    for seed in range(5):
        assert drive(agent.impl_constants, SeededRandomOracle(seed, agent.alphabet), 3).trace in traces


# ---------------------------------------------------------------------------
# sweep


def test_sweep_passes_and_counts_sequences(agent):
    verdict = sweep(agent.impl_constants, agent.alphabet, 3)
    assert verdict.passed
    assert verdict.sequences == 6**3


def test_sweep_depth_zero(agent):
    verdict = sweep(agent.impl_constants, agent.alphabet, 0)
    assert verdict.passed and verdict.sequences == 1


def broken_next(c, s, a):
    """``impl_next`` with the allowlist check skipped."""
    if isinstance(a, ToolCallAction) and s.step_count < c.spec.max_steps:
        widened = c._replace(spec=c.spec._replace(allowed_tools=c.spec.allowed_tools | {a.tool}))
        return impl_next(widened, s, a)
    return impl_next(c, s, a)


def test_sweep_catches_a_machine_with_the_guard_removed(agent):
    """Inject a broken step function (allowlist check skipped) and the
    sweep must report the violating sequence verbatim."""
    verdict = sweep(agent.impl_constants, agent.alphabet, 3, next_fn=broken_next)
    assert not verdict.passed
    assert verdict.violation is not None
    assert any("ToolCallAction(rm)" in lit for lit in verdict.violation.script)


def test_sweep_visits_a_superset_of_any_strategy(agent):
    """Oracle independence: everything a single strategy can reach in at
    most d steps, the depth-d sweep has already visited."""
    verdict = sweep(agent.impl_constants, agent.alphabet, 4)
    for seed in range(5):
        record = drive(agent.impl_constants, SeededRandomOracle(seed, agent.alphabet), 4)
        for step in record.trace.steps:
            assert step.post_state in verdict.visited_states
    adv = drive(agent.impl_constants, AdversarialOracle(3, agent.alphabet, agent.constants), 4)
    for step in adv.trace.steps:
        assert step.post_state in verdict.visited_states


def test_adversarial_draws_are_those_of_choices_with_weights(agent):
    """The oracle sums its cumulative weights once; its draws are still
    those of ``Random(seed).choices(alphabet, weights=...)``, bit for bit."""
    import random

    oracle = AdversarialOracle(11, agent.alphabet, agent.constants)
    expected = random.Random(11).choices(agent.alphabet, weights=oracle.weights, k=1000)
    assert [oracle.choose(i, None) for i in range(1000)] == expected
