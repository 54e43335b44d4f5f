"""Oracle strategies, the enforcement-loop driver, and the exhaustive
sweep."""

import dataclasses
import itertools

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
from flowguard.impl_model import event_in_policy, impl_init, impl_next
from flowguard.spec_model import admits_value


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
    assert len(record.trace) == 0 and record.rejected_count == 0


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
        assert event_in_policy(c, step.pre_state, step.event)


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
    if isinstance(a, ToolCallAction) and not s.halted and s.step_count < c.spec.max_steps:
        widened = dataclasses.replace(
            c, spec=dataclasses.replace(c.spec, allowed_tools=c.spec.allowed_tools | {a.tool})
        )
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
