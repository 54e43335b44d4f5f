"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``
or on failure) and enforces its tolerance with plain asserts. Tolerances
are pinned here: the 10-second wall-clock budget for the exhaustive
sweep, exact sequence counts, exact gate pass/fail patterns, exact
conjunct names, and byte-exact replay across 20 seeded runs.
"""

import json
import time

from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoAction,
    ReadPathAction,
    StepAction,
    ToolCallAction,
    ToolEvent,
)
from flowguard.cli import main
from flowguard.gates import (
    SEEDED_ERRORS,
    gate_discrimination,
    gate_vacuity,
    run_gates,
)
from flowguard.havoc import Trace, sweep
from flowguard.impl_model import impl_init
from flowguard.refinement import (
    Bundle,
    CheckRun,
    check_refinement_init,
    check_refinement_next,
    check_soundness,
    reachable_layers,
)
from flowguard.spec_model import Step, spec_next
from conftest import FLOWS
from test_havoc import havoc_traces


def report(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# 1. exhaustive havoc safety


def test_criterion_1_exhaustive_havoc_safety(agent):
    started = time.monotonic()
    verdict = sweep(agent.impl_constants, agent.alphabet, 4)
    elapsed = time.monotonic() - started

    assert verdict.sequences == 1296
    assert verdict.passed, verdict.violation
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget is 10s"
    report(
        f"[PASS] criterion 1: 1296 sequences swept in {elapsed:.2f}s, "
        "zero out-of-policy events, zero safety/invariant violations"
    )


# ---------------------------------------------------------------------------
# 2. refinement discharge


def test_criterion_2_refinement_discharge(agent, rag_barrier, rag_no_barrier):
    counts = {}
    for fx in (agent, rag_barrier, rag_no_barrier):
        c = fx.impl_constants
        assert check_refinement_init(c, Bundle()).passed, fx.provenance

        queried_ids = []

        def spy_next(c, s, a, _seen=queried_ids):
            _seen.append(a)
            return spec_next(c, s, a)

        verdict = check_refinement_next(c, Bundle(next_relation=spy_next), fx.alphabet, 4)
        assert all(o.passed for o in verdict), (fx.provenance, verdict)
        explored = verdict[0].explored_states
        assert explored > 0
        # every abstract query used an identical action value from the alphabet
        assert queried_ids
        assert all(any(q is a for a in fx.alphabet) for q in queried_ids)
        counts[fx.provenance] = (explored, sum(map(len, reachable_layers(c, fx.alphabet, 4)[:4])))

    summary = ", ".join(f"{name}: {e} explored ({r} reachable)" for name, (e, r) in counts.items())
    report(f"[PASS] criterion 2: refinement init+next pass at depth 4 on all shipped flows; {summary}")


# ---------------------------------------------------------------------------
# 3. soundness composition and the failure taxonomy


def test_criterion_3_soundness_composition(agent):
    c = agent.impl_constants
    b = Bundle()

    total = 0
    for depth in range(5):
        for trace in havoc_traces(c, agent.alphabet, depth):
            total += 1
            assert check_soundness(c, b, trace).passed
    assert total == sum(6**d for d in range(5))  # 1555

    # single-field corruptions flip the verdict at the stage that owns them
    read_step = None
    for trace in havoc_traces(c, agent.alphabet, 1):
        if trace.steps[0].event.dispatch is not None:
            read_step = trace.steps[0]
            break
    assert read_step is not None

    def corrupted(field, value):
        bad_post = read_step.post_state._replace(**{field: value})
        return Trace((Step(read_step.pre_state, read_step.action, read_step.event, bad_post),))

    stages = {
        "read_paths": check_soundness(c, b, corrupted("read_paths", ("/etc/pw",))).name,
        "tool_calls": check_soundness(c, b, corrupted("tool_calls", ("rm",))).name,
        "step_count": check_soundness(c, b, corrupted("step_count", 99)).name,
    }
    assert set(stages.values()) == {"concrete_safety"}

    # an event/action pair no abstract step matches fails at the lift stage
    s0 = impl_init(c)
    unmatched = Trace(
        (Step(s0, ToolCallAction("rm"), ImplEvent(ToolEvent("rm"), Dispatch("scan", "tool", "tick")), s0),)
    )
    v1 = check_soundness(c, b, unmatched)
    assert (v1.passed, v1.name) == (False, "trace_lift")

    # under an over-permissive abstract relation the same step lifts but the
    # lifted run is abstractly unsafe
    drop_allowlist = SEEDED_ERRORS["drop-allowlist-guard"](b)
    v2 = check_soundness(c, drop_allowlist, unmatched)
    assert (v2.passed, v2.name) == (False, "abstract_safety")

    report(
        f"[PASS] criterion 3: soundness holds on all {total} traces of length <= 4; "
        "field corruptions fail at concrete_safety, unmatched steps at trace_lift, "
        "over-permissive abstraction at abstract_safety"
    )


# ---------------------------------------------------------------------------
# 4. gate behavior


def test_criterion_4_gate_behavior(agent):
    c = agent.impl_constants
    bundle = Bundle()
    run = CheckRun(c, agent.alphabet, 4)

    g2 = gate_vacuity(run, bundle)
    assert g2.passed, g2

    killed = {}
    for mid in SEEDED_ERRORS:
        result = gate_discrimination(run, SEEDED_ERRORS[mid](bundle))
        assert result is not None, mid
        killed[mid] = result.name
    assert len(killed) == 4

    assert gate_discrimination(run, bundle) is None

    floor = gate_vacuity(CheckRun(c, agent.alphabet, 0), bundle)
    assert not floor.passed and "configuration floor" in floor.detail

    report(
        "[PASS] criterion 4: stub fails refinement (G2 passes); "
        f"all shipped mutants killed ({killed}); the unedited bundle survives; depth-0 G2 hits the floor"
    )


# ---------------------------------------------------------------------------
# 5. the fitness separation


def test_criterion_5_fitness_separation(rag_barrier_flow_text, rag_no_barrier_flow_text):
    no_barrier = run_gates(rag_no_barrier_flow_text, 4)
    assert no_barrier.g1.passed and no_barrier.g2.passed and no_barrier.g3.passed
    assert no_barrier.failing_gates() == ("fitness",)
    assert [cf.name for cf in no_barrier.fitness if cf.status == "VACUOUS"] == ["ToolAllowlisted"]

    barrier = run_gates(rag_barrier_flow_text, 4)
    assert barrier.passed

    report(
        "[PASS] criterion 5: no-barrier mode passes G1-G3 and fails fitness with exactly "
        "ToolAllowlisted VACUOUS; barrier mode passes all four"
    )


# ---------------------------------------------------------------------------
# 6. rejection semantics


MIXED_SCRIPT = [
    ReadPathAction("/ws/a.txt"),
    ReadPathAction("/etc/pw"),
    NoAction(),
    ToolCallAction("search"),
    ToolCallAction("rm"),
    StepAction(),
]


def _independent_projection(script):
    """A filter over the script written without the library's machinery:
    its own policy judgment, its own dispatch table, its own capacity
    accounting. Produces the expected non-stutter event literals."""
    root, allowed, max_steps = "/ws", {"search"}, 3
    kinds = {"scan": "read", "search": "tool", "tick": "step"}
    edges = {("scan", "read"): "search", ("search", "tool"): "tick", ("tick", "step"): "scan"}
    node, used = "scan", 0
    expected = []
    for a in script:
        if used >= max_steps:
            continue
        if isinstance(a, ReadPathAction) and a.path.startswith(root + "/") and kinds[node] == "read":
            nxt = edges[(node, "read")]
            expected.append(f"ReadEvent({a.path})[{node}-read->{nxt}]")
        elif isinstance(a, ToolCallAction) and a.tool in allowed and kinds[node] == "tool":
            nxt = edges[(node, "tool")]
            expected.append(f"ToolEvent({a.tool})[{node}-tool->{nxt}]")
        elif isinstance(a, StepAction) and kinds[node] == "step":
            nxt = edges[(node, "step")]
            expected.append(f"StepEvent[{node}-step->{nxt}]")
        else:
            continue
        node, used = nxt, used + 1
    return expected


def _out_of_policy_count(script):
    root, allowed = "/ws", {"search"}
    count = 0
    for a in script:
        if isinstance(a, ReadPathAction) and not a.path.startswith(root + "/"):
            count += 1
        elif isinstance(a, ToolCallAction) and a.tool not in allowed:
            count += 1
    return count


def test_criterion_6_rejection_semantics(tmp_path):
    flow_path = FLOWS / "read_agent.json"
    log_path = tmp_path / "mixed.log"

    literals = ";".join(
        {
            ReadPathAction: lambda a: f"ReadPathAction({a.path})",
            ToolCallAction: lambda a: f"ToolCallAction({a.tool})",
            NoAction: lambda a: "NoAction",
            StepAction: lambda a: "StepAction",
        }[type(a)](a)
        for a in MIXED_SCRIPT
    )
    code = main(
        ["run", "--flow", str(flow_path), "--strategy", f"scripted:{literals}",
         "--steps", str(len(MIXED_SCRIPT)), "--out", str(log_path)]
    )
    assert code == 0

    rows = [json.loads(ln) for ln in log_path.read_text().splitlines()[1:]]
    emitted = [r["event"] for r in rows if r["event"] != "NoEffect"]
    rejected = sum(1 for r in rows if r["event"] == "NoEffect" and r["action"] != "NoAction")

    expected = _independent_projection(MIXED_SCRIPT)
    assert emitted == expected, (emitted, expected)
    assert rejected == _out_of_policy_count(MIXED_SCRIPT) == 2

    report(
        f"[PASS] criterion 6: rejected_count == {rejected} out-of-policy actions; "
        f"emitted events equal the independent projection ({len(expected)} events)"
    )


# ---------------------------------------------------------------------------
# 7. replay integrity


def test_criterion_7_replay_integrity(tmp_path):
    flow_path = FLOWS / "read_agent.json"
    for seed in range(20):
        log_path = tmp_path / f"run_{seed}.log"
        assert (
            main(
                ["run", "--flow", str(flow_path), "--strategy", "random",
                 "--seed", str(seed), "--steps", "12", "--out", str(log_path)]
            )
            == 0
        )
        assert main(["replay", "--flow", str(flow_path), str(log_path)]) == 0
    report("[PASS] criterion 7: 20 seeded runs replay byte-exactly")
