"""Refinement: tying the dispatch machine to the policy machine.

The abstract policy machine knows nothing about nodes, edges, or history;
it tracks only the four boundary variables. The refinement check explores
the concrete machine (reachable states plus deliberate junk-state
perturbations admitted by the invariant) and verifies three things per
step: the declared invariant is re-established, an abstract step with the
identical action matches the abstracted event and post-state, and
abstract safety transports to concrete safety.

Once refinement holds at depth d, every concrete trace of length <= d
passes the three-stage trace soundness check. The machine is
deterministic, so driving every script of length <= 3 yields every such
trace; we check each one, then corrupt a trace and see the checker name
the stage that breaks.
"""

import dataclasses
import itertools

from flowguard import (
    ScriptedOracle,
    Trace,
    check_refinement_init,
    check_refinement_next,
    check_soundness,
    default_bundle,
    drive,
    read_agent,
)
from flowguard.havoc import TraceStep

fixture = read_agent()
c = fixture.constants

verdict = check_refinement_next(c, default_bundle(), fixture.alphabet, 4)
print("refinement at depth 4:")
print(f"  init matching (R1):    {'pass' if check_refinement_init(c, default_bundle()).passed else 'FAIL'}")
print(f"  invariant obligation:  {'pass' if verdict.inv_inductive else 'FAIL'}")
print(f"  step simulation (R2):  {'pass' if verdict.r2 else 'FAIL'}")
print(f"  safety transport (R3): {'pass' if verdict.r3 else 'FAIL'}")
print(f"  states: {verdict.reachable_states} reachable, {verdict.explored_states} explored with perturbations")
print()

traces = [
    drive(c, ScriptedOracle(script), d).trace
    for d in range(4)
    for script in itertools.product(fixture.alphabet, repeat=d)
]
assert all(check_soundness(c, default_bundle(), t).passed for t in traces)
print(f"trace soundness holds on all {len(traces)} traces of length <= 3")
print()

# now corrupt one recorded state and watch the checker localize it
sample = next(t for t in traces if len(t) == 1 and t.steps[0].event.dispatch is not None)
step = sample.steps[0]
bad_post = dataclasses.replace(step.post_state, read_paths=("/etc/shadow",))
corrupted = Trace((TraceStep(step.pre_state, step.action, step.event, bad_post),))
v = check_soundness(c, default_bundle(), corrupted)
print(f"corrupted trace: passed={v.passed}, stage={v.stage}, detail={v.detail!r}")
