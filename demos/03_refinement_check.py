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

import itertools
from pathlib import Path

from flowguard import (
    Bundle,
    ScriptedOracle,
    Step,
    Trace,
    check_refinement_init,
    check_refinement_next,
    check_soundness,
    drive,
    load_flow,
)

flow = load_flow(Path(__file__).resolve().parent.parent / "flows" / "read_agent.json")
c = flow.impl_constants
bundle = Bundle()  # the shipped abstraction, relation, safety predicate and invariant

LABELS = {
    "refinement_init": "init matching (R1)",
    "inv_inductive": "invariant obligation",
    "r2_step_simulation": "step simulation (R2)",
    "r3_safety_transport": "safety transport (R3)",
}
step_obligations = check_refinement_next(c, bundle, flow.alphabet, 4)
print("refinement at depth 4:")
for o in (check_refinement_init(c, bundle), *step_obligations):
    print(f"  {LABELS[o.name] + ':':<22} {'pass' if o.passed else 'FAIL ' + o.detail}")
print(f"  states: {step_obligations[0].explored_states} explored (reachable ones and their perturbations)")
print()

traces = [
    drive(c, ScriptedOracle(script), d).trace
    for d in range(4)
    for script in itertools.product(flow.alphabet, repeat=d)
]
assert all(check_soundness(c, bundle, t).passed for t in traces)
print(f"trace soundness holds on all {len(traces)} traces of length <= 3")
print()

# now corrupt one recorded state and watch the checker localize it
sample = next(t for t in traces if len(t.steps) == 1 and t.steps[0].event.dispatch is not None)
step = sample.steps[0]
bad_post = step.post_state._replace(read_paths=("/etc/shadow",))
corrupted = Trace((Step(step.pre_state, step.action, step.event, bad_post),))
v = check_soundness(c, bundle, corrupted)
print(f"corrupted trace: passed={v.passed}, stage={v.name}, detail={v.detail!r}")
