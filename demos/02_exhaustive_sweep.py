"""Exhaustive havoc sweeping.

Instead of sampling action sequences, enumerate all of them. With the
six-action alphabet and depth 4 that is 6^4 = 1296 sequences; the sweep
drives each one and checks every emitted event against the policy and
every visited state against the safety predicate and the inductive
invariant. Then we hand the sweep a sabotaged step function (allowlist
check skipped) and watch it produce a concrete violating script.
"""

import time
from pathlib import Path

from flowguard import ToolCallAction, load_flow, sweep
from flowguard.impl_model import impl_next

flow = load_flow(Path(__file__).resolve().parent.parent / "flows" / "read_agent.json")
c = flow.impl_constants

started = time.monotonic()
verdict = sweep(c, flow.alphabet, 4)
elapsed = time.monotonic() - started
print(f"swept {verdict.sequences} sequences in {elapsed:.2f}s: "
      f"{'all clean' if verdict.passed else 'VIOLATION'}")
print(f"distinct states visited: {len(verdict.visited_states)}")
print()


def sabotaged_next(c, s, a):
    """impl_next with the tool allowlist effectively disabled."""
    if isinstance(a, ToolCallAction) and s.step_count < c.spec.max_steps:
        widened = c._replace(spec=c.spec._replace(allowed_tools=c.spec.allowed_tools | {a.tool}))
        return impl_next(widened, s, a)
    return impl_next(c, s, a)


broken = sweep(c, flow.alphabet, 3, next_fn=sabotaged_next)
print(f"sweep of the sabotaged machine: {'clean (!!)' if broken.passed else 'violation found'}")
assert broken.violation is not None
print(f"  violating script: {list(broken.violation.script)}")
print(f"  at step {broken.violation.step_index}: {broken.violation.detail}")
