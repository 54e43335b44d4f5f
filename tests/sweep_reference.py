"""Reference copy of the havoc sweep as it stood before the prefix-tree
walk: every script of the given length replayed from init, in
``itertools.product`` order, each event judged by the hand-written rule
of policy_reference.py. The differential tests in test_sweep.py check
``flowguard.havoc.sweep`` against it. Nothing in the library imports this
module.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from flowguard.actions import Action, format_action
from flowguard.havoc import SweepVerdict, SweepViolation
from flowguard.impl_model import ImplConstants, ImplState, impl_init, impl_inv, impl_next, impl_safety
from policy_reference import emits


def sweep(
    c: ImplConstants,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_fn=impl_next,
) -> SweepVerdict:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    init = impl_init(c)
    visited: set[ImplState] = {init}
    sequences = 0

    def complain(script: Sequence[Action], i: int, detail: str) -> SweepVerdict:
        literals = tuple(format_action(a) for a in script)
        return SweepVerdict(False, sequences, SweepViolation(literals, i, detail), frozenset(visited))

    for script in itertools.product(alphabet, repeat=depth):
        sequences += 1
        state = init
        for i, action in enumerate(script):
            ((event, nxt),) = next_fn(c, state, action)
            if not emits(c.spec, state, action, event.effect):
                return complain(script, i, f"out-of-policy event {event.effect!r}")
            if not impl_safety(c, nxt):
                return complain(script, i, "safety predicate violated")
            if not impl_inv(c, nxt):
                return complain(script, i, "inductive invariant violated")
            visited.add(nxt)
            state = nxt
    return SweepVerdict(True, sequences, None, frozenset(visited))
