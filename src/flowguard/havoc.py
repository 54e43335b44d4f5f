"""Oracle strategies and the live enforcement loop.

The driver plays the role of an arbitrary action source: it can be
scripted, uniformly random, or adversarially biased toward out-of-policy
values. Whatever it chooses, the contained machine emits only events
that the policy machine offers for the chosen action at the pre-state
(``spec_model.emits``); the sweep checks that claim over every action
sequence of a given length. It walks the tree of script prefixes
depth first, one ``for`` over the alphabet per level of the current
prefix and one step call per prefix (n + n^2 + ... + n^d calls for n
actions and depth d), which gives the verdict of replaying every script
from init as long as the step function is deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence

from .actions import (
    Action,
    ImplEvent,
    NoAction,
    NoEffect,
    TupleRecord,
    format_action,
)
from .impl_model import (
    STUTTER,
    ImplConstants,
    ImplState,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from .spec_model import SpecConstants, Step, admits_value, emits

# ---------------------------------------------------------------------------
# Runs as values


class Trace(TupleRecord):
    """The steps of one run, in order."""

    steps: tuple[Step, ...]

    def states(self) -> tuple[ImplState, ...]:
        """Initial state followed by every post-state; empty trace yields ()."""
        if not self.steps:
            return ()
        return (self.steps[0].pre_state,) + tuple(t.post_state for t in self.steps)


# ---------------------------------------------------------------------------
# Strategies: any object with ``choose(i, state) -> Action`` for step i from state


class ScriptedOracle:
    """Plays a fixed script; NoAction once the script is exhausted."""

    def __init__(self, script: Sequence[Action]):
        self.script = tuple(script)

    def choose(self, i: int, state: ImplState) -> Action:
        return self.script[i] if i < len(self.script) else NoAction()


class SeededRandomOracle:
    """Seeded uniform sampler; it imports ``random`` only when built."""

    def __init__(self, seed: int, alphabet: Sequence[Action]):
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        self.alphabet = tuple(alphabet)
        import random
        self._rng = random.Random(seed)

    def choose(self, i: int, state: ImplState) -> Action:
        return self.alphabet[self._rng.randrange(len(self.alphabet))]


ADVERSARIAL_BOOST = 4.0


class AdversarialOracle:
    """Seeded sampler with ``ADVERSARIAL_BOOST`` times the weight on
    statically out-of-policy values, so rejection paths are hit early. It
    imports ``random`` only when built."""

    def __init__(self, seed: int, alphabet: Sequence[Action], constants: SpecConstants):
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        self.alphabet = tuple(alphabet)
        self.weights = tuple(1.0 if admits_value(constants, a) else ADVERSARIAL_BOOST for a in self.alphabet)
        import random
        self._rng = random.Random(seed)

    def choose(self, i: int, state: ImplState) -> Action:
        return self._rng.choices(self.alphabet, weights=self.weights, k=1)[0]


# ---------------------------------------------------------------------------
# Driving and sweeping


class RunRecord(TupleRecord):
    trace: Trace
    emitted_events: tuple[ImplEvent, ...]
    rejected_count: int
    final_state: ImplState


def drive(c: ImplConstants, strategy, steps: int) -> RunRecord:
    """Run the enforcement loop for ``steps`` oracle queries."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    state = impl_init(c)
    recorded: list[Step] = []
    events: list[ImplEvent] = []
    rejected = 0
    for i in range(steps):
        action = strategy.choose(i, state)
        ((event, nxt),) = impl_next(c, state, action)
        if isinstance(event.effect, NoEffect) and not isinstance(action, NoAction):
            rejected += 1
        recorded.append(Step(state, action, event, nxt))
        events.append(event)
        state = nxt
    return RunRecord(Trace(tuple(recorded)), tuple(events), rejected, state)


class SweepViolation(TupleRecord):
    script: tuple[str, ...]  # action literals, verbatim
    step_index: int
    detail: str


class SweepVerdict(TupleRecord):
    passed: bool
    sequences: int
    violation: SweepViolation | None
    visited_states: frozenset[ImplState]


def sweep(
    c: ImplConstants,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_fn=impl_next,
) -> SweepVerdict:
    """Drive every action sequence of length ``depth``; pass iff
    ``spec_model.emits`` admits every emitted event and every visited
    state satisfies both the safety predicate and the inductive invariant.

    The scripts are the leaves of a prefix tree, walked depth first with
    children in alphabet order, so each prefix is stepped once: with n
    actions that is n + n^2 + ... + n^depth step calls. Each level of the
    current prefix is one ``for`` over ``enumerate(alphabet)`` on a stack
    of per-level iterators: a step below the last level pushes the next
    level and leaves the loop with ``break``, and the loop's ``else`` pops
    the level once every action was tried, so a leaf costs one loop turn.
    The event check skips ``STUTTER``, whose ``NoEffect`` is always
    offered, and judges every other event. The state checks judge each
    distinct post-state once, whatever its event. A stutter (``next_fn``
    returns its pre-state object itself) out of a judged state is skipped
    before it is hashed; any other post-state is added to the set of
    judged states, and checked only if the add found it new. Init is
    judged only once it is reached as a post-state. The verdict is the one
    replaying every script from init in ``itertools.product`` order would
    give: ``sequences`` counts the scripts up to and including the first
    violating one, whose reported script is the violating prefix padded
    with ``alphabet[0]``. That equivalence needs a deterministic
    ``next_fn``, and state checks that are functions of the state.

    ``next_fn`` exists so tests can inject a deliberately broken step
    function and watch the sweep catch it; production callers leave it
    alone.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    init = impl_init(c)
    n = len(alphabet)
    if depth == 0 or n == 0:
        return SweepVerdict(True, n**depth, None, frozenset((init,)))
    judged: set[ImplState] = set()  # post-states that passed both state checks
    # stack[k] is the state after the first k actions of the current prefix
    # and the iterator over the actions tried from it; path[k] is the
    # alphabet index of the action taken from stack[k] to stack[k + 1].
    stack = [(init, enumerate(alphabet))]
    path: list[int] = []
    last = depth - 1
    while stack:
        k = len(path)
        state, level = stack[k]
        for i, action in level:
            ((event, nxt),) = next_fn(c, state, action)
            detail = None
            if event is not STUTTER and not emits(c.spec, state, action, event.effect):
                detail = f"out-of-policy event {event.effect!r}"
            elif nxt is not state or k == 0:  # states at k > 0 were judged on their way in
                size = len(judged)
                judged.add(nxt)
                if len(judged) > size:  # the first time nxt is judged
                    if not impl_safety(c, nxt):
                        detail = "safety predicate violated"
                    elif not impl_inv(c, nxt):
                        detail = "inductive invariant violated"
                    if detail is not None:
                        judged.remove(nxt)
            if detail is not None:
                script = path + [i] + [0] * (last - k)
                rank = 0
                for d in script:
                    rank = rank * n + d
                literals = tuple(format_action(alphabet[d]) for d in script)
                violation = SweepViolation(literals, k, detail)
                return SweepVerdict(False, rank + 1, violation, frozenset(judged | {init}))
            if k < last:
                stack.append((nxt, enumerate(alphabet)))
                path.append(i)
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return SweepVerdict(True, n**depth, None, frozenset(judged | {init}))
