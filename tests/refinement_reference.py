"""Reference copies of abstract safety preservation and the refinement
step check as they stood before they learned to skip work whose verdict
is already known: ``check_safety_preserved`` judges every successor, seen
or not, and ``check_refinement_next`` judges every step's post-state,
stutter or not. The differential tests in test_lazy_checks.py check the
library's checkers against them. Nothing in the library imports this
module.
"""

from __future__ import annotations

from flowguard.actions import Action
from flowguard.impl_model import ImplConstants, ImplState, impl_next, impl_safety, impl_wf
from flowguard.refinement import (
    Bundle,
    InvPredicate,
    RefinementVerdict,
    StepCounterexample,
    perturbations,
    reachable_layers,
)
from flowguard.spec_model import (
    PreservationCounterexample,
    PreservationVerdict,
    SpecConstants,
    SpecState,
    spec_init,
    spec_next,
    spec_safety,
)


def check_safety_preserved(
    c: SpecConstants,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_relation=spec_next,
    safety=spec_safety,
) -> PreservationVerdict:
    """Inductive step of abstract safety, checked exhaustively: every
    successor of every safe state reachable within ``depth`` is safe.

    States at distance < depth are expanded; the first violating
    (state, action, event, post_state) quadruple in BFS order is reported.
    """
    init = spec_init(c)
    frontier: list[SpecState] = [init] if safety(c, init) else []
    seen: set[SpecState] = set(frontier)
    explored = 0
    for _layer in range(depth):
        nxt_frontier: list[SpecState] = []
        for s in frontier:
            explored += 1
            for a in alphabet:
                for e, s2 in next_relation(c, s, a):
                    if not safety(c, s2):
                        return PreservationVerdict(
                            False, explored, PreservationCounterexample(s, a, e, s2)
                        )
                    if s2 not in seen:
                        seen.add(s2)
                        nxt_frontier.append(s2)
        frontier = nxt_frontier
        if not frontier:
            break
    return PreservationVerdict(True, explored)


def check_refinement_next(
    c: ImplConstants,
    b: Bundle,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_relation=spec_next,
    safety=spec_safety,
    assume_inv: InvPredicate | None = None,
) -> RefinementVerdict:
    """Step obligations over every admitted state and every alphabet action.

    ``assume_inv`` filters the states obligations are checked from; it
    defaults to the bundle's invariant. The invariant obligation on the
    post-state always uses the bundle's declared invariant, so assuming a
    weaker predicate than the declared one must fail unless the declared
    invariant demanded nothing.
    """
    assume = assume_inv if assume_inv is not None else b.inv
    ca = c.spec

    layers = reachable_layers(c, alphabet, depth)
    bases: list[ImplState] = [s for layer in layers[:depth] for s in layer]
    reachable_count = len(bases)

    explored: list[ImplState] = []
    seen: set[ImplState] = set()
    for base in bases:
        for candidate in (base,) + perturbations(c, base, alphabet):
            if candidate in seen:
                continue
            seen.add(candidate)
            if impl_wf(c, candidate) and assume(c, candidate):
                explored.append(candidate)

    inv_ok, r2_ok, r3_ok = True, True, True
    inv_cx: StepCounterexample | None = None
    r2_cx: StepCounterexample | None = None
    r3_cx: StepCounterexample | None = None

    for s in explored:
        abs_pre = b.variables_abs(s)
        for a in alphabet:
            for e, s2 in impl_next(c, s, a):
                if inv_ok and not b.inv(c, s2):
                    inv_ok = False
                    inv_cx = StepCounterexample(s, a, e, s2, "declared invariant not re-established")
                # The matched abstract step must use the identical action
                # value the concrete step consumed; never a canonicalized
                # or re-parsed stand-in.
                query_action = a
                abs_succs = next_relation(ca, abs_pre, query_action)
                assert query_action == a
                wanted = (b.event_abs(e), b.variables_abs(s2))
                if wanted in abs_succs:
                    if r3_ok and safety(ca, wanted[1]) and not impl_safety(c, s2):
                        r3_ok = False
                        r3_cx = StepCounterexample(
                            s, a, e, s2, "abstract safety holds at the matched post-state but concrete safety fails"
                        )
                elif r2_ok:
                    r2_ok = False
                    r2_cx = StepCounterexample(
                        s, a, e, s2, "no abstract step matches the abstracted event and post-state"
                    )
        if not (inv_ok or r2_ok or r3_ok):
            break

    return RefinementVerdict(
        r2=r2_ok,
        r3=r3_ok,
        inv_inductive=inv_ok,
        explored_states=len(explored),
        reachable_states=reachable_count,
        depth=depth,
        r2_counterexample=r2_cx,
        r3_counterexample=r3_cx,
        inv_counterexample=inv_cx,
    )
