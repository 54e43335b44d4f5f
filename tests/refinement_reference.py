"""Reference copies of abstract safety preservation and the refinement
step check as they stood before they learned to skip work whose verdict
is already known: ``check_safety_preserved`` judges every successor, seen
or not, and ``check_refinement_next`` judges every step's post-state,
stutter or not. Each runs a plain breadth-first search of its own, not the
library's ``explore``, so that a fault there shows on one side of the
differential tests in test_shared_checks.py only. Nothing in the library
imports this module.
"""

from __future__ import annotations

from flowguard.actions import Action, format_action, format_boundary_event
from flowguard.impl_model import ImplConstants, ImplState, impl_init, impl_next, impl_safety
from flowguard.refinement import Bundle, InvPredicate, perturbations
from flowguard.spec_model import (
    Obligation,
    SpecConstants,
    SpecState,
    Step,
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
) -> Obligation:
    """Inductive step of abstract safety, checked exhaustively: every
    successor of every safe state reachable within ``depth`` is safe.

    States at distance < depth are expanded; the first violating
    (state, action, event, post_state) step in BFS order is reported.
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
                        detail = f"unsafe successor via {format_action(a)} emitting {format_boundary_event(e)}"
                        return Obligation("safety_preserved", False, detail, explored, Step(s, a, e, s2))
                    if s2 not in seen:
                        seen.add(s2)
                        nxt_frontier.append(s2)
        frontier = nxt_frontier
        if not frontier:
            break
    return Obligation("safety_preserved", True, explored_states=explored)


def check_refinement_next(
    c: ImplConstants,
    b: Bundle,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_relation=spec_next,
    safety=spec_safety,
    assume_inv: InvPredicate | None = None,
) -> tuple[Obligation, ...]:
    """Step obligations over every admitted state and every alphabet
    action: inv_inductive, r2_step_simulation and r3_safety_transport.

    ``assume_inv`` filters the states obligations are checked from; it
    defaults to the bundle's invariant. The invariant obligation on the
    post-state always uses the bundle's declared invariant, so assuming a
    weaker predicate than the declared one must fail unless the declared
    invariant demanded nothing.
    """
    assume = assume_inv if assume_inv is not None else b.inv
    ca = c.spec

    # Every state reachable in fewer than ``depth`` steps, in BFS order.
    bases: list[ImplState] = []
    frontier: list[ImplState] = [impl_init(c)]
    seen_reachable: set[ImplState] = set(frontier)
    for _layer in range(depth):
        bases += frontier
        nxt_frontier: list[ImplState] = []
        for s in frontier:
            for a in alphabet:
                for _e, s2 in impl_next(c, s, a):
                    if s2 not in seen_reachable:
                        seen_reachable.add(s2)
                        nxt_frontier.append(s2)
        frontier = nxt_frontier

    nodes = {n for n, _ in c.graph.node_kinds}
    explored: list[ImplState] = []
    seen: set[ImplState] = set()
    for base in bases:
        for candidate in (base,) + perturbations(c, base, alphabet):
            if candidate in seen:
                continue
            seen.add(candidate)
            if candidate.current_node in nodes and assume(c, candidate):
                explored.append(candidate)

    inv_ok, r2_ok, r3_ok = True, True, True
    inv_cx: Step | None = None
    r2_cx: Step | None = None
    r3_cx: Step | None = None

    for s in explored:
        abs_pre = b.variables_abs(s)
        for a in alphabet:
            for e, s2 in impl_next(c, s, a):
                if inv_ok and not b.inv(c, s2):
                    inv_ok = False
                    inv_cx = Step(s, a, e, s2)
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
                        r3_cx = Step(s, a, e, s2)
                elif r2_ok:
                    r2_ok = False
                    r2_cx = Step(s, a, e, s2)
        if not (inv_ok or r2_ok or r3_ok):
            break

    def obligation(name: str, cx: Step | None, failure: str) -> Obligation:
        detail = f"{failure}; action {format_action(cx.action)}" if cx else ""
        return Obligation(name, cx is None, detail, len(explored), cx)

    return (
        obligation("inv_inductive", inv_cx, "declared invariant not re-established"),
        obligation("r2_step_simulation", r2_cx, "no abstract step matches the abstracted event and post-state"),
        obligation(
            "r3_safety_transport", r3_cx, "abstract safety holds at the matched post-state but concrete safety fails"
        ),
    )
