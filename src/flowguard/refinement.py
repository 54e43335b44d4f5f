"""Executable forward-simulation refinement between the concrete dispatch
machine and the abstract policy machine.

The simulation relation is the graph of an abstraction function over
states (erase history and node bookkeeping, keep the four boundary
fields), and the event relation is the graph of an abstraction function
over events (drop the dispatch annotation). Both functions, the abstract
relation and safety predicate, and the invariants form one ``Bundle``,
which every check reads and every seeded error edits; the abstract
constants are ``c.spec``. Three obligations are discharged by bounded
exhaustive checking:

  * initial-state matching plus the invariant at init,
  * step simulation: every concrete step from an admitted state is matched
    by an abstract step with the identical action, the abstracted event,
    and the abstracted post-state, while the declared invariant is
    re-established, and
  * safety transport: abstract safety at the matched post-state implies
    concrete safety.

Admitted states are the reachable states within the depth bound plus a
fixed library of structured perturbations of them, filtered by the
assumed invariant. The perturbations stand in for the universal state
quantification of a deductive proof: they exhibit exactly the junk states
a weakened invariant would be forced to handle. With the full invariant
assumed, every perturbed state it admits still discharges all
obligations, so the extra states never cause spurious failures.

Each step obligation (the invariant, step simulation, safety transport)
is its own search for a first counterexample over the admitted states, in
that order, run only when a caller asks for it: ``check_refinement_next``
asks for all three, and a gate stops asking at the first failure.

A trace-level soundness check composes the same ingredients in three
stages: lift the concrete trace to an abstract run by replaying actions
and abstracted events from the abstract initial state, check abstract
safety pointwise along the lifted run, then check the concrete safety
conjuncts on the concrete states. The stage that fails is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from .actions import Action, BoundaryEvent, ImplEvent, NoAction
from .havoc import Trace
from .impl_model import (
    NO_NODE,
    ImplConstants,
    ImplState,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
    impl_wf,
)
from .spec_model import (
    SEQUENCE_CONJUNCTS,
    SpecConstants,
    SpecState,
    spec_init,
    spec_next,
    spec_safety,
    violated,
)

VariablesAbs = Callable[[ImplState], SpecState]
EventAbs = Callable[[ImplEvent], BoundaryEvent]
InvPredicate = Callable[[ImplConstants, ImplState], bool]


def project_variables(s: ImplState) -> SpecState:
    return SpecState(
        read_paths=s.read_paths,
        tool_calls=s.tool_calls,
        step_count=s.step_count,
        halted=s.halted,
    )


def project_event(e: ImplEvent) -> BoundaryEvent:
    return e.effect


@dataclass(frozen=True)
class Bundle:
    """Everything a check treats as untrusted and a seeded error may edit:
    the abstract relation and safety predicate, the abstraction functions
    inducing the state and event relations, the declared invariant the
    step obligation re-establishes, and the invariant assumed when the
    obligation states are selected (None: assume ``inv``). ``Bundle()`` is
    the shipped bundle. The abstract constants are always ``c.spec``.

    Each default is this module's binding of the shipped function, read
    when a bundle is built rather than when the class is defined, so a
    function rebound at module level (as the benchmark's tracer does)
    serves every bundle built after."""

    next_relation: Callable[[SpecConstants, SpecState, Action], tuple] = field(default_factory=lambda: spec_next)
    safety: Callable[[SpecConstants, SpecState], bool] = field(default_factory=lambda: spec_safety)
    variables_abs: VariablesAbs = field(default_factory=lambda: project_variables)
    event_abs: EventAbs = field(default_factory=lambda: project_event)
    inv: InvPredicate = field(default_factory=lambda: impl_inv)
    assume_inv: InvPredicate | None = None


# ---------------------------------------------------------------------------
# Exploration: reachable states plus structured perturbations


# Out-of-policy values tried when the alphabet offers none, per policed field.
_FALLBACK_JUNK: dict[str, tuple[str, ...]] = {"tool_calls": ("__unlisted__",)}


def perturbations(c: ImplConstants, s: ImplState, alphabet: tuple[Action, ...]) -> tuple[ImplState, ...]:
    """Deterministic junk-state library around a reachable state.

    Each edit targets one invariant clause or one safety conjunct; all
    results stay well-formed (current_node untouched except by the node
    moves, which stay inside the graph). A sequence conjunct's edit appends
    the first value of the alphabet its guard rejects, or its fallback
    junk value when the alphabet has none.
    """
    out: list[ImplState] = []
    if s.history:
        out.append(replace(s, history=s.history[:-1]))
        out.append(replace(s, history=s.history + s.history[-1:]))
    out.append(replace(s, step_count=s.step_count + 1))
    if s.step_count > 0:
        out.append(replace(s, step_count=s.step_count - 1))
    out.append(replace(s, halted=not s.halted))

    for k in SEQUENCE_CONJUNCTS:
        values = [getattr(a, k.arg) for a in alphabet if isinstance(a, k.action)]
        values += _FALLBACK_JUNK.get(k.field, ())
        junk = next((v for v in values if not k.guard(c.spec, v)), None)
        if junk is not None:
            out.append(replace(s, **{k.field: getattr(s, k.field) + (junk,)}))

    if s.last_node is not NO_NODE:
        out.append(replace(s, last_node=NO_NODE, last_action=NoAction()))
        out.append(replace(s, last_action=NoAction()))
    for node in sorted(c.graph.nodes):
        if node != s.current_node:
            out.append(replace(s, current_node=node))
    return tuple(out)


def reachable_layers(c: ImplConstants, alphabet: tuple[Action, ...], depth: int) -> list[list[ImplState]]:
    """BFS layers of the concrete machine: layers[d] holds the states first
    reached after d steps, for d <= depth. The list stops at closure: an
    empty layer has only empty layers after it, so none of them is
    appended, and len(layers) <= depth + 1. A stutter, whose post-state is
    its pre-state object itself, is skipped before it is hashed."""
    layers: list[list[ImplState]] = [[impl_init(c)]]
    seen: set[ImplState] = {impl_init(c)}
    for _ in range(depth):
        nxt: list[ImplState] = []
        for s in layers[-1]:
            for a in alphabet:
                for _e, s2 in impl_next(c, s, a):
                    if s2 is not s and s2 not in seen:
                        seen.add(s2)
                        nxt.append(s2)
        if not nxt:
            break
        layers.append(nxt)
    return layers


@dataclass(frozen=True)
class StepDomain:
    """The states the step obligations range over before the assumed
    invariant filters them: the states reachable in fewer than ``depth``
    steps and their perturbations, each once in order of first appearance,
    keeping the well-formed ones. It depends on the concrete machine only,
    so every bundle checked at one depth can share it."""

    reachable_states: int
    candidates: tuple[ImplState, ...]

    def admitted(self, c: ImplConstants, b: Bundle) -> list[ImplState]:
        """The candidates the bundle's assumed invariant admits, in order."""
        assume = b.assume_inv or b.inv
        return [s for s in self.candidates if assume(c, s)]


def step_domain(
    c: ImplConstants,
    alphabet: tuple[Action, ...],
    depth: int,
    layers: list[list[ImplState]],
) -> StepDomain:
    """The step domain at ``depth``, given ``layers``, the
    ``reachable_layers(c, alphabet, depth)``."""
    bases = [s for layer in layers[:depth] for s in layer]
    candidates: list[ImplState] = []
    seen: set[ImplState] = set()
    for base in bases:
        for candidate in (base,) + perturbations(c, base, alphabet):
            if candidate in seen:
                continue
            seen.add(candidate)
            if impl_wf(c, candidate):
                candidates.append(candidate)
    return StepDomain(len(bases), tuple(candidates))


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class StepCounterexample:
    state: ImplState
    action: Action
    event: ImplEvent
    post_state: ImplState
    detail: str


@dataclass(frozen=True)
class InitVerdict:
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RefinementVerdict:
    """The step obligations; ``check_refinement_init`` judges the initial
    one."""

    r2: bool
    r3: bool
    inv_inductive: bool
    explored_states: int
    reachable_states: int
    depth: int
    r2_counterexample: StepCounterexample | None = None
    r3_counterexample: StepCounterexample | None = None
    inv_counterexample: StepCounterexample | None = None

    @property
    def passed(self) -> bool:
        return self.r2 and self.r3 and self.inv_inductive


def check_refinement_init(c: ImplConstants, b: Bundle) -> InitVerdict:
    """Initial obligation: the invariant holds at init and the abstracted
    initial state equals the abstract initial state."""
    s0 = impl_init(c)
    if not b.inv(c, s0):
        return InitVerdict(False, "invariant fails at the initial state")
    if b.variables_abs(s0) != spec_init(c.spec):
        return InitVerdict(False, "abstracted initial state differs from the abstract init")
    return InitVerdict(True)


def first_failing_step(
    c: ImplConstants,
    states: list[ImplState],
    alphabet: tuple[Action, ...],
    detail: str,
    post_fails: Callable[[ImplState], bool],
    step_fails: Callable[[ImplState, Action, ImplEvent, ImplState], bool],
) -> StepCounterexample | None:
    """The first step (s, a, e, s2) out of ``states``, in their order and
    then the alphabet's, whose post-state ``post_fails`` and that
    ``step_fails``; None when no step fails both.

    impl_next answers a rejected action with the pre-state object itself,
    so every stutter out of s has the post-state s: ``post_fails`` judges
    it at most once per state, while ``step_fails`` sees every step.
    """
    for s in states:
        stutter_fails: bool | None = None
        for a in alphabet:
            for e, s2 in impl_next(c, s, a):
                if s2 is not s:
                    fails = post_fails(s2)
                elif stutter_fails is None:
                    fails = stutter_fails = post_fails(s)
                else:
                    fails = stutter_fails
                if fails and step_fails(s, a, e, s2):
                    return StepCounterexample(s, a, e, s2, detail)
    return None


def step_obligations(
    c: ImplConstants,
    b: Bundle,
    alphabet: tuple[Action, ...],
    states: list[ImplState],
) -> Iterator[tuple[str, StepCounterexample | None]]:
    """The step obligations over the admitted ``states``, in the order
    inv_inductive, r2_step_simulation, r3_safety_transport: each as its
    name and its first counterexample, None when it holds. Each obligation
    is searched only when the iteration reaches it, so a caller that stops
    at a failure searches none after it.

    The invariant obligation uses the bundle's declared invariant, however
    the states were admitted.
    """
    yield "inv_inductive", first_failing_step(
        c, states, alphabet, "declared invariant not re-established", lambda s2: not b.inv(c, s2), lambda *_: True
    )
    ca = c.spec

    def matched(s: ImplState, a: Action, e: ImplEvent, s2: ImplState) -> bool:
        # A relation may match a stutter under one action and not under
        # another, so the match is judged for every step. The matched
        # abstract step must use the identical action value the concrete
        # step consumed; never a canonicalized or re-parsed stand-in.
        abs_pre = b.variables_abs(s)
        query_action = a
        abs_succs = b.next_relation(ca, abs_pre, query_action)
        assert query_action == a
        abs_post = abs_pre if s2 is s else b.variables_abs(s2)
        return (b.event_abs(e), abs_post) in abs_succs

    yield "r2_step_simulation", first_failing_step(
        c,
        states,
        alphabet,
        "no abstract step matches the abstracted event and post-state",
        lambda _s2: True,
        lambda *step: not matched(*step),
    )
    # Transport is judged first: the match costs an abstract step query,
    # and only a step that fails transport needs it.
    yield "r3_safety_transport", first_failing_step(
        c,
        states,
        alphabet,
        "abstract safety holds at the matched post-state but concrete safety fails",
        lambda s2: b.safety(ca, b.variables_abs(s2)) and not impl_safety(c, s2),
        matched,
    )


def check_refinement_next(c: ImplConstants, b: Bundle, alphabet: tuple[Action, ...], depth: int) -> RefinementVerdict:
    """Every step obligation over every admitted state and every alphabet
    action.

    The bundle's ``assume_inv`` filters the states obligations are checked
    from; it defaults to the bundle's invariant. The invariant obligation
    on the post-state always uses the declared ``inv``, so assuming a
    weaker predicate than the declared one must fail unless the declared
    invariant demanded nothing.
    """
    domain = step_domain(c, alphabet, depth, reachable_layers(c, alphabet, depth))
    states = domain.admitted(c, b)
    cx = dict(step_obligations(c, b, alphabet, states))
    return RefinementVerdict(
        r2=cx["r2_step_simulation"] is None,
        r3=cx["r3_safety_transport"] is None,
        inv_inductive=cx["inv_inductive"] is None,
        explored_states=len(states),
        reachable_states=domain.reachable_states,
        depth=depth,
        r2_counterexample=cx["r2_step_simulation"],
        r3_counterexample=cx["r3_safety_transport"],
        inv_counterexample=cx["inv_inductive"],
    )


# ---------------------------------------------------------------------------
# Trace-level soundness


@dataclass(frozen=True)
class SoundnessVerdict:
    passed: bool
    stage: int | None = None  # 1 = lift, 2 = abstract safety, 3 = concrete safety
    index: int | None = None
    detail: str = ""


def check_soundness(c: ImplConstants, b: Bundle, trace: Trace) -> SoundnessVerdict:
    """Three-stage trace check.

    Stage 1 lifts the trace: replaying the action column from the abstract
    initial state, every step's abstracted event must be matched by an
    abstract step. Stage 2 checks abstract safety pointwise along the
    lifted run. Stage 3 checks the concrete safety conjuncts on every
    concrete state of the trace.
    """
    ca = c.spec

    abstract_states: list[SpecState] = [spec_init(ca)]
    for i, t in enumerate(trace.steps):
        ev = b.event_abs(t.event)
        matched = [(e, m) for e, m in b.next_relation(ca, abstract_states[-1], t.action) if e == ev]
        if not matched:
            return SoundnessVerdict(
                False, stage=1, index=i,
                detail=f"step {i}: no abstract step emits {ev!r} for {t.action!r}",
            )
        abstract_states.append(matched[0][1])

    for i, m in enumerate(abstract_states):
        if not b.safety(ca, m):
            return SoundnessVerdict(
                False, stage=2, index=i, detail=f"abstract safety fails at lifted state {i}"
            )

    for i, s in enumerate(trace.states()):
        if not impl_safety(c, s):
            which = _failed_conjunct(c, s)
            return SoundnessVerdict(
                False, stage=3, index=i, detail=f"concrete safety fails at state {i}: {which}"
            )

    return SoundnessVerdict(True)


def _failed_conjunct(c: ImplConstants, s: ImplState) -> str:
    k = violated(c.spec, s)
    return k.violation if k is not None else "unknown"
