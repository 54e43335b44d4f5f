"""Executable forward-simulation refinement between the concrete dispatch
machine and the abstract policy machine.

The simulation relation is the graph of an abstraction function over
states (erase history and node bookkeeping, keep the three boundary
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

Admitted states are the reachable states within the depth bound, found
by ``spec_model.explore`` (the one layered search, which also serves
abstract safety preservation), plus a fixed library of structured
perturbations of them, filtered by the assumed invariant. The library is
a hand-written set of junk states, one edit per invariant clause or
safety conjunct, not the universal state quantification of a deductive
proof: a weakened assumption is caught only where an edit it admits
breaks a step. On the three shipped flows at depth 6, assuming the
invariant without its ``step_bounded`` clause still discharges every
obligation. ROADMAP.md item 2 plans a finite quotient of every state in
its place. Every effected action consumes one step on both machines, so
the invariant's ``history_length`` clause is an equality. With the full
invariant assumed, every perturbed state it admits still discharges all
obligations, so the extra states never cause spurious failures.

Each step obligation (the invariant, step simulation, safety transport)
is its own search for a first counterexample over the admitted states, in
that order, run only when a caller asks for it: ``check_refinement_next``
asks for all three, and a gate stops asking at the first failure.

Verification is the full lemma set: initial safety, inductive safety
preservation, initial refinement matching, and the step simulation with
its invariant obligation. ``obligations`` runs them in that fixed order,
each check only when its obligation is reached. The validation gates stop
at the first failed obligation (the one their verdict names), so they
search none after it, while ``flowguard check`` judges and reports all
six. Enumeration checks truth, not proof effort, so bundle-invariant
edits are applied to the assumption side only (the obligations keep the
declared invariant); a symmetric edit to a non-load-bearing clause would
otherwise be undetectable in principle.

One ``CheckRun`` fixes the concrete machine (its step function), alphabet
and depth and holds the one exploration of the concrete side that every
bundle checked there shares: the reachable layers, the step obligations'
candidate states, and a safety-preservation verdict per distinct
abstract relation and safety predicate. A seeded error replaces one field
of the bundle and leaves the machine, alphabet and depth as they were, so
one run serves the unmutated bundle, every mutant and the fitness audit.
The same layers certify ``flowguard check``'s havoc sweep: a
deterministic machine's verdict over every script of length d depends
only on the (state, action) pairs reachable within d - 1 steps, which
the layers hold, so each pair is stepped twice (once to explore, once to
judge) rather than once per script prefix. ``havoc.sweep`` still drives
every script; it is the reference, and ``check`` falls back on it to
name a violating script.

A trace-level soundness check composes the same ingredients in three
stages: lift the concrete trace to an abstract run by replaying actions
and abstracted events from the abstract initial state, check abstract
safety pointwise along the lifted run, then check the concrete safety
conjuncts on the concrete states. Its verdict is an ``Obligation`` named
after the stage that failed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cached_property

from .actions import Action, BoundaryEvent, ImplEvent, NoAction, Record, format_action
from .havoc import Trace
from .impl_model import (
    NO_NODE,
    STUTTER,
    ImplConstants,
    ImplState,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from .spec_model import (
    SEQUENCE_CONJUNCTS,
    Obligation,
    SpecConstants,
    SpecState,
    Step,
    check_safety_preserved,
    emits,
    explore,
    spec_init,
    spec_next,
    spec_safety,
    violated,
)

VariablesAbs = Callable[[ImplState], SpecState]
EventAbs = Callable[[ImplEvent], BoundaryEvent]
InvPredicate = Callable[[ImplConstants, ImplState], bool]
NextFn = Callable[[ImplConstants, ImplState, Action], tuple]


def project_variables(s: ImplState) -> SpecState:
    return tuple.__new__(SpecState, (s.read_paths, s.tool_calls, s.step_count))


def project_event(e: ImplEvent) -> BoundaryEvent:
    return e.effect


class Bundle(Record):
    """Everything a check treats as untrusted and a seeded error may edit:
    the abstract relation and safety predicate, the abstraction functions
    inducing the state and event relations, the declared invariant the
    step obligation re-establishes, and the invariant assumed when the
    obligation states are selected (None: assume ``inv``). ``Bundle()`` is
    the shipped bundle, and ``b._replace(field=...)`` an edited copy of
    ``b``. The abstract constants are always ``c.spec``.

    A field left out (or None) is this module's binding of the shipped
    function, read when the bundle is built rather than when the class is
    defined, so a function rebound at module level (as the benchmark's
    tracer does) serves every bundle built after."""

    __slots__ = __match_args__ = ("next_relation", "safety", "variables_abs", "event_abs", "inv", "assume_inv")

    def __init__(
        self,
        next_relation: Callable[[SpecConstants, SpecState, Action], tuple] | None = None,
        safety: Callable[[SpecConstants, SpecState], bool] | None = None,
        variables_abs: VariablesAbs | None = None,
        event_abs: EventAbs | None = None,
        inv: InvPredicate | None = None,
        assume_inv: InvPredicate | None = None,
    ) -> None:
        self._set(
            next_relation or spec_next,
            safety or spec_safety,
            variables_abs or project_variables,
            event_abs or project_event,
            inv or impl_inv,
            assume_inv,
        )


# ---------------------------------------------------------------------------
# Exploration: reachable states plus structured perturbations


# Out-of-policy values tried when the alphabet offers none, per policed field.
_FALLBACK_JUNK: dict[str, tuple[str, ...]] = {"tool_calls": ("__unlisted__",)}


def perturbations(c: ImplConstants, s: ImplState, alphabet: tuple[Action, ...]) -> tuple[ImplState, ...]:
    """Deterministic junk-state library around a reachable state.

    Each edit targets one invariant clause or one safety conjunct; every
    result stays on the graph (current_node untouched except by the node
    moves, which stay inside the graph). A sequence conjunct's edit appends
    the first value of the alphabet its guard rejects, or its fallback
    junk value when the alphabet has none.
    """
    out: list[ImplState] = []
    if s.history:
        out.append(s._replace(history=s.history[:-1]))
        out.append(s._replace(history=s.history + s.history[-1:]))
    out.append(s._replace(step_count=s.step_count + 1))
    if s.step_count > 0:
        out.append(s._replace(step_count=s.step_count - 1))

    for k in SEQUENCE_CONJUNCTS:
        values = [getattr(a, k.arg) for a in alphabet if isinstance(a, k.action)]
        values += _FALLBACK_JUNK.get(k.field, ())
        junk = next((v for v in values if not k.guard(c.spec, v)), None)
        if junk is not None:
            out.append(s._replace(**{k.field: getattr(s, k.field) + (junk,)}))

    if s.last_node is not NO_NODE:
        out.append(s._replace(last_node=NO_NODE, last_action=NoAction()))
        out.append(s._replace(last_action=NoAction()))
    for node, _ in c.graph.node_kinds:
        if node != s.current_node:
            out.append(s._replace(current_node=node))
    return tuple(out)


def reachable_layers(
    c: ImplConstants, alphabet: tuple[Action, ...], depth: int, next_fn: NextFn | None = None
) -> list[list[ImplState]]:
    """BFS layers of the concrete machine: layers[d] holds the states first
    reached after d steps, for d <= depth, up to closure. It is ``explore``
    of ``next_fn`` (None: this module's ``impl_next``) from ``impl_init``,
    keeping every state."""
    return explore(c, impl_init(c), alphabet, depth, next_fn or impl_next, lambda c, s: True)[0]


class CheckRun:
    """The work that every bundle checked on one concrete machine, alphabet
    and depth shares: the reachable layers, the step obligations'
    candidate states, the safety-preservation verdict of each distinct
    (next_relation, safety) pair, and the havoc sweep's verdict, judged
    on the layers by stepping their pairs again. Each is computed when
    first needed. Keying the preservation verdicts by ``id`` is sound
    because the cache keeps its keys alive. Successor states and abstract
    steps are not kept across bundles: holding them costs more memory
    than recomputing them costs time.

    The machine is the step function ``next_fn``, which every exploration
    of the run calls: this module's binding of ``impl_next``, read when the
    run is built, as ``Bundle`` reads its defaults, so a function rebound
    at module level (a counter, or a test's broken machine) serves every
    run built after."""

    def __init__(self, c: ImplConstants, alphabet: tuple[Action, ...], depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.c, self.alphabet, self.depth = c, alphabet, depth
        self.next_fn: NextFn = impl_next
        self._preserved: dict[tuple, Obligation] = {}

    @cached_property
    def layers(self) -> list[list[ImplState]]:
        return reachable_layers(self.c, self.alphabet, self.depth, self.next_fn)

    @cached_property
    def sweep_certified(self) -> bool:
        """Whether ``havoc.sweep`` at this depth passes, judged on the
        reachable layers rather than per script: stepped once more with
        ``next_fn``, every (state, action) pair out of ``layers[:depth]``
        emits an event ``emits`` admits (``STUTTER``'s ``NoEffect`` is
        always offered), and every layer state, init included, satisfies
        ``impl_safety`` and ``impl_inv``. A state heads a script prefix
        shorter than ``depth`` exactly when it is in ``layers[:depth]``,
        so these are the sweep's (state, action) pairs and a superset of
        its states: for a deterministic ``next_fn`` and state checks that
        are functions of the state, True implies the sweep's pass. False
        does not imply its failure (the sweep judges init only once a step
        reaches it), so a caller then runs the sweep."""
        c, spec, layers = self.c, self.c.spec, self.layers
        pairs = ((s, a) for layer in layers[: self.depth] for s in layer for a in self.alphabet)
        steps = ((s, a, e) for s, a in pairs for e, _ in self.next_fn(c, s, a))
        return all(e is STUTTER or emits(spec, s, a, e.effect) for s, a, e in steps) and all(
            impl_safety(c, s) and impl_inv(c, s) for layer in layers for s in layer
        )

    @cached_property
    def candidates(self) -> tuple[ImplState, ...]:
        """The states the step obligations range over before the assumed
        invariant filters them: the states reachable in fewer than
        ``depth`` steps and their perturbations, each once in order of
        first appearance. Every one sits on a node of the graph: the graph
        validates its entry and edge targets, and a perturbation moves a
        state only to a node of the graph."""
        bases = (s for layer in self.layers[: self.depth] for s in layer)
        return tuple(dict.fromkeys(x for s in bases for x in (s,) + perturbations(self.c, s, self.alphabet)))

    def admitted(self, b: Bundle) -> list[ImplState]:
        """The candidates the bundle's assumed invariant admits, in order."""
        assume = b.assume_inv or b.inv
        return [s for s in self.candidates if assume(self.c, s)]

    def safety_preserved(self, b: Bundle) -> Obligation:
        key = (b.next_relation, b.safety)
        if key not in self._preserved:
            self._preserved[key] = check_safety_preserved(
                self.c.spec, self.alphabet, self.depth, next_relation=b.next_relation, safety=b.safety
            )
        return self._preserved[key]


# ---------------------------------------------------------------------------
# The lemma set


def check_refinement_init(c: ImplConstants, b: Bundle) -> Obligation:
    """Initial obligation: the invariant holds at init and the abstracted
    initial state equals the abstract initial state."""
    s0 = impl_init(c)
    if not b.inv(c, s0):
        return Obligation("refinement_init", False, "invariant fails at the initial state")
    if b.variables_abs(s0) != spec_init(c.spec):
        return Obligation("refinement_init", False, "abstracted initial state differs from the abstract init")
    return Obligation("refinement_init", True)


def first_failing_step(
    run: CheckRun,
    states: list[ImplState],
    post_fails: Callable[[ImplState], bool],
    step_fails: Callable[[ImplState, Action, ImplEvent, ImplState], bool],
) -> Step | None:
    """The first step (s, a, e, s2) of ``run``'s machine out of ``states``,
    in their order and then the alphabet's, whose post-state
    ``post_fails`` and that ``step_fails``; None when no step fails both.

    impl_next answers a rejected action with the pre-state object itself,
    so every stutter out of s has the post-state s: ``post_fails`` judges
    it at most once per state, while ``step_fails`` sees every step.
    """
    c, next_fn, alphabet = run.c, run.next_fn, run.alphabet
    for s in states:
        stutter_fails: bool | None = None
        for a in alphabet:
            for e, s2 in next_fn(c, s, a):
                if s2 is not s:
                    fails = post_fails(s2)
                elif stutter_fails is None:
                    fails = stutter_fails = post_fails(s)
                else:
                    fails = stutter_fails
                if fails and step_fails(s, a, e, s2):
                    return Step(s, a, e, s2)
    return None


def step_obligations(run: CheckRun, b: Bundle) -> Iterator[Obligation]:
    """The step obligations over the states of ``run`` that the bundle
    admits, in the order inv_inductive, r2_step_simulation,
    r3_safety_transport, each with its first counterexample. Each
    obligation is searched only when the iteration reaches it, so a caller
    that stops at a failure searches none after it.

    The invariant obligation uses the bundle's declared invariant, however
    the states were admitted.
    """
    c, states = run.c, run.admitted(b)

    def judged(name: str, failure: str, post_fails, step_fails) -> Obligation:
        cx = first_failing_step(run, states, post_fails, step_fails)
        detail = f"{failure}; action {format_action(cx.action)}" if cx else ""
        return Obligation(name, cx is None, detail, len(states), cx)

    yield judged(
        "inv_inductive", "declared invariant not re-established", lambda s2: not b.inv(c, s2), lambda *_: True
    )
    ca = c.spec

    def matched(s: ImplState, a: Action, e: ImplEvent, s2: ImplState) -> bool:
        # A relation may match a stutter under one action and not under
        # another, so the match is judged for every step. The matched
        # abstract step must use the identical action value the concrete
        # step consumed. Actions are interned, so a re-parsed literal is
        # that same object; an action with other field values never is.
        abs_pre = b.variables_abs(s)
        abs_succs = b.next_relation(ca, abs_pre, a)
        abs_post = abs_pre if s2 is s else b.variables_abs(s2)
        return (b.event_abs(e), abs_post) in abs_succs

    yield judged(
        "r2_step_simulation",
        "no abstract step matches the abstracted event and post-state",
        lambda _s2: True,
        lambda *step: not matched(*step),
    )
    # Transport is judged first: the match costs an abstract step query,
    # and only a step that fails transport needs it.
    yield judged(
        "r3_safety_transport",
        "abstract safety holds at the matched post-state but concrete safety fails",
        lambda s2: b.safety(ca, b.variables_abs(s2)) and not impl_safety(c, s2),
        matched,
    )


def check_refinement_next(
    c: ImplConstants, b: Bundle, alphabet: tuple[Action, ...], depth: int
) -> tuple[Obligation, ...]:
    """Every step obligation over every admitted state and every alphabet
    action, in ``step_obligations`` order.

    The bundle's ``assume_inv`` filters the states obligations are checked
    from; it defaults to the bundle's invariant. The invariant obligation
    on the post-state always uses the declared ``inv``, so assuming a
    weaker predicate than the declared one must fail unless the declared
    invariant demanded nothing.
    """
    return tuple(step_obligations(CheckRun(c, alphabet, depth), b))


def obligations(run: CheckRun, b: Bundle) -> Iterator[Obligation]:
    """The full lemma set on a (possibly mutated) bundle, one obligation at
    a time in a fixed order: init_safety, safety_preserved,
    refinement_init, then the step obligations inv_inductive,
    r2_step_simulation and r3_safety_transport. Each check runs only when
    its obligation is reached, so a caller that stops at the first failure
    skips every check after it."""
    ca = run.c.spec
    yield Obligation("init_safety", b.safety(ca, spec_init(ca)))
    yield run.safety_preserved(b)
    yield check_refinement_init(run.c, b)
    yield from step_obligations(run, b)


# ---------------------------------------------------------------------------
# Trace-level soundness


def check_soundness(c: ImplConstants, b: Bundle, trace: Trace) -> Obligation:
    """Three-stage trace check, whose verdict names the stage that failed.
    ``trace_lift`` replays the action column from the abstract initial
    state: every step's abstracted event must be matched by an abstract
    step. ``abstract_safety`` checks abstract safety pointwise along the
    lifted run, and ``concrete_safety`` the concrete safety conjuncts on
    every concrete state, both from one kept verdict per distinct element
    (see ``violated``): only their C work grows with the sequence lengths.
    A sound trace gets ``Obligation("trace_soundness", True)``."""
    ca = c.spec

    abstract_states: list[SpecState] = [spec_init(ca)]
    for i, t in enumerate(trace.steps):
        ev = b.event_abs(t.event)
        matched = [(e, m) for e, m in b.next_relation(ca, abstract_states[-1], t.action) if e == ev]
        if not matched:
            return Obligation("trace_lift", False, f"step {i}: no abstract step emits {ev!r} for {t.action!r}")
        abstract_states.append(matched[0][1])

    for i, m in enumerate(abstract_states):
        if not b.safety(ca, m):
            return Obligation("abstract_safety", False, f"abstract safety fails at lifted state {i}")

    for i, s in enumerate(trace.states()):
        if (k := violated(ca, s)) is not None:
            return Obligation("concrete_safety", False, f"concrete safety fails at state {i}: {k.violation}")

    return Obligation("trace_soundness", True)
