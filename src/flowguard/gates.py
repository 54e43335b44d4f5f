"""Specification-validation gates and the template-fitness check.

A ``Bundle`` (abstract transition relation, safety predicate, state and
event abstraction functions, declared and assumed invariant) is only
trustworthy if it demands real structure and can tell a faithful machine
from a corrupted one. Three gates and a fitness audit enforce that:

  G1 resolution      -- the flow loads from its serialized form, its graph
                        and alphabet validate, and it serializes back to
                        itself, within a wall-clock budget.
  G2 vacuity         -- a permissive stub of the bundle must FAIL
                        verification. The stub keeps every obligation but
                        abandons the invariant strengthening: obligations
                        are checked from merely well-formed states while
                        the declared invariant must still be
                        re-established. If that stub verifies, the
                        declared invariant never demanded anything.
  G3 discrimination  -- each seeded modeling error (a small concrete edit
                        to the bundle) must FAIL verification. A surviving
                        mutant means the checks cannot distinguish the
                        faithful bundle from a corrupted one.
  fitness            -- every safety conjunct that quantifies over a state
                        sequence must have a reachable state in which that
                        sequence is nonempty. A conjunct with no witness
                        is vacuously true along every reachable state:
                        the machine never writes the field it polices.

"Verification" for gate purposes is the full lemma set: initial safety,
inductive safety preservation, initial refinement matching, and the step
simulation with its invariant obligation. ``obligations`` runs them in
that fixed order, each check only when its obligation is reached, and
each step obligation is a search of its own. G2 and G3 stop at the first
failed obligation (the one their verdict names), so they search none
after it, while ``verify_bundle``, and so ``flowguard check``, judges
and reports all six. A flow that fails G1 is unusable input: ``flowguard
gates`` then exits 2 with a report holding only the G1 verdict.
Enumeration checks truth, not proof effort, so bundle-invariant edits
are applied to the assumption side only (the obligations keep the
declared invariant); a symmetric edit to a non-load-bearing clause would
otherwise be undetectable in principle.

A mutation replaces one field of the bundle: the constants, the concrete
machine, the alphabet and the depth are the same before and after. So one
``CheckRun`` serves G2, every G3 mutant and fitness: it fixes the
machine, alphabet and depth they check, explores the concrete side once,
and judges safety preservation once per distinct abstract relation and
safety predicate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Iterator

from .actions import Action, NoEffect, format_action, format_boundary_event
from .flowfile import (
    FlowDefinition,
    FlowFileError,
    parse_flow,
    serialize_flow,
    with_prefix_mode,
)
from .impl_model import INVARIANT, FlowGraphError, ImplConstants, ImplState, impl_inv, impl_wf
from .refinement import (
    Bundle,
    StepDomain,
    check_refinement_init,
    reachable_layers,
    step_domain,
    step_obligations,
)
from .spec_model import (
    POLICY,
    SEQUENCE_CONJUNCTS,
    PreservationVerdict,
    check_safety_preserved,
    spec_init,
    spec_next,
)

DEFAULT_GATE_BUDGET_SECONDS = 30.0


@dataclass(frozen=True)
class Mutation:
    mutation_id: str
    kind: str  # "seeded-error" | "permissive-stub"
    description: str
    apply: Callable[[Bundle], Bundle]


# ---------------------------------------------------------------------------
# The seeded-error library. Each mutant is a deliberate, small, plausible
# modeling error, written as a named edit of one definition: a conjunct of
# the policy table, the event abstraction, or a clause of the invariant.
# An edit reads the function it edits from this module when it is applied,
# as ``Bundle``'s defaults do, so a rebinding (the tracer's) reaches it.


def _edit_policy(name: str, **changes) -> Callable[[Bundle], Bundle]:
    """The abstract relation of the policy table with conjunct ``name``
    changed. The table is built once: ``spec_next`` compiles it per object."""
    policy = tuple(replace(k, **changes) if k.name == name else k for k in POLICY)
    return lambda b: replace(b, next_relation=partial(spec_next, policy=policy))


def _drop_invariant_clause(name: str) -> Callable[[Bundle], Bundle]:
    """The declared invariant without clause ``name``, assumed when the
    obligation states are selected."""
    clauses = {n: clause for n, clause in INVARIANT.items() if n != name}
    return lambda b: replace(b, assume_inv=partial(impl_inv, clauses=clauses))


def _collapse_events_to_noeffect(_e) -> NoEffect:
    return NoEffect()


def permissive_stub() -> Mutation:
    return Mutation(
        mutation_id="permissive-stub",
        kind="permissive-stub",
        description="invariant gutted to well-formedness only; obligations kept",
        apply=lambda b: replace(b, assume_inv=impl_wf),
    )


def identity_mutation() -> Mutation:
    return Mutation(
        mutation_id="identity",
        kind="seeded-error",
        description="changes nothing; must survive",
        apply=lambda b: b,
    )


SEEDED_ERRORS: dict[str, Mutation] = {
    m.mutation_id: m
    for m in (
        Mutation(
            "drop-allowlist-guard",
            "seeded-error",
            "abstract relation admits any tool call",
            _edit_policy("ToolAllowlisted", guard=lambda c, tool: True),
        ),
        Mutation(
            "step-bound-off-by-one",
            "seeded-error",
            "abstract relation admits one step beyond the bound",
            _edit_policy("StepBounded", guard=lambda c, count: count <= c.max_steps),  # "<" became "<="
        ),
        Mutation(
            "event-to-noeffect",
            "seeded-error",
            "event abstraction collapses every emitted event to NoEffect",
            lambda b: replace(b, event_abs=_collapse_events_to_noeffect),
        ),
        Mutation(
            "drop-history-clause",
            "seeded-error",
            "assumed invariant loses the history-length alignment clause",
            _drop_invariant_clause("history_length"),
        ),
    )
}


def mutation_by_id(mutation_id: str) -> Mutation:
    """The mutation ``mutation_id`` names: ``identity`` or one of the
    ``SEEDED_ERRORS``. Raises ValueError for any other id."""
    if mutation_id == "identity":
        return identity_mutation()
    if mutation_id in SEEDED_ERRORS:
        return SEEDED_ERRORS[mutation_id]
    raise ValueError(f"unknown mutation id: {mutation_id!r}")


# ---------------------------------------------------------------------------
# The verification stand-in the gates run mutants through


@dataclass(frozen=True)
class Obligation:
    name: str
    passed: bool
    detail: str = ""
    explored_states: int | None = None


@dataclass(frozen=True)
class VerificationOutcome:
    obligations: tuple[Obligation, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.obligations)


def _describe_preservation(v: PreservationVerdict) -> str:
    if v.passed or v.counterexample is None:
        return ""
    cx = v.counterexample
    return (
        f"unsafe successor via {format_action(cx.action)} "
        f"emitting {format_boundary_event(cx.event)}"
    )


class CheckRun:
    """The work that every bundle checked on one concrete machine, alphabet
    and depth shares: the reachable layers, the step domain, and the
    safety-preservation verdict of each distinct (next_relation, safety)
    pair. Each is computed when first needed. Keying those verdicts by
    identity is sound because the cache keeps its keys alive.
    Successor states and abstract steps are not kept across bundles:
    holding them costs more memory than recomputing them costs time."""

    def __init__(self, c: ImplConstants, alphabet: tuple[Action, ...], depth: int):
        self.c, self.alphabet, self.depth = c, alphabet, depth
        self._preserved: dict[tuple, PreservationVerdict] = {}

    @cached_property
    def layers(self) -> list[list[ImplState]]:
        return reachable_layers(self.c, self.alphabet, self.depth)

    @cached_property
    def domain(self) -> StepDomain:
        return step_domain(self.c, self.alphabet, self.depth, self.layers)

    def safety_preserved(self, b: Bundle) -> PreservationVerdict:
        key = (b.next_relation, b.safety)
        if key not in self._preserved:
            self._preserved[key] = check_safety_preserved(
                self.c.spec, self.alphabet, self.depth, next_relation=b.next_relation, safety=b.safety
            )
        return self._preserved[key]


def obligations(run: CheckRun, b: Bundle) -> Iterator[Obligation]:
    """The full lemma set on a (possibly mutated) bundle, one obligation at
    a time in a fixed order: init_safety, safety_preserved,
    refinement_init, then the step obligations inv_inductive,
    r2_step_simulation and r3_safety_transport. Each check runs only when
    its obligation is reached, so a caller that stops at the first failure
    skips every check after it."""
    ca = run.c.spec
    yield Obligation("init_safety", b.safety(ca, spec_init(ca)))

    preserved = run.safety_preserved(b)
    yield Obligation(
        "safety_preserved",
        preserved.passed,
        _describe_preservation(preserved),
        explored_states=preserved.explored_states,
    )

    r_init = check_refinement_init(run.c, b)
    yield Obligation("refinement_init", r_init.passed, r_init.detail)

    states = run.domain.admitted(run.c, b)
    for name, cx in step_obligations(run.c, b, run.alphabet, states):
        detail = f"{cx.detail}; action {format_action(cx.action)}" if cx else ""
        yield Obligation(name, cx is None, detail, explored_states=len(states))


def verify_bundle(c: ImplConstants, b: Bundle, alphabet: tuple[Action, ...], depth: int) -> VerificationOutcome:
    """Run the full lemma set on a (possibly mutated) bundle and report
    every obligation."""
    return VerificationOutcome(tuple(obligations(CheckRun(c, alphabet, depth), b)))


def step_bound_floor_note(c: ImplConstants, depth: int) -> str | None:
    """Why ``depth`` is too shallow to tell a step-bound error apart, or
    None when it is not: a step beyond the bound needs ``max_steps + 1``."""
    m = c.spec.max_steps
    if depth > m:
        return None
    return (
        f"configuration floor: depth >= {m + 1} required (a step beyond the bound "
        f"max_steps={m} cannot be reached at depth {depth})"
    )


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class GateVerdict:
    gate: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class ResolutionOutcome:
    verdict: GateVerdict
    flow: FlowDefinition | None = None


def gate_resolution(flow_text: str, timeout_seconds: float = DEFAULT_GATE_BUDGET_SECONDS) -> ResolutionOutcome:
    """G1: the flow loads from its serialized form (which validates its
    constants, graph and alphabet), serializes back to itself, and loading
    fits the budget."""
    started = time.monotonic()
    try:
        flow = parse_flow(flow_text)
        if parse_flow(serialize_flow(flow)) != flow:
            raise FlowFileError("serialization does not round-trip")
    except (FlowFileError, FlowGraphError, ValueError) as e:
        return ResolutionOutcome(GateVerdict("g1", "fail", str(e)))
    elapsed = time.monotonic() - started
    if elapsed > timeout_seconds:
        return ResolutionOutcome(
            GateVerdict("g1", "fail", f"load exceeded the {timeout_seconds:.0f}s budget")
        )
    return ResolutionOutcome(GateVerdict("g1", "pass"), flow)


def gate_vacuity(run: CheckRun, bundle: Bundle) -> GateVerdict:
    """G2: the permissive stub must fail verification on ``run``'s
    machine, alphabet and depth. Its obligations are checked in order up
    to the first one that fails."""
    if run.depth < 1:
        return GateVerdict(
            "g2",
            "fail",
            "configuration floor: depth >= 1 required (no step obligations exist at depth 0, "
            "so the stub trivially verifies)",
        )
    discharged: list[str] = []
    for o in obligations(run, permissive_stub().apply(bundle)):
        if not o.passed:
            return GateVerdict("g2", "pass", f"permissive stub failed at {o.name}")
        discharged.append(o.name)
    return GateVerdict("g2", "fail", f"vacuity witness: the stub discharged {', '.join(discharged)}")


@dataclass(frozen=True)
class MutantResult:
    mutation_id: str
    killed: bool
    killed_by: str = ""
    detail: str = ""


def gate_discrimination(run: CheckRun, bundle: Bundle, mutation: Mutation) -> tuple[GateVerdict, MutantResult]:
    """G3 for one mutation: the seeded error must fail verification on
    ``run``'s machine, alphabet and depth. Its obligations are checked in
    order up to the first one that fails, which is the one that kills it."""
    if mutation.kind != "seeded-error":
        raise ValueError(f"G3 takes seeded errors, got kind {mutation.kind!r}")
    failed = next((o for o in obligations(run, mutation.apply(bundle)) if not o.passed), None)
    if failed is None:
        result = MutantResult(mutation.mutation_id, False, detail="alive mutation: all obligations discharged")
        return GateVerdict("g3", "fail", f"surviving mutant {mutation.mutation_id}"), result
    result = MutantResult(mutation.mutation_id, True, killed_by=failed.name, detail=failed.detail)
    return GateVerdict("g3", "pass", f"mutant {mutation.mutation_id} killed by {failed.name}"), result


# ---------------------------------------------------------------------------
# Template fitness


@dataclass(frozen=True)
class ConjunctFitness:
    name: str
    status: str  # "witnessed" | "VACUOUS"
    witness_depth: int | None = None
    witness_value: tuple[str, ...] = ()


@dataclass(frozen=True)
class FitnessReport:
    conjuncts: tuple[ConjunctFitness, ...]

    @property
    def passed(self) -> bool:
        return all(cf.status == "witnessed" for cf in self.conjuncts)

    def vacuous_conjuncts(self) -> tuple[str, ...]:
        return tuple(cf.name for cf in self.conjuncts if cf.status == "VACUOUS")


def check_template_fitness(run: CheckRun, bundle: Bundle) -> FitnessReport:
    """For each sequence-quantified safety conjunct, find a state of
    ``run``'s reachable layers (within its depth, through the abstraction)
    where the quantified sequence is nonempty. No witness means the
    conjunct is vacuously true along every reachable state and the field
    it polices is never written.

    The scalar step-count conjunct is exempt: it is exercised by any
    effected step, so it cannot silently abstain at depth >= 1.
    """
    abs_of = bundle.variables_abs
    found: dict[str, ConjunctFitness] = {}
    for d, layer in enumerate(run.layers):
        for s in layer:
            projected = abs_of(s)
            for k in SEQUENCE_CONJUNCTS:
                if k.name in found:
                    continue
                value = getattr(projected, k.field)
                if value:
                    found[k.name] = ConjunctFitness(k.name, "witnessed", d, tuple(value))
        if len(found) == len(SEQUENCE_CONJUNCTS):
            break

    conjuncts = tuple(found.get(k.name, ConjunctFitness(k.name, "VACUOUS")) for k in SEQUENCE_CONJUNCTS)
    return FitnessReport(conjuncts)


# ---------------------------------------------------------------------------
# The composed gate pipeline


@dataclass(frozen=True)
class GateReport:
    g1: GateVerdict
    g2: GateVerdict
    g3: GateVerdict
    fitness_verdict: GateVerdict
    mutants: tuple[MutantResult, ...] = ()
    fitness: FitnessReport | None = None
    flow: FlowDefinition | None = None  # the definition G2, G3 and fitness verified

    @property
    def passed(self) -> bool:
        return all(v.passed for v in (self.g1, self.g2, self.g3, self.fitness_verdict))

    def failing_gates(self) -> tuple[str, ...]:
        return tuple(
            v.gate for v in (self.g1, self.g2, self.g3, self.fitness_verdict) if v.status == "fail"
        )


def run_gates(
    flow_text: str,
    depth: int,
    mutation_ids: tuple[str, ...] | None = None,
    timeout_seconds: float = DEFAULT_GATE_BUDGET_SECONDS,
    prefix_mode: str | None = None,
) -> GateReport:
    """G1 -> G2 -> G3 -> fitness, short-circuiting after a G1 failure.

    G1 judges ``flow_text`` as written; the other gates verify the
    definition it loads, with ``prefix_mode`` in place of the file's mode
    when one is given, and share one ``CheckRun``. Bad arguments (a
    negative depth, an unknown mutation id) raise ValueError before any
    gate runs.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ids = mutation_ids if mutation_ids is not None else tuple(SEEDED_ERRORS)
    mutations = [mutation_by_id(mid) for mid in ids]
    resolution = gate_resolution(flow_text, timeout_seconds)
    if not resolution.verdict.passed:
        skipped = GateVerdict("g2", "skipped", "g1 failed")
        return GateReport(
            g1=resolution.verdict,
            g2=skipped,
            g3=GateVerdict("g3", "skipped", "g1 failed"),
            fitness_verdict=GateVerdict("fitness", "skipped", "g1 failed"),
        )
    assert resolution.flow is not None
    flow = with_prefix_mode(resolution.flow, prefix_mode)
    c = flow.impl_constants
    bundle = Bundle()
    run = CheckRun(c, flow.alphabet, depth)

    g2 = gate_vacuity(run, bundle)

    mutants = [gate_discrimination(run, bundle, m)[1] for m in mutations]
    if all(m.killed for m in mutants):
        g3 = GateVerdict("g3", "pass", f"{len(mutants)} mutants killed")
    else:
        detail = "surviving mutants: " + ", ".join(m.mutation_id for m in mutants if not m.killed)
        if note := step_bound_floor_note(c, depth):
            detail += f"; {note}"
        g3 = GateVerdict("g3", "fail", detail)

    fitness = check_template_fitness(run, bundle)
    fitness_verdict = GateVerdict(
        "fitness",
        "pass" if fitness.passed else "fail",
        "all sequence conjuncts witnessed"
        if fitness.passed
        else "VACUOUS: " + ", ".join(fitness.vacuous_conjuncts()),
    )

    return GateReport(
        g1=resolution.verdict,
        g2=g2,
        g3=g3,
        fitness_verdict=fitness_verdict,
        mutants=tuple(mutants),
        fitness=fitness,
        flow=flow,
    )
