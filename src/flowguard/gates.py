"""Specification-validation gates and the template-fitness check.

A ``Bundle`` (abstract transition relation, safety predicate, state and
event abstraction functions, declared and assumed invariant) is only
trustworthy if it demands real structure and can tell a faithful machine
from a corrupted one. Three gates and a fitness audit enforce that:

  G1 resolution      -- the flow loads from its serialized form, its
                        constants, graph and alphabet validate, and it
                        serializes back to itself. A ``prefix_mode``
                        other than "guarded" fails G1: the gates after it
                        verify the one workspace-root rule that G1 admits.
  G2 vacuity         -- a permissive stub of the bundle must FAIL
                        verification. The stub keeps every obligation but
                        abandons the invariant strengthening: obligations
                        are checked from every candidate state, assuming
                        nothing, while the declared invariant must still
                        be re-established. If that stub verifies, the
                        declared invariant never demanded anything.
  G3 discrimination  -- each seeded modeling error must FAIL
                        verification. A surviving mutant means the checks
                        cannot distinguish the faithful bundle from a
                        corrupted one.
  fitness            -- every safety conjunct that quantifies over a state
                        sequence must have a reachable state in which that
                        sequence is nonempty. A conjunct with no witness
                        is vacuously true along every reachable state:
                        the machine never writes the field it polices.

G3 judges every entry of one table of bundle edits, ``SEEDED_ERRORS``,
in table order; each entry is a function from ``Bundle`` to ``Bundle``,
and ``flowguard check --mutation`` applies one of them by its id.

Each gate's verdict is an ``Obligation`` named ``g1``, ``g2``, ``g3`` or
``fitness``. G2 and G3 verify each bundle with ``refinement.obligations``
over one shared ``refinement.CheckRun`` and stop at the first one that
fails, which their verdict names; G3 keeps that ``Obligation``,
counterexample included, as the kill of each mutant. After a G1 failure
no other gate is judged: ``flowguard gates`` exits 2 with a report of
the G1 verdict alone.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from .actions import Action, NoEffect, TupleRecord
from .flowfile import FlowDefinition, FlowFileError, parse_flow, serialize_flow
from .impl_model import INVARIANT, ImplConstants, impl_inv
from .refinement import Bundle, CheckRun, obligations
from .spec_model import POLICY, SEQUENCE_CONJUNCTS, Obligation, spec_next


# ---------------------------------------------------------------------------
# The seeded-error library. Each mutant is a deliberate, small, plausible
# modeling error, written as a named edit of one definition: a conjunct of
# the policy table, the event abstraction, or a clause of the invariant.
# An edit reads the function it edits from this module when it is applied,
# as ``Bundle``'s defaults do, so a rebinding (the tracer's) reaches it.


def _edit_policy(name: str, **changes) -> Callable[[Bundle], Bundle]:
    """The abstract relation of the policy table with conjunct ``name``
    changed. The table is built once: ``spec_next`` compiles it per object."""
    policy = tuple(k._replace(**changes) if k.name == name else k for k in POLICY)
    return lambda b: b._replace(next_relation=partial(spec_next, policy=policy))


def _drop_invariant_clause(name: str) -> Callable[[Bundle], Bundle]:
    """The declared invariant without clause ``name``, assumed when the
    obligation states are selected."""
    clauses = {n: clause for n, clause in INVARIANT.items() if n != name}
    return lambda b: b._replace(assume_inv=partial(impl_inv, clauses=clauses))


def _collapse_events_to_noeffect(_e) -> NoEffect:
    return NoEffect()


def permissive_stub(b: Bundle) -> Bundle:
    """G2's stub of ``b``: an assumed invariant that admits every state,
    every obligation kept."""
    return b._replace(assume_inv=lambda c, s: True)


SEEDED_ERRORS: dict[str, Callable[[Bundle], Bundle]] = {
    # The abstract relation admits any tool call.
    "drop-allowlist-guard": _edit_policy("ToolAllowlisted", guard=lambda c, tool: True),
    # The abstract relation admits one step beyond the bound: "<" became "<=".
    "step-bound-off-by-one": _edit_policy("StepBounded", guard=lambda c, count: count <= c.max_steps),
    # The event abstraction collapses every emitted event to NoEffect.
    "event-to-noeffect": lambda b: b._replace(event_abs=_collapse_events_to_noeffect),
    # The assumed invariant loses the history-length alignment clause.
    "drop-history-clause": _drop_invariant_clause("history_length"),
}


# ---------------------------------------------------------------------------
# Verification


def verify_bundle(c: ImplConstants, b: Bundle, alphabet: tuple[Action, ...], depth: int) -> tuple[Obligation, ...]:
    """Run the full lemma set on a (possibly mutated) bundle and report
    every obligation."""
    return tuple(obligations(CheckRun(c, alphabet, depth), b))


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


def no_effect_note(c: ImplConstants) -> str | None:
    """Why no check on ``c`` can see a step take effect, or None when one
    can: a step budget of 0 rejects every action."""
    return "max_steps 0: no action can take effect, so every run stutters" if c.spec.max_steps == 0 else None


# ---------------------------------------------------------------------------
# Gates


def gate_resolution(flow_text: str | bytes) -> tuple[Obligation, FlowDefinition | None]:
    """G1: the flow loads from its serialized form, text or UTF-8 bytes
    (which validates its constants, graph and alphabet) and serializes
    back to itself. Returns the verdict, and the loaded flow when it
    passed (else None)."""
    try:
        flow = parse_flow(flow_text)
        if parse_flow(serialize_flow(flow)) != flow:
            raise FlowFileError("serialization does not round-trip")
    except ValueError as e:
        return Obligation("g1", False, str(e)), None
    return Obligation("g1", True), flow


def gate_vacuity(run: CheckRun, bundle: Bundle) -> Obligation:
    """G2: the permissive stub must fail verification on ``run``'s
    machine, alphabet and depth. Its obligations are checked in order up
    to the first one that fails."""
    if run.depth < 1:
        return Obligation(
            "g2",
            False,
            "configuration floor: depth >= 1 required (no step obligations exist at depth 0, "
            "so the stub trivially verifies)",
        )
    discharged: list[str] = []
    for o in obligations(run, permissive_stub(bundle)):
        if not o.passed:
            return Obligation("g2", True, f"permissive stub failed at {o.name}")
        discharged.append(o.name)
    return Obligation("g2", False, f"vacuity witness: the stub discharged {', '.join(discharged)}")


def gate_discrimination(run: CheckRun, mutant: Bundle) -> Obligation | None:
    """G3 for one mutant, an edited bundle: it must fail verification on
    ``run``'s machine, alphabet and depth. Its obligations are checked in
    order up to the first one that fails, which is the one that kills it
    and is returned, counterexample included; None when the mutant
    survives."""
    return next((o for o in obligations(run, mutant) if not o.passed), None)


# ---------------------------------------------------------------------------
# Template fitness


class ConjunctFitness(TupleRecord):
    name: str
    status: str  # "witnessed" | "VACUOUS"
    witness_depth: int | None = None
    witness_value: tuple[str, ...] = ()


def check_template_fitness(run: CheckRun, bundle: Bundle) -> tuple[ConjunctFitness, ...]:
    """For each sequence-quantified safety conjunct, find a state of
    ``run``'s reachable layers (within its depth, through the abstraction)
    where the quantified sequence is nonempty. No witness means the
    conjunct is vacuously true along every reachable state and the field
    it polices is never written.

    The scalar step-count conjunct is exempt: every effected action moves
    the count it bounds, which takes depth >= 1 and ``max_steps`` >= 1.
    With ``max_steps`` 0 no action is ever effected, and every sequence
    conjunct is VACUOUS.
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

    return tuple(found.get(k.name, ConjunctFitness(k.name, "VACUOUS")) for k in SEQUENCE_CONJUNCTS)


# ---------------------------------------------------------------------------
# The composed gate pipeline


class GateReport(TupleRecord):
    """The verdict of each gate, None for a gate not judged because G1
    failed, then G3's mutants as (mutation id, the ``Obligation`` that
    killed it, or None for a survivor) pairs in the order judged, the
    fitness of each sequence conjunct, and the flow."""

    g1: Obligation
    g2: Obligation | None = None
    g3: Obligation | None = None
    fitness_verdict: Obligation | None = None
    mutants: tuple[tuple[str, Obligation | None], ...] = ()
    fitness: tuple[ConjunctFitness, ...] = ()
    flow: FlowDefinition | None = None  # the definition G2, G3 and fitness verified

    def judged(self) -> tuple[Obligation, ...]:
        """The verdicts of the gates that were judged, in gate order."""
        return tuple(v for v in (self.g1, self.g2, self.g3, self.fitness_verdict) if v is not None)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.judged())

    def failing_gates(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.judged() if not v.passed)


def run_gates(flow_text: str | bytes, depth: int) -> GateReport:
    """G1 -> G2 -> G3 -> fitness, short-circuiting after a G1 failure.

    G1 judges ``flow_text`` as written; the other gates verify the very
    definition it loads, and share one ``CheckRun``. G3 judges every entry
    of ``SEEDED_ERRORS``, in table order. On a flow with ``max_steps`` 0
    the G2 and G3 details end with ``no_effect_note``, as their verdicts
    then judge machines that never step. A negative depth raises
    ValueError before any gate runs.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    g1, flow = gate_resolution(flow_text)
    if flow is None:
        return GateReport(g1)
    c = flow.impl_constants
    bundle = Bundle()
    run = CheckRun(c, flow.alphabet, depth)

    g2 = gate_vacuity(run, bundle)

    mutants = tuple((mid, gate_discrimination(run, edit(bundle))) for mid, edit in SEEDED_ERRORS.items())
    survivors = [mid for mid, killed_by in mutants if killed_by is None]
    detail = f"{len(mutants)} mutants killed"
    if survivors:
        detail = "surviving mutants: " + ", ".join(survivors)
        if "step-bound-off-by-one" in survivors and (note := step_bound_floor_note(c, depth)):
            detail += f"; {note}"
    g3 = Obligation("g3", not survivors, detail)
    if note := no_effect_note(c):
        g2, g3 = (v._replace(detail=f"{v.detail}; {note}") for v in (g2, g3))

    fitness = check_template_fitness(run, bundle)
    vacuous = [cf.name for cf in fitness if cf.status == "VACUOUS"]
    fitness_verdict = Obligation(
        "fitness", not vacuous, "VACUOUS: " + ", ".join(vacuous) if vacuous else "all sequence conjuncts witnessed"
    )

    return GateReport(g1, g2, g3, fitness_verdict, mutants, fitness, flow)
