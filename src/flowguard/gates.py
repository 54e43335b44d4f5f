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
  G3 discrimination  -- each seeded modeling error must FAIL
                        verification. A surviving mutant means the checks
                        cannot distinguish the faithful bundle from a
                        corrupted one.
  fitness            -- every safety conjunct that quantifies over a state
                        sequence must have a reachable state in which that
                        sequence is nonempty. A conjunct with no witness
                        is vacuously true along every reachable state:
                        the machine never writes the field it polices.

Every mutation id names an entry of one table of bundle edits, each a
function from ``Bundle`` to ``Bundle``: the seeded errors
(``SEEDED_ERRORS``, G3's default set), and ``identity``, the survivor
entry, which changes nothing and must survive.

G2 and G3 verify each bundle with ``refinement.obligations`` over one
shared ``refinement.CheckRun`` and stop at the first one that fails,
which their verdict names. A flow that fails G1 is unusable input:
``flowguard gates`` then exits 2 with a report holding only the G1
verdict.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, NamedTuple

from .actions import Action, NoEffect
from .flowfile import (
    FlowDefinition,
    FlowFileError,
    parse_flow,
    serialize_flow,
    with_prefix_mode,
)
from .impl_model import INVARIANT, FlowGraphError, ImplConstants, impl_inv, impl_wf
from .refinement import Bundle, CheckRun, obligations
from .spec_model import POLICY, PREFIX_BARE, PREFIX_GUARDED, SEQUENCE_CONJUNCTS, Obligation, spec_next

DEFAULT_GATE_BUDGET_SECONDS = 30.0


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
    """G2's stub of ``b``: the assumed invariant gutted to well-formedness,
    every obligation kept."""
    return b._replace(assume_inv=impl_wf)


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

# The table of every edit a mutation id names.
_MUTATIONS: dict[str, Callable[[Bundle], Bundle]] = {**SEEDED_ERRORS, "identity": lambda b: b}


def mutation_by_id(mutation_id: str) -> Callable[[Bundle], Bundle]:
    """The bundle edit ``mutation_id`` names: ``identity`` or one of the
    ``SEEDED_ERRORS``. Raises ValueError for any other id."""
    if mutation_id not in _MUTATIONS:
        raise ValueError(f"unknown mutation id: {mutation_id!r}")
    return _MUTATIONS[mutation_id]


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


# ---------------------------------------------------------------------------
# Gates


class GateVerdict(NamedTuple):
    gate: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def gate_resolution(flow_text: str) -> tuple[GateVerdict, FlowDefinition | None]:
    """G1: the flow loads from its serialized form (which validates its
    constants, graph and alphabet), serializes back to itself, and loading
    fits ``DEFAULT_GATE_BUDGET_SECONDS``. Returns the verdict, and the
    loaded flow when it passed (else None)."""
    started = time.monotonic()
    try:
        flow = parse_flow(flow_text)
        if parse_flow(serialize_flow(flow)) != flow:
            raise FlowFileError("serialization does not round-trip")
    except (FlowFileError, FlowGraphError, ValueError) as e:
        return GateVerdict("g1", "fail", str(e)), None
    elapsed = time.monotonic() - started
    if elapsed > DEFAULT_GATE_BUDGET_SECONDS:
        return GateVerdict("g1", "fail", f"load exceeded the {DEFAULT_GATE_BUDGET_SECONDS:.0f}s budget"), None
    return GateVerdict("g1", "pass"), flow


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
    for o in obligations(run, permissive_stub(bundle)):
        if not o.passed:
            return GateVerdict("g2", "pass", f"permissive stub failed at {o.name}")
        discharged.append(o.name)
    return GateVerdict("g2", "fail", f"vacuity witness: the stub discharged {', '.join(discharged)}")


class MutantResult(NamedTuple):
    mutation_id: str
    killed: bool
    killed_by: str = ""
    detail: str = ""


def gate_discrimination(run: CheckRun, bundle: Bundle, mutation_id: str) -> MutantResult:
    """G3 for one mutation: the edit ``mutation_id`` names must fail
    verification on ``run``'s machine, alphabet and depth. Its obligations
    are checked in order up to the first one that fails, which is the one
    that kills it."""
    failed = next((o for o in obligations(run, mutation_by_id(mutation_id)(bundle)) if not o.passed), None)
    if failed is None:
        return MutantResult(mutation_id, False, detail="alive mutation: all obligations discharged")
    return MutantResult(mutation_id, True, killed_by=failed.name, detail=failed.detail)


# ---------------------------------------------------------------------------
# Template fitness


class ConjunctFitness(NamedTuple):
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

    return tuple(found.get(k.name, ConjunctFitness(k.name, "VACUOUS")) for k in SEQUENCE_CONJUNCTS)


# ---------------------------------------------------------------------------
# The composed gate pipeline


class GateReport(NamedTuple):
    g1: GateVerdict
    g2: GateVerdict = GateVerdict("g2", "skipped", "g1 failed")
    g3: GateVerdict = GateVerdict("g3", "skipped", "g1 failed")
    fitness_verdict: GateVerdict = GateVerdict("fitness", "skipped", "g1 failed")
    mutants: tuple[MutantResult, ...] = ()
    fitness: tuple[ConjunctFitness, ...] = ()
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
    prefix_mode: str | None = None,
) -> GateReport:
    """G1 -> G2 -> G3 -> fitness, short-circuiting after a G1 failure.

    G1 judges ``flow_text`` as written; the other gates verify the
    definition it loads, with ``prefix_mode`` in place of the file's mode
    when one is given, and share one ``CheckRun``. Bad arguments (a
    negative depth, an empty mutation set, an unknown or repeated mutation
    id, an unknown prefix mode) raise ValueError before any gate runs.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if prefix_mode not in (None, PREFIX_GUARDED, PREFIX_BARE):
        raise ValueError(f"unknown prefix_mode: {prefix_mode!r}")
    ids = mutation_ids if mutation_ids is not None else tuple(SEEDED_ERRORS)
    if not ids:
        raise ValueError("mutation_ids is empty: G3 would judge no mutant")
    for i, mid in enumerate(ids):
        mutation_by_id(mid)
        if mid in ids[:i]:
            raise ValueError(f"repeated mutation id: {mid!r}")
    g1, loaded = gate_resolution(flow_text)
    if loaded is None:
        return GateReport(g1)
    flow = with_prefix_mode(loaded, prefix_mode)
    c = flow.impl_constants
    bundle = Bundle()
    run = CheckRun(c, flow.alphabet, depth)

    g2 = gate_vacuity(run, bundle)

    mutants = tuple(gate_discrimination(run, bundle, mid) for mid in ids)
    survivors = [m.mutation_id for m in mutants if not m.killed]
    if not survivors:
        g3 = GateVerdict("g3", "pass", f"{len(mutants)} mutants killed")
    else:
        detail = "surviving mutants: " + ", ".join(survivors)
        if "step-bound-off-by-one" in survivors and (note := step_bound_floor_note(c, depth)):
            detail += f"; {note}"
        g3 = GateVerdict("g3", "fail", detail)

    fitness = check_template_fitness(run, bundle)
    vacuous = [cf.name for cf in fitness if cf.status == "VACUOUS"]
    fitness_verdict = (
        GateVerdict("fitness", "fail", "VACUOUS: " + ", ".join(vacuous))
        if vacuous
        else GateVerdict("fitness", "pass", "all sequence conjuncts witnessed")
    )

    return GateReport(g1, g2, g3, fitness_verdict, mutants, fitness, flow)
