"""The gates' checkers judge each state once, each gate stops at its
first failed obligation, and one gate run shares its exploration.

``check_safety_preserved`` and ``check_refinement_next`` are compared in
every verdict field with the copies in ``refinement_reference.py``, which
judge every successor and every step; ``obligations`` stopped at its
first failure, and the gates' verdicts, alone and shared across one
``run_gates``, are compared with unshared, full ``verify_bundle``
outcomes. Counting tests pin the work saved.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.refinement as refinement
import refinement_reference as ref
from flowguard.actions import NoAction
from flowguard.flowfile import FlowDefinition, serialize_flow, with_prefix_mode
from flowguard.gates import (
    SEEDED_ERRORS,
    GateVerdict,
    MutantResult,
    check_template_fitness,
    gate_discrimination,
    gate_vacuity,
    mutation_by_id,
    permissive_stub,
    run_gates,
    verify_bundle,
)
from flowguard.impl_model import impl_inv, impl_next, impl_wf
from flowguard.refinement import (
    Bundle,
    CheckRun,
    check_refinement_next,
    first_failing_step,
    obligations,
    perturbations,
    reachable_layers,
    step_obligations,
)
from flowguard.spec_model import POLICY, TOOL_ALLOWLISTED, check_safety_preserved, spec_next, spec_safety
from conftest import shipped
from test_gates import first_failure
from test_sweep import shallow_bounds
from test_tracelog import FITTING, actions, flow_constants

OBLIGATION_ORDER = (
    "init_safety",
    "safety_preserved",
    "refinement_init",
    "inv_inductive",
    "r2_step_simulation",
    "r3_safety_transport",
)


def lax_safety(c, s):
    """Abstract safety without the allowlist conjunct, so that a perturbed
    state holding an unlisted tool is abstractly safe and concretely not."""
    return all(k.holds(c, getattr(s, k.field)) for k in POLICY if k is not TOOL_ALLOWLISTED)


def stutter_gap(c, s, a):
    """The shipped relation without the stutter under ``NoAction``, and
    with it under every other action."""
    succs = spec_next(c, s, a)
    return tuple(x for x in succs if x[1] is not s) if a == NoAction() else succs


EDITS = {
    "default": lambda b: b,
    **SEEDED_ERRORS,
    "permissive-stub": permissive_stub,
    "identity": mutation_by_id("identity"),
    "lax-safety": lambda b: b._replace(safety=lax_safety),
    # fails r2_step_simulation before inv_inductive in the scan order
    "noeffect-stub": lambda b: SEEDED_ERRORS["event-to-noeffect"](b)._replace(assume_inv=impl_wf),
    # r2 must judge a state's stutters action by action: in the reversed
    # shipped alphabets, NoAction's stutter comes after matched ones
    "stutter-gap": lambda b: b._replace(next_relation=stutter_gap),
}


def through_first_failure(outcomes):
    """The obligations, in order, up to and including the first failed
    one; nothing after it is drawn from ``outcomes``."""
    out = []
    for o in outcomes:
        out.append(o)
        if not o.passed:
            break
    return out


def assert_checkers_match_reference(c, alphabet, depth):
    for name, edit in EDITS.items():
        b = edit(Bundle())
        relation = {"next_relation": b.next_relation, "safety": b.safety}
        assert check_safety_preserved(c.spec, alphabet, depth, **relation) == ref.check_safety_preserved(
            c.spec, alphabet, depth, **relation
        ), name
        full = ref.check_refinement_next(c, b, alphabet, depth, **relation, assume_inv=b.assume_inv)
        assert check_refinement_next(c, b, alphabet, depth) == full, name
        stopped = through_first_failure(obligations(CheckRun(c, alphabet, depth), b))
        assert stopped == through_first_failure(verify_bundle(c, b, alphabet, depth)), name


def expected_gates(c, alphabet, depth, mutation_ids):
    """G2's verdict (None below its depth floor) and each mutant's result,
    as the first failed obligation of an unshared ``verify_bundle``, which
    judges every obligation over the full pass, names them."""
    bundle = Bundle()
    results = []
    for mid in mutation_ids:
        outcome = verify_bundle(c, mutation_by_id(mid)(bundle), alphabet, depth)
        assert tuple(o.name for o in outcome) == OBLIGATION_ORDER
        failed = first_failure(outcome)
        if failed is None:
            results.append(MutantResult(mid, False, detail="alive mutation: all obligations discharged"))
        else:
            results.append(MutantResult(mid, True, failed.name, failed.detail))
    if depth < 1:
        return None, results
    failed = first_failure(verify_bundle(c, permissive_stub(bundle), alphabet, depth))
    if failed is None:
        g2 = GateVerdict("g2", "fail", "vacuity witness: the stub discharged " + ", ".join(OBLIGATION_ORDER))
    else:
        g2 = GateVerdict("g2", "pass", f"permissive stub failed at {failed.name}")
    return g2, results


def assert_gates_stop_at_first_failure(c, alphabet, depth):
    bundle = Bundle()
    mutation_ids = (*SEEDED_ERRORS, "identity")
    g2, results = expected_gates(c, alphabet, depth, mutation_ids)
    run = CheckRun(c, alphabet, depth)
    assert [gate_discrimination(run, bundle, mid) for mid in mutation_ids] == results
    if g2 is not None:
        assert gate_vacuity(run, bundle) == g2


@settings(max_examples=60, deadline=None)
@given(
    c=flow_constants() | shallow_bounds(),
    alphabet=st.lists(st.one_of(*FITTING.values(), actions), max_size=4, unique=True),
    depth=st.integers(0, 4),
)
def test_checkers_and_gates_match_reference_on_random_flows(c, alphabet, depth):
    """Alphabets come in random order and lean toward actions some node
    kind effects, so that runs get past the entry node; out-of-policy
    actions come in too, so that the relation edits can be caught."""
    alphabet = tuple(alphabet)
    assert_checkers_match_reference(c, alphabet, depth)
    assert_gates_stop_at_first_failure(c, alphabet, depth)


@settings(max_examples=40, deadline=None)
@given(
    c=flow_constants() | shallow_bounds(),
    alphabet=st.lists(st.one_of(*FITTING.values(), actions), min_size=1, max_size=4, unique=True),
    depth=st.integers(0, 4),
    prefix_mode=st.sampled_from((None, "guarded", "bare")),
    mutation_ids=st.lists(st.sampled_from(tuple(SEEDED_ERRORS)), unique=True).flatmap(
        lambda ids: st.permutations(ids + ["identity"])
    ),
)
def test_shared_gate_run_matches_unshared_verification(c, alphabet, depth, prefix_mode, mutation_ids):
    """One ``run_gates`` shares its layers, candidate states and safety verdicts
    across G2, the mutants and fitness, and searches each step obligation
    only when a gate reaches it; every verdict, and each mutant's counterexample detail, must still be
    what unshared, full checks of the same flow give."""
    defn = FlowDefinition("random", c.spec, c.graph, tuple(alphabet))
    report = run_gates(serialize_flow(defn), depth, tuple(mutation_ids), prefix_mode=prefix_mode)
    verified = with_prefix_mode(defn, prefix_mode)
    assert report.g1.passed and report.flow == verified
    c, alphabet = verified.impl_constants, verified.alphabet
    g2, results = expected_gates(c, alphabet, depth, mutation_ids)
    if g2 is None:
        assert report.g2.status == "fail" and "configuration floor" in report.g2.detail
    else:
        assert report.g2 == g2
    assert list(report.mutants) == results
    assert report.fitness == check_template_fitness(CheckRun(c, alphabet, depth), Bundle())


@pytest.mark.parametrize("order", ["as-shipped", "reversed"])
@pytest.mark.parametrize("flow", ["read_agent", "rag_barrier", "rag_no_barrier"])
def test_checkers_and_gates_match_reference_on_shipped_flows(flow, order):
    fx = shipped(flow)
    c = fx.impl_constants
    alphabet = fx.alphabet if order == "as-shipped" else fx.alphabet[::-1]
    for depth in sorted({0, 1, 2, 3, 4, fx.constants.max_steps + 1}):
        assert_checkers_match_reference(c, alphabet, depth)
        assert_gates_stop_at_first_failure(c, alphabet, depth)


# ---------------------------------------------------------------------------
# Work counts


def test_safety_preserved_judges_each_state_once(agent):
    judged: dict[str, list] = {"now": [], "reference": []}

    def counting(key):
        def safety(c, s):
            judged[key].append(s)
            return spec_safety(c, s)

        return safety

    spec = agent.constants
    assert check_safety_preserved(spec, agent.alphabet, 4, safety=counting("now")).passed
    assert ref.check_safety_preserved(spec, agent.alphabet, 4, safety=counting("reference")).passed
    assert len(judged["now"]) == len(set(judged["now"])) == len(set(judged["reference"]))
    assert len(judged["reference"]) > len(judged["now"])


def test_refinement_judges_a_stutter_post_state_once_per_state(agent):
    """``b.inv`` runs at most once per explored state (at its first
    stutter, whose post-state is the state itself) plus once per effected
    step. The initial obligation is ``check_refinement_init``'s, so the
    step check never judges init for it."""
    c, alphabet = agent.impl_constants, agent.alphabet
    admitted = []  # the explored states, kept alive so that their ids stay theirs
    judged = []

    def assume(c, s):
        ok = impl_inv(c, s)
        if ok:
            admitted.append(s)
        return ok

    def inv(c, s):
        judged.append(s)
        return impl_inv(c, s)

    verdict = check_refinement_next(c, Bundle(inv=inv, assume_inv=assume), alphabet, 4)
    assert all(o.passed and o.explored_states == len(admitted) for o in verdict)
    explored = {id(s) for s in admitted}
    per_state = Counter(id(s) for s in judged if id(s) in explored)
    assert per_state and max(per_state.values()) == 1
    effected = sum(impl_next(c, s, a)[0][1] is not s for s in admitted for a in alphabet)
    assert len(judged) <= len(admitted) + effected
    assert len(judged) < len(admitted) * len(alphabet)


def test_gates_skip_the_step_check_of_mutants_killed_earlier(agent_flow_text, monkeypatch):
    """Each step obligation is a search of its own, run only when a gate
    reaches it. The permissive stub and ``drop-history-clause`` search
    ``inv_inductive`` only, ``event-to-noeffect`` searches it and
    ``r2_step_simulation``, and the two relation edits die at
    ``safety_preserved`` before any search."""
    searches, drawn = [], []

    def counting(*args):
        searches.append(len(drawn))  # the obligations drawn before this search
        return first_failing_step(*args)

    def drawing(*args):
        for o in step_obligations(*args):
            drawn.append(o.name)
            yield o

    monkeypatch.setattr(refinement, "first_failing_step", counting)
    monkeypatch.setattr(refinement, "step_obligations", drawing)
    report = run_gates(agent_flow_text, 4)
    assert report.passed
    assert {m.mutation_id: m.killed_by for m in report.mutants} == {
        "drop-allowlist-guard": "safety_preserved",
        "step-bound-off-by-one": "safety_preserved",
        "event-to-noeffect": "r2_step_simulation",
        "drop-history-clause": "inv_inductive",
    }
    assert drawn == ["inv_inductive", "inv_inductive", "r2_step_simulation", "inv_inductive"]
    assert searches == list(range(len(drawn)))


def test_one_gate_run_explores_once_and_judges_each_relation_once(agent, agent_flow_text, monkeypatch):
    """The stub, ``event-to-noeffect`` and ``drop-history-clause`` keep the
    shipped (next_relation, safety) pair, and each relation edit has its
    own: three safety-preservation checks for five bundles, one set of
    reachable layers for G2, G3 and fitness, and one perturbation pass over
    its base states. ``check_refinement_next`` explores once too."""
    layer_calls, preserved, perturbed = [], [], []

    def counting_layers(*args):
        layer_calls.append(args)
        return reachable_layers(*args)

    def counting_preserved(*args, **kwargs):
        preserved.append((kwargs["next_relation"], kwargs["safety"]))
        return check_safety_preserved(*args, **kwargs)

    def counting_perturbations(c, s, alphabet):
        perturbed.append(s)
        return perturbations(c, s, alphabet)

    monkeypatch.setattr(refinement, "reachable_layers", counting_layers)
    monkeypatch.setattr(refinement, "check_safety_preserved", counting_preserved)
    monkeypatch.setattr(refinement, "perturbations", counting_perturbations)
    report = run_gates(agent_flow_text, 4)
    assert report.passed and len(report.mutants) == 4
    assert len(layer_calls) == 1
    assert len(preserved) == len(set(preserved)) == 3
    assert perturbed == [s for layer in reachable_layers(*layer_calls[0])[:4] for s in layer]

    layer_calls.clear()
    perturbed.clear()
    verdict = check_refinement_next(agent.impl_constants, Bundle(), agent.alphabet, 4)
    assert all(o.passed for o in verdict) and len(layer_calls) == 1
    assert perturbed == [s for layer in reachable_layers(*layer_calls[0])[:4] for s in layer]


def test_the_stub_step_check_stops_after_its_first_inv_failure(agent, monkeypatch):
    """G2 judges no admitted state after the one where the stub first fails
    ``inv_inductive``: neither ``b.inv`` nor ``next_relation`` is called
    while a later state's steps are taken. ``verify_bundle`` goes on."""
    c, alphabet = agent.impl_constants, agent.alphabet
    stepping: list = [None]  # the state whose steps are being taken
    judged: list = []  # that state, at each call of b.inv or next_relation

    def step(c, s, a):
        stepping[0] = s
        return impl_next(c, s, a)

    def inv(c, s):
        judged.append(stepping[0])
        return impl_inv(c, s)

    def relation(c, s, a):
        judged.append(stepping[0])
        return spec_next(c, s, a)

    admitted = [s for s in CheckRun(c, alphabet, 4).candidates if impl_wf(c, s)]
    order = {s: i for i, s in enumerate(admitted)}
    inv_inductive = check_refinement_next(c, Bundle(assume_inv=impl_wf), alphabet, 4)[0]
    bundle = Bundle(next_relation=relation, inv=inv)
    monkeypatch.setattr(refinement, "impl_next", step)

    def judged_states(check):
        stepping[0] = None
        judged.clear()
        check()
        return {order[s] for s in judged if s in order}

    stopped = judged_states(lambda: gate_vacuity(CheckRun(c, alphabet, 4), bundle))
    full = judged_states(lambda: verify_bundle(c, permissive_stub(bundle), alphabet, 4))
    assert max(stopped) == order[inv_inductive.counterexample.pre_state] < max(full) == len(admitted) - 1
