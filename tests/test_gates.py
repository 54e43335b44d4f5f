"""Validation gates: resolution, vacuity, discrimination, and the
template-fitness audit, including the pair of retrieval flows that only
fitness can tell apart."""

import hashlib
import json

import pytest

import flowguard.gates as gates
from flowguard.actions import ToolCallAction
from flowguard.flowfile import flow_to_document
from flowguard.impl_model import impl_init, impl_inv, impl_wf
from flowguard.refinement import Bundle, CheckRun, reachable_layers
from flowguard.gates import (
    SEEDED_ERRORS,
    check_template_fitness,
    gate_discrimination,
    gate_resolution,
    gate_vacuity,
    mutation_by_id,
    permissive_stub,
    run_gates,
    verify_bundle,
)
from flowguard.spec_model import spec_init, spec_next


def bundle_fingerprint(flow):
    """Hash of everything mutations must not touch: constants, graph,
    alphabet, and the checker configuration."""
    doc = flow_to_document(flow)
    doc["checker"] = {"concrete_machine": "impl_next", "abstract_init": "spec_init"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def first_failure(outcome):
    """The first failed obligation of a ``verify_bundle`` outcome, or None."""
    return next((o for o in outcome if not o.passed), None)


@pytest.fixture(scope="module")
def bundle():
    return Bundle()


@pytest.fixture(scope="module")
def run(agent):
    return CheckRun(agent.impl_constants, agent.alphabet, 4)


# ---------------------------------------------------------------------------
# G1 resolution


def test_g1_accepts_the_fixture(agent_flow_text):
    verdict, flow = gate_resolution(agent_flow_text)
    assert verdict.passed
    assert flow is not None


def test_g1_rejects_dangling_node_reference(agent_flow_text):
    doc = json.loads(agent_flow_text)
    doc["graph"]["edges"][0]["to"] = "ghost"
    verdict, _ = gate_resolution(json.dumps(doc))
    assert not verdict.passed
    assert "ghost" in verdict.detail


def test_g1_rejects_unknown_action_variant(agent_flow_text):
    doc = json.loads(agent_flow_text)
    doc["alphabet"].append("TeleportAction(moon)")
    verdict, _ = gate_resolution(json.dumps(doc))
    assert not verdict.passed
    assert "TeleportAction" in verdict.detail


def test_g1_rejects_unknown_keys(agent_flow_text):
    doc = json.loads(agent_flow_text)
    doc["surprise"] = True
    verdict, _ = gate_resolution(json.dumps(doc))
    assert not verdict.passed


def test_g1_budget_is_enforced(agent_flow_text, monkeypatch):
    monkeypatch.setattr(gates, "DEFAULT_GATE_BUDGET_SECONDS", 0.0)
    verdict, _ = gate_resolution(agent_flow_text)
    assert not verdict.passed
    assert "budget" in verdict.detail


# ---------------------------------------------------------------------------
# the verification stand-in


def test_unmutated_bundle_discharges_everything(agent, bundle):
    outcome = verify_bundle(agent.impl_constants, bundle, agent.alphabet, 4)
    assert all(o.passed for o in outcome)
    names = [o.name for o in outcome]
    assert names == [
        "init_safety",
        "safety_preserved",
        "refinement_init",
        "inv_inductive",
        "r2_step_simulation",
        "r3_safety_transport",
    ]


# ---------------------------------------------------------------------------
# G2 vacuity


def test_g2_passes_because_the_stub_fails(run, bundle):
    verdict = gate_vacuity(run, bundle)
    assert verdict.passed
    assert "inv_inductive" in verdict.detail


def test_g2_fails_for_a_bundle_that_never_demanded_structure(run, bundle):
    """If the declared invariant is already well-formedness only, the stub
    is the original: both verify identically and the gate must fail."""
    wf_bundle = bundle._replace(inv=impl_wf)
    verdict = gate_vacuity(run, wf_bundle)
    assert not verdict.passed
    assert "vacuity witness" in verdict.detail


def test_g2_depth_zero_hits_the_configuration_floor(agent, bundle):
    verdict = gate_vacuity(CheckRun(agent.impl_constants, agent.alphabet, 0), bundle)
    assert not verdict.passed
    assert "configuration floor" in verdict.detail


def test_stub_keeps_obligations_while_weakening_assumptions(agent, bundle):
    outcome = verify_bundle(agent.impl_constants, permissive_stub(bundle), agent.alphabet, 4)
    assert not all(o.passed for o in outcome)
    failed = first_failure(outcome)
    assert failed is not None and failed.name == "inv_inductive"


# ---------------------------------------------------------------------------
# G3 discrimination


@pytest.mark.parametrize("mutation_id", list(SEEDED_ERRORS))
def test_every_shipped_seeded_error_is_killed(run, bundle, mutation_id):
    result = gate_discrimination(run, bundle, mutation_id)
    assert result.killed and result.killed_by, result


def test_expected_killers_per_mutant(run, bundle):
    expected = {
        "drop-allowlist-guard": "safety_preserved",
        "step-bound-off-by-one": "safety_preserved",
        "event-to-noeffect": "r2_step_simulation",
        "drop-history-clause": "inv_inductive",
    }
    for mid, killer in expected.items():
        result = gate_discrimination(run, bundle, mid)
        assert result.killed_by == killer, (mid, result)


def test_identity_mutation_survives(run, bundle):
    result = gate_discrimination(run, bundle, "identity")
    assert not result.killed
    assert "alive" in result.detail


def test_mutations_leave_the_trusted_surface_untouched(agent, bundle):
    before = bundle_fingerprint(agent)
    for edit in (*SEEDED_ERRORS.values(), permissive_stub, mutation_by_id("identity")):
        edit(bundle)
        assert bundle_fingerprint(agent) == before


EDITED_FIELDS = {
    "drop-allowlist-guard": ["next_relation"],
    "step-bound-off-by-one": ["next_relation"],
    "event-to-noeffect": ["event_abs"],
    "drop-history-clause": ["assume_inv"],
    "permissive-stub": ["assume_inv"],
    "identity": [],
}


@pytest.mark.parametrize("mutation_id", list(EDITED_FIELDS))
def test_each_mutation_edits_one_definition(mutation_id):
    """A seeded error is an edit of one definition: it replaces exactly one
    field of the shipped bundle, and identity replaces none."""
    edits = {**SEEDED_ERRORS, "identity": mutation_by_id("identity"), "permissive-stub": permissive_stub}
    shipped = Bundle()
    mutant = edits[mutation_id](shipped)
    edited = [name for name in Bundle.__match_args__ if getattr(mutant, name) != getattr(shipped, name)]
    assert edited == EDITED_FIELDS[mutation_id]


def test_mutants_step_through_the_module_bindings(agent, monkeypatch):
    """A policy edit calls ``gates.spec_next``, and a dropped invariant
    clause ``gates.impl_inv``, as bound when the mutation is applied, so
    a rebinding such as the benchmark tracer's counts their calls."""
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(gates, "spec_next", counting(spec_next))
    monkeypatch.setattr(gates, "impl_inv", counting(impl_inv))
    c = agent.impl_constants
    SEEDED_ERRORS["drop-allowlist-guard"](Bundle()).next_relation(c.spec, spec_init(c.spec), ToolCallAction("rm"))
    SEEDED_ERRORS["drop-history-clause"](Bundle()).assume_inv(c, impl_init(c))
    assert calls == ["spec_next", "impl_inv"]


# ---------------------------------------------------------------------------
# template fitness


def test_fitness_witnesses_both_sequences_on_read_agent(run, bundle):
    fitness = check_template_fitness(run, bundle)
    statuses = {cf.name: cf.status for cf in fitness}
    assert statuses == {"ReadPathsRooted": "witnessed", "ToolAllowlisted": "witnessed"}


def test_fitness_flags_the_silent_abstention(rag_no_barrier):
    run = CheckRun(rag_no_barrier.impl_constants, rag_no_barrier.alphabet, 4)
    fitness = check_template_fitness(run, Bundle())
    assert [cf.name for cf in fitness if cf.status == "VACUOUS"] == ["ToolAllowlisted"]
    by_name = {cf.name: cf for cf in fitness}
    assert by_name["ReadPathsRooted"].status == "witnessed"


def test_fitness_passes_in_barrier_mode(rag_barrier):
    run = CheckRun(rag_barrier.impl_constants, rag_barrier.alphabet, 4)
    fitness = check_template_fitness(run, Bundle())
    assert all(cf.status == "witnessed" for cf in fitness)
    by_name = {cf.name: cf for cf in fitness}
    # the fetched document ids land in the tool-call sequence
    assert by_name["ToolAllowlisted"].witness_value
    assert all(t in rag_barrier.constants.allowed_tools for t in by_name["ToolAllowlisted"].witness_value)


# ---------------------------------------------------------------------------
# the composed pipeline


def test_pipeline_passes_on_read_agent(agent_flow_text):
    report = run_gates(agent_flow_text, 4)
    assert report.passed
    assert all(m.killed for m in report.mutants)


def test_pipeline_separates_the_rag_pair(rag_barrier_flow_text, rag_no_barrier_flow_text):
    barrier = run_gates(rag_barrier_flow_text, 4)
    assert barrier.passed

    no_barrier = run_gates(rag_no_barrier_flow_text, 4)
    assert not no_barrier.passed
    # the three gates pass; only fitness separates the two modes
    assert no_barrier.g1.passed and no_barrier.g2.passed and no_barrier.g3.passed
    assert no_barrier.failing_gates() == ("fitness",)
    assert [cf.name for cf in no_barrier.fitness if cf.status == "VACUOUS"] == ["ToolAllowlisted"]


def test_pipeline_short_circuits_after_g1(agent_flow_text):
    report = run_gates("{not json", 4)
    assert not report.g1.passed
    for verdict in (report.g2, report.g3, report.fitness_verdict):
        assert (verdict.status, verdict.detail) == ("skipped", "g1 failed")
    assert report.failing_gates() == ("g1",)
    assert (report.mutants, report.fitness, report.flow) == ((), (), None)


def test_pipeline_accepts_an_explicit_mutation_list(agent_flow_text):
    report = run_gates(agent_flow_text, 4, mutation_ids=("drop-allowlist-guard",))
    assert report.passed
    assert [m.mutation_id for m in report.mutants] == ["drop-allowlist-guard"]


@pytest.mark.parametrize("fixture", ["agent", "rag_barrier", "rag_no_barrier"])
def test_pipeline_at_an_extreme_depth_matches_the_closure_depth(fixture, request):
    """With every effected action taking a step, no state is first reached
    after more than ``max_steps`` steps: the reachable layers stop there
    however deep the bound, and so every verdict at depth 10**6 is the
    verdict at depth ``max_steps + 2``."""
    fx = request.getfixturevalue(fixture)
    text = request.getfixturevalue(f"{fixture}_flow_text")
    c = fx.impl_constants
    closed = c.spec.max_steps + 2
    layers = reachable_layers(c, fx.alphabet, 10**6)
    assert 1 <= len(layers) <= c.spec.max_steps + 1 and all(layers)
    assert layers == reachable_layers(c, fx.alphabet, closed)

    def verdicts(report):
        return report.g2, report.g3, report.fitness_verdict, report.mutants, report.fitness

    assert verdicts(run_gates(text, 10**6)) == verdicts(run_gates(text, closed))


def test_pipeline_rejects_unknown_mutation_ids(agent_flow_text):
    with pytest.raises(ValueError):
        run_gates(agent_flow_text, 4, mutation_ids=("zap-everything",))


@pytest.mark.parametrize("mutation_ids", [("identity", "identity"), ("drop-history-clause", "identity", "drop-history-clause")])
def test_pipeline_rejects_a_repeated_mutation_id_before_g1(mutation_ids, monkeypatch):
    monkeypatch.setattr(gates, "gate_resolution", lambda *args: pytest.fail("G1 ran"))
    with pytest.raises(ValueError, match="repeated mutation id"):
        run_gates("{not json", 4, mutation_ids=mutation_ids)


def test_pipeline_rejects_an_empty_mutation_set_before_g1(agent_flow_text, monkeypatch):
    """An empty set would pass G3 with "0 mutants killed": a discrimination
    gate that judged nothing."""
    monkeypatch.setattr(gates, "gate_resolution", lambda *args: pytest.fail("G1 ran"))
    with pytest.raises(ValueError, match="mutation_ids is empty"):
        run_gates(agent_flow_text, 4, mutation_ids=())


@pytest.mark.parametrize("prefix_mode", ["loose", "", "GUARDED"])
def test_pipeline_rejects_an_unknown_prefix_mode_before_g1(agent_flow_text, prefix_mode, monkeypatch):
    monkeypatch.setattr(gates, "gate_resolution", lambda *args: pytest.fail("G1 ran"))
    with pytest.raises(ValueError, match="unknown prefix_mode"):
        run_gates(agent_flow_text, 4, prefix_mode=prefix_mode)
