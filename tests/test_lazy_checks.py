"""The gates' checkers judge each state once, and each gate stops at its
first failed obligation.

``check_safety_preserved`` and ``check_refinement_next`` are compared in
every verdict field with the copies in ``refinement_reference.py``, which
judge every successor and every step; the gates' lazy verdicts are
compared with the first failure of the full ``verify_bundle`` outcome.
Counting tests pin the work saved.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.gates as gates
import refinement_reference as ref
from flowguard.fixtures import rag_flow, read_agent
from flowguard.flowfile import from_fixture, serialize_flow
from flowguard.gates import (
    SEEDED_ERRORS,
    CheckConfig,
    GateVerdict,
    default_spec_bundle,
    gate_discrimination,
    gate_vacuity,
    identity_mutation,
    permissive_stub,
    run_gates,
    verify_bundle,
)
from flowguard.impl_model import impl_inv, impl_next
from flowguard.refinement import check_refinement_next, default_bundle
from flowguard.spec_model import POLICY, TOOL_ALLOWLISTED, check_safety_preserved, spec_safety
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


CONFIGS = {
    "default": CheckConfig,
    **{mid: m.apply for mid, m in SEEDED_ERRORS.items()},
    "permissive-stub": permissive_stub().apply,
    "identity": identity_mutation().apply,
    "lax-safety": lambda b: CheckConfig(replace(b, safety=lax_safety)),
}


def assert_checkers_match_reference(c, alphabet, depth):
    bundle = default_spec_bundle(c, "test")
    for name, make in CONFIGS.items():
        config = make(bundle)
        b = config.bundle
        relation = {"next_relation": b.next_relation, "safety": b.safety}
        assert check_safety_preserved(b.constants, alphabet, depth, **relation) == ref.check_safety_preserved(
            b.constants, alphabet, depth, **relation
        ), name
        step = (c, b.bundle_for_impl, alphabet, depth)
        assert check_refinement_next(*step, **relation, assume_inv=config.assume_inv) == ref.check_refinement_next(
            *step, **relation, assume_inv=config.assume_inv
        ), name


def assert_gates_stop_at_first_failure(c, alphabet, depth):
    bundle = default_spec_bundle(c, "test")
    for mutation in (*SEEDED_ERRORS.values(), identity_mutation()):
        outcome = verify_bundle(c, mutation.apply(bundle), alphabet, depth)
        assert tuple(o.name for o in outcome.obligations) == OBLIGATION_ORDER
        failed = outcome.first_failure()
        _verdict, result = gate_discrimination(c, bundle, mutation, alphabet, depth)
        if failed is None:
            assert not result.killed and result.detail == "alive mutation: all obligations discharged"
        else:
            assert (result.killed, result.killed_by, result.detail) == (True, failed.name, failed.detail)
    if depth >= 1:
        outcome = verify_bundle(c, permissive_stub().apply(bundle), alphabet, depth)
        failed = outcome.first_failure()
        if failed is None:
            expected = GateVerdict("g2", "fail", "vacuity witness: the stub discharged " + ", ".join(OBLIGATION_ORDER))
        else:
            expected = GateVerdict("g2", "pass", f"permissive stub failed at {failed.name}")
        assert gate_vacuity(c, bundle, alphabet, depth) == expected


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


@pytest.mark.parametrize("order", ["as-shipped", "reversed"])
@pytest.mark.parametrize(
    "fixture",
    [read_agent, lambda: rag_flow(barrier=True), lambda: rag_flow(barrier=False)],
    ids=["read_agent", "rag_barrier", "rag_no_barrier"],
)
def test_checkers_and_gates_match_reference_on_shipped_flows(fixture, order):
    fx = fixture()
    alphabet = fx.alphabet if order == "as-shipped" else fx.alphabet[::-1]
    for depth in sorted({0, 1, 2, 3, 4, fx.constants.spec.max_steps + 1}):
        assert_checkers_match_reference(fx.constants, alphabet, depth)
        assert_gates_stop_at_first_failure(fx.constants, alphabet, depth)


# ---------------------------------------------------------------------------
# Work counts


def test_safety_preserved_judges_each_state_once():
    fx = read_agent()
    judged: dict[str, list] = {"now": [], "reference": []}

    def counting(key):
        def safety(c, s):
            judged[key].append(s)
            return spec_safety(c, s)

        return safety

    spec = fx.constants.spec
    assert check_safety_preserved(spec, fx.alphabet, 4, safety=counting("now")).passed
    assert ref.check_safety_preserved(spec, fx.alphabet, 4, safety=counting("reference")).passed
    assert len(judged["now"]) == len(set(judged["now"])) == len(set(judged["reference"]))
    assert len(judged["reference"]) > len(judged["now"])


def test_refinement_judges_a_stutter_post_state_once_per_state():
    """``b.inv`` runs at most once per explored state (at its first
    stutter, whose post-state is the state itself) plus once per effected
    step, plus once more for the initial check of r1."""
    fx = read_agent()
    c, alphabet = fx.constants, fx.alphabet
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

    verdict = check_refinement_next(c, replace(default_bundle(), inv=inv), alphabet, 4, assume_inv=assume)
    assert verdict.passed and verdict.explored_states == len(admitted)
    explored = {id(s) for s in admitted}
    per_state = Counter(id(s) for s in judged if id(s) in explored)
    assert per_state and max(per_state.values()) == 1
    effected = sum(impl_next(c, s, a)[0][1] is not s for s in admitted for a in alphabet)
    assert len(judged) <= len(admitted) + effected + 1
    assert len(judged) < len(admitted) * len(alphabet)


def test_gates_skip_the_step_check_of_mutants_killed_earlier(monkeypatch):
    """The permissive stub, ``event-to-noeffect`` and
    ``drop-history-clause`` reach the step check; the two relation edits
    die at ``safety_preserved`` before it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check_refinement_next(*args, **kwargs)

    monkeypatch.setattr(gates, "check_refinement_next", counting)
    report = run_gates(serialize_flow(from_fixture(read_agent())), 4)
    assert report.passed
    assert {m.mutation_id: m.killed_by for m in report.mutants} == {
        "drop-allowlist-guard": "safety_preserved",
        "step-bound-off-by-one": "safety_preserved",
        "event-to-noeffect": "r2_step_simulation",
        "drop-history-clause": "inv_inductive",
    }
    assert len(calls) == 3
