"""The havoc sweep's prefix-tree walk against the brute-force replay it
replaced (``sweep_reference.py``): the same verdict in every field, on
random small flows and on broken step functions, at a number of step
calls that follows the prefix tree."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.havoc as havoc
import sweep_reference as ref
from flowguard.actions import NoAction, StepAction
from flowguard.cli import main
from flowguard.fixtures import rag_flow, read_agent
from flowguard.flowfile import from_fixture, serialize_flow
from flowguard.havoc import sweep
from flowguard.impl_model import impl_init, impl_next
from test_havoc import broken_next
from test_tracelog import FITTING, _equal_copy, flow_constants


def overstepping_next(c, s, a):
    """``impl_next`` with one step more than the bound allows."""
    return impl_next(dataclasses.replace(c, spec=dataclasses.replace(c.spec, max_steps=c.spec.max_steps + 1)), s, a)


def forgetful_next(c, s, a):
    """``impl_next`` that drops the history of every effected step."""
    ((event, nxt),) = impl_next(c, s, a)
    return ((event, nxt if nxt is s else dataclasses.replace(nxt, history=())),)


MACHINES = {
    "impl_next": impl_next,
    "broken_next": broken_next,
    "overstepping_next": overstepping_next,
    "forgetful_next": forgetful_next,
}


def copying_stutters(next_fn):
    """``next_fn`` returning an equal but not identical copy of the
    pre-state on a stutter, so the sweep cannot tell it is one."""

    def next_copy(c, s, a):
        ((event, nxt),) = next_fn(c, s, a)
        return ((event, _equal_copy(nxt) if nxt is s else nxt),)

    return next_copy


STUTTERS = {"identical": lambda fn: fn, "copied": copying_stutters}


@st.composite
def shallow_bounds(draw):
    """Flow constants whose step bound a depth-4 sweep can reach."""
    c = draw(flow_constants())
    return dataclasses.replace(c, spec=dataclasses.replace(c.spec, max_steps=draw(st.integers(0, 4))))


@pytest.mark.parametrize("stutter", STUTTERS)
@pytest.mark.parametrize("machine", MACHINES)
@settings(max_examples=40, deadline=None)
@given(
    c=flow_constants() | shallow_bounds(),
    alphabet=st.lists(st.one_of(*FITTING.values()), min_size=1, max_size=4, unique=True),
    depth=st.integers(0, 4),
)
def test_sweep_matches_brute_force_on_random_flows(machine, stutter, c, alphabet, depth):
    """Alphabets come in random order and lean toward actions some node
    kind effects, so that runs get past the entry node."""
    next_fn = STUTTERS[stutter](MACHINES[machine])
    alphabet = tuple(alphabet)
    assert sweep(c, alphabet, depth, next_fn=next_fn) == ref.sweep(c, alphabet, depth, next_fn=next_fn)


FIXTURES = {"read_agent": read_agent(), "rag_barrier": rag_flow(barrier=True), "rag_no_barrier": rag_flow(barrier=False)}


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_sweep_matches_brute_force_on_shipped_flows(fixture, machine):
    fx = FIXTURES[fixture]
    next_fn = MACHINES[machine]
    for alphabet in (fx.alphabet, fx.alphabet[::-1]):
        for depth in range(5):
            assert sweep(fx.constants, alphabet, depth, next_fn=next_fn) == ref.sweep(
                fx.constants, alphabet, depth, next_fn=next_fn
            )


def test_broken_machines_fail_with_every_detail():
    """The broken machines above reach each of the sweep's three checks."""
    fx = read_agent()
    details = {
        machine: sweep(fx.constants, fx.alphabet, 5, next_fn=MACHINES[machine]).violation.detail
        for machine in ("broken_next", "overstepping_next", "forgetful_next")
    }
    assert details["broken_next"].startswith("out-of-policy event")
    assert details["overstepping_next"] == "safety predicate violated"
    assert details["forgetful_next"] == "inductive invariant violated"


# ---------------------------------------------------------------------------
# Step calls and skipped checks


def _counting(fn):
    def counted(*args):
        counted.calls += 1
        return fn(*args)

    counted.calls = 0
    return counted


def test_sweep_steps_each_prefix_once():
    fx = read_agent()
    next_fn = _counting(impl_next)
    assert sweep(fx.constants, fx.alphabet, 4, next_fn=next_fn).passed
    assert next_fn.calls == sum(6**k for k in range(1, 5)) == 1554


def test_stutters_skip_only_the_state_checks_already_made(monkeypatch):
    """An identical stutter out of a checked state runs neither state
    predicate again; an equal copy is checked like any other post-state."""
    fx = read_agent()
    safety = _counting(havoc.impl_safety)
    inv = _counting(havoc.impl_inv)
    monkeypatch.setattr(havoc, "impl_safety", safety)
    monkeypatch.setattr(havoc, "impl_inv", inv)
    assert sweep(fx.constants, fx.alphabet, 4, next_fn=copying_stutters(impl_next)).passed
    assert safety.calls == inv.calls == 1554
    safety.calls = inv.calls = 0
    assert sweep(fx.constants, fx.alphabet, 4).passed
    assert 0 < safety.calls == inv.calls < 1554


def test_a_stutter_out_of_init_is_checked(monkeypatch):
    """Init has not been checked as a post-state, so a stutter out of it is."""
    fx = read_agent()
    init = impl_init(fx.constants)

    def not_init(c, s):
        return s != init

    monkeypatch.setattr(havoc, "impl_safety", not_init)
    monkeypatch.setattr(ref, "impl_safety", not_init)
    verdict = sweep(fx.constants, (NoAction(),), 3)
    assert verdict == ref.sweep(fx.constants, (NoAction(),), 3)
    assert verdict.violation.step_index == 0
    assert verdict.violation.detail == "safety predicate violated"


def test_empty_alphabet():
    fx = read_agent()
    for depth in range(3):
        assert sweep(fx.constants, (), depth) == ref.sweep(fx.constants, (), depth)
    assert sweep(fx.constants, (), 1).sequences == 0


def test_sweep_at_depth_5000_does_not_recurse(tmp_path):
    path = tmp_path / "step_only.json"
    path.write_text(serialize_flow(dataclasses.replace(from_fixture(read_agent()), alphabet=(StepAction(),))))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--flow", str(path), "--depth", "5000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["sequences"], report["visited_states"]) == (1, 1)
