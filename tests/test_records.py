"""The package's records: value semantics that ignore caches, refused
assignment, and the reprs that reach reports.

Value records derive from ``actions.TupleRecord``, which makes each the
``collections.namedtuple`` class ``typing.NamedTuple`` would build,
without loading ``typing``; the classes with behaviour (the interned
vocabulary, ``ImplEvent``, the constants, the graph and the bundle) are
slotted ``actions.Record`` subclasses. A ``Record``'s ``repr``
is the one a frozen dataclass with the same fields writes, and it reaches
reports through sweep details (``{event.effect!r}``) and through
``check_soundness`` details, so each is compared with a real dataclass
twin here.
"""

import copy
import dataclasses
import pickle

import pytest

from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    Record,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
    TupleRecord,
)
from flowguard.flowfile import FlowDefinition
from flowguard.gates import GateReport, run_gates, verify_bundle
from flowguard.havoc import ScriptedOracle, SweepVerdict, SweepViolation, Trace, drive, sweep
from flowguard.impl_model import STUTTER, ImplState
from flowguard.refinement import Bundle, check_soundness
from flowguard.spec_model import POLICY
from conftest import FLOWS, shipped

TERMS = (
    NoAction(),
    StepAction(),
    ReadPathAction('/ws/"quoted" é'),
    ToolCallAction("search"),
    ReadEvent("/etc/passwd"),
    ToolEvent("rm"),
    StepEvent(),
    NoEffect(),
)


def dataclass_repr(value) -> str:
    """The ``repr`` of a frozen dataclass with ``value``'s class name and
    fields, holding the same field values."""
    names = value.__match_args__
    twin = dataclasses.make_dataclass(type(value).__name__, names, frozen=True)
    return repr(twin(*(getattr(value, name) for name in names)))


def warmed():
    """The read_agent constants after a full ``check`` filled every cache."""
    defn = shipped("read_agent")
    c = defn.impl_constants
    verify_bundle(c, Bundle(), defn.alphabet, 6)
    sweep(c, defn.alphabet, 6)
    assert c._routes and c.spec._moves and c.spec._holds
    return c


def test_warmed_caches_take_no_part_in_equality_or_hash():
    c, fresh = warmed(), shipped("read_agent").impl_constants
    assert not fresh._routes and not fresh.spec._moves and not fresh.spec._holds
    for warm, cold in ((c, fresh), (c.spec, fresh.spec), (c.graph, fresh.graph)):
        assert warm == cold and not warm != cold
        assert hash(warm) == hash(cold)
    assert c != c._replace(spec=c.spec._replace(max_steps=c.spec.max_steps + 1))


ROUTES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda v: pickle.loads(pickle.dumps(v))}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_a_copy_of_warmed_constants_is_equal_with_fresh_caches(route):
    """A copy is rebuilt through the constructor: its own caches start
    empty, and a shallow copy shares the field values."""
    c = warmed()
    other = route(c)
    assert other == c and other is not c and not other._routes
    if route is copy.copy:
        assert other.spec is c.spec
    else:
        assert not other.spec._moves and not other.spec._holds


def records():
    """One instance of every public record, most of them from real runs."""
    defn = shipped("read_agent")
    c = defn.impl_constants
    report = run_gates((FLOWS / "read_agent.json").read_text(encoding="utf-8"), 4)
    script = [ReadPathAction("/ws/a.txt"), ToolCallAction("search"), StepAction()]
    record = drive(c, ScriptedOracle(script), 3)
    out = {
        "Obligation": verify_bundle(c, Bundle(), defn.alphabet, 2)[0],
        "Step": record.trace.steps[0],
        "Conjunct": POLICY[0],
        "Dispatch": record.emitted_events[0].dispatch,
        "RunRecord": record,
        "Trace": record.trace,
        "SweepViolation": SweepViolation(("NoAction",), 0, "detail"),
        "SweepVerdict": sweep(c, defn.alphabet, 2),
        "ConjunctFitness": report.fitness[0],
        "GateReport": report,
        "FlowDefinition": defn,
        "ImplEvent": record.emitted_events[0],
        "SpecConstants": c.spec,
        "FlowGraph": c.graph,
        "ImplConstants": c,
        "Bundle": Bundle(),
    }
    out.update((type(t).__name__, t) for t in TERMS)
    return out


RECORDS = records()


def test_every_record_is_a_named_tuple_or_a_slotted_record():
    for name, value in RECORDS.items():
        assert type(value).__name__ == name
        assert isinstance(value, Record) or hasattr(type(value), "_fields"), name
        assert not hasattr(value, "__dict__"), name


@pytest.mark.parametrize("route", [*ROUTES.values(), lambda v: v._replace(**v._asdict())], ids=[*ROUTES, "_replace"])
@pytest.mark.parametrize("name", sorted(name for name, value in RECORDS.items() if isinstance(value, tuple)))
def test_every_tuple_record_round_trips(name, route):
    value = RECORDS[name]
    other = route(value)
    assert type(other) is type(value) and other == value


def test_a_tuple_record_keeps_what_typing_named_tuple_gave():
    """The fields and defaults of the class statement, in order, and the
    body's docstring, methods and properties."""
    assert ImplState._fields == (
        "current_node", "read_paths", "tool_calls", "step_count", "history", "last_node", "last_action"
    )
    assert ImplState._field_defaults == {
        "read_paths": (), "tool_calls": (), "step_count": 0, "history": (),
        "last_node": None, "last_action": NoAction(),
    }
    assert ImplState.__doc__.startswith("A state of the concrete machine: an immutable tuple record")
    assert ImplState.__module__ == "flowguard.impl_model" and ImplState.__bases__ == (tuple,)
    assert Trace.states.__doc__.startswith("Initial state followed by every post-state")
    assert isinstance(GateReport.passed, property) and callable(GateReport.failing_gates)
    assert RECORDS["FlowDefinition"].impl_constants == RECORDS["ImplConstants"]
    assert isinstance(FlowDefinition.impl_constants, property)


def test_a_field_without_a_default_may_not_follow_a_defaulted_one():
    with pytest.raises(TypeError, match="a field without a default follows one with a default"):

        class Refused(TupleRecord):
            first: int = 0
            second: int


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_record_refuses_assignment(name):
    value = RECORDS[name]
    fields = getattr(value, "_fields", None) or value.__match_args__
    for attr in (*fields, *getattr(value, "__slots__", ()), "unheard_of"):
        if attr == "__weakref__":
            continue
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)


EVENT = ImplEvent(ReadEvent("/ws/a"), Dispatch("scan", "read", "search"))


@pytest.mark.parametrize(
    "value",
    [*TERMS, EVENT, STUTTER, *(RECORDS[name] for name in ("SpecConstants", "FlowGraph", "ImplConstants", "Bundle"))],
    ids=lambda value: type(value).__name__,
)
def test_repr_is_the_dataclass_repr(value):
    """Caches take no part in it either."""
    assert repr(value) == dataclass_repr(value)


def test_impl_event_repr_bytes():
    assert repr(EVENT) == (
        "ImplEvent(effect=ReadEvent(path='/ws/a'), "
        "dispatch=Dispatch(from_node='scan', edge_label='read', to_node='search'))"
    )
    assert repr(STUTTER) == "ImplEvent(effect=NoEffect(), dispatch=None)"


def test_reports_quote_terms_as_before():
    """The two report paths that quote a term's ``repr``."""
    c = shipped("read_agent").impl_constants
    unchecked = lambda c, s, a: ((ImplEvent(ToolEvent("rm"), Dispatch("x", "tool", "y")), s),)  # noqa: E731
    verdict = sweep(c, (ToolCallAction("rm"),), 1, next_fn=unchecked)
    assert verdict == SweepVerdict(
        False, 1, SweepViolation(("ToolCallAction(rm)",), 0, "out-of-policy event ToolEvent(tool='rm')"), verdict.visited_states
    )
    record = drive(c, ScriptedOracle([ReadPathAction("/ws/a.txt")]), 1)
    lifted = check_soundness(c, Bundle(next_relation=lambda c, s, a: ()), record.trace)
    assert lifted.detail == (
        "step 0: no abstract step emits ReadEvent(path='/ws/a.txt') for ReadPathAction(path='/ws/a.txt')"
    )
