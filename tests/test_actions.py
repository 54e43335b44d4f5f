import copy
import json
import pickle
import weakref
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import pytest

from flowguard.actions import (
    Dispatch,
    ImplEvent,
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
    format_action,
    format_boundary_event,
    format_impl_event,
    parse_action,
)


def test_action_literals():
    assert format_action(NoAction()) == "NoAction"
    assert format_action(StepAction()) == "StepAction"
    assert format_action(ReadPathAction("/ws/a.txt")) == "ReadPathAction(/ws/a.txt)"
    assert format_action(ToolCallAction("search")) == "ToolCallAction(search)"


def test_parse_rejects_unknown_variants():
    with pytest.raises(ValueError):
        parse_action("LaunchAction(missiles)")
    with pytest.raises(ValueError):
        parse_action("ReadPathAction")  # no argument list


@pytest.mark.parametrize(
    "text",
    [
        "NoAction()",
        "StepAction(x)",
        "ReadPathAction",
        "ToolCallAction",
        "ReadEvent(/ws/a)",
        "ToolEvent(t)",
        "StepEvent",
        "NoEffect",
        " NoAction",
        "noaction",
        "readPathAction(/ws/a)",
    ],
)
def test_parse_rejects_what_format_action_never_writes(text):
    """A value exactly when the class has a field, an action's class name
    and nothing else: event names are not action literals."""
    with pytest.raises(ValueError):
        parse_action(text)


@given(st.sampled_from(["ReadPathAction", "ToolCallAction"]), st.text())
def test_argument_literals_round_trip(name, arg):
    a = ReadPathAction(arg) if name == "ReadPathAction" else ToolCallAction(arg)
    assert parse_action(format_action(a)) == a


literal_like = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["ReadPathAction(", "ToolCallAction(", "NoAction", "StepAction", ""]),
        st.text(),
        st.sampled_from([")", ")\n", "\n", ") ", ""]),
    ),
)


@given(st.text() | literal_like)
def test_only_canonical_literals_parse(text):
    """Whatever ``parse_action`` accepts, ``format_action`` writes back
    unchanged; a trailing newline or blank is not a literal."""
    try:
        a = parse_action(text)
    except ValueError:
        return
    assert format_action(a) == text


def test_nullary_literals_round_trip():
    for a in (NoAction(), StepAction()):
        assert parse_action(format_action(a)) == a


def test_event_literals():
    assert format_boundary_event(ReadEvent("/ws/a")) == "ReadEvent(/ws/a)"
    assert format_boundary_event(ToolEvent("search")) == "ToolEvent(search)"
    assert format_boundary_event(StepEvent()) == "StepEvent"
    assert format_boundary_event(NoEffect()) == "NoEffect"


def test_each_writer_rejects_the_other_family():
    with pytest.raises(TypeError):
        format_action(ReadEvent("/ws/a"))
    with pytest.raises(TypeError):
        format_boundary_event(ReadPathAction("/ws/a"))


def test_impl_event_annotation_rules():
    ok = ImplEvent(ReadEvent("/ws/a"), Dispatch("scan", "read", "search"))
    assert format_impl_event(ok) == "ReadEvent(/ws/a)[scan-read->search]"
    assert format_impl_event(ImplEvent(NoEffect())) == "NoEffect"

    with pytest.raises(ValueError):
        ImplEvent(NoEffect(), Dispatch("a", "read", "b"))
    with pytest.raises(ValueError):
        ImplEvent(StepEvent())


# ---------------------------------------------------------------------------
# Interning: one object per (class, field values)

UNARY = (ReadPathAction, ToolCallAction, ReadEvent, ToolEvent)
NULLARY = (NoAction, StepAction, StepEvent, NoEffect)
VOCABULARY = UNARY + NULLARY

GOLDEN_FLOW = Path(__file__).resolve().parent / "golden" / "tracelog" / "cyclic_reads.json"
# The golden flow's read paths, one of them with a quote and a non-ASCII
# character.
GOLDEN_PATHS = tuple(
    parse_action(lit).path
    for lit in json.loads(GOLDEN_FLOW.read_text(encoding="utf-8"))["alphabet"]
    if lit.startswith("ReadPathAction")
)
values = st.sampled_from(GOLDEN_PATHS) | st.text()
unary_terms = st.builds(lambda cls, value: cls(value), st.sampled_from(UNARY), values)
terms = unary_terms | st.sampled_from(NULLARY).map(lambda cls: cls())


def _fields(term) -> dict:
    return {name: getattr(term, name) for name in term.__match_args__}


@given(terms)
def test_every_way_of_building_a_term_yields_the_one_object(term):
    cls, fields = type(term), _fields(term)
    rebuilt = [
        cls(*fields.values()),
        cls(**fields),
        term._replace(),
        term._replace(**fields),
        copy.copy(term),
        copy.deepcopy(term),
        copy.deepcopy([term, term])[1],
    ]
    rebuilt += [pickle.loads(pickle.dumps(term, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    if cls in (NoAction, ReadPathAction, ToolCallAction, StepAction):
        rebuilt.append(parse_action(format_action(term)))
    for other in rebuilt:
        assert other is term
        assert _fields(other) == fields


@given(terms, terms)
def test_equal_exactly_when_identical(a, b):
    """Equality is identity, and it answers as field-by-field equality."""
    assert (a == b) is (a is b)
    assert (a == b) is (type(a) is type(b) and _fields(a) == _fields(b))
    assert (a != b) is (a is not b)
    if a == b:
        assert hash(a) == hash(b)


@given(st.sampled_from(UNARY), values)
def test_replace_with_a_new_value_yields_that_values_object(cls, value):
    (name,) = cls.__match_args__
    assert cls("/seed")._replace(**{name: value}) is cls(value)


@given(terms)
def test_repr_and_pattern_matching_are_unchanged(term):
    fields = ", ".join(f"{name}={value!r}" for name, value in _fields(term).items())
    assert repr(term) == f"{type(term).__name__}({fields})"
    match term:
        case ReadPathAction(path) | ReadEvent(path):
            assert path == term.path
        case ToolCallAction(tool) | ToolEvent(tool):
            assert tool == term.tool
        case NoAction() | StepAction() | StepEvent() | NoEffect():
            assert not _fields(term)
        case _:
            pytest.fail(f"no case matched {term!r}")


def test_the_quoted_golden_path_keeps_its_repr():
    path = '/ws/"quoted" \u00e9'
    assert path in GOLDEN_PATHS
    assert repr(ReadPathAction(path)) == "ReadPathAction(path='/ws/\"quoted\" \u00e9')"


def test_building_a_term_leaves_earlier_terms_intact():
    a = ReadPathAction("/a")
    assert copy.deepcopy(a) is a
    b = ReadPathAction("/b")
    assert copy.deepcopy(b) is b
    assert (a.path, b.path) == ("/a", "/b")
    assert ReadPathAction("/a") is a and ReadPathAction(path="/b") is b


def test_the_table_keeps_no_term_alive():
    """The intern table holds its objects weakly: a term nothing else
    refers to is freed, so a long run does not keep every path it met."""
    term = ReadPathAction("/only/here")
    ref = weakref.ref(term)
    del term
    assert ref() is None
    assert ReadPathAction("/only/here").path == "/only/here"


def test_bad_arguments_still_raise():
    with pytest.raises(TypeError):
        ReadPathAction()
    with pytest.raises(TypeError):
        NoAction("x")
    with pytest.raises(TypeError):
        ToolCallAction(path="x")
    with pytest.raises(TypeError):
        ReadPathAction("/a", path="/b")
    with pytest.raises(AttributeError):
        ReadPathAction("/a").path = "/b"


@pytest.mark.parametrize("cls", VOCABULARY, ids=lambda cls: cls.__name__)
def test_vocabulary_compares_and_hashes_by_identity(cls):
    """``object``'s ``__eq__`` and ``__hash__`` run in C; a generated
    field-by-field pair must not come back."""
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__
