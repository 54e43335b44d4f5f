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
    action_label,
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


def test_canonical_labels():
    assert action_label(ReadPathAction("/x")) == "read"
    assert action_label(ToolCallAction("t")) == "tool"
    assert action_label(StepAction()) == "step"
    assert action_label(NoAction()) is None


def test_event_literals():
    assert format_boundary_event(ReadEvent("/ws/a")) == "ReadEvent(/ws/a)"
    assert format_boundary_event(ToolEvent("search")) == "ToolEvent(search)"
    assert format_boundary_event(StepEvent()) == "StepEvent"
    assert format_boundary_event(NoEffect()) == "NoEffect"


def test_impl_event_annotation_rules():
    ok = ImplEvent(ReadEvent("/ws/a"), Dispatch("scan", "read", "search"))
    assert format_impl_event(ok) == "ReadEvent(/ws/a)[scan-read->search]"
    assert format_impl_event(ImplEvent(NoEffect())) == "NoEffect"

    with pytest.raises(ValueError):
        ImplEvent(NoEffect(), Dispatch("a", "read", "b"))
    with pytest.raises(ValueError):
        ImplEvent(StepEvent())
