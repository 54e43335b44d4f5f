"""Typed action and event vocabulary.

Actions are the only channel through which a driver (scripted, random, or
adversarial) can influence the contained machine. Events are the modeled
boundary effects a step produces; a rejected action is represented by a
``NoEffect`` event with the state unchanged, so the event stream itself is
the object the safety checks constrain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class NoAction:
    pass


@dataclass(frozen=True)
class ReadPathAction:
    path: str


@dataclass(frozen=True)
class ToolCallAction:
    tool: str


@dataclass(frozen=True)
class StepAction:
    pass


Action = NoAction | ReadPathAction | ToolCallAction | StepAction


def action_label(a: Action) -> str | None:
    """Canonical dispatch-edge label for an action; None for NoAction."""
    match a:
        case ReadPathAction():
            return "read"
        case ToolCallAction():
            return "tool"
        case StepAction():
            return "step"
        case _:
            return None


def format_action(a: Action) -> str:
    match a:
        case NoAction():
            return "NoAction"
        case StepAction():
            return "StepAction"
        case ReadPathAction(path):
            return f"ReadPathAction({path})"
        case ToolCallAction(tool):
            return f"ToolCallAction({tool})"
    raise TypeError(f"not an action: {a!r}")


_ACTION_RE = re.compile(r"(ReadPathAction|ToolCallAction)\((.*)\)", re.DOTALL)


def parse_action(text: str) -> Action:
    """Inverse of format_action: accepts exactly the literals it writes.
    Raises ValueError on unknown variants and on anything that is not a
    string."""
    if not isinstance(text, str):
        raise ValueError(f"action literal must be a string, got {text!r}")
    if text == "NoAction":
        return NoAction()
    if text == "StepAction":
        return StepAction()
    m = _ACTION_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"unknown action literal: {text!r}")
    name, arg = m.groups()
    return ReadPathAction(arg) if name == "ReadPathAction" else ToolCallAction(arg)


# ---------------------------------------------------------------------------
# Boundary events (abstract vocabulary)


@dataclass(frozen=True)
class ReadEvent:
    path: str


@dataclass(frozen=True)
class ToolEvent:
    tool: str


@dataclass(frozen=True)
class StepEvent:
    pass


@dataclass(frozen=True)
class NoEffect:
    pass


BoundaryEvent = ReadEvent | ToolEvent | StepEvent | NoEffect


def format_boundary_event(e: BoundaryEvent) -> str:
    match e:
        case NoEffect():
            return "NoEffect"
        case StepEvent():
            return "StepEvent"
        case ReadEvent(path):
            return f"ReadEvent({path})"
        case ToolEvent(tool):
            return f"ToolEvent({tool})"
    raise TypeError(f"not a boundary event: {e!r}")


# ---------------------------------------------------------------------------
# Concrete events: boundary effect plus dispatch bookkeeping


@dataclass(frozen=True)
class Dispatch:
    """Edge taken by a non-stutter step: (from_node, edge_label, to_node)."""

    from_node: str
    edge_label: str
    to_node: str


@dataclass(frozen=True)
class ImplEvent:
    """A concrete emitted event.

    ``dispatch`` is present exactly when the effect is not NoEffect; a
    missing annotation is the stutter marker.
    """

    effect: BoundaryEvent
    dispatch: Dispatch | None = None

    def __post_init__(self) -> None:
        is_stutter = isinstance(self.effect, NoEffect)
        if is_stutter and self.dispatch is not None:
            raise ValueError("stutter events carry no dispatch annotation")
        if not is_stutter and self.dispatch is None:
            raise ValueError("non-stutter events require a dispatch annotation")


def format_impl_event(e: ImplEvent) -> str:
    base = format_boundary_event(e.effect)
    if e.dispatch is None:
        return base
    d = e.dispatch
    return f"{base}[{d.from_node}-{d.edge_label}->{d.to_node}]"
