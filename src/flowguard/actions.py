"""Typed action and event vocabulary.

Actions are the only channel through which a driver (scripted, random, or
adversarial) can influence the contained machine. Events are the modeled
boundary effects a step produces; a rejected action is represented by a
``NoEffect`` event with the state unchanged, so the event stream itself is
the object the safety checks constrain.

Every action and boundary event is interned: building one through its
class, keyword or positional, ``dataclasses.replace``, ``copy``,
``deepcopy`` or ``pickle`` yields the one object that has its class and
field values, so equal values are the same object. The classes therefore
keep ``object``'s identity ``__eq__`` and ``__hash__``, which run in C,
rather than the field-by-field ones a dataclass generates. That is exact:
two values are equal exactly when they are the same object, so every
``==``, dict lookup and set lookup answers as structural equality would,
and only the hashes differ from one process to the next. Nothing in
the package turns the iteration order of a set or dict of actions,
events or states into output.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Interning

# (class, *field values) -> the one live object with them. Values are
# held weakly, so a long run meeting ever new paths keeps only the terms
# still in use; while one is alive, it is the only one with its values.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _interned(cls):
    """Intern the frozen, ``eq=False`` dataclass ``cls``, whose instance
    ``__dict__`` holds its field values in order. Its ``__new__`` looks
    the positional arguments up as field values; when that finds no
    object, it builds a candidate with the generated ``__init__`` (which
    binds and checks the arguments) and returns the table's object for
    the candidate's field values, adding the candidate when it is the
    first. The ``__init__`` that runs after ``__new__`` does nothing, so
    the returned object is never written twice. ``__reduce__`` rebuilds
    through the class, which makes ``copy``, ``deepcopy`` and ``pickle``
    return the interned object."""
    init = cls.__init__

    def __new__(klass, *args, **kwargs):
        term = None if kwargs else _INTERNED.get((klass, *args))
        if term is None:
            term = object.__new__(klass)
            init(term, *args, **kwargs)
            term = _INTERNED.setdefault((klass, *vars(term).values()), term)
        return term

    cls.__new__ = staticmethod(__new__)
    cls.__init__ = lambda self, *args, **kwargs: None
    cls.__reduce__ = lambda self: (type(self), tuple(vars(self).values()))
    return cls


# ---------------------------------------------------------------------------
# Actions


@_interned
@dataclass(frozen=True, eq=False)
class NoAction:
    pass


@_interned
@dataclass(frozen=True, eq=False)
class ReadPathAction:
    path: str


@_interned
@dataclass(frozen=True, eq=False)
class ToolCallAction:
    tool: str


@_interned
@dataclass(frozen=True, eq=False)
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


@_interned
@dataclass(frozen=True, eq=False)
class ReadEvent:
    path: str


@_interned
@dataclass(frozen=True, eq=False)
class ToolEvent:
    tool: str


@_interned
@dataclass(frozen=True, eq=False)
class StepEvent:
    pass


@_interned
@dataclass(frozen=True, eq=False)
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
