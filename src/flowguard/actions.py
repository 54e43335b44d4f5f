"""Typed action and event vocabulary.

Actions are the only channel through which a driver (scripted, random, or
adversarial) can influence the contained machine. Events are the modeled
boundary effects a step produces; a rejected action is represented by a
``NoEffect`` event with the state unchanged, so the event stream itself is
the object the safety checks constrain.

Every action and boundary event is interned: building one through its
class, keyword or positional, ``_replace``, ``copy``, ``deepcopy`` or
``pickle`` yields the one object that has its class and field values, so
equal values are the same object. The classes therefore keep ``object``'s
identity ``__eq__`` and ``__hash__``, which run in C, rather than
field-by-field ones. That is exact: two values are equal exactly when they
are the same object, so every ``==``, dict lookup and set lookup answers
as structural equality would, and only the hashes differ from one process
to the next. Nothing in the package turns the iteration order of a set or
dict of actions, events or states into output.
"""

from __future__ import annotations

import re
import weakref
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Records and interning


class Record:
    """Base of the package's slotted, immutable classes. The slots named by
    ``__match_args__`` are an instance's fields, in order, and ``_key``
    holds their values as one tuple; any other slot is a cache, no part of
    the value. Equality and hash go by the class and ``_key``, ``repr`` is
    the one a dataclass writes, assignment raises AttributeError,
    ``_replace`` builds a copy with some fields changed through the
    constructor, and ``copy``, ``deepcopy`` and ``pickle`` rebuild through
    the constructor too, with fresh caches."""

    __slots__ = ("_key",)
    __match_args__: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Fill the slots in order, fields then caches (constructors only)."""
        object.__setattr__(self, "_key", values[: len(self.__match_args__)])
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__match_args__, self._key), **changes))

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# (class, *field values) -> the one live term with them. Values are held
# weakly, so a long run meeting ever new paths keeps only the terms still
# in use; while one is alive, it is the only one with its values.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Term(Record):
    """Base of the vocabulary: ``__new__`` binds its arguments to the
    fields and returns the table's term for them, adding a new one when
    there is none. Equality and hash are ``object``'s identity."""

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs):
        term = None if kwargs else _INTERNED.get((cls, *args))
        if term is None:
            names = cls.__match_args__
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
            if kwargs or len(args) != len(names):
                raise TypeError(f"{cls.__name__} takes the fields {names}, got {args} and {kwargs}")
            term = _INTERNED.get((cls, *args))
            if term is None:
                term = object.__new__(cls)
                term._set(*args)
                _INTERNED[(cls, *args)] = term
        return term


# ---------------------------------------------------------------------------
# Actions


class NoAction(_Term):
    __slots__ = ()


class ReadPathAction(_Term):
    __slots__ = __match_args__ = ("path",)


class ToolCallAction(_Term):
    __slots__ = __match_args__ = ("tool",)


class StepAction(_Term):
    __slots__ = ()


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


class ReadEvent(_Term):
    __slots__ = __match_args__ = ("path",)


class ToolEvent(_Term):
    __slots__ = __match_args__ = ("tool",)


class StepEvent(_Term):
    __slots__ = ()


class NoEffect(_Term):
    __slots__ = ()


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


class Dispatch(NamedTuple):
    """Edge taken by a non-stutter step: (from_node, edge_label, to_node)."""

    from_node: str
    edge_label: str
    to_node: str


class ImplEvent(Record):
    """A concrete emitted event.

    ``dispatch`` is present exactly when the effect is not NoEffect; a
    missing annotation is the stutter marker.
    """

    __slots__ = __match_args__ = ("effect", "dispatch")

    def __init__(self, effect: BoundaryEvent, dispatch: Dispatch | None = None) -> None:
        is_stutter = isinstance(effect, NoEffect)
        if is_stutter and dispatch is not None:
            raise ValueError("stutter events carry no dispatch annotation")
        if not is_stutter and dispatch is None:
            raise ValueError("non-stutter events require a dispatch annotation")
        self._set(effect, dispatch)


def format_impl_event(e: ImplEvent) -> str:
    base = format_boundary_event(e.effect)
    if e.dispatch is None:
        return base
    d = e.dispatch
    return f"{base}[{d.from_node}-{d.edge_label}->{d.to_node}]"
