"""Typed action and event vocabulary.

Actions are the only channel through which a driver (scripted, random, or
adversarial) can influence the contained machine. Events are the modeled
boundary effects a step produces; a rejected action is represented by a
``NoEffect`` event with the state unchanged, so the event stream itself is
the object the safety checks constrain.

A term's literal is ``Name`` or ``Name(value)``: its class name, then its
one field in parentheses when the class has a field. It is written and
read from the class, so a variant is spelled once, in its class statement.

Every action and boundary event is interned: building one through its
class, keyword or positional, ``_replace``, ``copy``, ``deepcopy`` or
``pickle`` yields the one object that has its class and field values, so
equal values are the same object. The classes therefore keep ``object``'s
own ``__eq__`` and ``__hash__``, which run in C, rather than
field-by-field ones. That is exact: two values are equal exactly when they
are the same object, so every ``==``, dict lookup and set lookup answers
as structural equality would, and only the hashes differ from one process
to the next. Nothing in the package turns the iteration order of a set or
dict of actions, events or states into output.

The package's records take one of two bases defined here: ``TupleRecord``
for value records, ``Record`` for classes with behaviour or caches.
"""

from __future__ import annotations

import collections
import re
import weakref


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


class _TupleRecordType(type):
    def __new__(meta, name, bases, ns):
        if not bases:
            return super().__new__(meta, name, bases, ns)
        fields = tuple(ns.get("__annotations__", ()))
        defaults = [ns[f] for f in fields if f in ns]
        if any(f not in ns for f in fields[len(fields) - len(defaults):]):
            raise TypeError(f"{name}: a field without a default follows one with a default")
        cls = collections.namedtuple(name, fields, defaults=defaults, module=ns["__module__"])
        for key, value in ns.items():
            if key not in fields and key != "__module__":
                setattr(cls, key, value)
        return cls


class TupleRecord(metaclass=_TupleRecordType):
    """Base of the value records: a class statement deriving from it, with
    annotated fields and assigned defaults, builds the ``collections.namedtuple``
    class that ``typing.NamedTuple`` would, with the body's methods, properties,
    docstring and annotations. A field without a default may not follow a defaulted one."""


# (class, *field values) -> the one live term with them. Values are held
# weakly, so a long run meeting ever new paths keeps only the terms still
# in use; while one is alive, it is the only one with its values.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Term(Record):
    """Base of the vocabulary: ``__new__`` binds its arguments to the
    fields and returns the table's term for them, adding a new one when
    there is none. Equality and hash are ``object``'s: ``is`` and ``id``."""

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


def _literal(t: _Term) -> str:
    """The term's literal: its class name, then its one field in
    parentheses when the class has a field."""
    name = type(t).__name__
    return f"{name}({t._key[0]})" if t._key else name


def format_action(a: Action) -> str:
    if not isinstance(a, Action):
        raise TypeError(f"not an action: {a!r}")
    return _literal(a)


_ACTION_CLASSES = {cls.__name__: cls for cls in Action.__args__}
_LITERAL_RE = re.compile(r"(\w+)(?:\((.*)\))?", re.DOTALL)


def parse_action(text: str) -> Action:
    """Inverse of format_action: accepts exactly the literals it writes,
    a parenthesised value exactly when the class has a field. Raises
    ValueError on unknown variants and on anything that is not a string."""
    if not isinstance(text, str):
        raise ValueError(f"action literal must be a string, got {text!r}")
    m = _LITERAL_RE.fullmatch(text)
    cls = _ACTION_CLASSES.get(m[1]) if m else None
    if cls is None or (m[2] is not None) != bool(cls.__match_args__):
        raise ValueError(f"unknown action literal: {text!r}")
    return cls() if m[2] is None else cls(m[2])


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
    if not isinstance(e, BoundaryEvent):
        raise TypeError(f"not a boundary event: {e!r}")
    return _literal(e)


# ---------------------------------------------------------------------------
# Concrete events: boundary effect plus dispatch bookkeeping


class Dispatch(TupleRecord):
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
