"""Trace-log files: one JSON header line, then one JSON record per step.

Each record carries the step index, digests of the pre and post states,
and the action and event literals. The log is replayable: feeding the
action column back through the machine from its initial state must
reproduce the event column byte-exactly, which is what the replay
checker verifies.

A state's digest is the first 16 hex characters of the SHA-256 of
``json.dumps(state_document(s), sort_keys=True)`` (``state_digest``).
Rendering and replaying a log digest its states through a
``RunDigester``, and JSON-encode each distinct action, event, path, tool
and node name once per call. So each row costs O(1) Python work, plus C
work that grows with the state's history: a comparison of each list
field with the previous state's, one copy of the state document and the
document's SHA-256. A run of n rows therefore still does O(n^2) work at
C speed, most of it hashing; only a digest that chains the rows (a new
log schema) removes it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import NamedTuple

from .actions import Action, format_action, format_impl_event, parse_action
from .flowfile import FlowDefinition, flow_digest
from .havoc import RunRecord
from .impl_model import ImplState, impl_init, impl_next

LOG_SCHEMA_VERSION = 1


class TraceLogError(ValueError):
    pass


def state_document(s: ImplState) -> dict:
    return {
        "current_node": s.current_node,
        "read_paths": list(s.read_paths),
        "tool_calls": list(s.tool_calls),
        "step_count": s.step_count,
        "halted": s.halted,
        "history": [[node, format_action(a)] for node, a in s.history],
        "last_node": s.last_node,
        "last_action": format_action(s.last_action),
    }


def state_digest(s: ImplState) -> str:
    """The digest definition; ``RunDigester`` gives the same answers."""
    blob = json.dumps(state_document(s), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _field_json(value: str | None | Action | tuple[str, Action]) -> bytes:
    """The JSON that ``state_document`` gives a node name (or no node), an
    action, or a history entry, as ASCII bytes."""
    if isinstance(value, tuple):
        value = [value[0], format_action(value[1])]
    elif value is not None and not isinstance(value, str):
        value = format_action(value)
    return json.dumps(value).encode()


class RunDigester:
    """``state_digest`` for the states of one run, fed in run order.

    A run's states form a chain: a stutter's post-state is its pre-state,
    and an effected step appends at most one entry to each of ``history``,
    ``read_paths`` and ``tool_calls``. So the digester returns the cached
    digest for the state it saw last, and keeps the JSON of each list
    field in a ``bytearray`` that an appended entry extends. Each distinct
    list entry, node name and action is JSON-encoded once per digester. A
    state that does not extend the previous one has its lists encoded
    afresh, so any sequence of states gets exactly ``state_digest``'s
    answer. The document is joined in one C-level copy and hashed by one
    ``hashlib.sha256`` call.
    """

    def __init__(self) -> None:
        self._last: ImplState | None = None
        self._digest = ""
        self._json = functools.cache(_field_json)
        self._lists = {name: ((), bytearray()) for name in ("history", "read_paths", "tool_calls")}

    def __call__(self, s: ImplState) -> str:
        if s is self._last:
            return self._digest
        js = self._json
        blob = b"".join((
            b'{"current_node": ', js(s.current_node),
            b', "halted": ', b"true" if s.halted else b"false",
            b', "history": [', self._json_list("history", s.history),
            b'], "last_action": ', js(s.last_action),
            b', "last_node": ', js(s.last_node),
            b', "read_paths": [', self._json_list("read_paths", s.read_paths),
            b'], "step_count": ', b"%d" % s.step_count,
            b', "tool_calls": [', self._json_list("tool_calls", s.tool_calls),
            b"]}",
        ))
        self._last, self._digest = s, hashlib.sha256(blob).hexdigest()[:16]
        return self._digest

    def _json_list(self, name: str, items: tuple) -> bytearray:
        """The JSON of ``items`` without its brackets."""
        prev, inner = self._lists[name]
        # Along a run the shared entries are the same objects, so this
        # comparison never calls an entry's __eq__.
        if len(items) == len(prev) + 1 and items[:-1] == prev:
            if prev:
                inner += b", "
            inner += self._json(items[-1])
        elif items != prev:
            inner = bytearray(b", ".join(map(self._json, items)))
        self._lists[name] = (items, inner)
        return inner


def render_trace_log(
    defn: FlowDefinition,
    record: RunRecord,
    *,
    strategy: str,
    seed: int | None,
) -> str:
    header = {
        "schema_version": LOG_SCHEMA_VERSION,
        "kind": "trace-log",
        "provenance": defn.provenance,
        "constants_digest": flow_digest(defn),
        "strategy": strategy,
        "seed": seed,
    }
    lines = [json.dumps(header, sort_keys=True)]
    digest = RunDigester()
    actions = functools.cache(lambda a: json.dumps(format_action(a)))
    events = functools.cache(lambda e: json.dumps(format_impl_event(e)))
    # json.dumps(row, sort_keys=True) for the row {"i", "pre", "action",
    # "event", "post"}; a digest is hex, which JSON writes as it is.
    for i, step in enumerate(record.trace.steps):
        pre, post = digest(step.pre_state), digest(step.post_state)
        lines.append(
            f'{{"action": {actions(step.action)}, "event": {events(step.event)}, '
            f'"i": {i}, "post": "{post}", "pre": "{pre}"}}'
        )
    return "\n".join(lines) + "\n"


def parse_trace_log(text: str) -> tuple[dict, list[dict]]:
    """The header and rows of a trace log, each row's action literal parsed
    to its ``Action``. Raises TraceLogError for a log that cannot be
    replayed: malformed JSON, an ill-typed field or an unknown action."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceLogError("empty trace log")
    try:
        header = json.loads(lines[0])
        rows = [json.loads(ln) for ln in lines[1:]]
    except (ValueError, RecursionError) as e:  # also an integer too long to convert, or nesting too deep
        raise TraceLogError(f"not valid JSON lines: {e}") from e
    if not isinstance(header, dict) or not isinstance(header.get("constants_digest"), str):
        raise TraceLogError("trace-log header must be an object with a constants_digest string")
    version = header.get("schema_version")
    if header.get("kind") != "trace-log" or type(version) is not int or version != LOG_SCHEMA_VERSION:
        raise TraceLogError("missing or unsupported trace-log header")
    if not isinstance(header.get("strategy"), str) or not isinstance(header.get("provenance"), str):
        raise TraceLogError("trace-log header needs 'strategy' and 'provenance' strings")
    seed = header.get("seed", "")  # a missing seed is not a null one
    if seed is not None and type(seed) is not int:
        raise TraceLogError("trace-log header 'seed' must be an integer or null")
    actions = functools.cache(parse_action)
    for n, row in enumerate(rows):
        if not isinstance(row, dict):
            raise TraceLogError("every trace-log row must be an object")
        if type(row.get("i")) is not int:
            raise TraceLogError(f"row {n}: the index 'i' must be an integer")
        for key in ("pre", "action", "event", "post"):
            if not isinstance(row.get(key), str):
                raise TraceLogError(f"row {n}: {key!r} must be a string")
        try:
            row["action"] = actions(row["action"])
        except ValueError as e:
            raise TraceLogError(f"row {n}: bad action literal: {e}") from e
    return header, rows


class ReplayVerdict(NamedTuple):
    passed: bool
    steps: int
    detail: str = ""


def replay_trace_log(defn: FlowDefinition, text: str) -> ReplayVerdict:
    """Re-run the action column through the machine and demand the event
    column (and the state digests) byte-exactly."""
    header, rows = parse_trace_log(text)
    expected_digest = flow_digest(defn)
    if header["constants_digest"] != expected_digest:
        return ReplayVerdict(False, 0, "log was produced against different constants")

    c = defn.impl_constants
    state = impl_init(c)
    digest = RunDigester()
    events = functools.cache(format_impl_event)
    for i, row in enumerate(rows):
        if row["i"] != i:
            return ReplayVerdict(False, i, f"row index {row['i']!r} out of order")
        if digest(state) != row["pre"]:
            return ReplayVerdict(False, i, f"pre-state digest mismatch at row {i}")
        ((event, nxt),) = impl_next(c, state, row["action"])
        if (emitted := events(event)) != row["event"]:
            detail = f"event mismatch at row {i}: replay emits {emitted}, log says {row['event']!r}"
            return ReplayVerdict(False, i, detail)
        if digest(nxt) != row["post"]:
            return ReplayVerdict(False, i, f"post-state digest mismatch at row {i}")
        state = nxt
    return ReplayVerdict(True, len(rows))
