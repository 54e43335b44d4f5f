"""Trace-log files: one JSON header line, then one JSON record per step.

Each record carries the step index, digests of the pre and post states,
and the action and event literals. The log is replayable: feeding the
action column back through the machine from its initial state must
reproduce the event column byte-exactly, which is what the replay
checker verifies.

A state's digest is the first 16 hex characters of the SHA-256 of
``json.dumps(state_document(s), sort_keys=True)`` (``state_digest``).
Rendering and replaying a log digest its states through a
``RunDigester``, which JSON-encodes each list entry once, when a step
appends it. The rest of a digest still grows with the state's history:
each list field is sliced and compared with the previous state's, each
list's JSON string and the whole document are rebuilt, and the document
is hashed, so a run of n rows does O(n^2) string work, at C speed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

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


def _history_entry(entry: tuple[str, Action]) -> str:
    return json.dumps([entry[0], format_action(entry[1])])


class RunDigester:
    """``state_digest`` for the states of one run, fed in run order.

    A run's states form a chain: a stutter's post-state is its pre-state,
    and an effected step appends at most one entry to each of ``history``,
    ``read_paths`` and ``tool_calls``. So the digester returns the cached
    digest for the state it saw last, and keeps the JSON of each list
    field's entries, serialising only an appended entry. A state that does
    not extend the previous one is serialised afresh, so any sequence of
    states gets exactly ``state_digest``'s answer.
    """

    def __init__(self) -> None:
        self._last: ImplState | None = None
        self._digest = ""
        self._lists: dict[str, tuple[tuple, str]] = {}

    def __call__(self, s: ImplState) -> str:
        if s is self._last:
            return self._digest
        history = self._json_list("history", s.history, _history_entry)
        reads = self._json_list("read_paths", s.read_paths, json.dumps)
        tools = self._json_list("tool_calls", s.tool_calls, json.dumps)
        blob = (
            f'{{"current_node": {json.dumps(s.current_node)}, "halted": {json.dumps(s.halted)}, '
            f'"history": {history}, "last_action": {json.dumps(format_action(s.last_action))}, '
            f'"last_node": {json.dumps(s.last_node)}, "read_paths": {reads}, '
            f'"step_count": {json.dumps(s.step_count)}, "tool_calls": {tools}}}'
        )
        self._last, self._digest = s, hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._digest

    def _json_list(self, name: str, items: tuple, encode: Callable[[object], str]) -> str:
        prev, inner = self._lists.get(name, ((), ""))
        # Along a run the shared entries are the same objects, so this
        # comparison never calls an entry's __eq__.
        if len(items) == len(prev) + 1 and items[:-1] == prev:
            inner = f"{inner}, {encode(items[-1])}" if prev else encode(items[-1])
        elif items != prev:
            inner = ", ".join(map(encode, items))
        self._lists[name] = (items, inner)
        return f"[{inner}]"


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
    for i, step in enumerate(record.trace.steps):
        lines.append(
            json.dumps(
                {
                    "i": i,
                    "pre": digest(step.pre_state),
                    "action": format_action(step.action),
                    "event": format_impl_event(step.event),
                    "post": digest(step.post_state),
                },
                sort_keys=True,
            )
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
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
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
    for n, row in enumerate(rows):
        if not isinstance(row, dict):
            raise TraceLogError("every trace-log row must be an object")
        if type(row.get("i")) is not int:
            raise TraceLogError(f"row {n}: the index 'i' must be an integer")
        for key in ("pre", "action", "event", "post"):
            if not isinstance(row.get(key), str):
                raise TraceLogError(f"row {n}: {key!r} must be a string")
        try:
            row["action"] = parse_action(row["action"])
        except ValueError as e:
            raise TraceLogError(f"row {n}: bad action literal: {e}") from e
    return header, rows


@dataclass(frozen=True)
class ReplayVerdict:
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
    for i, row in enumerate(rows):
        if row["i"] != i:
            return ReplayVerdict(False, i, f"row index {row['i']!r} out of order")
        if digest(state) != row["pre"]:
            return ReplayVerdict(False, i, f"pre-state digest mismatch at row {i}")
        ((event, nxt),) = impl_next(c, state, row["action"])
        if (emitted := format_impl_event(event)) != row["event"]:
            detail = f"event mismatch at row {i}: replay emits {emitted}, log says {row['event']!r}"
            return ReplayVerdict(False, i, detail)
        if digest(nxt) != row["post"]:
            return ReplayVerdict(False, i, f"post-state digest mismatch at row {i}")
        state = nxt
    return ReplayVerdict(True, len(rows))
