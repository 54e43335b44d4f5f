"""Trace-log files: one JSON header line, then one JSON record per step.

Each record carries the step index, digests of the pre and post states,
and the action and event literals. The log is replayable: feeding the
action column back through the machine from its initial state must
reproduce the event column byte-exactly, which is what the replay
checker verifies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .actions import format_action, format_impl_event, parse_action
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
    blob = json.dumps(state_document(s), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
    for i, step in enumerate(record.trace.steps):
        lines.append(
            json.dumps(
                {
                    "i": i,
                    "pre": state_digest(step.pre_state),
                    "action": format_action(step.action),
                    "event": format_impl_event(step.event),
                    "post": state_digest(step.post_state),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def write_trace_log(path: str | Path, defn: FlowDefinition, record: RunRecord, *, strategy: str, seed: int | None) -> None:
    Path(path).write_text(render_trace_log(defn, record, strategy=strategy, seed=seed))


def parse_trace_log(text: str) -> tuple[dict, list[dict]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceLogError("empty trace log")
    try:
        header = json.loads(lines[0])
        rows = [json.loads(ln) for ln in lines[1:]]
    except json.JSONDecodeError as e:
        raise TraceLogError(f"not valid JSON lines: {e}") from e
    if not isinstance(header, dict) or not isinstance(header.get("constants_digest"), str):
        raise TraceLogError("trace-log header must be an object with a constants_digest string")
    if header.get("kind") != "trace-log" or header.get("schema_version") != LOG_SCHEMA_VERSION:
        raise TraceLogError("missing or unsupported trace-log header")
    if not all(isinstance(row, dict) for row in rows):
        raise TraceLogError("every trace-log row must be an object")
    return header, rows


@dataclass(frozen=True)
class ReplayVerdict:
    passed: bool
    steps: int
    detail: str = ""
    mismatch_index: int | None = None


def replay_trace_log(defn: FlowDefinition, text: str) -> ReplayVerdict:
    """Re-run the action column through the machine and demand the event
    column (and the state digests) byte-exactly."""
    header, rows = parse_trace_log(text)
    expected_digest = flow_digest(defn)
    if header["constants_digest"] != expected_digest:
        return ReplayVerdict(False, 0, "log was produced against different constants")

    c = defn.impl_constants
    state = impl_init(c)
    for i, row in enumerate(rows):
        if row.get("i") != i:
            return ReplayVerdict(False, i, f"row index {row.get('i')!r} out of order", i)
        try:
            action = parse_action(row["action"])
        except (KeyError, ValueError) as e:
            return ReplayVerdict(False, i, f"bad action literal at row {i}: {e}", i)
        if state_digest(state) != row.get("pre"):
            return ReplayVerdict(False, i, f"pre-state digest mismatch at row {i}", i)
        ((event, nxt),) = impl_next(c, state, action)
        if format_impl_event(event) != row.get("event"):
            return ReplayVerdict(
                False, i,
                f"event mismatch at row {i}: replay emits {format_impl_event(event)}, log says {row.get('event')!r}",
                i,
            )
        if state_digest(nxt) != row.get("post"):
            return ReplayVerdict(False, i, f"post-state digest mismatch at row {i}", i)
        state = nxt
    return ReplayVerdict(True, len(rows))
