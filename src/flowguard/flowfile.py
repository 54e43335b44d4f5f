"""Flow-definition files.

A flow definition is a JSON document with four sections: constants,
graph, alphabet, and a provenance label. Parsing is strict (unknown keys
rejected at every level, no tool or action literal listed twice) and
serialization is canonical (sorted keys, normalized graph ordering), so
parse(serialize(x)) == x and equal definitions produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import NamedTuple

from .actions import Action, format_action, parse_action
from .impl_model import FlowGraph, ImplConstants, NodeKind
from .spec_model import SpecConstants

SCHEMA_VERSION = 1


class FlowFileError(ValueError):
    """Malformed flow-definition document."""


class FlowDefinition(NamedTuple):
    provenance: str
    constants: SpecConstants
    graph: FlowGraph
    alphabet: tuple[Action, ...]

    @property
    def impl_constants(self) -> ImplConstants:
        return ImplConstants(self.constants, self.graph)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise FlowFileError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise FlowFileError(f"missing keys in {where}: {sorted(missing)}")


_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean", list: "a list", dict: "an object"}


def _typed(value, kind: type, where: str):
    """``value`` itself if it has JSON type ``kind`` (a boolean is no
    integer), else FlowFileError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FlowFileError(f"{where} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    return value


def _strings(value, where: str) -> list[str]:
    """``value`` if it is a list of distinct strings, else FlowFileError."""
    strings = [_typed(v, str, f"{where} entries") for v in _typed(value, list, where)]
    if len(set(strings)) < len(strings):
        repeated = next(v for i, v in enumerate(strings) if v in strings[:i])
        raise FlowFileError(f"repeated entry in {where}: {json.dumps(repeated)}")
    return strings


def parse_flow(text: str) -> FlowDefinition:
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and an integer too long to convert;
    # RecursionError a document nested too deeply.
    except (ValueError, RecursionError) as e:
        raise FlowFileError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FlowFileError("top-level document must be an object")
    _require_keys(
        doc,
        {"schema_version", "provenance", "constants", "graph", "alphabet"},
        {"schema_version", "provenance", "constants", "graph", "alphabet"},
        "document",
    )
    if _typed(doc["schema_version"], int, "schema_version") != SCHEMA_VERSION:
        raise FlowFileError(f"unsupported schema_version: {doc['schema_version']!r}")

    cobj = _typed(doc["constants"], dict, "constants")
    _require_keys(
        cobj,
        {"workspace_root", "allowed_tools", "max_steps", "prefix_mode", "count_all_actions"},
        {"workspace_root", "allowed_tools", "max_steps"},
        "constants",
    )
    workspace_root = _typed(cobj["workspace_root"], str, "constants.workspace_root")
    allowed_tools = frozenset(_strings(cobj["allowed_tools"], "constants.allowed_tools"))
    max_steps = _typed(cobj["max_steps"], int, "constants.max_steps")
    prefix_mode = _typed(cobj.get("prefix_mode", "guarded"), str, "constants.prefix_mode")
    count_all_actions = _typed(cobj.get("count_all_actions", True), bool, "constants.count_all_actions")
    try:
        constants = SpecConstants(workspace_root, allowed_tools, max_steps, prefix_mode, count_all_actions)
    except ValueError as e:
        raise FlowFileError(f"bad constants: {e}") from e

    gobj = _typed(doc["graph"], dict, "graph")
    _require_keys(gobj, {"entry", "nodes", "edges"}, {"entry", "nodes", "edges"}, "graph")
    node_kinds = []
    for n in _typed(gobj["nodes"], list, "graph.nodes"):
        _typed(n, dict, "graph.nodes entries")
        _require_keys(n, {"name", "kind"}, {"name", "kind"}, "graph node")
        try:
            kind = NodeKind(n["kind"])
        except ValueError as e:
            raise FlowFileError(f"unknown node kind: {n['kind']!r}") from e
        node_kinds.append((_typed(n["name"], str, "graph node name"), kind))
    edges = []
    for e in _typed(gobj["edges"], list, "graph.edges"):
        _typed(e, dict, "graph.edges entries")
        _require_keys(e, {"from", "label", "to"}, {"from", "label", "to"}, "graph edge")
        edges.append(tuple(_typed(e[k], str, f"graph edge {k!r}") for k in ("from", "label", "to")))
    entry = _typed(gobj["entry"], str, "graph.entry")
    graph = FlowGraph(entry=entry, node_kinds=tuple(node_kinds), edges=tuple(edges))

    literals = _strings(doc["alphabet"], "alphabet")
    try:
        alphabet = tuple(parse_action(lit) for lit in literals)
    except ValueError as e:
        raise FlowFileError(f"bad alphabet: {e}") from e
    if not alphabet:
        raise FlowFileError("alphabet must be nonempty")

    return FlowDefinition(
        provenance=_typed(doc["provenance"], str, "provenance"),
        constants=constants,
        graph=graph,
        alphabet=alphabet,
    )


def with_prefix_mode(defn: FlowDefinition, prefix_mode: str | None) -> FlowDefinition:
    """``defn`` with its workspace-prefix mode replaced; unchanged for None."""
    if prefix_mode is None:
        return defn
    return defn._replace(constants=defn.constants._replace(prefix_mode=prefix_mode))


def flow_to_document(defn: FlowDefinition) -> dict:
    c = defn.constants
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": defn.provenance,
        "constants": {
            "workspace_root": c.workspace_root,
            "allowed_tools": sorted(c.allowed_tools),
            "max_steps": c.max_steps,
            "prefix_mode": c.prefix_mode,
            "count_all_actions": c.count_all_actions,
        },
        "graph": {
            "entry": defn.graph.entry,
            "nodes": [{"name": n, "kind": k.value} for n, k in defn.graph.node_kinds],
            "edges": [{"from": f, "label": l, "to": t} for f, l, t in defn.graph.edges],
        },
        "alphabet": [format_action(a) for a in defn.alphabet],
    }


def serialize_flow(defn: FlowDefinition) -> str:
    return json.dumps(flow_to_document(defn), indent=2, sort_keys=True) + "\n"


def flow_digest(defn: FlowDefinition) -> str:
    """Stable content hash of the whole definition (constants, graph,
    alphabet, provenance)."""
    return hashlib.sha256(serialize_flow(defn).encode()).hexdigest()[:16]


def load_flow(path: str | os.PathLike[str]) -> FlowDefinition:
    with open(path) as f:
        return parse_flow(f.read())

