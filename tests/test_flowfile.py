"""Flow-definition files: strict parsing, canonical serialization, and
agreement between the shipped files and the in-code fixture builders."""

import json
from pathlib import Path

import pytest

from flowguard.fixtures import rag_flow, read_agent
from flowguard.flowfile import (
    FlowFileError,
    flow_digest,
    from_fixture,
    load_flow,
    parse_flow,
    serialize_flow,
)

FLOWS_DIR = Path(__file__).resolve().parent.parent / "flows"

BUILTIN_FIXTURES = {
    "read-agent": read_agent,
    "rag-flow-barrier": lambda: rag_flow(True),
    "rag-flow-no-barrier": lambda: rag_flow(False),
}

SHIPPED = {
    "read-agent": "read_agent.json",
    "rag-flow-barrier": "rag_barrier.json",
    "rag-flow-no-barrier": "rag_no_barrier.json",
}


@pytest.mark.parametrize("name", list(BUILTIN_FIXTURES))
def test_round_trip(name):
    defn = from_fixture(BUILTIN_FIXTURES[name]())
    assert parse_flow(serialize_flow(defn)) == defn


@pytest.mark.parametrize("name", list(BUILTIN_FIXTURES))
def test_serialization_is_canonical(name):
    defn = from_fixture(BUILTIN_FIXTURES[name]())
    assert serialize_flow(defn) == serialize_flow(parse_flow(serialize_flow(defn)))


@pytest.mark.parametrize("name", list(SHIPPED))
def test_shipped_files_match_fixture_builders(name):
    # guards against drift between flows/*.json and the builders
    on_disk = load_flow(FLOWS_DIR / SHIPPED[name])
    built = from_fixture(BUILTIN_FIXTURES[name]())
    assert on_disk == built
    assert flow_digest(on_disk) == flow_digest(built)


def _agent_doc():
    return json.loads(serialize_flow(from_fixture(BUILTIN_FIXTURES["read-agent"]())))


def test_unknown_top_level_keys_rejected():
    doc = _agent_doc()
    doc["extra"] = 1
    with pytest.raises(FlowFileError, match="unknown keys"):
        parse_flow(json.dumps(doc))


def test_unknown_constants_keys_rejected():
    doc = _agent_doc()
    doc["constants"]["color"] = "blue"
    with pytest.raises(FlowFileError, match="unknown keys"):
        parse_flow(json.dumps(doc))


def test_missing_sections_rejected():
    doc = _agent_doc()
    del doc["graph"]
    with pytest.raises(FlowFileError, match="missing keys"):
        parse_flow(json.dumps(doc))


def test_bad_schema_version_rejected():
    doc = _agent_doc()
    doc["schema_version"] = 99
    with pytest.raises(FlowFileError, match="schema_version"):
        parse_flow(json.dumps(doc))


def test_bad_node_kind_rejected():
    doc = _agent_doc()
    doc["graph"]["nodes"][0]["kind"] = "Quantum"
    with pytest.raises(FlowFileError, match="node kind"):
        parse_flow(json.dumps(doc))


def test_empty_alphabet_rejected():
    doc = _agent_doc()
    doc["alphabet"] = []
    with pytest.raises(FlowFileError, match="alphabet"):
        parse_flow(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(FlowFileError):
        parse_flow("{oops")


def test_digest_is_sensitive_to_content():
    a = from_fixture(BUILTIN_FIXTURES["read-agent"]())
    b = from_fixture(BUILTIN_FIXTURES["rag-flow-barrier"]())
    assert flow_digest(a) != flow_digest(b)


def _set_field(doc: dict, path: str, value) -> None:
    """Set the field at ``path`` (dot-separated keys and list indices)."""
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        ("constants.allowed_tools", "search"),
        ("constants.allowed_tools", ["search", 7]),
        ("constants.max_steps", True),
        ("constants.max_steps", 3.0),
        ("constants.max_steps", "3"),
        ("constants.workspace_root", ["/ws"]),
        ("constants.prefix_mode", 1),
        ("constants.count_all_actions", 1),
        ("constants.count_all_actions", "true"),
        ("provenance", None),
        ("schema_version", True),
        ("graph.entry", 0),
        ("graph.nodes", "scan"),
        ("graph.nodes.0.name", 1),
        ("graph.edges.0.from", None),
        ("graph.edges.0.label", ["read"]),
        ("graph.edges.0.to", 2),
        ("alphabet", "StepAction"),
        ("alphabet.0", 0),
    ],
)
def test_ill_typed_fields_rejected(path, value):
    doc = _agent_doc()
    _set_field(doc, path, value)
    with pytest.raises(FlowFileError):
        parse_flow(json.dumps(doc))
