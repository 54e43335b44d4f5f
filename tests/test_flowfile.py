"""Flow-definition files: strict parsing, and canonical serialization of
the shipped files in ``flows/``, the one definition of each shipped flow;
and every flow file the benchmark writes loads."""

import importlib
import json
import sys

import pytest

from flowguard.flowfile import FlowFileError, flow_digest, load_flow, parse_flow, serialize_flow
from conftest import FLOWS, shipped

SHIPPED = {
    "read-agent": "read_agent",
    "rag-flow-barrier": "rag_barrier",
    "rag-flow-no-barrier": "rag_no_barrier",
}


@pytest.mark.parametrize("name", list(SHIPPED))
def test_round_trip(name):
    defn = shipped(SHIPPED[name])
    assert defn.provenance == name
    assert parse_flow(serialize_flow(defn)) == defn


@pytest.mark.parametrize("name", list(SHIPPED))
def test_serialization_is_canonical(name):
    text = (FLOWS / f"{SHIPPED[name]}.json").read_text(encoding="utf-8")
    assert serialize_flow(parse_flow(text)) == text


def _agent_doc():
    return json.loads((FLOWS / "read_agent.json").read_text(encoding="utf-8"))


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


@pytest.mark.parametrize("section", ["alphabet", "allowed_tools"])
def test_a_repeated_alphabet_literal_or_tool_is_rejected(section):
    doc = _agent_doc()
    entries = doc["alphabet"] if section == "alphabet" else doc["constants"]["allowed_tools"]
    entries.insert(1, entries[0])
    with pytest.raises(FlowFileError, match=f"repeated entry in .*{section}: {json.dumps(entries[0])}"):
        parse_flow(json.dumps(doc))


def test_not_json_rejected():
    with pytest.raises(FlowFileError):
        parse_flow("{oops")


def test_digest_is_sensitive_to_content():
    a = shipped("read_agent")
    b = shipped("rag_barrier")
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
        ("schema_version", 1.0),
    ],
)
def test_ill_typed_fields_rejected(path, value):
    doc = _agent_doc()
    _set_field(doc, path, value)
    with pytest.raises(FlowFileError):
        parse_flow(json.dumps(doc))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["shipped-sweep", "synthetic-gates", "long-trace"])
def test_every_flow_the_benchmark_writes_loads(workload, seed, tmp_path, monkeypatch):
    """The benchmark's workloads write their flow files from
    ``bench/flowgen.py``, outside this package's tests. A parser that
    refused one would fail every job of its workload, so each flow a
    workload writes, and each one its jobs name, must load. The workloads
    module is imported as ``bench/run.py`` imports it, writing no bytecode
    under ``bench/``."""
    monkeypatch.syspath_prepend(str(FLOWS.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    built = importlib.import_module("workloads").WORKLOADS[workload](seed, tmp_path)
    named = {job.argv[job.argv.index("--flow") + 1] for job in built.jobs}
    assert built.flow_paths and named <= {str(path) for path in built.flow_paths}
    for path in built.flow_paths:
        load_flow(path)
