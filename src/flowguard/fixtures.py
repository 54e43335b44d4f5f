"""Built-in desk-scale fixtures.

read_agent: a file-reading agent cycling through read/tool/step nodes.

rag_flow: a retrieval flow whose document-fetch effect is modeled two
ways. In barrier mode the fetch node is a Tool node, so document ids pass
through the tool allowlist and land in tool_calls. In no-barrier mode the
fetch node is a plain Step node: the effect is silently unmodeled, the
tool_calls field is never written, and the allowlist conjunct of the
safety predicate is vacuously true along every reachable state. The two
modes exist to exercise the template-fitness checker; everything else
about them is identical.

Fixture topologies are plumbing; only their policy surfaces matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (
    Action,
    NoAction,
    ReadPathAction,
    StepAction,
    ToolCallAction,
)
from .impl_model import FlowGraph, ImplConstants, NodeKind
from .spec_model import SpecConstants


@dataclass(frozen=True)
class Fixture:
    provenance: str
    constants: ImplConstants
    alphabet: tuple[Action, ...]


def read_agent() -> Fixture:
    spec = SpecConstants(
        workspace_root="/ws",
        allowed_tools=frozenset({"search"}),
        max_steps=3,
    )
    graph = FlowGraph(
        entry="scan",
        node_kinds=(
            ("scan", NodeKind.READ),
            ("search", NodeKind.TOOL),
            ("tick", NodeKind.STEP),
        ),
        edges=(
            ("scan", "read", "search"),
            ("search", "tool", "tick"),
            ("tick", "step", "scan"),
        ),
    )
    alphabet: tuple[Action, ...] = (
        NoAction(),
        StepAction(),
        ReadPathAction("/ws/x"),
        ReadPathAction("/etc/pw"),
        ToolCallAction("search"),
        ToolCallAction("rm"),
    )
    return Fixture("read-agent", ImplConstants(spec, graph), alphabet)


def rag_flow(barrier: bool = True) -> Fixture:
    spec = SpecConstants(
        workspace_root="/rag",
        allowed_tools=frozenset({"docs/guide.md", "docs/api.md"}),
        max_steps=3,
    )
    fetch_kind = NodeKind.TOOL if barrier else NodeKind.STEP
    fetch_label = "tool" if barrier else "step"
    graph = FlowGraph(
        entry="plan",
        node_kinds=(
            ("plan", NodeKind.STEP),
            ("fetch", fetch_kind),
            ("read", NodeKind.READ),
            ("done", NodeKind.TERMINAL),
        ),
        edges=(
            ("plan", "step", "fetch"),
            ("fetch", fetch_label, "read"),
            ("read", "read", "done"),
        ),
    )
    alphabet: tuple[Action, ...] = (
        NoAction(),
        StepAction(),
        ReadPathAction("/rag/notes.txt"),
        ReadPathAction("/etc/pw"),
        ToolCallAction("docs/guide.md"),
        ToolCallAction("wget"),
    )
    name = "rag-flow-barrier" if barrier else "rag-flow-no-barrier"
    return Fixture(name, ImplConstants(spec, graph), alphabet)
