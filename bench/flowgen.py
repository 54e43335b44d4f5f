"""Deterministic flow-file generator for the benchmark.

Two kinds of flows come out of here:

* the three shipped flows, restated as documents so that the benchmark's
  inputs do not move when files under ``flows/`` change, and
* synthetic flows: a chain of kinded nodes, each with exactly one outgoing
  edge labelled for its kind, plus an alphabet of rooted and unrooted reads
  and allowed and unlisted tools. The seed chooses names and the alphabet
  order only; the node-kind layout and the counts are parameters, so the
  amount of work a flow causes does not depend on the seed.

Every known answer that ``expected_fitness`` and ``event_allowed`` derive
follows from how the flow is built: the machine moves one node along the
chain per effected step, so the state after ``d`` effected steps sits at
chain position ``d``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

KIND_NAMES = {"R": "Read", "T": "Tool", "S": "Step"}
EDGE_LABELS = {"Read": "read", "Tool": "tool", "Step": "step"}
WORD_LETTERS = "abcdefghijklmnopqrstuvwxyz"
WORD_LENGTH = 6


@dataclass(frozen=True)
class FlowSpec:
    """Parameters of one synthetic flow.

    ``kinds`` is cycled along the chain ("RTS" gives Read, Tool, Step,
    Read, ...); a Tool node exists iff it contains "T". A non-cyclic chain
    ends in a Terminal node; a cyclic one loops from its last node back to
    the entry, so a run never runs out of edges.
    """

    seed: int
    nodes: int
    max_steps: int
    rooted: int
    unrooted: int
    allowed: int
    unlisted: int
    kinds: str
    cyclic: bool = False


@dataclass(frozen=True)
class Flow:
    """A generated flow: its canonical file text plus what the known
    answers need to know about how it was built."""

    name: str
    text: str
    provenance: str
    chain_kinds: tuple[str, ...]  # node kind at each chain position from the entry
    max_steps: int
    workspace_root: str
    rooted_paths: tuple[str, ...]  # in alphabet order
    allowed_tools: tuple[str, ...]  # in alphabet order


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        w = "".join(rng.choice(WORD_LETTERS) for _ in range(WORD_LENGTH))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def synthetic_flow(name: str, spec: FlowSpec) -> Flow:
    rng = random.Random(f"flowgen/{spec.seed}/{name}")
    taken: set[str] = set()
    (root_word,) = _words(rng, 1, taken)
    root = "/" + root_word
    rooted = [f"{root}/{w}" for w in _words(rng, spec.rooted, taken)]
    # Unrooted paths alternate between a foreign tree and a sibling that
    # shares the root as a bare string prefix ("/abc" vs "/abcx/..."), which
    # the guarded prefix mode must still reject.
    unrooted = [
        f"/{w}/x" if i % 2 == 0 else f"{root}x/{w}"
        for i, w in enumerate(_words(rng, spec.unrooted, taken))
    ]
    allowed = [f"t_{w}" for w in _words(rng, spec.allowed, taken)]
    unlisted = [f"u_{w}" for w in _words(rng, spec.unlisted, taken)]
    names = _words(rng, spec.nodes, taken)

    terminal_at = None if spec.cyclic else spec.nodes - 1
    chain = [
        (n, "Terminal" if i == terminal_at else KIND_NAMES[spec.kinds[i % len(spec.kinds)]])
        for i, n in enumerate(names)
    ]
    alphabet = (
        ["NoAction", "StepAction"]
        + [f"ReadPathAction({p})" for p in rooted + unrooted]
        + [f"ToolCallAction({t})" for t in allowed + unlisted]
    )
    rng.shuffle(alphabet)
    return chain_flow(name, f"synthetic-{name}", root, allowed, spec.max_steps, chain, alphabet)


def chain_flow(
    name: str,
    provenance: str,
    root: str,
    allowed_tools: list[str],
    max_steps: int,
    chain: list[tuple[str, str]],
    alphabet: list[str],
) -> Flow:
    """A flow whose graph is one path: ``chain`` lists (node, kind) from the
    entry, each non-terminal node has a single edge labelled for its kind to
    the next node, and the last one, unless Terminal, loops to the entry."""
    edges = [
        {"from": n, "label": EDGE_LABELS[k], "to": chain[(i + 1) % len(chain)][0]}
        for i, (n, k) in enumerate(chain)
        if k != "Terminal"
    ]
    doc = {
        "schema_version": 1,
        "provenance": provenance,
        "constants": {
            "workspace_root": root,
            "allowed_tools": sorted(allowed_tools),
            "max_steps": max_steps,
            "prefix_mode": "guarded",
            "count_all_actions": True,
        },
        "graph": {
            "entry": chain[0][0],
            "nodes": sorted(({"name": n, "kind": k} for n, k in chain), key=lambda d: d["name"]),
            "edges": sorted(edges, key=lambda e: (e["from"], e["label"], e["to"])),
        },
        "alphabet": alphabet,
    }
    reads = [lit[len("ReadPathAction("):-1] for lit in alphabet if lit.startswith("ReadPathAction(")]
    tools = [lit[len("ToolCallAction("):-1] for lit in alphabet if lit.startswith("ToolCallAction(")]
    return Flow(
        name=name,
        # Nodes, edges and the allowlist are sorted above, so this is the
        # byte form flowguard's serialize_flow gives the parsed flow.
        text=json.dumps(doc, indent=2, sort_keys=True) + "\n",
        provenance=provenance,
        chain_kinds=tuple(k for _, k in chain),
        max_steps=max_steps,
        workspace_root=root,
        rooted_paths=tuple(p for p in reads if p == root or p.startswith(root + "/")),
        allowed_tools=tuple(t for t in tools if t in allowed_tools),
    )


# ---------------------------------------------------------------------------
# The shipped flows, as chains like the synthetic ones, so the same
# known-answer derivations apply.

_RAG_ALPHABET = [
    "NoAction",
    "StepAction",
    "ReadPathAction(/rag/notes.txt)",
    "ReadPathAction(/etc/pw)",
    "ToolCallAction(docs/guide.md)",
    "ToolCallAction(wget)",
]


def shipped_flows() -> dict[str, Flow]:
    """read_agent, rag_barrier and rag_no_barrier, byte-identical to the
    files shipped in ``flows/``."""
    flows = (
        chain_flow(
            "read_agent", "read-agent", "/ws", ["search"], 3,
            [("scan", "Read"), ("search", "Tool"), ("tick", "Step")],
            ["NoAction", "StepAction", "ReadPathAction(/ws/x)", "ReadPathAction(/etc/pw)",
             "ToolCallAction(search)", "ToolCallAction(rm)"],
        ),
        chain_flow(
            "rag_barrier", "rag-flow-barrier", "/rag", ["docs/api.md", "docs/guide.md"], 3,
            [("plan", "Step"), ("fetch", "Tool"), ("read", "Read"), ("done", "Terminal")],
            _RAG_ALPHABET,
        ),
        chain_flow(
            "rag_no_barrier", "rag-flow-no-barrier", "/rag", ["docs/api.md", "docs/guide.md"], 3,
            [("plan", "Step"), ("fetch", "Step"), ("read", "Read"), ("done", "Terminal")],
            _RAG_ALPHABET,
        ),
    )
    return {f.name: f for f in flows}


# ---------------------------------------------------------------------------
# Known answers that follow from the construction


def expected_fitness(flow: Flow, depth: int) -> list[dict]:
    """The fitness conjuncts a gate report must carry.

    A sequence conjunct is witnessed at depth p + 1, where p is the first
    chain position of the node kind that writes the sequence, provided the
    machine can get there: every earlier position is non-terminal and has
    an admissible action in the alphabet (true of every flow built here),
    and p < max_steps (after max_steps effected steps the machine halts). The
    breadth-first search meets the successor of its first state under the
    first admissible action first, so the witness holds the first rooted
    path (or allowed tool) in alphabet order.
    """
    horizon = min(flow.max_steps, depth)
    out = []
    for name, kind, values in (
        ("ReadPathsRooted", "Read", flow.rooted_paths),
        ("ToolAllowlisted", "Tool", flow.allowed_tools),
    ):
        entry: dict = {"name": name, "status": "VACUOUS"}
        for p, k in enumerate(flow.chain_kinds[:horizon]):
            if k == "Terminal":
                break
            if k == kind and values:
                entry = {"name": name, "status": "witnessed", "witness_depth": p + 1, "witness": [values[0]]}
                break
        out.append(entry)
    return out


def event_allowed(flow: Flow, event_literal: str) -> bool:
    """Is an event literal from a trace log inside the flow's policy?
    Stutters and steps always are; reads must be rooted, tools allowlisted.
    The dispatch annotation ("[from-label->to]") is ignored."""
    base = event_literal.split("[", 1)[0]
    if base in ("NoEffect", "StepEvent"):
        return True
    if base.startswith("ReadEvent(") and base.endswith(")"):
        path = base[len("ReadEvent("):-1]
        return path == flow.workspace_root or path.startswith(flow.workspace_root + "/")
    if base.startswith("ToolEvent(") and base.endswith(")"):
        return base[len("ToolEvent("):-1] in flow.allowed_tools
    return False
