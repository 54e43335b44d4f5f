"""Concrete contained machine: a policy-gated dispatch loop over a flow
graph.

A step takes the driver's action and either dispatches along a matching
labeled edge (emitting the corresponding boundary event and recording it)
or rejects, emitting a stutter with the state unchanged. Rejection is a
value, never an error: the machine is total.

An action is effected only when all of these hold:
  * the machine has not halted,
  * the guards of the policy table admit it (rooted path / allowlisted
    tool / step capacity),
  * the current node's kind matches the action variant, and
  * an outgoing edge labeled with the action's canonical label exists.

All of these but the first and the step capacity depend on the current
node and the action alone. So ``impl_next`` compiles each (node, action)
pair it meets into a route once per ``ImplConstants``: None when the pair
always stutters, else the edge's target, the event the step emits and
the step's effect on the boundary fields. A step then judges only the
halted flag and the step capacity. The table is exact because every
guard of ``spec_model.POLICY`` is a pure function of (constants, value).

Events are modeled effects only; nothing here touches a real filesystem
or tool.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from .actions import (
    Action,
    BoundaryEvent,
    Dispatch,
    ImplEvent,
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    Record,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
    action_label,
)
from .spec_model import (
    READ_PATHS_ROOTED,
    STEP_BOUNDED,
    TOOL_ALLOWLISTED,
    SpecConstants,
    action_effect,
    admits_value,
    advance,
    violated,
)

NO_NODE = None  # sentinel for "no node visited yet"


class NodeKind(str, Enum):
    READ = "Read"
    TOOL = "Tool"
    STEP = "Step"
    TERMINAL = "Terminal"


class FlowGraphError(ValueError):
    """The graph violates a structural invariant."""


class FlowGraph(Record):
    """Directed graph of kinded nodes with labeled dispatch edges.

    node_kinds and edges are normalized to sorted tuples so equal graphs
    compare and serialize identically.
    """

    __match_args__ = ("entry", "node_kinds", "edges")
    __slots__ = __match_args__ + ("_kind_map", "_edge_map", "_nodes")

    def __init__(
        self,
        entry: str,
        node_kinds: tuple[tuple[str, NodeKind], ...],
        edges: tuple[tuple[str, str, str], ...],  # (from_node, label, to_node)
    ) -> None:
        kinds = tuple(sorted((n, NodeKind(k)) for n, k in node_kinds))
        edges = tuple(sorted(edges))

        kind_map = dict(kinds)
        if len(kind_map) != len(kinds):
            raise FlowGraphError("duplicate node names")
        if entry not in kind_map:
            raise FlowGraphError(f"entry node {entry!r} not in graph")
        edge_map: dict[tuple[str, str], str] = {}
        for frm, label, to in edges:
            if frm not in kind_map:
                raise FlowGraphError(f"edge source {frm!r} not in graph")
            if to not in kind_map:
                raise FlowGraphError(f"edge target {to!r} not in graph")
            if (frm, label) in edge_map:
                raise FlowGraphError(f"duplicate edge {frm!r} -{label!r}->")
            edge_map[(frm, label)] = to
        for node, kind in kinds:
            if kind is not NodeKind.TERMINAL and not any(f == node for f, _, _ in edges):
                raise FlowGraphError(f"non-terminal node {node!r} has no outgoing edge")
        self._set(entry, kinds, edges, kind_map, edge_map, frozenset(kind_map))

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    def kind_of(self, node: str) -> NodeKind:
        return self._kind_map[node]

    def edge_target(self, node: str, label: str) -> str | None:
        return self._edge_map.get((node, label))


class ImplConstants(Record):
    """The policy parameters and the flow graph. ``_routes`` is the route
    table ``impl_next`` fills as it meets (node, action) pairs; it is a
    cache, not part of the constants' value."""

    __match_args__ = ("spec", "graph")
    __slots__ = __match_args__ + ("_routes",)

    def __init__(self, spec: SpecConstants, graph: FlowGraph) -> None:
        self._set(spec, graph, {})


class ImplState(NamedTuple):
    """A state of the concrete machine: an immutable tuple record, built by
    ``tuple.__new__`` and hashed and compared in C. Two states are equal
    exactly when their field values are, and a state also equals a plain
    tuple of the same values; no code path compares a state with anything
    but a state. A step builds its post-state, and ``s._replace(...)`` an
    edited copy."""

    current_node: str
    read_paths: tuple[str, ...] = ()
    tool_calls: tuple[str, ...] = ()
    step_count: int = 0
    halted: bool = False
    history: tuple[tuple[str, Action], ...] = ()
    last_node: str | None = NO_NODE
    last_action: Action = NoAction()


def impl_wf(c: ImplConstants, s: ImplState) -> bool:
    """Structural well-formedness only; the inductive invariant is separate."""
    return s.current_node in c.graph.nodes


def impl_init(c: ImplConstants) -> ImplState:
    return ImplState(current_node=c.graph.entry)


_KIND_FOR_ACTION = {
    ReadPathAction: NodeKind.READ,
    ToolCallAction: NodeKind.TOOL,
    StepAction: NodeKind.STEP,
}


STUTTER = ImplEvent(NoEffect())  # the one event every stutter of impl_next returns


class _Route(NamedTuple):
    """What an effected step along one (node, action) pair does, whatever
    the state: the node it dispatches to, the event it emits, and its
    ``action_effect`` on the boundary fields."""

    target: str
    event: ImplEvent
    reads: tuple[str, ...]
    tools: tuple[str, ...]
    counts_step: bool


def _compile_route(c: ImplConstants, node: str, a: Action) -> _Route | None:
    """The route of ``a`` out of ``node``, or None when ``a`` stutters there
    at every state: the static guards of the policy reject its value, the
    node kind does not match the action variant, or no edge carries its
    label."""
    wanted = _KIND_FOR_ACTION.get(type(a))
    if not admits_value(c.spec, a) or wanted is None or c.graph.kind_of(node) is not wanted:
        return None
    label = action_label(a)
    target = c.graph.edge_target(node, label)
    if target is None:
        return None
    effect, reads, tools, counts_step = action_effect(c.spec, a)
    return _Route(target, ImplEvent(effect, Dispatch(node, label, target)), reads, tools, counts_step)


def impl_next(c: ImplConstants, s: ImplState, a: Action) -> tuple[tuple[ImplEvent, ImplState], ...]:
    """Deterministic, total: exactly one successor per (state, action). A
    rejected action stutters, and its successor is ``s`` itself, the same
    object, so that an explorer can skip it without hashing it. Each
    (node, action) pair is compiled into its route once per ``c``, when
    first met (see the module docstring); that needs every guard of
    ``spec_model.POLICY`` to be a pure function of (constants, value)."""
    if s.halted:
        return ((STUTTER, s),)
    key = (s.current_node, a)
    try:
        route = c._routes[key]
    except KeyError:
        route = c._routes[key] = _compile_route(c, s.current_node, a)
    if route is None or (route.counts_step and not STEP_BOUNDED.guard(c.spec, s.step_count)):
        return ((STUTTER, s),)
    fields = advance(c.spec, s, route.reads, route.tools, route.counts_step)
    post = tuple.__new__(ImplState, (route.target, *fields, s.history + (key,), s.current_node, a))
    return ((route.event, post),)


InvClause = Callable[[ImplConstants, ImplState], bool]

INVARIANT: dict[str, InvClause] = {
    "well_formed": impl_wf,
    "step_bounded": lambda c, s: STEP_BOUNDED.holds(c.spec, s.step_count),
    "halts_at_bound": lambda c, s: not s.halted or s.step_count >= c.spec.max_steps,
    "history_length": lambda c, s: (
        len(s.history) == s.step_count if c.spec.count_all_actions else len(s.history) >= s.step_count
    ),
    "last_step_recorded": lambda c, s: (
        s.last_node is NO_NODE or s.history[-1:] == ((s.last_node, s.last_action),)
    ),
}


def impl_inv(c: ImplConstants, s: ImplState, clauses: dict[str, InvClause] = INVARIANT) -> bool:
    """Inductive invariant strengthening the refinement: holds at init and
    is preserved by every step. It is the conjunction of the named
    ``clauses``."""
    for clause in clauses.values():
        if not clause(c, s):
            return False
    return True


def impl_safety(c: ImplConstants, s: ImplState) -> bool:
    """The concrete boundary policy as a state predicate: the conjuncts of
    the abstract safety predicate, read off the concrete fields."""
    return violated(c.spec, s) is None


def event_in_policy(c: ImplConstants, pre: ImplState, event: ImplEvent | BoundaryEvent) -> bool:
    """Does an emitted event comply with the boundary policy, judged at its
    pre-state by the guard of the conjunct its action variant answers to?
    Stutters always comply."""
    if event is STUTTER:
        return True
    effect = event.effect if isinstance(event, ImplEvent) else event
    match effect:
        case NoEffect():
            return True
        case ReadEvent(path):
            return READ_PATHS_ROOTED.guard(c.spec, path)
        case ToolEvent(tool):
            return TOOL_ALLOWLISTED.guard(c.spec, tool)
        case StepEvent():
            return STEP_BOUNDED.guard(c.spec, pre.step_count)
    return False
