"""Concrete contained machine: a policy-gated dispatch loop over a flow
graph.

A step takes the driver's action and either dispatches along a matching
labeled edge (emitting the corresponding boundary event and recording it)
or rejects, emitting a stutter with the state unchanged. Rejection is a
value, never an error: the machine is total.

An action is effected only when both of these hold:
  * the guards of the policy table admit it (rooted path / allowlisted
    tool / step capacity), and
  * the current node's kind is the action variant's; the step takes the
    node's one edge (``_DISPATCH`` names each kind's edge label).

All of this but the step capacity depends on the current node and the
action alone. So ``impl_next`` compiles each (node, action) pair it
meets into a route once per ``ImplConstants``: None when the pair always
stutters, else the step guard's verdict table, the edge's target, the
event the step emits and the values it appends to the read paths and to
the tool calls. A step then judges only the step capacity, reading its
step count's verdict from that table (one per ``c.spec``, kept in
``c.spec._holds``), so a state whose step count has reached ``max_steps``
only stutters. Both tables are exact because every guard of
``spec_model.POLICY`` is a pure function of (constants, value).

The machine writes its own effect: it shares the guards with the policy
machine, not ``spec_model``'s ``action_effect`` or ``advance``, so the
refinement's step simulation compares two definitions of what an
effected action records.

The machine does not judge its own output: the sweep and ``run`` judge
each emitted event with ``spec_model.emits``, the policy machine's move,
and the checks judge each state with ``violated`` and ``INVARIANT``.
Events are modeled effects only; nothing here touches a real filesystem
or tool.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum

from .actions import (
    Action,
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
    TupleRecord,
)
from .spec_model import (
    STEP_BOUNDED,
    SpecConstants,
    admits_value,
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

    Every edge can fire: a Read, Tool or Step node has one edge, labelled
    for its kind, and a Terminal node none; any other graph is refused.
    node_kinds and edges are normalized to sorted tuples so equal graphs
    compare and serialize identically.
    """

    __match_args__ = ("entry", "node_kinds", "edges")
    __slots__ = __match_args__ + ("_kind_map", "_edge_map")

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
        own_label = dict(_DISPATCH.values())  # node kind -> the one label it dispatches along
        edge_map: dict[tuple[str, str], str] = {}
        for frm, label, to in edges:
            if frm not in kind_map:
                raise FlowGraphError(f"edge source {frm!r} not in graph")
            if to not in kind_map:
                raise FlowGraphError(f"edge target {to!r} not in graph")
            if (frm, label) in edge_map:
                raise FlowGraphError(f"duplicate edge {frm!r} -{label!r}->")
            if label != own_label.get(kind_map[frm]):
                raise FlowGraphError(f"edge {frm!r} -{label!r}-> {to!r} can never fire")
            edge_map[(frm, label)] = to
        for node, kind in kinds:
            if kind in own_label and (node, own_label[kind]) not in edge_map:
                raise FlowGraphError(f"{kind.value} node {node!r} has no {own_label[kind]!r} edge")
        self._set(entry, kinds, edges, kind_map, edge_map)

    def kind_of(self, node: str) -> NodeKind:
        return self._kind_map[node]

    def edge_target(self, node: str, label: str) -> str:
        return self._edge_map[(node, label)]


class ImplConstants(Record):
    """The policy parameters and the flow graph. ``_routes`` is the route
    table ``impl_next`` fills as it meets (node, action) pairs; it is a
    cache, not part of the constants' value."""

    __match_args__ = ("spec", "graph")
    __slots__ = __match_args__ + ("_routes",)

    def __init__(self, spec: SpecConstants, graph: FlowGraph) -> None:
        self._set(spec, graph, {})


class ImplState(TupleRecord):
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
    history: tuple[tuple[str, Action], ...] = ()
    last_node: str | None = NO_NODE
    last_action: Action = NoAction()


def impl_init(c: ImplConstants) -> ImplState:
    return ImplState(current_node=c.graph.entry)


_DISPATCH = {
    ReadPathAction: (NodeKind.READ, "read"),
    ToolCallAction: (NodeKind.TOOL, "tool"),
    StepAction: (NodeKind.STEP, "step"),
}


STUTTER = ImplEvent(NoEffect())  # the one event every stutter of impl_next returns


def _compile_route(c: ImplConstants, node: str, a: Action) -> tuple | None:
    """The route of ``a`` out of ``node`` (see the module docstring). None
    when ``a`` stutters there at every state: the policy's static guards
    reject its value, or the node kind does not match the action."""
    kind, label = _DISPATCH.get(type(a), (None, None))
    if kind is None or not admits_value(c.spec, a) or c.graph.kind_of(node) is not kind:
        return None
    target = c.graph.edge_target(node, label)
    match a:
        case ReadPathAction(path):
            effect, reads, tools = ReadEvent(path), (path,), ()
        case ToolCallAction(tool):
            effect, reads, tools = ToolEvent(tool), (), (tool,)
        case _:  # StepAction
            effect, reads, tools = StepEvent(), (), ()
    room = c.spec._holds[STEP_BOUNDED.guard]
    return room, target, ImplEvent(effect, Dispatch(node, label, target)), reads, tools


def impl_next(c: ImplConstants, s: ImplState, a: Action) -> tuple[tuple[ImplEvent, ImplState], ...]:
    """Deterministic, total: exactly one successor per (state, action). A
    rejected action stutters, and its successor is ``s`` itself, the same
    object, so that an explorer can skip it without hashing it. Each
    (node, action) pair is compiled into its route once per ``c``, when
    first met, and the step capacity of each step count is judged once per
    ``c.spec`` (see the module docstring); that needs every guard of
    ``spec_model.POLICY`` to be a pure function of (constants, value). An
    effected step appends the route's values and consumes one step."""
    key = (s.current_node, a)
    try:
        route = c._routes[key]
    except KeyError:
        route = c._routes[key] = _compile_route(c, s.current_node, a)
    if route is None or not route[0][s.step_count]:  # no step capacity left
        return ((STUTTER, s),)
    _, target, event, reads, tools = route
    post = tuple.__new__(
        ImplState,
        (target, s.read_paths + reads, s.tool_calls + tools, s.step_count + 1, s.history + (key,), s.current_node, a),
    )
    return ((event, post),)


InvClause = Callable[[ImplConstants, ImplState], bool]

INVARIANT: dict[str, InvClause] = {
    "step_bounded": lambda c, s: STEP_BOUNDED.holds(c.spec, s.step_count),
    "history_length": lambda c, s: len(s.history) == s.step_count,
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
