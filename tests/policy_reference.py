"""Reference copies of the policy definitions as they stood before the
policy table: each guard and state predicate written out by hand, once per
use, and the rule ``spec_model.emits`` judges an emitted event by. The
differential tests in test_policy_table.py check the table-derived
versions in ``flowguard`` against these, and sweep_reference.py judges
events with ``emits``. Nothing in the library imports this module.
"""

from __future__ import annotations


from flowguard.actions import (
    Action,
    BoundaryEvent,
    Dispatch,
    ImplEvent,
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
)
from flowguard.impl_model import NO_NODE, ImplConstants, ImplState, NodeKind
from flowguard.spec_model import SpecConstants, SpecState


def path_under_root(root: str, path: str) -> bool:
    if path == root:
        return True
    sep_root = root if root.endswith("/") else root + "/"
    return path.startswith(sep_root)


# ---------------------------------------------------------------------------
# spec_model


def _effected(c: SpecConstants, s: SpecState, a: Action) -> tuple[BoundaryEvent, SpecState] | None:
    match a:
        case ReadPathAction(path):
            if not path_under_root(c.workspace_root, path):
                return None
            event: BoundaryEvent = ReadEvent(path)
            nxt = s._replace(read_paths=s.read_paths + (path,))
        case ToolCallAction(tool):
            if tool not in c.allowed_tools:
                return None
            event = ToolEvent(tool)
            nxt = s._replace(tool_calls=s.tool_calls + (tool,))
        case StepAction():
            event = StepEvent()
            nxt = s
        case _:
            return None
    if s.step_count >= c.max_steps:
        return None
    return event, nxt._replace(step_count=s.step_count + 1)


def spec_next(c: SpecConstants, s: SpecState, a: Action) -> tuple:
    stutter = (NoEffect(), s)
    effect = _effected(c, s, a)
    if effect is None:
        return (stutter,)
    return (effect, stutter)


def spec_safety(c: SpecConstants, s: SpecState) -> bool:
    return (
        all(path_under_root(c.workspace_root, p) for p in s.read_paths)
        and all(t in c.allowed_tools for t in s.tool_calls)
        and s.step_count <= c.max_steps
    )


# ---------------------------------------------------------------------------
# impl_model

_KIND_FOR_ACTION = {
    ReadPathAction: NodeKind.READ,
    ToolCallAction: NodeKind.TOOL,
    StepAction: NodeKind.STEP,
}

_LABEL_FOR_ACTION = {ReadPathAction: "read", ToolCallAction: "tool", StepAction: "step"}


def _policy_admits(c: SpecConstants, s: ImplState, a: Action) -> bool:
    match a:
        case ReadPathAction(path):
            guard = path_under_root(c.workspace_root, path)
        case ToolCallAction(tool):
            guard = tool in c.allowed_tools
        case StepAction():
            guard = True
        case _:
            return False
    return guard and s.step_count < c.max_steps


def impl_next(c: ImplConstants, s: ImplState, a: Action) -> tuple:
    stutter = ((ImplEvent(NoEffect()), s),)
    if not _policy_admits(c.spec, s, a):
        return stutter
    wanted = _KIND_FOR_ACTION.get(type(a))
    if wanted is None or c.graph.kind_of(s.current_node) is not wanted:
        return stutter
    label = _LABEL_FOR_ACTION[type(a)]
    target = c.graph.edge_target(s.current_node, label)
    if target is None:
        return stutter

    match a:
        case ReadPathAction(path):
            effect: BoundaryEvent = ReadEvent(path)
            nxt = s._replace(read_paths=s.read_paths + (path,))
        case ToolCallAction(tool):
            effect = ToolEvent(tool)
            nxt = s._replace(tool_calls=s.tool_calls + (tool,))
        case _:
            effect = StepEvent()
            nxt = s
    nxt = nxt._replace(
        step_count=s.step_count + 1,
        history=s.history + ((s.current_node, a),),
        current_node=target,
        last_node=s.current_node,
        last_action=a,
    )
    event = ImplEvent(effect, Dispatch(s.current_node, label, target))
    return ((event, nxt),)


def impl_inv(c: ImplConstants, s: ImplState) -> bool:
    if s.step_count > c.spec.max_steps:
        return False
    if len(s.history) != s.step_count:
        return False
    if s.last_node is not NO_NODE:
        if not s.history or s.history[-1] != (s.last_node, s.last_action):
            return False
    return True


def impl_safety(c: ImplConstants, s: ImplState) -> bool:
    sc = c.spec
    return (
        all(path_under_root(sc.workspace_root, p) for p in s.read_paths)
        and all(t in sc.allowed_tools for t in s.tool_calls)
        and s.step_count <= sc.max_steps
    )


def emits(c: SpecConstants, pre, a: Action, effect: BoundaryEvent) -> bool:
    """The rule for an event that a step on ``a`` out of ``pre`` emitted,
    written out by hand rather than derived from ``POLICY``: a stutter
    always passes; any other event must be the action's own effect, the
    guard of the action's variant must admit its value, and the pre-state
    must have step capacity."""
    if effect == NoEffect():
        return True
    if pre.step_count >= c.max_steps:
        return False
    match a, effect:
        case ReadPathAction(path), ReadEvent(read):
            return read == path and path_under_root(c.workspace_root, path)
        case ToolCallAction(tool), ToolEvent(called):
            return called == tool and tool in c.allowed_tools
        case StepAction(), StepEvent():
            return True
    return False


# ---------------------------------------------------------------------------
# havoc and refinement


def action_out_of_policy(c: SpecConstants, a: Action) -> bool:
    match a:
        case ReadPathAction(path):
            return not path_under_root(c.workspace_root, path)
        case ToolCallAction(tool):
            return tool not in c.allowed_tools
        case _:
            return False


def perturbations(c: ImplConstants, s: ImplState, alphabet: tuple[Action, ...]) -> tuple[ImplState, ...]:
    out: list[ImplState] = []
    if s.history:
        out.append(s._replace(history=s.history[:-1]))
        out.append(s._replace(history=s.history + s.history[-1:]))
    out.append(s._replace(step_count=s.step_count + 1))
    if s.step_count > 0:
        out.append(s._replace(step_count=s.step_count - 1))

    sc = c.spec
    unrooted = next(
        (
            a.path
            for a in alphabet
            if isinstance(a, ReadPathAction)
            and not path_under_root(sc.workspace_root, a.path)
        ),
        None,
    )
    if unrooted is not None:
        out.append(s._replace(read_paths=s.read_paths + (unrooted,)))
    unlisted = next(
        (a.tool for a in alphabet if isinstance(a, ToolCallAction) and a.tool not in sc.allowed_tools),
        None,
    )
    if unlisted is None and "__unlisted__" not in sc.allowed_tools:
        unlisted = "__unlisted__"
    if unlisted is not None:
        out.append(s._replace(tool_calls=s.tool_calls + (unlisted,)))

    if s.last_node is not NO_NODE:
        out.append(s._replace(last_node=NO_NODE, last_action=NoAction()))
        out.append(s._replace(last_action=NoAction()))
    for node in sorted(n for n, _ in c.graph.node_kinds):
        if node != s.current_node:
            out.append(s._replace(current_node=node))
    return tuple(out)


def failed_conjunct(c: ImplConstants, s: ImplState) -> str:
    sc = c.spec
    if not all(path_under_root(sc.workspace_root, p) for p in s.read_paths):
        return "read path outside the workspace root"
    if not all(t in sc.allowed_tools for t in s.tool_calls):
        return "tool call outside the allowlist"
    if s.step_count > sc.max_steps:
        return "step count above the bound"
    return "unknown"


# ---------------------------------------------------------------------------
# The seeded errors of gates.py, written out in full


def seeded_next_drop_allowlist(c: SpecConstants, s: SpecState, a: Action) -> tuple:
    stutter = (NoEffect(), s)
    match a:
        case ReadPathAction(path):
            if not path_under_root(c.workspace_root, path):
                return (stutter,)
            event, nxt = ReadEvent(path), s._replace(read_paths=s.read_paths + (path,))
        case ToolCallAction(tool):
            event, nxt = ToolEvent(tool), s._replace(tool_calls=s.tool_calls + (tool,))
        case StepAction():
            event, nxt = StepEvent(), s
        case _:
            return (stutter,)
    if s.step_count >= c.max_steps:
        return (stutter,)
    return ((event, nxt._replace(step_count=s.step_count + 1)), stutter)


def seeded_next_bound_off_by_one(c: SpecConstants, s: SpecState, a: Action) -> tuple:
    stutter = (NoEffect(), s)
    match a:
        case ReadPathAction(path):
            if not path_under_root(c.workspace_root, path):
                return (stutter,)
            event, nxt = ReadEvent(path), s._replace(read_paths=s.read_paths + (path,))
        case ToolCallAction(tool):
            if tool not in c.allowed_tools:
                return (stutter,)
            event, nxt = ToolEvent(tool), s._replace(tool_calls=s.tool_calls + (tool,))
        case StepAction():
            event, nxt = StepEvent(), s
        case _:
            return (stutter,)
    if s.step_count > c.max_steps:
        return (stutter,)
    return ((event, nxt._replace(step_count=s.step_count + 1)), stutter)


def inv_without_history_length(c: ImplConstants, s: ImplState) -> bool:
    if s.step_count > c.spec.max_steps:
        return False
    if s.last_node is not NO_NODE:
        if not s.history or s.history[-1] != (s.last_node, s.last_action):
            return False
    return True
