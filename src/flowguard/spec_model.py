"""Abstract boundary-policy machine: the specification side of the
refinement pair.

The machine tracks only the four boundary-visible variables (read paths,
tool calls, step count, halted flag). The policy is defined once, as the
table POLICY of three named conjuncts (rooted reads, allowlisted tools,
bounded steps); each holds the guard a transition checks and the state
predicate safety checks. Both machines, every safety check and the
seeded errors of the gates are derived from it. Under it a rooted read
appends, an allowlisted tool call appends, a step advances the counter
while capacity remains, and every (state, action) pair also admits a
no-effect stutter. The stutter option is what
lets a concrete machine reject an action for reasons the abstract machine
cannot see (wrong node kind, missing edge) and still refine.

``spec_next`` compiles each (policy, action) pair it meets into a move once
per ``SpecConstants``, so a step judges only the step bound; that is exact
because every ``Conjunct`` guard is a pure function of (constants, value).

Safety is deliberately a separate predicate, not a type invariant: unsafe
states must be representable so checks can reject them.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .actions import (
    Action,
    BoundaryEvent,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    Record,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
    format_action,
    format_boundary_event,
)

PREFIX_GUARDED = "guarded"
PREFIX_BARE = "bare"


class SpecConstants(Record):
    """Policy parameters shared by the abstract and concrete machines.
    ``_moves`` is ``spec_next``'s move table and ``_holds`` is
    ``violated``'s verdict table: caches, not part of the value.

    prefix_mode:
      "guarded" -- a path is under the root iff it equals the root or
                   extends it across a '/' boundary ("/ws" covers "/ws/a"
                   and "/ws" itself but not "/wsx/a").
      "bare"    -- literal string-prefix matching, no separator guard.
    count_all_actions:
      True  -- every effected action consumes a step (default; keeps the
               history-length bookkeeping of the concrete machine exact).
      False -- only StepAction consumes steps.
    """

    __match_args__ = ("workspace_root", "allowed_tools", "max_steps", "prefix_mode", "count_all_actions")
    __slots__ = __match_args__ + ("_moves", "_holds")

    def __init__(
        self,
        workspace_root: str,
        allowed_tools: frozenset[str],
        max_steps: int,
        prefix_mode: str = PREFIX_GUARDED,
        count_all_actions: bool = True,
    ) -> None:
        if not workspace_root:
            raise ValueError("workspace_root must be nonempty")
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if prefix_mode not in (PREFIX_GUARDED, PREFIX_BARE):
            raise ValueError(f"unknown prefix_mode: {prefix_mode!r}")
        self._set(workspace_root, allowed_tools, max_steps, prefix_mode, count_all_actions, {}, {})


class SpecState(NamedTuple):
    """A state of the abstract machine: an immutable tuple record of the
    four boundary-visible variables, built by ``tuple.__new__`` and hashed
    and compared in C. Two states are equal exactly when their field
    values are, and a state also equals a plain tuple of the same values;
    no code path compares a state with anything but a state."""

    read_paths: tuple[str, ...] = ()
    tool_calls: tuple[str, ...] = ()
    step_count: int = 0
    halted: bool = False


def path_under_root(root: str, path: str, mode: str = PREFIX_GUARDED) -> bool:
    """Byte-exact prefix test; no normalization (that belongs to untrusted
    runtime plumbing, not the model)."""
    if mode == PREFIX_BARE:
        return path.startswith(root)
    if path == root:
        return True
    sep_root = root if root.endswith("/") else root + "/"
    return path.startswith(sep_root)


def spec_init(c: SpecConstants) -> SpecState:
    return SpecState()


# ---------------------------------------------------------------------------
# The policy, defined once: every other use of its guards is derived from it.


class Conjunct(NamedTuple):
    """One named conjunct of the boundary policy: the ``guard`` a transition
    checks before it effects an action, and the predicate ``holds`` that
    safety checks on the state's ``field``. A sequence conjunct guards the
    value ``getattr(a, arg)`` of an ``action``-typed action, which the action
    appends to ``field``; the step bound (no ``action``) guards the pre-state
    step count before every action that consumes a step.

    ``guard`` and ``holds`` must be pure functions of (constants, value):
    ``impl_model.impl_next`` keeps each sequence guard's verdict per (node,
    action) pair, ``spec_next`` per (policy, action) pair, and ``violated``
    keeps each ``holds`` verdict per value in the constants' ``_holds``
    table."""

    name: str
    field: str
    guard: Callable[[SpecConstants, Any], bool]
    holds: Callable[[SpecConstants, Any], bool]
    violation: str  # describes a state that breaks the conjunct
    action: type | None = None
    arg: str = ""


def _rooted(c: SpecConstants, path: str) -> bool:
    return path_under_root(c.workspace_root, path, c.prefix_mode)


READ_PATHS_ROOTED = Conjunct(
    "ReadPathsRooted", "read_paths", action=ReadPathAction, arg="path",
    guard=_rooted, holds=lambda c, paths: all(_rooted(c, p) for p in paths),
    violation="read path outside the workspace root",
)
TOOL_ALLOWLISTED = Conjunct(
    "ToolAllowlisted", "tool_calls", action=ToolCallAction, arg="tool",
    guard=lambda c, tool: tool in c.allowed_tools, holds=lambda c, tools: c.allowed_tools.issuperset(tools),
    violation="tool call outside the allowlist",
)
STEP_BOUNDED = Conjunct(
    "StepBounded", "step_count",
    guard=lambda c, count: count < c.max_steps,  # room for one more step
    holds=lambda c, count: count <= c.max_steps,
    violation="step count above the bound",
)
POLICY: tuple[Conjunct, ...] = (READ_PATHS_ROOTED, TOOL_ALLOWLISTED, STEP_BOUNDED)
SEQUENCE_CONJUNCTS: tuple[Conjunct, ...] = tuple(k for k in POLICY if k.action is not None)


def _counts_step(c: SpecConstants, a: Action) -> bool:
    return c.count_all_actions or isinstance(a, StepAction)


def admits_value(c: SpecConstants, a: Action, policy: tuple[Conjunct, ...] = POLICY) -> bool:
    """Do the guards of the sequence conjuncts of ``policy`` accept the
    value ``a`` carries? It reads the constants and the action only, so a
    caller may compute it once per action."""
    for k in policy:
        if k.action is not None and isinstance(a, k.action) and not k.guard(c, getattr(a, k.arg)):
            return False
    return True


def violated(c: SpecConstants, s) -> Conjunct | None:
    """The first conjunct of the policy that ``s`` breaks, or None when
    ``s`` is safe. ``s`` is any state with the policed fields. Each
    conjunct's verdict on a field value is computed once per ``c`` and
    kept in ``c._holds``, one table per ``holds`` function; that is exact
    because ``holds`` is a pure function of (constants, value). States
    that share a sequence share its verdict, so judging a known value
    costs a hash of it rather than a guard call per element."""
    tables = c._holds
    for k in POLICY:
        value = getattr(s, k.field)
        try:
            ok = tables[k.holds][value]
        except KeyError:
            ok = tables.setdefault(k.holds, {})[value] = k.holds(c, value)
        if not ok:
            return k
    return None


def action_effect(c: SpecConstants, a: Action) -> tuple[BoundaryEvent, tuple, tuple, bool] | None:
    """What an effected ``a`` does at any state: the event it emits, the
    values it appends to the read paths and to the tool calls, and whether
    it consumes a step. None for an action that never takes effect. Policy
    guards are not consulted."""
    match a:
        case ReadPathAction(path):
            return ReadEvent(path), (path,), (), _counts_step(c, a)
        case ToolCallAction(tool):
            return ToolEvent(tool), (), (tool,), _counts_step(c, a)
        case StepAction():
            return StepEvent(), (), (), True
    return None


def advance(c: SpecConstants, s, reads: tuple, tools: tuple, counts_step: bool) -> tuple:
    """The four boundary fields (read paths, tool calls, step count,
    halted) of ``s`` after an effected action with the ``action_effect``
    (``reads``, ``tools``, ``counts_step``): the machine halts on the step
    that reaches the bound."""
    if not counts_step:
        return s.read_paths + reads, s.tool_calls + tools, s.step_count, s.halted
    count = s.step_count + 1
    return s.read_paths + reads, s.tool_calls + tools, count, count >= c.max_steps


_NO_EFFECT = NoEffect()  # immutable, so one instance serves every stutter


def _compile_move(c: SpecConstants, a: Action, policy: tuple[Conjunct, ...]) -> tuple | None:
    """The move of ``a`` under ``policy``: None when ``a`` stutters at every
    state (``policy`` rejects its value, or it has no effect), else its
    ``action_effect`` and the step guards its pre-state step count must pass."""
    effect = action_effect(c, a) if admits_value(c, a, policy) else None
    if effect is None:
        return None
    return effect + (tuple(k.guard for k in policy if k.action is None) if effect[3] else (),)


def spec_next(
    c: SpecConstants, s: SpecState, a: Action, policy: tuple[Conjunct, ...] = POLICY
) -> tuple[tuple[BoundaryEvent, SpecState], ...]:
    """All abstract successors of (s, a) under ``policy``. Total by
    construction: the stutter (NoEffect, s) is always available, and it is
    the only successor when the policy rejects the action. The stutter's
    post-state is ``s`` itself, the same object. Each (policy, action) pair
    is compiled once per ``c``, keyed on the policy's identity; every entry
    holds the policy, so that id cannot be reused while the table lives."""
    stutter = (_NO_EFFECT, s)
    key = (id(policy), a)
    try:
        move = c._moves[key][1]
    except KeyError:
        c._moves[key] = (policy, move := _compile_move(c, a, policy))
    if move is None:
        return (stutter,)
    event, reads, tools, counts_step, step_guards = move
    for guard in step_guards:
        if not guard(c, s.step_count):
            return (stutter,)
    return ((event, tuple.__new__(SpecState, advance(c, s, reads, tools, counts_step))), stutter)


def spec_safety(c: SpecConstants, s: SpecState) -> bool:
    return violated(c, s) is None


# ---------------------------------------------------------------------------
# Lemma-level records and checks: initial safety and inductive preservation


class Step(NamedTuple):
    """One transition of either machine: a step of a driven run, or the
    counterexample an obligation reports."""

    pre_state: Any
    action: Action
    event: Any
    post_state: Any


class Obligation(NamedTuple):
    """The verdict of one lemma: its name, whether it holds, why not, how
    many states it ranged over (None when it judges init alone), and its
    first failing step."""

    name: str
    passed: bool
    detail: str = ""
    explored_states: int | None = None
    counterexample: Step | None = None


def check_safety_preserved(
    c: SpecConstants,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_relation=spec_next,
    safety=spec_safety,
) -> Obligation:
    """Inductive step of abstract safety, checked exhaustively: every
    successor of every safe state reachable within ``depth`` is safe.

    States at distance < depth are expanded; the first violating step in
    BFS order is the counterexample of the ``safety_preserved`` obligation.
    A state enters ``seen`` only after it passed ``safety``, so a successor
    already in ``seen`` is not judged again; a successor that is its
    pre-state object itself is skipped before it is hashed.
    """
    init = spec_init(c)
    frontier: list[SpecState] = [init] if safety(c, init) else []
    seen: set[SpecState] = set(frontier)
    explored = 0
    for _layer in range(depth):
        nxt_frontier: list[SpecState] = []
        for s in frontier:
            explored += 1
            for a in alphabet:
                for e, s2 in next_relation(c, s, a):
                    if s2 is s or s2 in seen:
                        continue
                    if not safety(c, s2):
                        detail = f"unsafe successor via {format_action(a)} emitting {format_boundary_event(e)}"
                        return Obligation("safety_preserved", False, detail, explored, Step(s, a, e, s2))
                    seen.add(s2)
                    nxt_frontier.append(s2)
        frontier = nxt_frontier
        if not frontier:
            break
    return Obligation("safety_preserved", True, explored_states=explored)
