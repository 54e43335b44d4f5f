"""Abstract boundary-policy machine: the specification side of the
refinement pair.

The machine tracks only the three boundary-visible variables (read
paths, tool calls, step count). The policy is defined once, as the table
POLICY of three named conjuncts (rooted reads, allowlisted tools,
bounded steps); each holds the guard a transition checks, and a sequence
is safe when its guard admits every element. Both machines, every safety
check and the seeded errors of the gates are derived from it. Under it,
while step capacity remains, a rooted read appends, an allowlisted tool
call appends, and each, like a step, advances the step counter; every
(state, action) pair also admits a no-effect stutter, the only move left
at the bound. The stutter option is what lets a concrete machine reject
an action for reasons the abstract machine cannot see (wrong node kind,
missing edge) and still refine.

``spec_next`` compiles each (policy, action) pair it meets into a move once
per ``SpecConstants``, so a step judges only the step bound; that is exact
because every ``Conjunct`` guard is a pure function of (constants, value).
``emits``, the one judge of an emitted event, reads the same move: an
event is in policy when ``spec_next`` offers it for its action and pre-state.
``action_effect`` and ``advance`` compute the effect of the specification's
moves only; the concrete machine computes its own, and refinement relates
the two.

Safety is deliberately a separate predicate, not a type invariant: unsafe
states must be representable so checks can reject them.
"""

from __future__ import annotations

from collections.abc import Callable

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
    TupleRecord,
    format_action,
    format_boundary_event,
)


class SpecConstants(Record):
    """Policy parameters shared by the abstract and concrete machines.
    Every effected action consumes one of the ``max_steps`` steps, so the
    concrete history is exactly as long as the step count. ``_moves`` is
    ``spec_next``'s move table and ``_holds`` holds the verdict tables, one
    per predicate: ``violated``'s, and the step guard's that ``impl_next``
    and ``emits`` read the step capacity from. They are caches, not part of
    the value. A read path is admitted when
    ``path_under_root`` holds for it: the one rule for "under the workspace
    root"."""

    __match_args__ = ("workspace_root", "allowed_tools", "max_steps")
    __slots__ = __match_args__ + ("_moves", "_holds")

    def __init__(self, workspace_root: str, allowed_tools: frozenset[str], max_steps: int) -> None:
        if not workspace_root:
            raise ValueError("workspace_root must be nonempty")
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        self._set(workspace_root, allowed_tools, max_steps, {}, _Tables(self))


class SpecState(TupleRecord):
    """A state of the abstract machine: an immutable tuple record of the
    three boundary-visible variables, built by ``tuple.__new__`` and hashed
    and compared in C. Two states are equal exactly when their field
    values are, and a state also equals a plain tuple of the same values;
    no code path compares a state with anything but a state."""

    read_paths: tuple[str, ...] = ()
    tool_calls: tuple[str, ...] = ()
    step_count: int = 0


def path_under_root(root: str, path: str) -> bool:
    """A path is under the root iff it equals the root or extends it across
    a '/' boundary: "/ws" covers "/ws" and "/ws/a" but not "/wsx/a". The
    test is byte-exact, with no normalization (that belongs to untrusted
    runtime plumbing, not the model)."""
    if path == root:
        return True
    sep_root = root if root.endswith("/") else root + "/"
    return path.startswith(sep_root)


def spec_init(c: SpecConstants) -> SpecState:
    return SpecState()


# ---------------------------------------------------------------------------
# The policy, defined once: every other use of its guards is derived from it.


class Conjunct(TupleRecord):
    """One named conjunct of the boundary policy: the ``guard`` a transition
    checks before it effects an action. A sequence conjunct guards the
    value ``getattr(a, arg)`` of an ``action``-typed action, which appends
    it to ``field``; a state is safe when the guard admits every element.
    The step bound (no ``action``) guards the pre-state step count before
    each action that consumes a step; safety checks its ``holds`` instead.
    Both must be pure functions of (constants, value): ``impl_next``,
    ``spec_next``, ``emits`` and ``violated`` keep their verdicts (see
    each)."""

    name: str
    field: str
    guard: Callable[[SpecConstants, object], bool]
    violation: str  # describes a state that breaks the conjunct
    action: type | None = None
    arg: str = ""
    holds: Callable[[SpecConstants, object], bool] | None = None  # the step bound's state predicate


def _rooted(c: SpecConstants, path: str) -> bool:
    return path_under_root(c.workspace_root, path)


READ_PATHS_ROOTED = Conjunct(
    "ReadPathsRooted", "read_paths", action=ReadPathAction, arg="path", guard=_rooted,
    violation="read path outside the workspace root",
)
TOOL_ALLOWLISTED = Conjunct(
    "ToolAllowlisted", "tool_calls", action=ToolCallAction, arg="tool",
    guard=lambda c, tool: tool in c.allowed_tools,
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


def admits_value(c: SpecConstants, a: Action, policy: tuple[Conjunct, ...] = POLICY) -> bool:
    """Do the guards of the sequence conjuncts of ``policy`` accept the
    value ``a`` carries? It reads the constants and the action only, so a
    caller may compute it once per action."""
    for k in policy:
        if k.action is not None and isinstance(a, k.action) and not k.guard(c, getattr(a, k.arg)):
            return False
    return True


class _Verdicts(dict):
    """The verdicts of ``predicate`` under ``c``, by value; a miss judges once."""

    __slots__ = ("c", "predicate")

    def __init__(self, c: SpecConstants, predicate: Callable[[SpecConstants, object], bool]) -> None:
        self.c, self.predicate = c, predicate

    def __missing__(self, value) -> bool:
        return self.setdefault(value, self.predicate(self.c, value))


class _Tables(dict):
    """The ``_Verdicts`` tables of ``c``, by predicate; a miss adds an empty one."""

    __slots__ = ("c",)

    def __init__(self, c: SpecConstants) -> None:
        self.c = c

    def __missing__(self, predicate) -> _Verdicts:
        return self.setdefault(predicate, _Verdicts(self.c, predicate))


# Per conjunct: the predicate ``violated`` keeps verdicts of, and on what.
_JUDGED = tuple((k, k.holds or k.guard, k.field, k.holds is None) for k in POLICY)


def violated(c: SpecConstants, s) -> Conjunct | None:
    """The first conjunct of the policy that ``s``, any state with the
    policed fields, breaks; None when it is safe. Each verdict on one
    element or step count is computed once per ``c`` and kept in
    ``c._holds``, one table per predicate, bounded by the distinct values
    met. That is exact because each predicate is a pure function of
    (constants, value). Known elements are judged in C, with no Python call."""
    tables = c._holds
    for k, predicate, field, per_element in _JUDGED:
        table = tables[predicate]
        value = getattr(s, field)
        if per_element:
            if value and not all(map(table.__getitem__, value)):
                return k
        elif not table[value]:
            return k
    return None


def action_effect(a: Action) -> tuple[BoundaryEvent, tuple, tuple] | None:
    """What an effected ``a`` does at any state besides consuming a step:
    the event it emits and the values it appends to the read paths and to
    the tool calls. None for an action that never takes effect. Policy
    guards are not consulted."""
    match a:
        case ReadPathAction(path):
            return ReadEvent(path), (path,), ()
        case ToolCallAction(tool):
            return ToolEvent(tool), (), (tool,)
        case StepAction():
            return StepEvent(), (), ()
    return None


def advance(s, reads: tuple, tools: tuple) -> tuple:
    """The three boundary fields (read paths, tool calls, step count) of
    ``s`` after an effected action with the ``action_effect`` (``reads``,
    ``tools``): it consumes one step."""
    return s.read_paths + reads, s.tool_calls + tools, s.step_count + 1


_NO_EFFECT = NoEffect()  # immutable, so one instance serves every stutter


def _compile_move(c: SpecConstants, a: Action, policy: tuple[Conjunct, ...]) -> tuple | None:
    """The move of ``a`` under ``policy``: None when ``a`` stutters at every
    state (``policy`` rejects its value, or it has no effect), else its
    ``action_effect`` and the step guards its pre-state step count must pass.
    It is kept in ``c._moves`` with the policy, whose id keys it, so that
    id cannot be reused while the table lives."""
    effect = action_effect(a) if admits_value(c, a, policy) else None
    move = None if effect is None else effect + (tuple(k.guard for k in policy if k.action is None),)
    c._moves[id(policy), a] = (policy, move)
    return move


def spec_next(
    c: SpecConstants, s: SpecState, a: Action, policy: tuple[Conjunct, ...] = POLICY
) -> tuple[tuple[BoundaryEvent, SpecState], ...]:
    """All abstract successors of (s, a) under ``policy``. Total by
    construction: the stutter (NoEffect, s) is always available, and it is
    the only successor when the policy rejects the action. The stutter's
    post-state is ``s`` itself, the same object. Each (policy, action) pair
    is compiled once per ``c``, keyed on ``id(policy)``."""
    stutter = (_NO_EFFECT, s)
    key = (id(policy), a)
    try:
        move = c._moves[key][1]
    except KeyError:
        move = _compile_move(c, a, policy)
    if move is None:
        return (stutter,)
    event, reads, tools, step_guards = move
    for guard in step_guards:
        if not guard(c, s.step_count):
            return (stutter,)
    return ((event, tuple.__new__(SpecState, advance(s, reads, tools))), stutter)


_POLICY_ID = id(POLICY)  # POLICY lives as long as the module, so its id is fixed


def emits(c: SpecConstants, s, a: Action, effect: BoundaryEvent) -> bool:
    """Does ``spec_next(c, s, a)`` offer ``effect``, for ``s`` any state with
    a step count? It reads ``spec_next``'s move and builds no successor,
    and the verdicts of the move's step guards on the step count from
    ``c._holds``, one table per guard, as ``violated`` reads its own."""
    if effect is _NO_EFFECT:
        return True
    try:
        move = c._moves[_POLICY_ID, a][1]
    except KeyError:
        move = _compile_move(c, a, POLICY)
    if move is None or move[0] is not effect:
        return False
    tables = c._holds
    for guard in move[3]:
        if not tables[guard][s.step_count]:
            return False
    return True


def spec_safety(c: SpecConstants, s: SpecState) -> bool:
    return violated(c, s) is None


# ---------------------------------------------------------------------------
# Lemma-level records and checks: initial safety and inductive preservation


class Step(TupleRecord):
    """One transition of either machine: a step of a driven run, or the
    counterexample an obligation reports."""

    pre_state: object
    action: Action
    event: object
    post_state: object


class Obligation(TupleRecord):
    """The verdict of one lemma: its name, whether it holds, why not, how
    many states it ranged over (None when it judges init alone), and its
    first failing step."""

    name: str
    passed: bool
    detail: str = ""
    explored_states: int | None = None
    counterexample: Step | None = None


def explore(c, init, alphabet: tuple[Action, ...], depth: int, step, keep) -> tuple[list[list], Step | None]:
    """The one layered search, over either machine: the BFS layers of
    ``step`` from ``init`` (layers[d] holds the states first reached after
    d steps, d <= depth), and the first step to a new state that
    ``keep(c, state)`` rejects, or None. It stops at that step, with the
    layers built so far, or at closure, never appending an empty layer.
    Each new state is judged once; a successor that is its pre-state
    object itself is skipped before it is hashed."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    layers: list[list] = [[init]]
    seen = {init}
    for _ in range(depth):
        nxt = []
        for s in layers[-1]:
            for a in alphabet:
                for e, s2 in step(c, s, a):
                    if s2 is s or s2 in seen:
                        continue
                    if not keep(c, s2):
                        return layers, Step(s, a, e, s2)
                    seen.add(s2)
                    nxt.append(s2)
        if not nxt:
            break
        layers.append(nxt)
    return layers, None


def check_safety_preserved(
    c: SpecConstants,
    alphabet: tuple[Action, ...],
    depth: int,
    *,
    next_relation=spec_next,
    safety=spec_safety,
) -> Obligation:
    """Inductive step of abstract safety, checked exhaustively: every
    successor of every safe state reachable within ``depth`` is safe
    (vacuously, over no state, when init is unsafe). It is ``explore`` of
    ``next_relation`` from ``spec_init`` keeping the states ``safety``
    accepts; its rejected step is the counterexample, and
    ``explored_states`` counts the states expanded up to that step."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    init = spec_init(c)
    if not safety(c, init):
        return Obligation("safety_preserved", True, explored_states=0)
    layers, cx = explore(c, init, alphabet, depth, next_relation, safety)
    if cx is None:
        return Obligation("safety_preserved", True, explored_states=sum(map(len, layers[:depth])))
    explored = sum(map(len, layers[:-1])) + layers[-1].index(cx.pre_state) + 1
    detail = f"unsafe successor via {format_action(cx.action)} emitting {format_boundary_event(cx.event)}"
    return Obligation("safety_preserved", False, detail, explored, cx)
