"""Abstract policy machine: policy transitions, safety predicate, and the
two lemma-level checks (initial safety, inductive preservation)."""

import itertools
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import pytest

import flowguard.spec_model as spec_model
from flowguard.actions import (
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
)
from flowguard.flowfile import load_flow, with_prefix_mode
from flowguard.gates import SEEDED_ERRORS
from flowguard.refinement import Bundle
from flowguard.spec_model import (
    READ_PATHS_ROOTED,
    STEP_BOUNDED,
    TOOL_ALLOWLISTED,
    SpecConstants,
    SpecState,
    check_safety_preserved,
    path_under_root,
    spec_init,
    spec_next,
    spec_safety,
)

ROOT = Path(__file__).resolve().parents[1]
C = SpecConstants("/ws", frozenset({"search"}), 3)


# ---------------------------------------------------------------------------
# path prefix semantics


def test_guarded_prefix_is_separator_aware():
    assert path_under_root("/ws", "/ws/a", "guarded")
    assert path_under_root("/ws", "/ws", "guarded")
    assert not path_under_root("/ws", "/wsx/a", "guarded")


def test_bare_prefix_is_literal():
    assert path_under_root("/ws", "/wsx/a", "bare")
    assert path_under_root("/ws", "/ws", "bare")
    assert not path_under_root("/ws", "/etc/ws", "bare")


def test_comparison_is_byte_exact():
    # no normalization: the dot segment is compared literally, so this path
    # counts as under "/ws/" at this layer (normalization is runtime work)
    assert path_under_root("/ws", "/ws/../etc", "guarded")
    assert not path_under_root("/ws", "//ws/a", "guarded")


# ---------------------------------------------------------------------------
# init


def test_init_is_empty_not_halted():
    s = spec_init(SpecConstants("/ws", frozenset({"search"}), 3))
    assert s == SpecState(read_paths=(), tool_calls=(), step_count=0, halted=False)


def test_init_is_deterministic():
    c = SpecConstants("/ws", frozenset({"a", "b"}), 2)
    assert spec_init(c) == spec_init(c)


def test_init_safety_over_constants_grid():
    # exhaustive grid: 3 roots x 3 allowlists x max in {0,1,2}
    roots = ["/ws", "/", "/deep/nest"]
    allowlists = [frozenset(), frozenset({"search"}), frozenset({"a", "b"})]
    for root, tools, max_steps in itertools.product(roots, allowlists, range(3)):
        c = SpecConstants(root, tools, max_steps)
        assert spec_safety(c, spec_init(c))


# ---------------------------------------------------------------------------
# the transition relation


def test_rooted_read_appends_and_emits():
    succs = spec_next(C, spec_init(C), ReadPathAction("/ws/a.txt"))
    effected = [x for x in succs if not isinstance(x[0], NoEffect)]
    assert len(effected) == 1
    event, s2 = effected[0]
    assert event == ReadEvent("/ws/a.txt")
    assert s2.read_paths == ("/ws/a.txt",)


def test_unlisted_tool_only_stutters():
    succs = spec_next(C, spec_init(C), ToolCallAction("rm"))
    assert succs == ((NoEffect(), spec_init(C)),)


def test_step_at_bound_only_stutters():
    c = SpecConstants("/ws", frozenset(), 1)
    s = SpecState(step_count=1, halted=True)
    # enumerate the relation at the boundary: the stutter is the only successor
    assert spec_next(c, s, StepAction()) == ((NoEffect(), s),)


def test_step_reaching_bound_sets_halted():
    c = SpecConstants("/ws", frozenset(), 2)
    s = SpecState(step_count=1)
    (event, s2), _stutter = spec_next(c, s, StepAction())
    assert event == StepEvent()
    assert s2.step_count == 2 and s2.halted


def test_noaction_only_stutters():
    assert spec_next(C, spec_init(C), NoAction()) == ((NoEffect(), spec_init(C)),)


def test_effected_actions_consume_steps_by_default():
    (event, s2), _ = spec_next(C, spec_init(C), ReadPathAction("/ws/a"))
    assert s2.step_count == 1


def test_step_only_accounting_mode():
    c = SpecConstants("/ws", frozenset({"search"}), 2, count_all_actions=False)
    (_, s2), _ = spec_next(c, spec_init(c), ReadPathAction("/ws/a"))
    assert s2.step_count == 0 and not s2.halted
    (_, s3), _ = spec_next(c, s2, StepAction())
    assert s3.step_count == 1


# ---------------------------------------------------------------------------
# safety predicate


def test_safety_accepts_rooted_state():
    s = SpecState(read_paths=("/ws/x",), tool_calls=(), step_count=0)
    assert spec_safety(SpecConstants("/ws", frozenset(), 3), s)


def test_safety_rejects_unrooted_read():
    s = SpecState(read_paths=("/etc/pw",))
    assert not spec_safety(SpecConstants("/ws", frozenset(), 3), s)


def test_safety_rejects_unlisted_tool():
    s = SpecState(tool_calls=("rm",))
    assert not spec_safety(C, s)


def test_safety_rejects_count_above_bound():
    s = SpecState(step_count=4)
    assert not spec_safety(SpecConstants("/ws", frozenset(), 3), s)


# ---------------------------------------------------------------------------
# inductive preservation


ALPHABET = (
    NoAction(),
    StepAction(),
    ReadPathAction("/ws/x"),
    ReadPathAction("/etc/pw"),
    ToolCallAction("search"),
    ToolCallAction("rm"),
)


def test_safety_preserved_on_fixture_alphabet():
    verdict = check_safety_preserved(C, ALPHABET, 4)
    assert verdict.passed
    assert verdict.explored_states > 0


def test_safety_preserved_depth_zero_is_trivial():
    verdict = check_safety_preserved(C, ALPHABET, 0)
    assert verdict.passed
    assert verdict.explored_states == 0


def test_guard_dropping_mutation_fails_preservation():
    # inject the shipped seeded error and watch the inductive step break
    from flowguard.gates import SEEDED_ERRORS
    from flowguard.refinement import Bundle

    drop_allowlist = SEEDED_ERRORS["drop-allowlist-guard"](Bundle()).next_relation
    verdict = check_safety_preserved(C, ALPHABET, 4, next_relation=drop_allowlist)
    assert not verdict.passed
    cx = verdict.counterexample
    assert cx is not None
    assert isinstance(cx.event, ToolEvent)
    assert not spec_safety(C, cx.post_state)


# ---------------------------------------------------------------------------
# relation-level properties


constants_st = st.builds(
    SpecConstants,
    st.sampled_from(["/ws", "/data"]),
    st.frozensets(st.sampled_from(["search", "rm"])),
    st.integers(min_value=0, max_value=3),
)

states_st = st.builds(
    SpecState,
    st.lists(st.sampled_from(["/ws/x", "/etc/pw"]), max_size=3).map(tuple),
    st.lists(st.sampled_from(["search", "rm"]), max_size=3).map(tuple),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)

actions_st = st.one_of(
    st.just(NoAction()),
    st.just(StepAction()),
    st.sampled_from(["/ws/x", "/etc/pw", "/ws"]).map(ReadPathAction),
    st.sampled_from(["search", "rm"]).map(ToolCallAction),
)


@given(constants_st, states_st, actions_st)
def test_stutter_is_always_a_successor(c, s, a):
    assert (NoEffect(), s) in spec_next(c, s, a)


@given(constants_st, states_st, actions_st)
def test_appends_are_monotone(c, s, a):
    for _e, s2 in spec_next(c, s, a):
        assert s2.read_paths[: len(s.read_paths)] == s.read_paths
        assert s2.tool_calls[: len(s.tool_calls)] == s.tool_calls


@given(constants_st, states_st, actions_st)
def test_no_capacity_means_no_effect(c, s, a):
    # once the counter is at the bound, everything stutters (default mode)
    if s.step_count >= c.max_steps:
        assert spec_next(c, s, a) == ((NoEffect(), s),)


@given(constants_st, states_st, actions_st)
def test_events_match_their_state_change(c, s, a):
    for e, s2 in spec_next(c, s, a):
        if isinstance(e, NoEffect):
            assert s2 == s
        elif isinstance(e, ReadEvent):
            assert s2.read_paths == s.read_paths + (e.path,)
        elif isinstance(e, ToolEvent):
            assert s2.tool_calls == s.tool_calls + (e.tool,)
        else:
            assert s2.read_paths == s.read_paths and s2.tool_calls == s.tool_calls


# ---------------------------------------------------------------------------
# the move table


def test_move_table_never_answers_for_a_dropped_policy():
    # Each policy is built, used once and dropped, so a table that keyed on
    # its id without keeping it alive would meet a recycled id.
    c = SpecConstants("/ws", frozenset({"search"}), 3)
    s, a = spec_init(c), ToolCallAction("rm")
    for i in range(40):
        tool_guard = TOOL_ALLOWLISTED._replace(guard=lambda c, tool, admit=i % 2 == 0: admit)
        policy = (READ_PATHS_ROOTED, tool_guard, STEP_BOUNDED)
        effected = len(spec_next(c, s, a, policy)) == 2
        assert effected == tool_guard.guard(c, a.tool) == (i % 2 == 0)
        del policy, tool_guard


def test_bare_prefix_constants_do_not_inherit_guarded_moves():
    defn = load_flow(ROOT / "flows" / "read_agent.json")
    a = ReadPathAction("/wsx/a")
    assert defn.constants.workspace_root == "/ws"
    assert spec_next(defn.constants, spec_init(defn.constants), a) == ((NoEffect(), SpecState()),)
    bare = with_prefix_mode(defn, "bare").constants
    (event, s2), _stutter = spec_next(bare, spec_init(bare), a)
    assert event == ReadEvent("/wsx/a") and s2.read_paths == ("/wsx/a",)


def test_abstract_check_judges_each_action_statically_once_per_relation(monkeypatch):
    """Safety preservation at depth 6 on read_agent steps the abstract
    machine once per (explored state, action), and judges each action's
    value against the relation's static guards at most once."""
    defn = load_flow(ROOT / "flows" / "read_agent.json")
    calls = 0
    original = spec_model.admits_value

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(spec_model, "admits_value", counting)
    edits = (SEEDED_ERRORS[m](Bundle()) for m in ("drop-allowlist-guard", "step-bound-off-by-one"))
    explored = []
    for b in (Bundle(), *edits):
        calls = 0
        c = defn.constants._replace()  # a fresh, empty move table
        explored.append(check_safety_preserved(c, defn.alphabet, 6, next_relation=b.next_relation).explored_states)
        assert 0 < calls <= len(defn.alphabet)
    assert explored[0] == 20  # the shipped relation: 20 states x 6 actions = 120 abstract steps


def test_constants_validation():
    with pytest.raises(ValueError):
        SpecConstants("", frozenset(), 1)
    with pytest.raises(ValueError):
        SpecConstants("/ws", frozenset(), -1)
    with pytest.raises(ValueError):
        SpecConstants("/ws", frozenset(), 1, prefix_mode="fuzzy")
