"""The command-line surface: exit codes, report determinism, trace logs,
and replay."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.cli as cli
import flowguard.gates as gates
from flowguard.actions import ReadPathAction
from flowguard.cli import main
from flowguard.flowfile import FlowFileError, parse_flow, serialize_flow
from flowguard.tracelog import TraceLogError, parse_trace_log
from conftest import FLOWS, shipped


# json gives up on nesting this deep with RecursionError, not a decode error.
NESTED_TOO_DEEPLY = "[" * 200_000 + "]" * 200_000


@pytest.fixture(scope="module")
def flow_file():
    return str(FLOWS / "read_agent.json")


@pytest.fixture(scope="module")
def rag_nb_file():
    return str(FLOWS / "rag_no_barrier.json")


# ---------------------------------------------------------------------------
# start-up


# Modules whose import alone costs about half of a fresh ``flowguard``
# process's start-up: ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``.
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "pathlib")


def test_the_cli_imports_none_of_the_slow_modules():
    """A fresh interpreter, isolated from the environment and
    site-packages as the benchmark's start-up probe is, loads
    ``flowguard.cli`` without any of ``SLOW_IMPORTS``."""
    src = Path(cli.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import flowguard.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "flowguard.cli" in loaded
    assert [m for m in SLOW_IMPORTS if m in loaded] == []


MIXED_SCRIPT = (
    "scripted:ReadPathAction(/ws/a.txt);ReadPathAction(/etc/pw);ToolCallAction(search)"
)


# ---------------------------------------------------------------------------
# run


def test_run_writes_a_log_and_exits_zero(flow_file, tmp_path, capsys):
    out = tmp_path / "t.log"
    code = main(["run", "--flow", flow_file, "--strategy", MIXED_SCRIPT, "--steps", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "trace-log" and header["schema_version"] == 1
    rows = [json.loads(ln) for ln in lines[1:]]
    assert [r["event"] for r in rows][1] == "NoEffect"  # the /etc/pw read
    assert rows[0]["event"].startswith("ReadEvent(/ws/a.txt)")


def test_run_zero_steps_empty_body(flow_file, tmp_path):
    out = tmp_path / "empty.log"
    assert main(["run", "--flow", flow_file, "--steps", "0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1  # header only


def test_run_malformed_flow_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--flow", str(bad)]) == 2


def test_a_flow_nested_too_deeply_exits_two(tmp_path, capsys):
    flow = tmp_path / "deep.json"
    flow.write_text(NESTED_TOO_DEEPLY)
    with pytest.raises(FlowFileError):
        parse_flow(NESTED_TOO_DEEPLY)
    for argv in (["run"], ["check"], ["sweep"], ["replay", str(tmp_path / "unread.log")], ["gates"]):
        capsys.readouterr()
        assert main([*argv, "--flow", str(flow)]) == 2, argv
    assert json.loads(capsys.readouterr().out)["gates"]["g1"]["status"] == "fail"


def test_an_integer_too_long_to_convert_is_not_valid_json(tmp_path, capsys):
    """``json.loads`` refuses an integer of more than 4,300 digits with a
    plain ValueError; a flow file holding one is reported as invalid JSON."""
    flow = tmp_path / "long-int.json"
    flow.write_text('{"schema_version": %s}' % ("9" * 5000))
    assert main(["check", "--flow", str(flow)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")
    assert main(["gates", "--flow", str(flow)]) == 2
    g1 = json.loads(capsys.readouterr().out)["gates"]["g1"]
    assert g1["status"] == "fail" and g1["detail"].startswith("not valid JSON: ")


def test_run_unknown_strategy_exits_two(flow_file):
    assert main(["run", "--flow", flow_file, "--strategy", "psychic"]) == 2


def test_scripted_escapes_semicolons_and_backslashes(tmp_path, capsys):
    r"""In a script, ``\;`` is a literal ``;`` and ``\\`` a literal ``\``,
    so any path in the alphabet can be scripted; any other ``\`` exits 2."""
    defn = parse_flow((Path(__file__).resolve().parent / "golden" / "tracelog" / "cyclic_reads.json").read_text())
    odd = (ReadPathAction("/ws/a;b"), ReadPathAction("/ws/c\\d;"))
    flow = tmp_path / "odd.json"
    flow.write_text(serialize_flow(defn._replace(alphabet=defn.alphabet + odd)))
    out = tmp_path / "odd.log"
    script = r"scripted:ReadPathAction(/ws/a\;b);;ReadPathAction(/ws/c\\d\;)"
    assert main(["run", "--flow", str(flow), "--strategy", script, "--steps", "2", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [row["event"] for row in rows] == ["ReadEvent(/ws/a;b)[r0-read->r1]", "ReadEvent(/ws/c\\d;)[r1-read->r2]"]
    assert main(["replay", "--flow", str(flow), str(out)]) == 0
    for dangling in (r"ReadPathAction(/ws/a\b)", "ReadPathAction(/ws/a)\\", r"ReadPathAction(/ws/a)\;\ "):
        capsys.readouterr()
        assert main(["run", "--flow", str(flow), "--strategy", f"scripted:{dangling}"]) == 2, dangling
        assert "dangling" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_fixture(flow_file, capsys):
    assert main(["check", "--flow", flow_file, "--depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "pass"
    names = [o["name"] for o in report["obligations"]]
    assert "refinement_init" in names and "havoc_sweep" in names
    sweep_entry = next(o for o in report["obligations"] if o["name"] == "havoc_sweep")
    assert sweep_entry["sequences"] == 6**4


def test_check_with_injected_mutation_exits_one(flow_file, capsys):
    code = main(["check", "--flow", flow_file, "--depth", "4", "--mutation", "drop-allowlist-guard"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail"
    failing = next(o for o in report["obligations"] if o["status"] == "fail")
    assert "ToolCallAction" in failing["detail"]


def test_check_depth_zero_warns(flow_file, capsys):
    assert main(["check", "--flow", flow_file, "--depth", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] and "step obligations" in report["warnings"][0]


@pytest.mark.parametrize("depth, exit_code", [(3, 0), (4, 1)])
def test_check_warns_below_the_step_bound_floor(flow_file, capsys, depth, exit_code):
    """read_agent has max_steps 3: at depth 3 no run tries a fourth step,
    so the step-bound error passes, and the report says why."""
    argv = ["check", "--flow", flow_file, "--depth", str(depth), "--mutation", "step-bound-off-by-one"]
    assert main(argv) == exit_code
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    if depth == 3:
        assert len(warnings) == 1 and "depth >= 4 required" in warnings[0]
    else:
        assert warnings == []


def test_check_reports_are_byte_identical(flow_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "--flow", flow_file, "--depth", "3", "--out", str(a)]) == 0
    assert main(["check", "--flow", flow_file, "--depth", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# gates


def test_gates_pass_on_read_agent(flow_file, capsys):
    assert main(["gates", "--flow", flow_file, "--depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "pass"
    assert {m["id"] for m in report["gates"]["g3"]["mutants"]} == {
        "drop-allowlist-guard",
        "step-bound-off-by-one",
        "event-to-noeffect",
        "drop-history-clause",
    }


def test_gates_fail_on_no_barrier_rag(rag_nb_file, capsys):
    assert main(["gates", "--flow", rag_nb_file, "--depth", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    gates = report["gates"]
    assert gates["g1"]["status"] == gates["g2"]["status"] == gates["g3"]["status"] == "pass"
    assert gates["fitness"]["status"] == "fail"
    vacuous = [c["name"] for c in gates["fitness"]["conjuncts"] if c["status"] == "VACUOUS"]
    assert vacuous == ["ToolAllowlisted"]


def test_gates_pass_on_barrier_rag(capsys):
    assert main(["gates", "--flow", str(FLOWS / "rag_barrier.json"), "--depth", "4"]) == 0


def test_gates_malformed_flow_fails_g1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}')
    assert main(["gates", "--flow", str(bad), "--depth", "4"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["gates"]["g1"]["status"] == "fail"


G1_FAILURE_REPORT = """\
{
  "depth": 4,
  "gates": {
    "g1": {
      "detail": "missing keys in document: ['alphabet', 'constants', 'graph', 'provenance']",
      "status": "fail"
    }
  },
  "kind": "gate-report",
  "overall": "fail",
  "schema_version": 1
}
"""


def test_a_g1_failure_report_holds_the_header_and_the_g1_verdict_only(tmp_path, capsys):
    """No flow was loaded, so the header has no flow digest or provenance."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}')
    assert main(["gates", "--flow", str(bad), "--depth", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == G1_FAILURE_REPORT
    assert captured.err == "failing gates: g1\n"


def test_gates_reject_an_unknown_mutation_id_before_any_gate_runs(flow_file, monkeypatch, capsys):
    ran = []

    def recording(name):
        gate = getattr(gates, name)

        def wrapper(*args, **kwargs):
            ran.append(name)
            return gate(*args, **kwargs)

        return wrapper

    for name in ("gate_resolution", "gate_vacuity"):
        monkeypatch.setattr(gates, name, recording(name))
    argv = ["gates", "--flow", flow_file, "--depth", "4", "--mutation", "drop-allowlist-guard,bogus"]
    assert main(argv) == 2
    assert "unknown mutation id: 'bogus'" in capsys.readouterr().err
    assert ran == []


def test_check_and_gates_reject_an_unknown_mutation_id_alike(flow_file, capsys):
    errors = []
    for command in ("check", "gates"):
        assert main([command, "--flow", flow_file, "--depth", "2", "--mutation", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: unknown mutation id: 'bogus'\n"] * 2


@pytest.mark.parametrize(
    "command, mutation, error",
    [
        ("check", "--mutation=", "unknown mutation id: ''"),
        ("gates", "--mutation=", "unknown mutation id: ''"),
        ("gates", "--mutation=drop-allowlist-guard,", "unknown mutation id: ''"),
        ("gates", "--mutation=identity,identity", "repeated mutation id: 'identity'"),
        ("gates", "--mutation=event-to-noeffect,identity,event-to-noeffect", "repeated mutation id: 'event-to-noeffect'"),
    ],
)
def test_an_empty_or_repeated_mutation_id_exits_two_before_any_check(
    flow_file, monkeypatch, capsys, command, mutation, error
):
    """An empty ``--mutation`` names no edit: it is neither the unmutated
    bundle nor the default set. A repeated id would be judged and reported
    twice."""
    ran = []
    for module, name in ((gates, "gate_resolution"), (gates, "gate_vacuity"), (cli, "verify_bundle"), (cli, "sweep")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: ran.append(name))
    assert main([command, "--flow", flow_file, "--depth", "4", mutation]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert ran == []


@pytest.mark.parametrize(
    "section, entry, error",
    [
        ("alphabet", "NoAction", 'repeated entry in alphabet: "NoAction"'),
        ("allowed_tools", "search", 'repeated entry in constants.allowed_tools: "search"'),
    ],
)
def test_a_flow_that_lists_a_literal_or_tool_twice_is_unusable(tmp_path, capsys, section, entry, error):
    """A repeated action would be swept as a distinct one, and a repeated
    tool vanish into the allowlist's set, so the file would not round-trip.
    ``check`` exits 2, and G1 fails with the same reason."""
    doc = json.loads((FLOWS / "read_agent.json").read_text())
    (doc if section == "alphabet" else doc["constants"])[section].append(entry)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))

    assert main(["check", "--flow", str(path), "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"

    assert main(["gates", "--flow", str(path), "--depth", "3"]) == 2
    g1 = json.loads(capsys.readouterr().out)["gates"]["g1"]
    assert g1 == {"status": "fail", "detail": error}


# ---------------------------------------------------------------------------
# sweep and replay


def test_sweep_command(flow_file, capsys):
    assert main(["sweep", "--flow", flow_file, "--depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sequences"] == 1296 and report["overall"] == "pass"


def test_logs_are_byte_identical_for_identical_inputs(flow_file, tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    for out in (a, b):
        assert main(["run", "--flow", flow_file, "--strategy", "random", "--seed", "7",
                     "--steps", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_round_trip(flow_file, tmp_path):
    out = tmp_path / "seeded.log"
    assert main(["run", "--flow", flow_file, "--strategy", "random", "--seed", "3", "--steps", "10", "--out", str(out)]) == 0
    assert main(["replay", "--flow", flow_file, str(out)]) == 0


def test_replay_detects_tampering(flow_file, tmp_path):
    out = tmp_path / "tampered.log"
    assert main(["run", "--flow", flow_file, "--strategy", "random", "--seed", "3", "--steps", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = json.loads(lines[1])
    row["event"] = "ToolEvent(rm)[scan-tool->tick]"
    lines[1] = json.dumps(row, sort_keys=True)
    out.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--flow", flow_file, str(out)]) == 1


def test_replay_rejects_foreign_flow(flow_file, rag_nb_file, tmp_path):
    out = tmp_path / "foreign.log"
    assert main(["run", "--flow", flow_file, "--steps", "3", "--out", str(out)]) == 0
    assert main(["replay", "--flow", rag_nb_file, str(out)]) == 1


def test_prefix_mode_flag_overrides_file(flow_file, tmp_path, capsys):
    # under bare matching "/wsx" is inside the root "/ws"
    out = tmp_path / "bare.log"
    script = "scripted:ReadPathAction(/wsx)"
    assert main(["run", "--flow", flow_file, "--strategy", script, "--steps", "1",
                 "--prefix-mode", "bare", "--out", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[1])
    assert row["event"].startswith("ReadEvent(/wsx)")

    assert main(["run", "--flow", flow_file, "--strategy", script, "--steps", "1",
                 "--prefix-mode", "guarded", "--out", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[1])
    assert row["event"] == "NoEffect"


def test_gates_prefix_mode_changes_what_is_verified(tmp_path, capsys):
    # "/wsx/a" is rooted under bare matching only, and it comes first in the
    # alphabet, so the fitness witness shows which mode the gates verified.
    defn = shipped("read_agent")
    i = defn.alphabet.index(ReadPathAction("/ws/x"))
    alphabet = defn.alphabet[:i] + (ReadPathAction("/wsx/a"),) + defn.alphabet[i:]
    path = tmp_path / "wsx.json"
    path.write_text(serialize_flow(defn._replace(alphabet=alphabet)))

    assert main(["sweep", "--flow", str(path), "--depth", "4", "--prefix-mode", "bare"]) == 0
    assert json.loads(capsys.readouterr().out)["visited_states"] == 7

    def witness(*mode):
        assert main(["gates", "--flow", str(path), "--depth", "4", *mode]) == 0
        report = json.loads(capsys.readouterr().out)
        return report["gates"]["fitness"]["conjuncts"][0]["witness"]

    assert witness("--prefix-mode", "bare") == ["/wsx/a"]
    assert witness() == ["/ws/x"]


def test_gates_below_the_step_bound_names_the_depth_floor(flow_file, capsys):
    assert main(["gates", "--flow", flow_file, "--depth", "3"]) == 1
    g3 = json.loads(capsys.readouterr().out)["gates"]["g3"]
    assert g3["status"] == "fail"
    assert g3["detail"].startswith("surviving mutants: step-bound-off-by-one; configuration floor: depth >= 4")

    assert main(["gates", "--flow", flow_file, "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["gates"]["g3"]["detail"] == "4 mutants killed"

    # The note blames the depth for the step-bound error alone: at depth 2
    # the default set still carries it, and identity, which survives at
    # every depth, does not.
    assert main(["gates", "--flow", flow_file, "--depth", "2"]) == 1
    g3 = json.loads(capsys.readouterr().out)["gates"]["g3"]
    assert g3["detail"] == (
        "surviving mutants: step-bound-off-by-one; configuration floor: depth >= 4 required "
        "(a step beyond the bound max_steps=3 cannot be reached at depth 2)"
    )

    assert main(["gates", "--flow", flow_file, "--depth", "2", "--mutation", "identity"]) == 1
    g3 = json.loads(capsys.readouterr().out)["gates"]["g3"]
    assert g3["detail"] == "surviving mutants: identity"



@pytest.mark.parametrize("command", ["check", "gates", "sweep"])
def test_negative_depth_exits_two(flow_file, capsys, command):
    assert main([command, "--flow", flow_file, "--depth", "-1"]) == 2
    assert "depth must be >= 0" in capsys.readouterr().err

@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--flow", "{dir}"],
        ["gates", "--flow", "{dir}"],
        ["sweep", "--flow", "{dir}"],
        ["run", "--flow", "{dir}"],
        ["run", "--flow", "{flow}", "--out", "{dir}"],
        ["check", "--flow", "{flow}", "--depth", "1", "--out", "{dir}"],
    ],
    ids=["check-flow", "gates-flow", "sweep-flow", "run-flow", "run-out", "check-out"],
)
def test_directory_paths_exit_two(flow_file, tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path, flow=flow_file) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--depth", "4"],
        ["gates", "--depth", "4"],
        ["sweep", "--depth", "4"],
        ["run", "--strategy", "random", "--seed", "5", "--steps", "6"],
    ],
    ids=["check", "gates", "sweep", "run"],
)
def test_out_receives_the_bytes_stdout_would(flow_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([*argv, "--flow", flow_file])
    printed = capsys.readouterr().out
    assert main([*argv, "--flow", flow_file, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


class Raw(str):
    """A trace-log line written as it is, not as the JSON of a value."""


def _edit_row(n, **fields):
    return lambda header, rows: (header, rows[:n] + [dict(rows[n], **fields)] + rows[n + 1:])


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(
            lambda header, rows: ({k: v for k, v in header.items() if k != "constants_digest"}, rows),
            id="header-without-digest",
        ),
        pytest.param(lambda header, rows: ([1, 2], rows), id="header-not-an-object"),
        pytest.param(lambda header, rows: (header, [[1, 2]] + rows[1:]), id="row-not-an-object"),
        # True == 1 and 1.0 == 1, so row 1 is where a lax check lets these through.
        pytest.param(_edit_row(1, i=True), id="index-bool"),
        pytest.param(_edit_row(1, i=1.0), id="index-float"),
        pytest.param(lambda header, rows: (dict(header, schema_version=True), rows), id="schema-version-bool"),
        pytest.param(_edit_row(1, pre=0), id="pre-not-a-string"),
        pytest.param(_edit_row(1, action=["StepAction"]), id="action-not-a-string"),
        pytest.param(_edit_row(1, action="FooAction(x)"), id="action-outside-the-vocabulary"),
        pytest.param(_edit_row(1, event=None), id="event-not-a-string"),
        pytest.param(_edit_row(1, post=1), id="post-not-a-string"),
        pytest.param(lambda header, rows: (dict(header, seed="x"), rows), id="seed-string"),
        pytest.param(lambda header, rows: (dict(header, seed=[1]), rows), id="seed-list"),
        pytest.param(lambda header, rows: (dict(header, seed=True), rows), id="seed-bool"),
        pytest.param(
            lambda header, rows: ({k: v for k, v in header.items() if k != "seed"}, rows), id="header-without-seed"
        ),
        pytest.param(lambda header, rows: (dict(header, strategy=5), rows), id="strategy-number"),
        pytest.param(lambda header, rows: (dict(header, provenance=7), rows), id="provenance-number"),
        pytest.param(lambda header, rows: (dict(header, provenance=None), rows), id="provenance-null"),
        pytest.param(lambda header, rows: (Raw(NESTED_TOO_DEEPLY), rows), id="header-nested-too-deeply"),
        pytest.param(
            lambda header, rows: (header, rows[:1] + [Raw(NESTED_TOO_DEEPLY)] + rows[2:]), id="row-nested-too-deeply"
        ),
    ],
)
def test_unusable_trace_log_is_rejected_with_exit_two(flow_file, tmp_path, capsys, edit):
    log = tmp_path / "t.log"
    assert main(["run", "--flow", flow_file, "--steps", "3", "--out", str(log)]) == 0
    header, *rows = [json.loads(ln) for ln in log.read_text().splitlines()]
    header, rows = edit(header, rows)
    log.write_text("\n".join(x if isinstance(x, Raw) else json.dumps(x) for x in (header, *rows)) + "\n")

    with pytest.raises(TraceLogError):
        parse_trace_log(log.read_text())
    capsys.readouterr()
    assert main(["replay", "--flow", flow_file, str(log)]) == 2
    assert "cannot replay" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Malformed flows

SHIPPED_FLOWS = sorted((Path(__file__).resolve().parents[1] / "flows").glob("*.json"))
SCALARS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-3, 10) | st.floats(-2, 2),
    "string": st.text(max_size=6),
}
scalar = st.one_of(*SCALARS.values())
JSON_TYPES = {
    **SCALARS,
    "array": st.lists(scalar, max_size=3),
    "object": st.dictionaries(st.text(max_size=6), scalar, max_size=2),
}
PY_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}


def _locations(doc, at=()):
    """Every position in a JSON document, as a path of keys and indices."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, at + (key,))


@st.composite
def malformed_flows(draw):
    """A shipped flow document with one key or list entry deleted, or one
    value replaced by a value of another JSON type."""
    doc = json.loads(draw(st.sampled_from(SHIPPED_FLOWS)).read_text())
    at = draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    value = parent[at[-1]] if at else doc
    if at and draw(st.booleans()):
        del parent[at[-1]]
        return doc
    other = draw(st.sampled_from([t for t in JSON_TYPES if t != PY_TYPES[type(value)]]))
    replacement = draw(JSON_TYPES[other])
    if not at:
        return replacement
    parent[at[-1]] = replacement
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(doc=malformed_flows(), depth=st.integers(0, 2))
def test_malformed_flows_never_trace_back(fuzz_dir, doc, depth):
    """Every command that reads a flow answers a malformed one with an
    exit code of the contract, never an uncaught exception, and ``gates``
    calls unusable every flow that ``check`` calls unusable."""
    flow = fuzz_dir / "flow.json"
    flow.write_text(json.dumps(doc))
    out = str(fuzz_dir / "out")
    depth_args = ["--depth", str(depth)]
    codes = {}
    for argv in (["run", "--steps", "3"], ["check", *depth_args], ["gates", *depth_args], ["sweep", *depth_args]):
        codes[argv[0]] = main([*argv, "--flow", str(flow), "--out", out])
        assert codes[argv[0]] in (0, 1, 2)
    if codes["check"] == 2:
        assert codes["gates"] == 2
