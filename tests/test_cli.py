"""The command-line surface: exit codes, report determinism, trace logs,
and replay."""

import argparse
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowguard.cli as cli
import flowguard.gates as gates
import flowguard.havoc as havoc
import flowguard.refinement as refinement
from flowguard.actions import ReadPathAction
from flowguard.cli import main
from flowguard.flowfile import FlowFileError, flow_digest, parse_flow, serialize_flow
from flowguard.gates import SEEDED_ERRORS
from flowguard.tracelog import TraceLogError, parse_trace_log
from conftest import FLOWS, shipped
from test_havoc import broken_next


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
# Modules no command needs to load before it runs: ``typing`` (with
# ``_typing`` and ``contextlib``) for the records, and ``random`` (with
# ``math`` and ``bisect``), which only the drawing oracles use.
UNNEEDED_IMPORTS = ("typing", "_typing", "contextlib", "random", "math", "bisect")
TRACELOG = FLOWS.parent / "tests" / "golden" / "tracelog"


def test_the_cli_imports_none_of_the_slow_modules(tmp_path):
    """A fresh interpreter, isolated from the environment and
    site-packages as the benchmark's start-up probe is, loads
    ``flowguard.cli`` and every shipped flow without any of
    ``SLOW_IMPORTS`` or ``UNNEEDED_IMPORTS``; its random and adversarial
    runs, which load ``random`` when they start, still write the golden
    trace logs byte for byte."""
    src = Path(cli.__file__).resolve().parents[1]
    runs = {
        strategy: ["run", "--flow", str(TRACELOG / "cyclic_reads.json"), "--strategy", strategy,
                   "--seed", "7", "--steps", "300", "--out", str(tmp_path / f"{strategy}.log")]
        for strategy in ("random", "adversarial")
    }
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import flowguard.cli\n"
        "from flowguard.flowfile import load_flow\n"
        "for path in json.loads(sys.argv[2]):\n"
        "    load_flow(path)\n"
        "print(*sorted(sys.modules))\n"
        "for argv in json.loads(sys.argv[3]):\n"
        "    assert flowguard.cli.main(argv) == 0\n"
    )
    flows = json.dumps(sorted(str(p) for p in FLOWS.glob("*.json")))
    loaded = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src), flows, json.dumps(list(runs.values()))],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "flowguard.cli" in loaded and "flowguard.flowfile" in loaded
    assert [m for m in SLOW_IMPORTS + UNNEEDED_IMPORTS if m in loaded] == []
    for strategy in runs:
        log = f"cyclic_reads.{strategy}.log"
        assert (tmp_path / f"{strategy}.log").read_bytes() == (TRACELOG / log).read_bytes(), log


# The same interpreter under a UTF-8 locale and under the plain C locale,
# whose preferred encoding is ASCII once Python neither coerces it nor
# switches to its UTF-8 mode.
LOCALES = {
    "C.UTF-8": {"LC_ALL": "C.UTF-8"},
    "C": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
}


def test_flow_files_and_logs_decode_alike_under_every_locale(tmp_path):
    """Flow files and trace logs are read as UTF-8 whatever the locale: a
    flow whose alphabet reads ``/ws/é`` gives the same exit codes and
    report and log bytes under both ``LOCALES``; a flow file that is not
    UTF-8 fails G1 with the G1-only report, as any unusable flow does, and
    a trace log that is not UTF-8 cannot be replayed."""
    doc = json.loads((FLOWS / "read_agent.json").read_text(encoding="utf-8"))
    doc["alphabet"].append("ReadPathAction(/ws/é)")
    flow = tmp_path / "accented.json"
    flow.write_text(json.dumps(doc, indent=2, ensure_ascii=False), encoding="utf-8")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(flow.read_text(encoding="utf-8").encode("latin-1"))
    latin1_log = tmp_path / "latin1.log"
    latin1_log.write_bytes(b'{"provenance": "\xe9"}\n')
    code = (
        "import json, locale, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from flowguard.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps([locale.getpreferredencoding(False), codes]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
    outcomes = {}
    for name, variables in LOCALES.items():
        out = tmp_path / name
        out.mkdir()
        runs = [
            ["sweep", "--flow", flow, "--depth", "2", "--out", out / "sweep.json"],
            ["check", "--flow", flow, "--depth", "4", "--out", out / "check.json"],
            ["gates", "--flow", flow, "--depth", "4", "--out", out / "gates.json"],
            ["run", "--flow", flow, "--strategy", "scripted:ReadPathAction(/ws/é);ToolCallAction(search)",
             "--steps", "2", "--out", out / "run.log"],
            ["replay", "--flow", flow, out / "run.log"],
            ["gates", "--flow", latin1, "--depth", "4", "--out", out / "latin1.gates.json"],
            ["check", "--flow", latin1, "--depth", "4", "--out", out / "latin1.check.json"],
            ["replay", "--flow", flow, latin1_log],
        ]
        argv = json.dumps([[str(a) for a in run] for run in runs])
        done = subprocess.run(
            [sys.executable, "-c", code, src, argv], env={**env, **variables}, capture_output=True, check=True
        )
        encoding, codes = json.loads(done.stdout)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outcomes[name] = codes, files
        assert codes == [0, 0, 0, 0, 0, 2, 2, 2], (name, done.stderr)
        assert b"cannot replay: not UTF-8: 'utf-8' codec can't decode byte 0xe9" in done.stderr, done.stderr
        assert (encoding == "UTF-8") == (name == "C.UTF-8"), encoding
    assert outcomes["C"] == outcomes["C.UTF-8"]
    codes, files = outcomes["C"]
    assert sorted(files) == ["check.json", "gates.json", "latin1.gates.json", "run.log", "sweep.json"]
    assert b"ReadPathAction(/ws/\\u00e9)" in files["run.log"]
    g1_only = json.loads(files["latin1.gates.json"])
    assert set(g1_only["gates"]) == {"g1"} and g1_only["gates"]["g1"]["status"] == "fail"
    assert "'utf-8' codec can't decode byte 0xe9" in g1_only["gates"]["g1"]["detail"]


MIXED_SCRIPT = (
    "scripted:ReadPathAction(/ws/a.txt);ReadPathAction(/etc/pw);ToolCallAction(search)"
)


# ---------------------------------------------------------------------------
# run


def test_run_writes_a_log_and_exits_zero(flow_file, tmp_path, capsys):
    out = tmp_path / "t.log"
    code = main(["run", "--flow", flow_file, "--strategy", MIXED_SCRIPT, "--steps", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "trace-log" and header["schema_version"] == 1
    rows = [json.loads(ln) for ln in lines[1:]]
    assert [r["event"] for r in rows][1] == "NoEffect"  # the /etc/pw read
    assert rows[0]["event"].startswith("ReadEvent(/ws/a.txt)")


def test_run_zero_steps_empty_body(flow_file, tmp_path):
    out = tmp_path / "empty.log"
    assert main(["run", "--flow", flow_file, "--steps", "0", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1  # header only


def test_run_malformed_flow_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["run", "--flow", str(bad)]) == 2


def test_a_flow_nested_too_deeply_exits_two(tmp_path, capsys):
    flow = tmp_path / "deep.json"
    flow.write_text(NESTED_TOO_DEEPLY, encoding="utf-8")
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
    flow.write_text('{"schema_version": %s}' % ("9" * 5000), encoding="utf-8")
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
    defn = parse_flow((TRACELOG / "cyclic_reads.json").read_text(encoding="utf-8"))
    odd = (ReadPathAction("/ws/a;b"), ReadPathAction("/ws/c\\d;"))
    flow = tmp_path / "odd.json"
    flow.write_text(serialize_flow(defn._replace(alphabet=defn.alphabet + odd)), encoding="utf-8")
    out = tmp_path / "odd.log"
    script = r"scripted:ReadPathAction(/ws/a\;b);;ReadPathAction(/ws/c\\d\;)"
    assert main(["run", "--flow", str(flow), "--strategy", script, "--steps", "2", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
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


def test_check_warns_that_no_action_takes_effect_at_max_steps_zero(tmp_path, capsys):
    """With a step budget of 0 every action stutters, so ``check`` passes
    whatever the bundle (``gates`` fails G3 and fitness on the same flow);
    the report says why."""
    defn = shipped("read_agent")
    flow = tmp_path / "zero.json"
    flow.write_text(serialize_flow(defn._replace(constants=defn.constants._replace(max_steps=0))), encoding="utf-8")
    assert main(["check", "--flow", str(flow), "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == [
        "max_steps 0: no action can take effect, so every run stutters"
    ]


def test_gates_say_why_g2_passes_and_g3_fails_at_max_steps_zero(tmp_path, capsys):
    """On the flow of the test above, G2 passes only because no step
    takes effect, and three mutants survive for the same reason; both
    details end with ``check``'s warning."""
    defn = shipped("read_agent")
    flow = tmp_path / "zero.json"
    flow.write_text(serialize_flow(defn._replace(constants=defn.constants._replace(max_steps=0))), encoding="utf-8")
    assert main(["gates", "--flow", str(flow), "--depth", "4"]) == 1
    gates = json.loads(capsys.readouterr().out)["gates"]
    why = "; max_steps 0: no action can take effect, so every run stutters"
    assert (gates["g2"]["status"], gates["g2"]["detail"]) == ("pass", "permissive stub failed at inv_inductive" + why)
    assert (gates["g3"]["status"], gates["g3"]["detail"]) == (
        "fail",
        "surviving mutants: drop-allowlist-guard, event-to-noeffect, drop-history-clause" + why,
    )


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
    bad.write_text('{"schema_version": 1}', encoding="utf-8")
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
    bad.write_text('{"schema_version": 1}', encoding="utf-8")
    assert main(["gates", "--flow", str(bad), "--depth", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == G1_FAILURE_REPORT
    assert captured.err == "failing gates: g1\n"


def test_gates_reject_an_unknown_mutation_id_before_any_gate_runs(flow_file, monkeypatch, capsys):
    """``gates`` takes no ``--mutation``: G3 always judges the whole
    seeded-error table, so any id is an unusable invocation."""
    ran = []

    def recording(name):
        gate = getattr(gates, name)

        def wrapper(*args, **kwargs):
            ran.append(name)
            return gate(*args, **kwargs)

        return wrapper

    for name in ("gate_resolution", "gate_vacuity"):
        monkeypatch.setattr(gates, name, recording(name))
    for mutation in ("drop-allowlist-guard,bogus", *SEEDED_ERRORS):
        with pytest.raises(SystemExit) as refused:
            main(["gates", "--flow", flow_file, "--depth", "4", "--mutation", mutation])
        assert refused.value.code == 2
        assert "unrecognized arguments: --mutation" in capsys.readouterr().err
    assert ran == []


def test_check_and_gates_reject_an_unknown_mutation_id_alike(flow_file, capsys):
    for command in ("check", "gates"):
        with pytest.raises(SystemExit) as refused:
            main([command, "--flow", flow_file, "--depth", "2", "--mutation", "bogus"])
        assert refused.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: flowguard ")


@pytest.mark.parametrize("mutation", ["", "identity", "drop-allowlist-guard,event-to-noeffect"])
def test_check_refuses_a_mutation_id_outside_the_seeded_errors(flow_file, monkeypatch, capsys, mutation):
    """``check --mutation`` takes one ``SEEDED_ERRORS`` id; any other,
    empty included, exits 2 before any check runs, and the usage error
    lists the ids it takes."""
    ran = []
    for name in ("CheckRun", "sweep"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
    with pytest.raises(SystemExit) as refused:
        main(["check", "--flow", flow_file, "--depth", "4", f"--mutation={mutation}"])
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --mutation: invalid choice: " in captured.err
    assert all(mid in captured.err for mid in SEEDED_ERRORS)
    assert ran == []


@pytest.mark.parametrize("mutation", list(SEEDED_ERRORS))
def test_check_accepts_every_seeded_error_id(flow_file, capsys, mutation):
    """At depth ``max_steps`` + 1 every seeded error fails ``check``, and
    the report names the one injected."""
    assert main(["check", "--flow", flow_file, "--depth", "4", "--mutation", mutation]) == 1
    assert json.loads(capsys.readouterr().out)["mutation"] == mutation


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
    doc = json.loads((FLOWS / "read_agent.json").read_text(encoding="utf-8"))
    (doc if section == "alphabet" else doc["constants"])[section].append(entry)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    assert main(["check", "--flow", str(path), "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"

    assert main(["gates", "--flow", str(path), "--depth", "3"]) == 2
    g1 = json.loads(capsys.readouterr().out)["gates"]["g1"]
    assert g1 == {"status": "fail", "detail": error}


STEP_ONLY_ERROR = "constants.count_all_actions must be true: every effected action consumes a step"
PREFIX_MODE_ERROR = 'constants.prefix_mode must be "guarded": "/ws" covers "/ws/a" but not "/wsx/a"'


def assert_unusable_on_every_command(flow_file, tmp_path, capsys, key: str, value, error: str) -> None:
    """read_agent with ``constants[key]`` set to ``value`` makes every
    command exit 2 with ``error``, and ``gates`` report G1 alone; with
    no ``key`` at all it loads as the shipped flow, which writes the key
    at its one accepted value."""
    doc = json.loads(Path(flow_file).read_text(encoding="utf-8"))
    doc["constants"][key] = value
    assert_refused_on_every_command(flow_file, tmp_path, capsys, doc, error)

    del doc["constants"][key]
    assert flow_digest(parse_flow(json.dumps(doc))) == flow_digest(shipped("read_agent"))


def assert_refused_on_every_command(flow_file, tmp_path, capsys, doc: dict | str, error: str) -> None:
    """The flow document ``doc``, or the flow text ``doc``, makes every
    command exit 2 with ``error``, and ``gates`` report G1 alone."""
    log = tmp_path / "t.log"
    assert main(["run", "--flow", flow_file, "--steps", "3", "--out", str(log)]) == 0
    refused = tmp_path / "refused.json"
    refused.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    for argv in (["check"], ["sweep"], ["run", "--steps", "3"], ["replay", str(log)]):
        assert main([*argv, "--flow", str(refused)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    assert main(["gates", "--flow", str(refused), "--depth", "4"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["gates"] == {"g1": {"status": "fail", "detail": error}}
    assert captured.err == "failing gates: g1\n"


def test_a_flow_that_repeats_a_key_is_unusable(flow_file, tmp_path, capsys):
    """``json`` keeps the last of two equal keys, and another reader may
    keep the first: read_agent with ``max_steps`` 3 and then 50 would be
    verified with 50. Every command refuses it, and G1 fails."""
    text = Path(flow_file).read_text(encoding="utf-8")
    repeated = text.replace('"max_steps": 3,', '"max_steps": 3,\n    "max_steps": 50,', 1)
    assert repeated != text
    assert_refused_on_every_command(flow_file, tmp_path, capsys, repeated, 'repeated key: "max_steps"')


def test_a_flow_in_which_only_steps_consume_steps_is_unusable(flow_file, tmp_path, capsys):
    """Every effected action consumes a step. A flow that sets
    ``count_all_actions`` to false asks for another accounting, and is
    unusable; the key set to true and no key at all load as one flow."""
    assert_unusable_on_every_command(flow_file, tmp_path, capsys, "count_all_actions", False, STEP_ONLY_ERROR)


def test_a_flow_with_a_bare_prefix_mode_is_unusable(flow_file, tmp_path, capsys):
    """"Under the workspace root" has one rule: a path equal to the root or
    extending it across a "/". A flow that sets ``prefix_mode`` to "bare",
    plain string-prefix matching, asks for another, and is unusable;
    "guarded" and no key at all load as one flow."""
    assert_unusable_on_every_command(flow_file, tmp_path, capsys, "prefix_mode", "bare", PREFIX_MODE_ERROR)


@pytest.mark.parametrize(
    "edge, error",
    [
        (0, "edge 'scan' -'tool'-> 'search' can never fire"),
        ({"from": "scan", "label": "tool", "to": "tick"}, "edge 'scan' -'tool'-> 'tick' can never fire"),
        ({"from": "search", "label": "banana", "to": "scan"}, "edge 'search' -'banana'-> 'scan' can never fire"),
        ({"from": "done", "label": "step", "to": "scan"}, "edge 'done' -'step'-> 'scan' can never fire"),
        ({"from": "ghost", "label": "read", "to": "scan"}, "edge source 'ghost' not in graph"),
    ],
    ids=["relabelled", "foreign-label", "unknown-label", "from-terminal", "from-no-node"],
)
def test_a_flow_with_an_edge_that_can_never_fire_is_unusable(flow_file, tmp_path, capsys, edge, error):
    """A node dispatches only along its own kind's label, so read_agent
    with its Read node's one edge relabelled ``tool``, with an extra edge
    of another label, or with an edge out of a Terminal node or out of no
    node holds an edge that no run takes; every command refuses it, naming
    the edge."""
    doc = json.loads(Path(flow_file).read_text(encoding="utf-8"))
    doc["graph"]["nodes"].append({"kind": "Terminal", "name": "done"})
    if edge == 0:
        doc["graph"]["edges"][0]["label"] = "tool"
    else:
        doc["graph"]["edges"].append(edge)
    assert_refused_on_every_command(flow_file, tmp_path, capsys, doc, error)


@pytest.mark.parametrize("command", ["run", "check", "gates", "sweep", "replay"])
def test_no_command_takes_a_prefix_mode_flag(command, flow_file, tmp_path, capsys):
    """The root rule comes from nowhere but its one definition: argparse
    refuses ``--prefix-mode`` on every command, naming the flag."""
    log = [str(tmp_path / "t.log")] if command == "replay" else []
    with pytest.raises(SystemExit) as refused:
        main([command, "--flow", flow_file, *log, "--prefix-mode", "guarded"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --prefix-mode guarded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep and replay


def test_sweep_command(flow_file, capsys):
    assert main(["sweep", "--flow", flow_file, "--depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sequences"] == 1296 and report["overall"] == "pass"


def test_a_broken_machine_fails_run_check_and_sweep(flow_file, tmp_path, capsys, monkeypatch):
    """On a machine that skips the allowlist check, ``run`` names the first
    step out of policy, and ``check`` and ``sweep`` report the sweep's
    violating script and why; each exits 1. ``run`` steps through
    ``havoc``'s binding and ``check`` through the one its ``CheckRun``
    reads from ``refinement``, which its obligations share: step
    simulation fails before the sweep row. ``sweep`` takes the machine
    through its ``next_fn``."""
    monkeypatch.setattr(havoc, "impl_next", broken_next)
    monkeypatch.setattr(refinement, "impl_next", broken_next)
    script = "scripted:ReadPathAction(/ws/a.txt);ToolCallAction(rm)"
    assert main(["run", "--flow", flow_file, "--strategy", script, "--steps", "2", "--out", str(tmp_path / "t.log")]) == 1
    assert capsys.readouterr().err == "policy violation at step 1\n"

    detail = "out-of-policy event ToolEvent(tool='rm')"
    violation = {"sequences": 18, "violating_script": ["NoAction", "ReadPathAction(/ws/x)", "ToolCallAction(rm)"],
                 "detail": detail}
    assert main(["check", "--flow", flow_file, "--depth", "3"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["obligations"][-1] == {"name": "havoc_sweep", "status": "fail", **violation}
    r2 = "no abstract step matches the abstracted event and post-state; action ToolCallAction(rm)"
    assert captured.err == f"check failed: r2_step_simulation: {r2}\n"
    monkeypatch.setattr(cli, "sweep", functools.partial(havoc.sweep, next_fn=broken_next))
    assert main(["sweep", "--flow", flow_file, "--depth", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "fail" and violation.items() <= report.items()


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
    lines = out.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["event"] = "ToolEvent(rm)[scan-tool->tick]"
    lines[1] = json.dumps(row, sort_keys=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["replay", "--flow", flow_file, str(out)]) == 1


def test_replay_rejects_foreign_flow(flow_file, rag_nb_file, tmp_path):
    out = tmp_path / "foreign.log"
    assert main(["run", "--flow", flow_file, "--steps", "3", "--out", str(out)]) == 0
    assert main(["replay", "--flow", rag_nb_file, str(out)]) == 1


def test_every_command_holds_the_sibling_of_the_root_outside_it(tmp_path, capsys):
    # "/wsx/a" shares the root "/ws" as a string prefix only, and it comes
    # first in the alphabet: were it admitted, the sweep would reach more
    # states and it would be the fitness witness of ReadPathsRooted.
    defn = shipped("read_agent")
    i = defn.alphabet.index(ReadPathAction("/ws/x"))
    alphabet = defn.alphabet[:i] + (ReadPathAction("/wsx/a"),) + defn.alphabet[i:]
    path = tmp_path / "wsx.json"
    path.write_text(serialize_flow(defn._replace(alphabet=alphabet)), encoding="utf-8")

    assert main(["sweep", "--flow", str(path), "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["visited_states"] == 4  # as read_agent itself
    assert main(["gates", "--flow", str(path), "--depth", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gates"]["fitness"]["conjuncts"][0]["witness"] == ["/ws/x"]
    log = tmp_path / "sibling.log"
    assert main(["run", "--flow", str(path), "--strategy", "scripted:ReadPathAction(/wsx/a)",
                 "--steps", "1", "--out", str(log)]) == 0
    assert json.loads(log.read_text(encoding="utf-8").splitlines()[1])["event"] == "NoEffect"


def test_gates_below_the_step_bound_names_the_depth_floor(flow_file, capsys, monkeypatch):
    assert main(["gates", "--flow", flow_file, "--depth", "3"]) == 1
    g3 = json.loads(capsys.readouterr().out)["gates"]["g3"]
    assert g3["status"] == "fail"
    assert g3["detail"].startswith("surviving mutants: step-bound-off-by-one; configuration floor: depth >= 4")

    assert main(["gates", "--flow", flow_file, "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["gates"]["g3"]["detail"] == "4 mutants killed"

    assert main(["gates", "--flow", flow_file, "--depth", "2"]) == 1
    g3 = json.loads(capsys.readouterr().out)["gates"]["g3"]
    assert g3["detail"] == (
        "surviving mutants: step-bound-off-by-one; configuration floor: depth >= 4 required "
        "(a step beyond the bound max_steps=3 cannot be reached at depth 2)"
    )

    # The note blames the depth for the step-bound error alone: an edit
    # that changes nothing survives at every depth, and names no floor
    # where the step-bound error is killed.
    monkeypatch.setitem(gates.SEEDED_ERRORS, "identity", lambda b: b)
    assert main(["gates", "--flow", flow_file, "--depth", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["gates"]["g3"]["detail"] == "surviving mutants: identity"
    assert main(["gates", "--flow", flow_file, "--depth", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["gates"]["g3"]["detail"] == (
        "surviving mutants: step-bound-off-by-one, identity; configuration floor: depth >= 4 required "
        "(a step beyond the bound max_steps=3 cannot be reached at depth 2)"
    )



@pytest.mark.parametrize("command", ["check", "gates", "sweep"])
def test_negative_depth_exits_two(flow_file, capsys, command):
    assert main([command, "--flow", flow_file, "--depth", "-1"]) == 2
    assert "depth must be >= 0" in capsys.readouterr().err

@pytest.fixture
def int_digits():
    """The interpreter's default limit on the digits of an int written as
    text, set for the test and restored after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_a_depth_whose_script_count_cannot_be_written_exits_two(flow_file, capsys, int_digits, command):
    """The report of ``check`` and ``sweep`` writes the script count
    6^depth, which at depth 6000 has 4,669 digits: the depth is refused
    before anything is explored or walked, whereas ``sweep`` would walk
    its scripts forever."""
    start = time.perf_counter()
    assert main([command, "--flow", flow_file, "--depth", "6000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "",
        "error: depth 6000 refused: the script count 6^6000 has more than 4300 digits, "
        "the most sys.get_int_max_str_digits() lets a report write\n",
    )


def test_check_writes_a_script_count_up_to_the_digit_limit(flow_file, tmp_path, capsys, int_digits):
    """6^4000 has 3,113 digits, and is written; on a flow of ten actions
    10^4299, of 4,300 digits, is written and 10^4300 refused. ``gates``
    writes no script count, so it takes any depth."""
    out = tmp_path / "report.json"
    assert main(["check", "--flow", flow_file, "--depth", "4000", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["obligations"][-1]["sequences"] == 6**4000
    defn = shipped("read_agent")
    extra = tuple(ReadPathAction(f"/ws/{i}") for i in range(10 - len(defn.alphabet)))
    ten = tmp_path / "ten.json"
    ten.write_text(serialize_flow(defn._replace(alphabet=defn.alphabet + extra)), encoding="utf-8")
    assert main(["check", "--flow", str(ten), "--depth", "4299", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["obligations"][-1]["sequences"] == 10**4299
    for command in ("check", "sweep"):
        assert main([command, "--flow", str(ten), "--depth", "4300", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: depth 4300 refused: the script count 10^4300 ")
    assert main(["gates", "--flow", flow_file, "--depth", "6000", "--out", str(out)]) == 0


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


def test_every_option_is_read_by_its_command(flow_file, tmp_path, capsys):
    """Each subcommand reads every option it accepts, so that none is
    parsed and then ignored; ``replay`` writes nothing, so it takes no
    ``--out``. Reads are recorded from dispatch on: argparse reads the
    namespace while it fills in defaults."""
    read: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    log, out = str(tmp_path / "run.log"), str(tmp_path / "report.json")
    common = ["--flow", flow_file]
    invocations = [
        ["run", *common, "--out", log, "--steps", "3", "--seed", "1", "--strategy", "random"],
        ["check", *common, "--out", out, "--depth", "1", "--mutation", "event-to-noeffect"],
        ["gates", *common, "--out", out, "--depth", "1"],
        ["sweep", *common, "--out", out, "--depth", "1"],
        ["replay", *common, log],
    ]
    for argv in invocations:
        args = cli.build_parser().parse_args(argv, namespace=Recording())
        options = set(args.__dict__) - {"command", "fn"}
        read.clear()
        assert args.fn(args) in (0, 1), argv
        assert options - read == set(), argv
    with pytest.raises(SystemExit) as refused:
        main(["replay", *common, "--out", out, log])
    assert refused.value.code == 2
    capsys.readouterr()


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
        pytest.param(lambda header, rows: (dict(header, extra=1), rows), id="header-unknown-key"),
        pytest.param(_edit_row(0, zzz=1), id="row-unknown-key"),
        pytest.param(lambda header, rows: (Raw(""), []), id="empty"),
    ],
)
def test_unusable_trace_log_is_rejected_with_exit_two(flow_file, tmp_path, capsys, edit):
    log = tmp_path / "t.log"
    assert main(["run", "--flow", flow_file, "--steps", "3", "--out", str(log)]) == 0
    header, *rows = [json.loads(ln) for ln in log.read_text(encoding="utf-8").splitlines()]
    header, rows = edit(header, rows)
    text = "\n".join(x if isinstance(x, Raw) else json.dumps(x) for x in (header, *rows)) + "\n"
    log.write_text(text, encoding="utf-8")

    with pytest.raises(TraceLogError):
        parse_trace_log(log.read_text(encoding="utf-8"))
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
    doc = json.loads(draw(st.sampled_from(SHIPPED_FLOWS)).read_text(encoding="utf-8"))
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
    flow.write_text(json.dumps(doc), encoding="utf-8")
    out = str(fuzz_dir / "out")
    depth_args = ["--depth", str(depth)]
    codes = {}
    for argv in (["run", "--steps", "3"], ["check", *depth_args], ["gates", *depth_args], ["sweep", *depth_args]):
        codes[argv[0]] = main([*argv, "--flow", str(flow), "--out", out])
        assert codes[argv[0]] in (0, 1, 2)
    if codes["check"] == 2:
        assert codes["gates"] == 2
