"""The benchmark's workloads: fixed lists of CLI jobs on generated inputs,
each with the answer it must give.

A job's answer is written down before anything runs: by hand for the
shipped flows (from the README and the test suite), and from the way
``flowgen`` builds them for the synthetic ones. ``Job.check`` compares a
job's exit code and report with that answer and returns what differs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import flowgen

MUTANT_IDS = ("drop-allowlist-guard", "step-bound-off-by-one", "event-to-noeffect", "drop-history-clause")
SHIPPED_DEPTH = 6  # flowguard's default --depth
SHIPPED_ALPHABET = 6  # every shipped flow has six actions

# Workload parameters, recorded with the baseline.
GATES_FLOW = dict(nodes=9, max_steps=5, rooted=3, unrooted=2, allowed=2, unlisted=3)
# Read nodes only: most actions are admissible at every node, so the share
# of effected steps, and with it the history length, varies little by seed.
TRACE_FLOW = dict(nodes=8, kinds="R", rooted=12, unrooted=2, allowed=0, unlisted=1)
TRACE_STEPS = 1000


@dataclass(frozen=True)
class JobOutput:
    exit_code: int | None
    report: str | None  # the --out file, when the job writes one
    stderr: str


@dataclass
class Job:
    command: str
    argv: list[str]
    out: Path | None
    check: Callable[[JobOutput], list[str]]
    before: Callable[[], None] | None = None  # untimed preparation


@dataclass
class Workload:
    name: str
    flow_paths: list[Path]
    jobs: list[Job] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Known answers


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _load_report(out: JobOutput, problems: list[str]) -> dict:
    try:
        return json.loads(out.report or "")
    except json.JSONDecodeError:
        problems.append("report is not JSON")
        return {}


def check_answer(flow: flowgen.Flow, depth: int, exit_code: int):
    def check(out: JobOutput) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", out.exit_code, exit_code)
        doc = _load_report(out, problems)
        _expect(problems, "kind", doc.get("kind"), "check-report")
        _expect(problems, "provenance", doc.get("provenance"), flow.provenance)
        _expect(problems, "depth", doc.get("depth"), depth)
        _expect(problems, "overall", doc.get("overall"), "pass")
        failed = [o.get("name") for o in doc.get("obligations", []) if o.get("status") != "pass"]
        _expect(problems, "failed obligations", failed, [])
        sweep = [o for o in doc.get("obligations", []) if o.get("name") == "havoc_sweep"]
        _expect(problems, "havoc_sweep sequences", [o.get("sequences") for o in sweep], [SHIPPED_ALPHABET**depth])
        return problems

    return check


def sweep_answer(flow: flowgen.Flow, depth: int, visited: int):
    def check(out: JobOutput) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", out.exit_code, 0)
        doc = _load_report(out, problems)
        _expect(problems, "kind", doc.get("kind"), "sweep-report")
        _expect(problems, "provenance", doc.get("provenance"), flow.provenance)
        _expect(problems, "overall", doc.get("overall"), "pass")
        _expect(problems, "sequences", doc.get("sequences"), SHIPPED_ALPHABET**depth)
        _expect(problems, "visited_states", doc.get("visited_states"), visited)
        return problems

    return check


def gates_answer(flow: flowgen.Flow, depth: int, exit_code: int):
    """G1, G2 and G3 pass with all four shipped mutants killed; fitness is
    what the chain layout implies, and it alone decides the exit code."""
    conjuncts = flowgen.expected_fitness(flow, depth)
    fitness = "pass" if all(c["status"] == "witnessed" for c in conjuncts) else "fail"
    if (exit_code == 0) != (fitness == "pass"):
        raise ValueError(f"inconsistent known answer for {flow.name}")

    def check(out: JobOutput) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", out.exit_code, exit_code)
        doc = _load_report(out, problems)
        gates = doc.get("gates", {})
        _expect(problems, "kind", doc.get("kind"), "gate-report")
        _expect(problems, "provenance", doc.get("provenance"), flow.provenance)
        _expect(problems, "depth", doc.get("depth"), depth)
        for g in ("g1", "g2", "g3"):
            _expect(problems, f"{g} status", gates.get(g, {}).get("status"), "pass")
        mutants = [(m.get("id"), m.get("killed")) for m in gates.get("g3", {}).get("mutants", [])]
        _expect(problems, "mutants", sorted(mutants), sorted((m, True) for m in MUTANT_IDS))
        _expect(problems, "fitness status", gates.get("fitness", {}).get("status"), fitness)
        _expect(problems, "fitness conjuncts", gates.get("fitness", {}).get("conjuncts"), conjuncts)
        _expect(problems, "overall", doc.get("overall"), "pass" if exit_code == 0 else "fail")
        return problems

    return check


def run_answer(flow: flowgen.Flow, strategy: str, seed: int, steps: int, alphabet: set[str]):
    """The log has a header and one row per step; every action comes from
    the alphabet and every event is inside the policy."""

    def check(out: JobOutput) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", out.exit_code, 0)
        lines = (out.report or "").splitlines()
        try:
            header, rows = json.loads(lines[0]), [json.loads(ln) for ln in lines[1:]]
        except (IndexError, json.JSONDecodeError):
            return problems + ["log is not JSON lines"]
        _expect(problems, "header", (header.get("kind"), header.get("provenance"), header.get("strategy"),
                                     header.get("seed")), ("trace-log", flow.provenance, strategy, seed))
        _expect(problems, "rows", len(rows), steps)
        _expect(problems, "row indices", [r.get("i") for r in rows], list(range(steps)))
        bad_actions = sum(1 for r in rows if r.get("action") not in alphabet)
        bad_events = sum(1 for r in rows if not flowgen.event_allowed(flow, str(r.get("event"))))
        _expect(problems, "actions outside the alphabet", bad_actions, 0)
        _expect(problems, "events outside the policy", bad_events, 0)
        if f"run: {steps} steps" not in out.stderr:
            problems.append(f"stderr lacks the step count: {out.stderr!r}")
        return problems

    return check


def replay_answer(steps: int, mismatch_row: int | None):
    def check(out: JobOutput) -> list[str]:
        problems: list[str] = []
        if mismatch_row is None:
            _expect(problems, "exit code", out.exit_code, 0)
            if f"replay: {steps} steps reproduced exactly" not in out.stderr:
                problems.append(f"unexpected stderr: {out.stderr!r}")
        else:
            _expect(problems, "exit code", out.exit_code, 1)
            if f"at row {mismatch_row}" not in out.stderr:
                problems.append(f"mismatch not reported at row {mismatch_row}: {out.stderr!r}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Building the workloads


def _write(workdir: Path, flow: flowgen.Flow) -> Path:
    path = workdir / f"{flow.name}.json"
    path.write_text(flow.text)
    return path


def _job(workdir: Path, command: str, flow_path: Path, depth: int, check) -> Job:
    out = workdir / f"{command}-{flow_path.stem}.report.json"
    return Job(command, [command, "--flow", str(flow_path), "--depth", str(depth), "--out", str(out)], out, check)


def shipped_sweep(seed: int, workdir: Path) -> Workload:
    """check on read_agent and rag_barrier, sweep on rag_no_barrier, all at
    depth 6. The inputs are the shipped flows; the seed changes nothing."""
    flows = flowgen.shipped_flows()
    paths = {name: _write(workdir, f) for name, f in flows.items()}
    d = SHIPPED_DEPTH
    w = Workload("shipped-sweep", list(paths.values()))
    w.jobs = [
        _job(workdir, "check", paths["read_agent"], d, check_answer(flows["read_agent"], d, 0)),
        _job(workdir, "check", paths["rag_barrier"], d, check_answer(flows["rag_barrier"], d, 0)),
        # A chain of three nodes with one admissible action each: 4 states.
        _job(workdir, "sweep", paths["rag_no_barrier"], d, sweep_answer(flows["rag_no_barrier"], d, 4)),
    ]
    return w


def synthetic_gates(seed: int, workdir: Path) -> Workload:
    """gates at depth max_steps + 1 on a faithful synthetic flow and on one
    without a Tool node, then on the three shipped flows."""
    faithful = flowgen.synthetic_flow("faithful", flowgen.FlowSpec(seed=seed, kinds="RTS", **GATES_FLOW))
    toolless = flowgen.synthetic_flow("toolless", flowgen.FlowSpec(seed=seed, kinds="RS", **GATES_FLOW))
    shipped = flowgen.shipped_flows()
    depth = GATES_FLOW["max_steps"] + 1
    answers = [(faithful, depth, 0), (toolless, depth, 1),
               (shipped["read_agent"], SHIPPED_DEPTH, 0),
               (shipped["rag_barrier"], SHIPPED_DEPTH, 0),
               (shipped["rag_no_barrier"], SHIPPED_DEPTH, 1)]
    w = Workload("synthetic-gates", [])
    for flow, d, code in answers:
        path = _write(workdir, flow)
        w.flow_paths.append(path)
        w.jobs.append(_job(workdir, "gates", path, d, gates_answer(flow, d, code)))
    return w


def long_trace(seed: int, workdir: Path) -> Workload:
    """run with the random and the adversarial strategy on a cyclic flow
    whose step budget exceeds the run, replay both logs, and replay one
    log with a tampered row."""
    rng = random.Random(f"long-trace/{seed}")
    flow = flowgen.synthetic_flow(
        "trace", flowgen.FlowSpec(seed=seed, max_steps=10 * TRACE_STEPS, cyclic=True, **TRACE_FLOW)
    )
    alphabet = set(json.loads(flow.text)["alphabet"])
    path = _write(workdir, flow)
    w = Workload("long-trace", [path])

    logs = []
    for strategy in ("random", "adversarial"):
        run_seed = rng.randrange(10**6)
        log = workdir / f"run-{strategy}.log"
        argv = ["run", "--flow", str(path), "--strategy", strategy, "--seed", str(run_seed),
                "--steps", str(TRACE_STEPS), "--out", str(log)]
        w.jobs.append(Job("run", argv, log, run_answer(flow, strategy, run_seed, TRACE_STEPS, alphabet)))
        logs.append(log)
    for log in logs:
        w.jobs.append(Job("replay", ["replay", "--flow", str(path), str(log)], None,
                          replay_answer(TRACE_STEPS, None)))

    tampered = workdir / "tampered.log"
    # Replay stops at the tampered row, and the rows before it cost about
    # the square of its index (each row digests the whole history so far),
    # so the row comes from the last 1% of the log: the job's work then
    # varies by under 2% from seed to seed.
    row = rng.randrange(TRACE_STEPS - TRACE_STEPS // 100, TRACE_STEPS)

    def tamper() -> None:
        """Copy the first log with row ``row``'s post-state digest replaced.
        If the run left no usable log, the copy is empty and the replay job
        fails its check."""
        try:
            lines = logs[0].read_text().splitlines(keepends=True)
            doc = json.loads(lines[row + 1])
            doc["post"] = "0" * 16 if doc["post"] != "0" * 16 else "1" * 16
        except (OSError, IndexError, KeyError, TypeError, ValueError):
            tampered.write_text("")
            return
        lines[row + 1] = json.dumps(doc, sort_keys=True) + "\n"
        tampered.write_text("".join(lines))

    w.jobs.append(Job("replay", ["replay", "--flow", str(path), str(tampered)], None,
                      replay_answer(TRACE_STEPS, row), before=tamper))
    return w


WORKLOADS = {"shipped-sweep": shipped_sweep, "synthetic-gates": synthetic_gates, "long-trace": long_trace}
