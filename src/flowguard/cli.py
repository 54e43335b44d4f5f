"""Command-line entry point.

Subcommands: run, check, gates, sweep, replay. Exit codes follow one
contract everywhere: 0 all properties hold, 1 a property failed, 2 the
invocation or an input file was unusable.

Reports are single JSON documents with a schema_version field, written to
--out or stdout. They contain no timestamps or machine identifiers:
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .actions import parse_action
from .flowfile import FlowDefinition, FlowFileError, flow_digest, load_flow, with_prefix_mode
from .gates import GateReport, mutation_by_id, run_gates, step_bound_floor_note, verify_bundle
from .havoc import AdversarialOracle, ScriptedOracle, SeededRandomOracle, drive, sweep
from .impl_model import FlowGraphError, event_in_policy
from .refinement import Bundle
from .tracelog import TraceLogError, render_trace_log, replay_trace_log

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2


def _load(args) -> FlowDefinition:
    return with_prefix_mode(load_flow(args.flow), args.prefix_mode)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _report(args, kind: str, defn: FlowDefinition | None, **fields) -> None:
    """Write one report: the shared header, then ``fields``. The flow's
    digest and provenance are in the header when a flow was loaded."""
    header = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind, "depth": args.depth}
    if defn is not None:
        header.update(flow_digest=flow_digest(defn), provenance=defn.provenance)
    _write(args, json.dumps({**header, **fields}, indent=2, sort_keys=True) + "\n")


def _verdict(v, **extra) -> dict:
    return {"status": v.status, "detail": v.detail, **extra}


def _sweep_fields(verdict) -> dict:
    fields = {"sequences": verdict.sequences}
    if verdict.violation:
        fields.update(violating_script=list(verdict.violation.script), detail=verdict.violation.detail)
    return fields


# A ``scripted:`` body is action literals separated by ``;``, in which
# ``\;`` is a literal ``;`` and ``\\`` a literal ``\``; any other ``\`` dangles.
_SCRIPT = re.compile(r"(?:[^\\]|\\[;\\])*")
_LITERAL = re.compile(r"(?:[^;\\]|\\[;\\])+")
_ESCAPE = re.compile(r"\\([;\\])")


def _build_strategy(args, defn: FlowDefinition):
    spec = args.strategy
    if spec == "random":
        return SeededRandomOracle(args.seed, defn.alphabet), "random"
    if spec == "adversarial":
        return AdversarialOracle(args.seed, defn.alphabet, defn.constants), "adversarial"
    if spec.startswith("scripted:"):
        body = spec[len("scripted:"):]
        if not _SCRIPT.fullmatch(body):
            raise FlowFileError(f"dangling \\ in {spec!r} (only \\; and \\\\ are escapes)")
        literals = [_ESCAPE.sub(r"\1", piece) for piece in _LITERAL.findall(body)]
        script = [parse_action(lit) for lit in literals]
        return ScriptedOracle(script), "scripted"
    raise FlowFileError(f"unknown strategy: {spec!r} (use random, adversarial, or scripted:<lit>;<lit>)")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    defn = _load(args)
    strategy, label = _build_strategy(args, defn)
    record = drive(defn.impl_constants, strategy, args.steps)
    seed = args.seed if label in ("random", "adversarial") else None
    _write(args, render_trace_log(defn, record, strategy=args.strategy, seed=seed))

    c = defn.impl_constants
    violations = [
        i
        for i, step in enumerate(record.trace.steps)
        if not event_in_policy(c, step.pre_state, step.event)
    ]
    if violations:
        print(f"policy violation at step {violations[0]}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    print(
        f"run: {len(record.trace.steps)} steps, {record.rejected_count} rejected, 0 violations",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    defn = _load(args)
    c = defn.impl_constants
    bundle = mutation_by_id(args.mutation)(Bundle()) if args.mutation is not None else Bundle()

    verified = verify_bundle(c, bundle, defn.alphabet, args.depth)
    sweep_verdict = sweep(c, defn.alphabet, args.depth)

    obligations = [
        {
            "name": o.name,
            "status": "pass" if o.passed else "fail",
            **({"detail": o.detail} if o.detail else {}),
            **({"explored_states": o.explored_states} if o.explored_states is not None else {}),
        }
        for o in verified
    ]
    obligations.append(
        {"name": "havoc_sweep", "status": "pass" if sweep_verdict.passed else "fail", **_sweep_fields(sweep_verdict)}
    )
    warnings = []
    if args.depth < 1:
        warnings.append("depth 0: step obligations were not exercised")
    if note := step_bound_floor_note(c, args.depth):
        warnings.append(f"{note}, so a step-bound error passes this check")

    ok = all(o.passed for o in verified) and sweep_verdict.passed
    _report(
        args,
        "check-report",
        defn,
        mutation=args.mutation,
        obligations=obligations,
        warnings=warnings,
        overall="pass" if ok else "fail",
    )
    if not ok:
        first = next(o for o in obligations if o["status"] == "fail")
        print(f"check failed: {first['name']}: {first.get('detail', '')}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def _gate_fields(report: GateReport) -> dict:
    mutants = [
        {"id": m.mutation_id, "killed": m.killed, **({"killed_by": m.killed_by} if m.killed_by else {})}
        for m in report.mutants
    ]
    conjuncts = [
        {
            "name": cf.name,
            "status": cf.status,
            **(
                {"witness_depth": cf.witness_depth, "witness": list(cf.witness_value)}
                if cf.status == "witnessed"
                else {}
            ),
        }
        for cf in report.fitness
    ]
    return {
        "gates": {
            "g1": _verdict(report.g1),
            "g2": _verdict(report.g2),
            "g3": _verdict(report.g3, mutants=mutants),
            "fitness": _verdict(report.fitness_verdict, conjuncts=conjuncts),
        },
        "overall": "pass" if report.passed else "fail",
    }


def cmd_gates(args) -> int:
    with open(args.flow) as f:
        text = f.read()
    mutation_ids = tuple(args.mutation.split(",")) if args.mutation is not None else None
    report = run_gates(text, args.depth, mutation_ids, prefix_mode=args.prefix_mode)

    # On a G1 failure there is no verified flow: the report holds only the
    # G1 verdict, and the exit is as for any unusable flow file.
    if report.flow is None:
        _report(args, "gate-report", None, gates={"g1": _verdict(report.g1)}, overall="fail")
        print("failing gates: g1", file=sys.stderr)
        return EXIT_USAGE
    _report(args, "gate-report", report.flow, **_gate_fields(report))
    if not report.passed:
        print("failing gates: " + ", ".join(report.failing_gates()), file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def cmd_sweep(args) -> int:
    defn = _load(args)
    verdict = sweep(defn.impl_constants, defn.alphabet, args.depth)
    _report(
        args,
        "sweep-report",
        defn,
        visited_states=len(verdict.visited_states),
        overall="pass" if verdict.passed else "fail",
        **_sweep_fields(verdict),
    )
    return EXIT_OK if verdict.passed else EXIT_PROPERTY_FAILURE


def cmd_replay(args) -> int:
    defn = _load(args)
    try:
        with open(args.log) as f:
            text = f.read()
        verdict = replay_trace_log(defn, text)
    except (OSError, TraceLogError) as e:
        print(f"cannot replay: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not verdict.passed:
        print(f"replay mismatch: {verdict.detail}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    print(f"replay: {verdict.steps} steps reproduced exactly", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowguard",
        description="Contained flow-graph execution and its verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, depth: bool = False) -> None:
        p.add_argument("--flow", required=True, help="flow-definition file (JSON)")
        p.add_argument("--out", default=None, help="write the report/log here instead of stdout")
        p.add_argument(
            "--prefix-mode",
            choices=["guarded", "bare"],
            default=None,
            help="override the workspace-prefix matching mode from the flow file",
        )
        if depth:
            p.add_argument("--depth", type=int, default=6, help="exploration depth (default 6)")

    p_run = sub.add_parser("run", help="drive the contained machine and write a trace log")
    common(p_run)
    p_run.add_argument("--steps", type=int, default=8, help="number of oracle queries (default 8)")
    p_run.add_argument("--seed", type=int, default=0, help="seed for randomized strategies")
    p_run.add_argument(
        "--strategy",
        default="random",
        help="random | adversarial | scripted:<action>;<action>;... (a script writes ; as \\; "
        "and \\ as \\\\ inside a literal; any other \\ is an error)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run the refinement and safety obligations plus a havoc sweep")
    common(p_check, depth=True)
    p_check.add_argument(
        "--mutation",
        default=None,
        help="inject a seeded error by id before checking (diagnostics aid)",
    )
    p_check.set_defaults(fn=cmd_check)

    p_gates = sub.add_parser("gates", help="run the validation gates and the template-fitness audit")
    common(p_gates, depth=True)
    p_gates.add_argument(
        "--mutation",
        default=None,
        help="comma-separated mutation ids for the discrimination gate (default: all shipped)",
    )
    p_gates.set_defaults(fn=cmd_gates)

    p_sweep = sub.add_parser("sweep", help="exhaustively drive every action sequence of the given length")
    common(p_sweep, depth=True)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_replay = sub.add_parser("replay", help="re-run a trace log and verify the event column byte-exactly")
    common(p_replay)
    p_replay.add_argument("log", help="trace-log file produced by `run`")
    p_replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FlowFileError, FlowGraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
