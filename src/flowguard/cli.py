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
from .flowfile import FlowDefinition, FlowFileError, flow_digest, load_flow
from .gates import SEEDED_ERRORS, GateReport, no_effect_note, run_gates, step_bound_floor_note
from .havoc import AdversarialOracle, ScriptedOracle, SeededRandomOracle, drive, sweep
from .refinement import Bundle, CheckRun, obligations
from .spec_model import emits
from .tracelog import TraceLogError, render_trace_log, replay_trace_log

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
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
    return {"status": "pass" if v.passed else "fail", "detail": v.detail, **extra}


def _sweep_fields(verdict) -> dict:
    fields = {"sequences": verdict.sequences}
    if verdict.violation:
        fields.update(violating_script=list(verdict.violation.script), detail=verdict.violation.detail)
    return fields


def _refuse_unwritable_script_count(n: int, depth: int) -> None:
    """Refuse a depth whose script count ``n ** depth`` has more digits
    than ``sys.get_int_max_str_digits()`` (0: no limit) lets the report
    write. The count lies in ``[2 ** (bits - depth), 2 ** bits)``; it is
    built and compared with ``10 ** limit`` only when that range
    straddles ``[8 ** limit, 16 ** limit]``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = n.bit_length() * depth
    if limit == 0 or bits <= 3 * limit:
        return
    if bits - depth > 4 * limit or n**depth >= 10**limit:
        raise ValueError(
            f"depth {depth} refused: the script count {n}^{depth} has more than {limit} digits, "
            "the most sys.get_int_max_str_digits() lets a report write"
        )


def _havoc_sweep_row(run: CheckRun) -> dict:
    """``check``'s sweep row: the pass of every one of the n^depth scripts
    when ``run`` certifies it on its reachable layers, and otherwise the
    row of ``havoc.sweep`` on the run's machine, which walks the scripts
    and names the first violating one. Both give the walk's bytes."""
    if run.sweep_certified:
        return {"name": "havoc_sweep", "status": "pass", "sequences": len(run.alphabet) ** run.depth}
    verdict = sweep(run.c, run.alphabet, run.depth, next_fn=run.next_fn)
    return {"name": "havoc_sweep", "status": "pass" if verdict.passed else "fail", **_sweep_fields(verdict)}


# A ``scripted:`` body is action literals separated by ``;``, in which
# ``\;`` is a literal ``;`` and ``\\`` a literal ``\``; any other ``\`` dangles.
# Only ``scripted:`` uses these patterns, so ``re`` compiles them on first use.
_SCRIPT = r"(?:[^\\]|\\[;\\])*"
_LITERAL = r"(?:[^;\\]|\\[;\\])+"
_ESCAPE = r"\\([;\\])"


def _build_strategy(args, defn: FlowDefinition):
    spec = args.strategy
    if spec == "random":
        return SeededRandomOracle(args.seed, defn.alphabet), "random"
    if spec == "adversarial":
        return AdversarialOracle(args.seed, defn.alphabet, defn.constants), "adversarial"
    if spec.startswith("scripted:"):
        body = spec[len("scripted:"):]
        if not re.fullmatch(_SCRIPT, body):
            raise FlowFileError(f"dangling \\ in {spec!r} (only \\; and \\\\ are escapes)")
        literals = [re.sub(_ESCAPE, r"\1", piece) for piece in re.findall(_LITERAL, body)]
        script = [parse_action(lit) for lit in literals]
        return ScriptedOracle(script), "scripted"
    raise FlowFileError(f"unknown strategy: {spec!r} (use random, adversarial, or scripted:<lit>;<lit>)")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    defn = load_flow(args.flow)
    strategy, label = _build_strategy(args, defn)
    c = defn.impl_constants
    record = drive(c, strategy, args.steps)
    seed = args.seed if label in ("random", "adversarial") else None
    _write(args, render_trace_log(defn, record, strategy=args.strategy, seed=seed))

    violations = [
        i
        for i, step in enumerate(record.trace.steps)
        if not emits(c.spec, step.pre_state, step.action, step.event.effect)
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
    defn = load_flow(args.flow)
    c = defn.impl_constants
    bundle = SEEDED_ERRORS[args.mutation](Bundle()) if args.mutation is not None else Bundle()
    _refuse_unwritable_script_count(len(defn.alphabet), args.depth)
    run = CheckRun(c, defn.alphabet, args.depth)
    rows = [
        {
            "name": o.name,
            "status": "pass" if o.passed else "fail",
            **({"detail": o.detail} if o.detail else {}),
            **({"explored_states": o.explored_states} if o.explored_states is not None else {}),
        }
        for o in obligations(run, bundle)
    ]
    rows.append(_havoc_sweep_row(run))
    warnings = []
    if args.depth < 1:
        warnings.append("depth 0: step obligations were not exercised")
    if note := step_bound_floor_note(c, args.depth):
        warnings.append(f"{note}, so a step-bound error passes this check")
    if note := no_effect_note(c):
        warnings.append(note)

    ok = all(row["status"] == "pass" for row in rows)
    _report(
        args,
        "check-report",
        defn,
        mutation=args.mutation,
        obligations=rows,
        warnings=warnings,
        overall="pass" if ok else "fail",
    )
    if not ok:
        first = next(row for row in rows if row["status"] == "fail")
        print(f"check failed: {first['name']}: {first.get('detail', '')}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    return EXIT_OK


def _gate_fields(report: GateReport) -> dict:
    mutants = [
        {"id": mid, "killed": o is not None, **({"killed_by": o.name} if o is not None else {})}
        for mid, o in report.mutants
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
    extra = {"g3": {"mutants": mutants}, "fitness": {"conjuncts": conjuncts}}
    return {
        "gates": {v.name: _verdict(v, **extra.get(v.name, {})) for v in report.judged()},
        "overall": "pass" if report.passed else "fail",
    }


def cmd_gates(args) -> int:
    with open(args.flow, "rb") as f:
        report = run_gates(f.read(), args.depth)
    _report(args, "gate-report", report.flow, **_gate_fields(report))
    if report.passed:
        return EXIT_OK
    print("failing gates: " + ", ".join(report.failing_gates()), file=sys.stderr)
    # A flow that fails G1 is unusable input, exited as any unusable flow file.
    return EXIT_USAGE if report.flow is None else EXIT_PROPERTY_FAILURE


def cmd_sweep(args) -> int:
    defn = load_flow(args.flow)
    _refuse_unwritable_script_count(len(defn.alphabet), args.depth)
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
    defn = load_flow(args.flow)
    try:
        with open(args.log, "rb") as f:
            verdict = replay_trace_log(defn, f.read())
    except (OSError, TraceLogError) as e:
        print(f"cannot replay: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not verdict.passed:
        print(f"replay mismatch: {verdict.detail}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    print(f"replay: {verdict.explored_states} steps reproduced exactly", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowguard",
        description="Contained flow-graph execution and its verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, depth: str = "", out: bool = True) -> None:
        """``depth``: the help text of the command's ``--depth``, if it has one."""
        p.add_argument("--flow", required=True, help="flow-definition file (JSON)")
        if out:
            p.add_argument("--out", default=None, help="write the report/log here instead of stdout")
        if depth:
            p.add_argument("--depth", type=int, default=6, help=depth)

    depth_help = "exploration depth (default 6)"
    counted_depth_help = f"{depth_help}; refused if |alphabet|^depth has more digits than sys.get_int_max_str_digits()"

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
    common(p_check, depth=counted_depth_help)
    p_check.add_argument(
        "--mutation",
        default=None,
        choices=tuple(SEEDED_ERRORS),
        help="inject a seeded error by id before checking (diagnostics aid)",
    )
    p_check.set_defaults(fn=cmd_check)

    p_gates = sub.add_parser("gates", help="run the validation gates and the template-fitness audit")
    common(p_gates, depth=depth_help)
    p_gates.set_defaults(fn=cmd_gates)

    p_sweep = sub.add_parser("sweep", help="exhaustively drive every action sequence of the given length")
    common(p_sweep, depth=counted_depth_help)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_replay = sub.add_parser("replay", help="re-run a trace log and verify the event column byte-exactly")
    common(p_replay, out=False)
    p_replay.add_argument("log", help="trace-log file produced by `run`")
    p_replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
