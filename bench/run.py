"""flowguard benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload shipped-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; flowguard is imported from
``src/`` next to this directory. The bench drives ``flowguard.cli.main``
in-process as a single closed-loop caller: each job starts after the
previous one has returned its verdict. After an untimed warm-up pass it
repeats the workload's job list ("a pass") while the next pass still fits
in ``--seconds``, and checks every job against its known answer and
against its own output in the first pass. While a job runs, an interval timer interrupts it every
25 ms for one block of a fixed pure-Python reference loop; the bench
reports the job time in units of that block's time (see ``Reference``).
Set-up time is a median over launches spread across the run.

With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, and writes the spans of the
first traced pass to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("actions", "cli", "fixtures", "flowfile", "gates", "havoc", "impl_model", "lts",
           "refinement", "spec_model", "tracelog")
SETUP_LAUNCHES_PER_PASS = 4
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import flowguard.cli; "
    "from flowguard.flowfile import load_flow; [load_flow(p) for p in sys.argv[2:]]"
)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Reference loop


REF_BLOCK = 2_000  # iterations in one block of the reference loop (about 1 ms)
REF_INTERVAL = 0.025  # seconds between reference blocks while a job runs


def _ref_key(a: int, b: int) -> tuple[int, int]:
    return a, b & 7


def reference_block() -> int:
    """One block of fixed interpreter-bound work (calls, tuples, dict
    updates, string joins), the kind of work flowguard's explorers do."""
    counts: dict[tuple[int, int], int] = {}
    parts = []
    for i in range(REF_BLOCK):
        key = _ref_key(i & 1023, i)
        counts[key] = counts.get(key, 0) + 1
        if i & 63 == 0:
            parts.append(str(key))
    return len(counts) + len(",".join(parts))


class Reference:
    """The machine's speed, sampled while the jobs run.

    On a shared host the CPU's speed drifts by up to 2x within minutes, as
    other tenants load it, and flowguard's jobs slow down with it. So while
    a job runs, SIGALRM fires every ``REF_INTERVAL`` seconds and its handler
    runs one reference block in the same thread; the job's time is its wall
    time minus the blocks' time, and dividing it by the mean block time of
    the same stretch cancels the drift. The reference loop does not call
    flowguard, so a change that makes flowguard 10% slower still raises the
    ratio by 10%.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds) of each block

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        reference_block()
        self.samples.append((started, perf_counter() - started))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def taken(self, first: int, started: float, ended: float) -> float:
        """Seconds of the blocks from index ``first`` on that ran between
        ``started`` and ``ended``. A handler runs to its end before the
        interrupted code resumes, so a block that started in the window
        lies wholly inside it."""
        return sum(d for s, d in self.samples[first:] if started <= s < ended)

    def block_s(self, first: int) -> float:
        """Mean seconds of the blocks from index ``first`` on."""
        return statistics.fmean(d for _, d in self.samples[first:])


# ---------------------------------------------------------------------------
# Running jobs


def run_job(cli, job, reference: Reference | None = None):
    """Run one CLI job in-process; returns (seconds, JobOutput). With a
    ``reference``, it is sampled during the job and its blocks' time is
    not counted in the job's."""
    from workloads import JobOutput

    if job.before is not None:
        job.before()
    out, err = io.StringIO(), io.StringIO()
    first = len(reference.samples) if reference is not None else 0
    with contextlib.ExitStack() as stack:
        if reference is not None:
            stack.enter_context(reference.sampling())
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        started = perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as e:  # argparse rejects the invocation
            code = e.code
        except Exception:  # a traceback is a failed job, not a failed bench
            code = None
            traceback.print_exc()
        ended = perf_counter()
    elapsed = ended - started
    if reference is not None:
        elapsed -= reference.taken(first, started, ended)
    report = job.out.read_text() if job.out is not None and job.out.exists() else None
    return elapsed, JobOutput(code, report, err.getvalue() + out.getvalue())


class Passes:
    """Runs passes over a workload's jobs and keeps score: every job must
    give its known answer, and the same bytes as in the first pass."""

    def __init__(self, workload, cli) -> None:
        self.workload = workload
        self.cli = cli
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, tracer=None, reference: Reference | None = None) -> list[float]:
        """One pass; returns each job's seconds. With a ``reference``, it is
        sampled while the jobs run."""
        times, outputs = [], []
        for i, job in enumerate(self.workload.jobs):
            if tracer is not None:
                tracer.job = i
            elapsed, output = run_job(self.cli, job, reference)
            times.append(elapsed)
            outputs.append(output)
        if self.first_outputs is None:
            self.first_outputs = outputs
        for job, output, first in zip(self.workload.jobs, outputs, self.first_outputs):
            problems = job.check(output)
            if output != first:
                problems.append("output differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(job.argv[:3])}: {'; '.join(problems)}")
        return times

    def digest(self) -> str:
        """Hash of every job's output in the first pass, to compare runs
        with the same seed."""
        h = hashlib.sha256()
        for output in self.first_outputs or ():
            h.update(repr(output).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics


def setup_seconds(flow_paths, launches: int) -> list[float]:
    """Wall time of fresh interpreters that import flowguard.cli and parse
    the workload's flow files.

    ``-I -S`` keeps the environment and site-packages out (flowguard is
    stdlib-only). No timeout: ``wait`` with a timeout polls in steps of up
    to 50 ms, which would quantise the measurement.
    """
    argv = [sys.executable, "-I", "-S", "-c", SETUP_CODE, str(SRC), *map(str, flow_paths)]
    times = []
    for _ in range(launches):
        started = perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - started)
    return times


def line_counts() -> dict[str, int]:
    counts = {}
    for module in MODULES + ("__init__",):
        path = SRC / "flowguard" / f"{module}.py"
        counts["init" if module == "__init__" else module] = (
            path.read_text().count("\n") if path.exists() else 0
        )
    counts["src"] = sum(
        p.read_text().count("\n") for p in (SRC / "flowguard").glob("*.py")
    )
    return {f"{name}.lines": n for name, n in counts.items()}


def layer_metrics(f: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the figures of the traced passes (fastest
    times, exact counts). Ratios whose base is zero read 0."""
    m = dict(f)
    m["havoc.sweep.useful_ratio"] = ratio(f["havoc.sweep.distinct_pairs"], f["havoc.sweep.next_calls"])
    m["havoc.drive.effected_ratio"] = ratio(f["havoc.drive.effected"], f["havoc.drive.steps"])
    m["refinement.reachable_layers.repeat_ratio"] = ratio(
        f["refinement.reachable_layers.repeats"], f["refinement.reachable_layers.calls"]
    )
    explored = f["refinement.check_refinement_next.explored_states"]
    m["refinement.check_refinement_next.us_per_explored_state"] = 1e6 * ratio(
        f["refinement.check_refinement_next.s"], explored
    )
    m["refinement.perturbations.admitted_ratio"] = ratio(explored, f["refinement.perturbations.candidates"])
    m["gates.verify_bundle.s_per_call"] = ratio(f["gates.verify_bundle.s"], f["gates.verify_bundle.calls"])
    for fn in ("render_trace_log", "replay_trace_log"):
        m[f"tracelog.{fn}.us_per_row"] = 1e6 * ratio(f[f"tracelog.{fn}.s"], f[f"tracelog.{fn}.rows"])
    return m


# ---------------------------------------------------------------------------
# Runs


def fastest_pass(passes_times: list[list[float]]) -> float:
    """Seconds of a pass made of each job's fastest run across passes.

    The jobs are deterministic and CPU-bound, so on a shared machine
    interference only ever adds time; the fastest of several runs of a job
    is its steadiest estimate, where a median still moves with the load
    the neighbours put on the machine during the run.
    """
    return sum(min(job_times) for job_times in zip(*passes_times))


def fits(started: float, seconds: float, last_pass: float) -> bool:
    """Would another pass as long as the last one end within ``seconds``?"""
    return perf_counter() - started + last_pass <= seconds


def plain_run(passes: Passes, seconds: float) -> dict[str, float]:
    """A warm-up pass, then measured passes while the next still fits,
    with a few set-up launches after each, so that both sample the whole
    run. ``wall_ref`` is the median over measured passes of the pass's
    time over the mean time of the reference blocks sampled during it."""
    flow_paths = passes.workload.flow_paths
    started = perf_counter()
    setup_seconds(flow_paths, 1)  # warm the bytecode cache
    passes.run()  # warm-up; checked like every pass, not timed
    reference = Reference()
    ratios, setups = [], []
    last = 0.0
    while not ratios or fits(started, seconds, last):
        pass_started = perf_counter()
        first = len(reference.samples)
        times = passes.run(reference=reference)
        if len(reference.samples) == first:
            raise RuntimeError("no reference block ran during a pass; its jobs are too short")
        ratios.append(sum(times) / reference.block_s(first))
        setups += setup_seconds(flow_paths, SETUP_LAUNCHES_PER_PASS)
        last = perf_counter() - pass_started
    return {
        "wall_ref": statistics.median(ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(passes: Passes, seconds: float, trace_file: Path) -> dict[str, float]:
    """Alternate untraced and traced passes; per-layer metrics come from
    the traced ones, their cost relative to the untraced ones is the
    tracing overhead."""
    from tracing import Tracer, time_per_call

    tracer = Tracer()
    commands = [job.command for job in passes.workload.jobs]
    plain_times, traced_times, figures = [], [], []
    started = perf_counter()
    while not figures or fits(started, seconds, sum(plain_times[-1]) + sum(traced_times[-1])):
        plain_times.append(passes.run())
        tracer.reset()
        tracer.install()
        try:
            traced_times.append(passes.run(tracer))
        finally:
            tracer.uninstall()
        figures.append(tracer.figures(commands))
        if len(figures) == 1:
            samples = {name: list(sample) for name, sample in tracer.samples.items()}
            trace_file.parent.mkdir(exist_ok=True)
            trace_file.write_text(json.dumps({"workload": passes.workload.name, "jobs": commands,
                                              "spans": tracer.spans}))

    f = {}
    for name in figures[0]:
        values = [p[name] for p in figures]
        if name.endswith((".s", ".self_s")):
            f[name] = min(values)
        else:
            if len(set(values)) != 1:
                passes.problems.append(f"count {name} differs between traced passes: {values}")
            f[name] = values[0]
    m = layer_metrics(f)

    impl_model = importlib.import_module("flowguard.impl_model")
    spec_model = importlib.import_module("flowguard.spec_model")
    m["impl_model.impl_next.ns_per_call"] = 1e9 * time_per_call(impl_model.impl_next, samples["impl_model.impl_next"])
    m["spec_model.spec_next.ns_per_call"] = 1e9 * time_per_call(spec_model.spec_next, samples["spec_model.spec_next"])
    m["pass.wall_s"] = fastest_pass(plain_times)
    m["trace.overhead_ratio"] = fastest_pass(traced_times) / fastest_pass(plain_times) - 1
    m.update(line_counts())
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowguard" / "cli.py").is_file():
        print(f"error: no flowguard sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("flowguard.cli")
    flowfile = importlib.import_module("flowguard.flowfile")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_run"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        passes = Passes(workload, cli)
        for path in workload.flow_paths:
            text = path.read_text()
            if flowfile.serialize_flow(flowfile.parse_flow(text)) != text:
                passes.problems.append(f"{path.name} does not round-trip through parse_flow/serialize_flow")
        if args.trace:
            trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            computed = traced_run(passes, args.seconds, trace_file)
            wanted = declared["per_layer"]
        else:
            computed = plain_run(passes, args.seconds)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in passes.problems:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"outputs sha256 {passes.digest()}", file=sys.stderr)
    result = {
        "correct": not passes.problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {w["name"]: {"value": computed[w["name"]], "unit": w["unit"]} for w in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
