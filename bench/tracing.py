"""In-memory tracing of flowguard's layers, installed from outside.

The tracer replaces public functions by wrappers, attribute by attribute,
in every loaded ``flowguard`` module that holds a reference to them, and
puts the originals back on ``uninstall``. Two kinds of wrapper exist:

* span wrappers, around the coarse layer entry points, record
  ``[name, start, end, parent, job]`` in a list kept in memory;
* counter wrappers, around hot leaf functions called hundreds of
  thousands of times, only count calls (and a few sizes), so that their
  time lands in the self time of the span that called them.

``havoc.sweep`` binds ``next_fn=impl_next`` when the module is defined, so
replacing ``impl_next`` does not reach the sweep's calls; the sweep
wrapper passes a counting ``next_fn`` of its own instead. The same goes
for the digest hashing in ``tracelog``: its module-level ``hashlib`` is
swapped for a shim that counts the bytes ``state_digest`` hashes.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

# The CLI's subcommands; cli.main spans are also booked per command.
COMMANDS = ("run", "check", "gates", "sweep", "replay")

# Wrapped with a span: (module, function).
SPANNED = (
    ("cli", "main"),
    ("flowfile", "parse_flow"),
    ("gates", "run_gates"),
    ("gates", "gate_resolution"),
    ("gates", "gate_vacuity"),
    ("gates", "gate_discrimination"),
    ("gates", "verify_bundle"),
    ("gates", "check_template_fitness"),
    ("spec_model", "check_safety_preserved"),
    ("refinement", "check_refinement_next"),
    ("refinement", "reachable_layers"),
    ("havoc", "sweep"),
    ("havoc", "drive"),
    ("tracelog", "render_trace_log"),
    ("tracelog", "replay_trace_log"),
)

# Wrapped with a call counter only.
COUNTED = (
    ("impl_model", "impl_next"),
    ("impl_model", "impl_safety"),
    ("impl_model", "impl_inv"),
    ("spec_model", "spec_next"),
    ("spec_model", "spec_safety"),
    ("refinement", "perturbations"),
    ("flowfile", "flow_digest"),
    ("tracelog", "state_digest"),
    ("actions", "format_action"),
    ("actions", "parse_action"),
)

# Sizes the wrappers count besides calls.
EXTRA_COUNTS = (
    "havoc.sweep.next_calls",
    "havoc.sweep.distinct_pairs",
    "havoc.drive.steps",
    "havoc.drive.effected",
    "refinement.reachable_layers.states",
    "refinement.reachable_layers.repeats",
    "refinement.check_refinement_next.explored_states",
    "refinement.perturbations.candidates",
    "spec_model.check_safety_preserved.explored_states",
    "tracelog.render_trace_log.rows",
    "tracelog.replay_trace_log.rows",
    "tracelog.state_digest.bytes_hashed",
)

# Calls of these are sampled (reservoir of SAMPLE_SIZE argument tuples) so
# their cost per call can be timed afterwards with tracing off.
SAMPLED = ("impl_model.impl_next", "spec_model.spec_next")
SAMPLE_SIZE = 1024


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[tuple]] = {name: [] for name in SAMPLED}
        self.job = -1
        self._stack: list[int] = []
        self._rng = random.Random(0)
        self._restore: list[tuple[object, str, object]] = []
        self._layer_calls: set[tuple] = set()

    # -- recording -----------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, after=None):
        counts = self.counts
        sample = self.samples.get(name)
        rng = self._rng
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if sample is not None:
                n = counts[key]
                if n <= SAMPLE_SIZE:
                    sample.append(args)
                else:
                    j = rng.randrange(n)
                    if j < SAMPLE_SIZE:
                        sample[j] = args
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-function extras -------------------------------------------

    def _sweep_wrapper(self, fn, impl_next):
        """Count the sweep's step calls and distinct (state, action) pairs
        through its ``next_fn`` argument."""
        counts = self.counts

        def sweep(*args, **kwargs):
            inner = kwargs.get("next_fn", impl_next)
            pairs: set = set()
            calls = 0

            def next_fn(c, s, a):
                nonlocal calls
                calls += 1
                pairs.add((s, a))
                return inner(c, s, a)

            kwargs["next_fn"] = next_fn
            try:
                return fn(*args, **kwargs)
            finally:
                counts["havoc.sweep.next_calls"] += calls
                counts["havoc.sweep.distinct_pairs"] += len(pairs)

        return self._span("havoc.sweep", sweep)

    def _after(self, name: str):
        counts = self.counts

        def reachable_layers(args, kwargs, layers):
            counts["refinement.reachable_layers.states"] += sum(len(layer) for layer in layers)
            key = (args, tuple(sorted(kwargs.items())))
            if key in self._layer_calls:
                counts["refinement.reachable_layers.repeats"] += 1
            self._layer_calls.add(key)

        def explored(args, kwargs, verdict):
            counts[f"{name}.explored_states"] += verdict.explored_states

        def perturbations(args, kwargs, result):
            counts["refinement.perturbations.candidates"] += 1 + len(result)

        def drive(args, kwargs, record):
            counts["havoc.drive.steps"] += len(record.trace.steps)
            counts["havoc.drive.effected"] += sum(1 for e in record.emitted_events if e.dispatch is not None)

        def render(args, kwargs, text):
            counts["tracelog.render_trace_log.rows"] += text.count("\n") - 1

        def replay(args, kwargs, verdict):
            counts["tracelog.replay_trace_log.rows"] += sum(1 for ln in args[1].splitlines() if ln.strip()) - 1

        return {
            "refinement.reachable_layers": reachable_layers,
            "refinement.check_refinement_next": explored,
            "spec_model.check_safety_preserved": explored,
            "refinement.perturbations": perturbations,
            "havoc.drive": drive,
            "tracelog.render_trace_log": render,
            "tracelog.replay_trace_log": replay,
        }.get(name)

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "flowguard" or n.startswith("flowguard.")]
        for kind, table in (("count", COUNTED), ("span", SPANNED)):
            for module, fn_name in table:
                name = f"{module}.{fn_name}"
                original = getattr(sys.modules[f"flowguard.{module}"], fn_name)
                if name == "havoc.sweep":
                    # Counters are installed first, so this is the counting impl_next.
                    wrapper = self._sweep_wrapper(original, sys.modules["flowguard.impl_model"].impl_next)
                elif kind == "count":
                    wrapper = self._counter(name, original, self._after(name))
                else:
                    wrapper = self._span(name, original, self._after(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, value))
                            setattr(m, attr, wrapper)

        tracelog = sys.modules["flowguard.tracelog"]
        counts = self.counts

        def sha256(data=b""):
            counts["tracelog.state_digest.bytes_hashed"] += len(data)
            return hashlib.sha256(data)

        self._restore.append((tracelog, "hashlib", tracelog.hashlib))
        tracelog.hashlib = SimpleNamespace(sha256=sha256)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        self.spans.clear()
        self.counts.clear()
        for sample in self.samples.values():
            sample.clear()
        self._layer_calls.clear()
        self._rng.seed(0)

    # -- reading ---------------------------------------------------------

    def figures(self, commands: list[str]) -> dict[str, float]:
        """Everything one traced pass recorded, as flat named figures.

        For every spanned function: ``.s`` (total duration), ``.self_s``
        (duration minus the time its child spans cover) and ``.calls``;
        the same for ``cli.<command>`` from the ``cli.main`` spans of that
        command's jobs (``commands[job]``). Counters add ``.calls`` and the
        sizes in EXTRA_COUNTS. Absent functions read 0.
        """
        names = [f"{m}.{f}" for m, f in SPANNED] + [f"cli.{c}" for c in COMMANDS]
        out: dict[str, float] = {f"{n}{q}": 0 for n in names for q in (".s", ".self_s", ".calls")}
        out.update({f"{m}.{f}.calls": 0 for m, f in COUNTED})
        out.update({k: 0 for k in EXTRA_COUNTS})
        out.update(self.counts)

        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, _parent, job) in enumerate(self.spans):
            keys = [name] + ([f"cli.{commands[job]}"] if name == "cli.main" else [])
            for key in keys:
                out[f"{key}.s"] += end - start
                out[f"{key}.self_s"] += end - start - children[i]
                out[f"{key}.calls"] += 1
        out["trace.spans"] = len(self.spans)
        return out


def time_per_call(fn, sample: list[tuple], repeats: int = 5) -> float:
    """Seconds per call of ``fn`` over the sampled argument tuples, in the
    fastest of ``repeats`` loops; 0.0 when nothing was sampled."""
    if not sample:
        return 0.0
    runs = []
    for _ in range(repeats):
        started = perf_counter()
        for args in sample:
            fn(*args)
        runs.append((perf_counter() - started) / len(sample))
    return min(runs)
