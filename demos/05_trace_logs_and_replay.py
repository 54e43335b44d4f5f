"""Trace logs and replay integrity.

Every run can be persisted as a line-delimited log: a header with the
machine's content digest and the seed, then one record per step with
state digests and the action/event literals. Replay feeds the action
column back through the machine and demands the event column
byte-exactly, so a log that was tampered with (or produced by a
different machine) is caught immediately.
"""

import tempfile
from pathlib import Path

from flowguard import SeededRandomOracle, drive, load_flow
from flowguard.tracelog import render_trace_log, replay_trace_log

defn = load_flow(Path(__file__).resolve().parent.parent / "flows" / "read_agent.json")

record = drive(defn.impl_constants, SeededRandomOracle(seed=42, alphabet=defn.alphabet), 8)
log_text = render_trace_log(defn, record, strategy="random", seed=42)

print("— the log —")
for line in log_text.splitlines():
    print(" ", line[:110])
print()

verdict = replay_trace_log(defn, log_text)
print(f"replay of the pristine log: {verdict.name} passed={verdict.passed}, explored_states={verdict.explored_states}")

# tamper with one event literal and replay again
lines = log_text.splitlines()
lines[1] = lines[1].replace('"event": "', '"event": "ToolEvent(rm)[x-tool->y] was ', 1)
tampered = "\n".join(lines) + "\n"
verdict = replay_trace_log(defn, tampered)
print(f"replay of the tampered log:  {verdict.name} passed={verdict.passed} ({verdict.detail})")

# logs travel as plain files
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "run.log"
    path.write_text(log_text, encoding="utf-8")
    from_disk = replay_trace_log(defn, path.read_text(encoding="utf-8"))
    print(f"replay from disk:            passed={from_disk.passed}")
