"""Validating the specification itself.

Checks that pass tell you nothing if the specification they check is
vacuous. The gates attack the bundle directly: the vacuity gate guts the
invariant and demands that verification now FAIL; the discrimination gate
seeds every modeling error of one fixed table and demands each one is
killed, naming the obligation that kills it.

The template-fitness audit catches a subtler disease the gates cannot:
a machine that never writes a policed field at all. The retrieval flow
ships in two files that differ only in whether document fetches pass
through the tool allowlist. Both modes sail through every gate;
only fitness separates them.
"""

from pathlib import Path

from flowguard import run_gates

FLOWS = Path(__file__).resolve().parent.parent / "flows"


def status(verdict) -> str:
    return "pass" if verdict.passed else "fail"


print("— gates on the read-agent —")
report = run_gates((FLOWS / "read_agent.json").read_text(encoding="utf-8"), depth=4)
print(f"g1 resolution:     {status(report.g1)}")
print(f"g2 vacuity:        {status(report.g2)}   ({report.g2.detail})")
print(f"g3 discrimination: {status(report.g3)}")
for mid, killed_by in report.mutants:
    print(f"    {mid:24} {'ALIVE' if killed_by is None else 'killed by ' + killed_by.name}")
print(f"fitness:           {status(report.fitness_verdict)}")
print()

print("— the fitness separation —")
for name in ("rag_barrier.json", "rag_no_barrier.json"):
    r = run_gates((FLOWS / name).read_text(encoding="utf-8"), depth=4)
    gates_line = " ".join(f"{v.name}={status(v)}" for v in r.judged())
    print(f"{r.flow.provenance:24} {gates_line}")
    for cf in r.fitness:
        suffix = f"witnessed at depth {cf.witness_depth}: {list(cf.witness_value)}" \
            if cf.status == "witnessed" else "VACUOUS (field never written)"
        print(f"    {cf.name:18} {suffix}")
