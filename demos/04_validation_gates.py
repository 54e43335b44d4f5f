"""Validating the specification itself.

Checks that pass tell you nothing if the specification they check is
vacuous. The gates attack the bundle directly: the vacuity gate guts the
invariant and demands that verification now FAIL; the discrimination gate
seeds concrete modeling errors and demands each one is killed; an
identity mutation is expected to survive (and the gate to say so).

The template-fitness audit catches a subtler disease the gates cannot:
a machine that never writes a policed field at all. The retrieval flow
ships in two files that differ only in whether document fetches pass
through the tool allowlist. Both modes sail through every gate;
only fitness separates them.
"""

from pathlib import Path

from flowguard import run_gates

FLOWS = Path(__file__).resolve().parent.parent / "flows"

print("— gates on the read-agent —")
report = run_gates((FLOWS / "read_agent.json").read_text(), depth=4)
print(f"g1 resolution:     {report.g1.status}")
print(f"g2 vacuity:        {report.g2.status}   ({report.g2.detail})")
print(f"g3 discrimination: {report.g3.status}")
for m in report.mutants:
    print(f"    {m.mutation_id:24} {'killed by ' + m.killed_by if m.killed else 'ALIVE'}")
print(f"fitness:           {report.fitness_verdict.status}")
print()

print("— the fitness separation —")
for name in ("rag_barrier.json", "rag_no_barrier.json"):
    r = run_gates((FLOWS / name).read_text(), depth=4)
    gates_line = f"g1={r.g1.status} g2={r.g2.status} g3={r.g3.status} fitness={r.fitness_verdict.status}"
    print(f"{r.flow.provenance:24} {gates_line}")
    if r.fitness is not None:
        for cf in r.fitness.conjuncts:
            suffix = f"witnessed at depth {cf.witness_depth}: {list(cf.witness_value)}" \
                if cf.status == "witnessed" else "VACUOUS (field never written)"
            print(f"    {cf.name:18} {suffix}")
