"""A first contained run.

The read-agent machine cycles through three nodes: a Read node, a Tool
node, and a Step node. Its policy allows reads under /ws, the single tool
"search", and at most three effected steps. We feed it a script that
mixes permitted and forbidden actions and watch what comes out the other
side: forbidden actions do not error, they simply produce NoEffect events
and leave the state untouched.
"""

from pathlib import Path

from flowguard import ReadPathAction, ScriptedOracle, ToolCallAction, StepAction, drive, load_flow
from flowguard.actions import format_action, format_impl_event

flow = load_flow(Path(__file__).resolve().parent.parent / "flows" / "read_agent.json")
print(f"machine: {flow.provenance}")
print(f"  root={flow.constants.workspace_root}"
      f"  tools={sorted(flow.constants.allowed_tools)}"
      f"  max_steps={flow.constants.max_steps}")
print()

script = [
    ReadPathAction("/ws/notes.txt"),   # permitted: rooted read at a Read node
    ReadPathAction("/etc/passwd"),     # forbidden: outside the workspace root
    ToolCallAction("search"),          # permitted: allowlisted tool at a Tool node
    ToolCallAction("rm"),              # forbidden: not on the allowlist
    StepAction(),                      # permitted: capacity remains
]

record = drive(flow.impl_constants, ScriptedOracle(script), len(script))

for step, event in zip(record.trace.steps, record.emitted_events):
    verdict = "rejected" if event.dispatch is None else "effected"
    print(f"  {format_action(step.action):32} -> {format_impl_event(event):44} [{verdict}]")

print()
print(f"rejected actions: {record.rejected_count}")
print(f"final state: node={record.final_state.current_node}"
      f" reads={list(record.final_state.read_paths)}"
      f" tools={list(record.final_state.tool_calls)}"
      f" steps={record.final_state.step_count} of {flow.constants.max_steps}")
