"""flowguard: contained execution of agentic flow graphs, with a
desk-scale verification toolkit.

The library pairs two state machines over one typed action vocabulary: a
concrete dispatch loop that rejects out-of-policy actions with no-effect
events, and an abstract policy machine it provably refines (by bounded
exhaustive checking). On top of that sit oracle drivers, an exhaustive
havoc sweep, trace-level soundness checking, mutation gates that validate
the specification itself, and a vacuity audit for safety conjuncts that
are never exercised.
"""

from .actions import (
    Action,
    BoundaryEvent,
    Dispatch,
    ImplEvent,
    NoAction,
    NoEffect,
    ReadEvent,
    ReadPathAction,
    StepAction,
    StepEvent,
    ToolCallAction,
    ToolEvent,
    format_action,
    parse_action,
)
from .flowfile import FlowDefinition, FlowFileError, load_flow, parse_flow, serialize_flow
from .gates import (
    SEEDED_ERRORS,
    GateReport,
    check_template_fitness,
    gate_discrimination,
    gate_resolution,
    gate_vacuity,
    permissive_stub,
    run_gates,
)
from .havoc import (
    AdversarialOracle,
    RunRecord,
    ScriptedOracle,
    SeededRandomOracle,
    Trace,
    drive,
    sweep,
)
from .impl_model import (
    FlowGraph,
    FlowGraphError,
    ImplConstants,
    ImplState,
    NodeKind,
    impl_init,
    impl_inv,
    impl_next,
    impl_safety,
)
from .refinement import (
    Bundle,
    CheckRun,
    check_refinement_init,
    check_refinement_next,
    check_soundness,
)
from .spec_model import (
    Obligation,
    SpecConstants,
    SpecState,
    Step,
    check_safety_preserved,
    spec_init,
    spec_next,
    spec_safety,
)

__version__ = "0.1.0"
