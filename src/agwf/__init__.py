"""Agent workflows over deterministic process-mining tools.

The package has three layers: ``event_log`` parses XES/CSV documents and
computes deterministic behavioral artifacts (DFGs, variants, splits,
comparisons); ``pm_tools`` wraps those as documented string-to-string
tools with prompt-sized textual abstractions; ``workflow_engine`` (with
``agents`` and ``task_kinds``) validates and runs DAGs of agent tasks
over a single append-only string state.
"""

__version__ = "0.1.0"

from .agents import (
    AgentProfile,
    CompletionBackend,
    ScriptedBackend,
    ScriptedRule,
    complete,
    http_chat_backend,
    select_tool,
)
from .event_log import (
    CasePredicate,
    CsvMapping,
    Dfg,
    DfgComparison,
    Event,
    EventLog,
    Trace,
    Variant,
    VariantTable,
    compare_dfgs,
    discover_dfg,
    discover_variants,
    parse_csv,
    parse_predicate,
    parse_xes,
    split_log,
)
from .pm_tools import (
    Tool,
    ToolRegistry,
    abstract_dfg,
    abstract_variants,
    builtin_registry,
    render_comparison,
    resolve_log_reference,
)
from .task_kinds import (
    EvaluatorResult,
    RouterGuard,
    build_prompt,
    parse_route,
    parse_score,
)
from .workflow_config import load_scripted_rules, load_workflow
from .workflow_engine import (
    EntityMemory,
    EvaluatorConfig,
    ExecutionRecord,
    TaskSpec,
    WorkflowSpec,
    append_state,
    execute,
    linearize,
    record_to_dict,
    validate,
)

__all__ = [
    "__version__",
    # event_log
    "CasePredicate", "CsvMapping", "Dfg", "DfgComparison", "Event", "EventLog",
    "Trace", "Variant", "VariantTable", "compare_dfgs", "discover_dfg",
    "discover_variants", "parse_csv", "parse_predicate", "parse_xes", "split_log",
    # pm_tools
    "Tool", "ToolRegistry", "abstract_dfg", "abstract_variants",
    "builtin_registry", "render_comparison", "resolve_log_reference",
    # agents
    "AgentProfile", "CompletionBackend", "ScriptedBackend",
    "ScriptedRule", "complete", "http_chat_backend", "select_tool",
    # task kinds
    "EvaluatorResult", "RouterGuard", "build_prompt", "parse_route", "parse_score",
    # engine
    "EntityMemory", "EvaluatorConfig", "ExecutionRecord", "TaskSpec",
    "WorkflowSpec", "append_state", "execute", "linearize", "record_to_dict",
    "validate",
    # config
    "load_scripted_rules", "load_workflow",
]
