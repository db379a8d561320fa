"""Agent workflows over deterministic process-mining tools.

The package has three layers: ``event_log`` parses XES/CSV documents and
computes deterministic behavioral artifacts (DFGs, variants, splits,
comparisons); ``pm_tools`` wraps those as documented string-to-string
tools with prompt-sized textual abstractions; ``workflow_engine`` (with
``agents`` and ``task_kinds``) validates and runs DAGs of agent tasks
over a single append-only string state.
"""
