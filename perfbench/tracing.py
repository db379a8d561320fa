"""Spans around agwf's public calls, recorded from outside the program.

``Tracer.install`` replaces, for the length of one traced operation, each
public function at the place where the layer above looks it up (a module
global or a class attribute) with a wrapper that records a span: name,
start, end, parent span and operation id.  ``uninstall`` puts the
originals back, so untraced operations run the unmodified program.

A span's layer is the first component of its name, which is the agwf
module the called function belongs to.  Self time is a span's duration
minus the durations of its child spans; calls are strictly nested (one
thread), so the self times of all spans of an operation add up to the
duration of its root span exactly.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import agwf.agents as agents
import agwf.cli as cli
import agwf.pm_tools as pm_tools
import agwf.task_kinds as task_kinds
import agwf.workflow_config as workflow_config
import agwf.workflow_engine as workflow_engine

#: (namespace the caller looks the name up in, attribute, span name)
TARGETS = [
    (cli, "load_workflow", "workflow_config.load_workflow"),
    (cli, "load_scripted_rules", "workflow_config.load_rules"),
    (cli, "http_chat_backend", "agents.http_chat_backend"),
    (cli, "execute", "workflow_engine.execute"),
    (cli, "record_to_dict", "workflow_engine.record_to_dict"),
    (workflow_engine, "validate", "workflow_engine.validate"),
    (workflow_engine, "linearize", "workflow_engine.linearize"),
    (workflow_engine, "extract_section", "workflow_engine.extract_section"),
    (workflow_engine, "append_state", "workflow_engine.append_state"),
    (workflow_engine, "select_tool", "agents.select_tool"),
    (workflow_engine, "selection_prompt", "agents.selection_prompt"),
    (workflow_engine, "complete", "agents.complete"),
    (agents, "selection_prompt", "agents.selection_prompt"),
    (agents, "complete", "agents.complete"),
    (agents.ScriptedBackend, "complete", "agents.backend"),
    (agents.HttpChatBackend, "complete", "agents.backend"),
    (task_kinds, "build_prompt", "task_kinds.build_prompt"),
    (task_kinds, "parse_route", "task_kinds.parse_route"),
    (task_kinds, "parse_score", "task_kinds.parse_score"),
    (task_kinds, "apply_wrap_back", "task_kinds.apply_wrap_back"),
    (pm_tools, "resolve_log_reference", "pm_tools.resolve_log"),
    (pm_tools, "abstract_dfg", "pm_tools.render"),
    (pm_tools, "abstract_variants", "pm_tools.render"),
    (pm_tools, "render_comparison", "pm_tools.render"),
    (pm_tools, "parse_xes", "event_log.parse_xes"),
    (pm_tools, "parse_csv", "event_log.parse_csv"),
    (pm_tools, "discover_dfg", "event_log.discover_dfg"),
    (pm_tools, "discover_variants", "event_log.discover_variants"),
    (pm_tools, "split_log", "event_log.split_log"),
    (pm_tools, "compare_dfgs", "event_log.compare_dfgs"),
    (pm_tools, "parse_predicate", "event_log.parse_predicate"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op]
        self.counts: list[Counter] = []  # per operation
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1,
                          len(self.counts) - 1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()
            if note is not None:
                note(self.counts[-1], result)
            return result
        return traced

    def install(self) -> None:
        notes = {
            "task_kinds.apply_wrap_back":
                lambda c, result: c.update(retries=result == "retry"),
            "workflow_engine.execute": lambda c, record: c.update(
                kept=len(record.task_sequence),
                state_chars=sum(len(s) for s in record.states)),
        }
        original_registry = workflow_config.builtin_registry

        def traced_registry():
            registry = original_registry()
            return pm_tools.ToolRegistry.of(*(
                pm_tools.Tool(t.name, t.documentation, self._wrap("pm_tools.tool", t.function))
                for t in registry.tools.values()))

        self._saved = [(workflow_config, "builtin_registry", original_registry)]
        workflow_config.builtin_registry = traced_registry
        for owner, attribute, name in TARGETS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, notes.get(name)))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    def run(self, fn):
        """Run one traced operation; fn's whole call is the root span."""
        self.counts.append(Counter())
        self.install()
        try:
            return self._wrap("cli.main", fn)()
        finally:
            self.uninstall()

    # -----------------------------------------------------------------------
    # Derived figures
    # -----------------------------------------------------------------------

    def per_operation(self) -> list[dict]:
        """Busy time, calls and self time by span name and by layer, per op."""
        ops = [{"busy": defaultdict(int), "calls": Counter(), "self": defaultdict(int),
                "wall": 0, "counts": counts} for counts in self.counts]
        child_time = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            figures = ops[op]
            figures["busy"][name] += end - start
            figures["calls"][name] += 1
            figures["self"][name.split(".")[0]] += end - start - child_time[index]
            if parent < 0:
                figures["wall"] = end - start
        return ops

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "op": op}) + "\n")


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-operation means of the per-layer metrics named in BENCHMARK.json."""

    def mean(value) -> float:
        return statistics.fmean(value(op) for op in ops)

    def busy_s(*names):
        return mean(lambda op: sum(op["busy"][n] for n in names) / 1e9)

    def calls(*names):
        return mean(lambda op: sum(op["calls"][n] for n in names))

    def self_s(layer):
        return mean(lambda op: op["self"][layer] / 1e9)

    def task_runs(op):
        return op["calls"]["workflow_engine.append_state"] + op["counts"]["retries"]

    return {
        "event_log.parse_xes_s": busy_s("event_log.parse_xes"),
        "event_log.parse_xes_calls": calls("event_log.parse_xes"),
        "event_log.parse_csv_s": busy_s("event_log.parse_csv"),
        "event_log.parse_csv_calls": calls("event_log.parse_csv"),
        "event_log.discover_dfg_s": busy_s("event_log.discover_dfg"),
        "event_log.discover_dfg_calls": calls("event_log.discover_dfg"),
        "event_log.discover_variants_s": busy_s("event_log.discover_variants"),
        "event_log.split_log_s": busy_s("event_log.split_log"),
        "event_log.compare_dfgs_s": busy_s("event_log.compare_dfgs"),
        "event_log.self_s": self_s("event_log"),
        "pm_tools.resolve_log_s": busy_s("pm_tools.resolve_log"),
        "pm_tools.log_parses": calls("event_log.parse_xes", "event_log.parse_csv"),
        "pm_tools.tool_s": busy_s("pm_tools.tool"),
        "pm_tools.tool_calls": calls("pm_tools.tool"),
        "pm_tools.tool_self_s": self_s("pm_tools"),
        "pm_tools.render_s": busy_s("pm_tools.render"),
        "task_kinds.build_prompt_s": busy_s("task_kinds.build_prompt"),
        "task_kinds.build_prompt_calls": calls("task_kinds.build_prompt"),
        "task_kinds.protocol_parse_s": busy_s("task_kinds.parse_route", "task_kinds.parse_score"),
        "task_kinds.self_s": self_s("task_kinds"),
        "agents.complete_s": busy_s("agents.complete"),
        "agents.complete_calls": calls("agents.complete"),
        "agents.select_tool_s": busy_s("agents.select_tool"),
        "agents.select_tool_calls": calls("agents.select_tool"),
        "agents.backend_s": busy_s("agents.backend"),
        "agents.backend_attempts": calls("agents.backend"),
        "agents.self_s": self_s("agents"),
        "workflow_engine.execute_s": busy_s("workflow_engine.execute"),
        "workflow_engine.self_s": self_s("workflow_engine"),
        "workflow_engine.validate_s": busy_s("workflow_engine.validate"),
        "workflow_engine.validate_calls": calls("workflow_engine.validate"),
        "workflow_engine.linearize_s": busy_s("workflow_engine.linearize"),
        "workflow_engine.extract_section_s": busy_s("workflow_engine.extract_section"),
        "workflow_engine.extract_section_calls": calls("workflow_engine.extract_section"),
        "workflow_engine.append_state_s": busy_s("workflow_engine.append_state"),
        "workflow_engine.states_mb": mean(lambda op: op["counts"]["state_chars"] / 1e6),
        "workflow_engine.task_runs": mean(task_runs),
        "workflow_engine.kept_ratio":
            mean(lambda op: op["counts"]["kept"] / max(task_runs(op), 1)),
        "workflow_engine.record_to_dict_s": busy_s("workflow_engine.record_to_dict"),
        "workflow_config.self_s": self_s("workflow_config"),
        "cli.self_s": self_s("cli"),
    }
