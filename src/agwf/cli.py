"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 execution or validation
failure (including a TOOL-ERROR recorded in an otherwise completed run),
2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import demos
from .agents import AgentError, HttpDefaults, http_chat_backend
from .event_log import EventLogError, discover_dfg, discover_variants
from .pm_tools import (
    DEFAULT_DFG_TOP_K,
    DEFAULT_VARIANTS_TOP_K,
    abstract_dfg,
    abstract_variants,
    read_log,
)
from .workflow_config import WorkflowConfigError, load_scripted_rules, load_workflow
from .workflow_engine import (
    ExecutionAborted,
    ExecutionRecord,
    InvalidWorkflow,
    execute,
    record_to_dict,
    validate,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: sentinel for "--scripted given without a path" (demo uses bundled rules)
_BUILTIN_RULES = "@builtin"


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _make_backend(args, demo_name: str | None = None):
    """Resolve the backend flags; returns (backend, error_exit_code_or_None)."""
    scripted = getattr(args, "scripted", None)
    http = getattr(args, "http", None)
    if scripted is not None and http is not None:
        return None, _fail_usage("choose exactly one of --scripted / --http")
    if scripted is None and http is None:
        if demo_name is None:
            return None, _fail_usage("one of --scripted / --http is required")
        scripted = _BUILTIN_RULES
    if scripted is not None:
        if scripted == _BUILTIN_RULES:
            if demo_name is None:
                return None, _fail_usage("--scripted needs a rules file here")
            return demos.demo_rules_backend(demo_name), None
        try:
            return load_scripted_rules(scripted), None
        except (OSError, WorkflowConfigError) as exc:
            return None, _fail_usage(str(exc))
    endpoint = http or os.environ.get("AGWF_ENDPOINT", "")
    if not endpoint:
        return None, _fail_usage("--http needs a URL or the AGWF_ENDPOINT variable")
    api_key = os.environ.get("AGWF_API_KEY", "")
    return http_chat_backend(endpoint, api_key, HttpDefaults()), None


def _write_transcript(path: str, record: ExecutionRecord, error: str | None) -> None:
    payload = record_to_dict(record)
    payload["aborted"] = error is not None
    payload["error"] = error
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _report_record(record: ExecutionRecord, verbose: bool) -> int:
    if verbose:
        for task_id in record.task_sequence:
            detail = record.details[task_id]
            note = "skipped" if detail.skipped else (detail.selected_tool or "-")
            print(f"[task] {task_id}: {note}", file=sys.stderr)
    final_id = record.task_sequence[-1]
    print(f"--- output of final task {final_id} ---")
    print(record.task_output(final_id))
    print("--- full final state ---")
    print(record.final_state)
    tool_failures = [
        task_id
        for task_id in record.task_sequence
        if record.details[task_id].tool_output.startswith("TOOL-ERROR:")
    ]
    if tool_failures:
        print(f"tool failures recorded for: {', '.join(tool_failures)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _run_and_report(spec, inquiry, backend, output: str | None, verbose: bool) -> int:
    try:
        record = execute(spec, inquiry, backend)
    except InvalidWorkflow as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        return EXIT_FAILURE
    except ExecutionAborted as exc:
        print(f"execution aborted: {exc}", file=sys.stderr)
        if output:
            _write_transcript(output, exc.record, str(exc))
        return EXIT_FAILURE
    if output:
        _write_transcript(output, record, None)
    return _report_record(record, verbose)


def cmd_validate(args) -> int:
    try:
        spec = load_workflow(args.workflow)
    except (OSError, WorkflowConfigError) as exc:
        return _fail_usage(str(exc))
    violations = validate(spec)
    for violation in violations:
        print(str(violation))
    if violations:
        return EXIT_FAILURE
    print("workflow is valid")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        spec = load_workflow(args.workflow)
    except (OSError, WorkflowConfigError) as exc:
        return _fail_usage(str(exc))
    backend, error = _make_backend(args)
    if error is not None:
        return error
    return _run_and_report(spec, args.inquiry, backend, args.output, args.verbose)


def cmd_abstract(args) -> int:
    try:
        log = read_log(args.log)
    except (OSError, EventLogError) as exc:
        return _fail_usage(str(exc))
    if args.kind == "dfg":
        print(abstract_dfg(discover_dfg(log), args.top_k))
    else:
        print(abstract_variants(discover_variants(log), args.top_k))
    return EXIT_OK


def cmd_demo(args) -> int:
    backend, error = _make_backend(args, demo_name=args.name)
    if error is not None:
        return error
    spec = demos.demo_workflow(args.name)
    inquiry = demos.demo_inquiry(args.name)
    return _run_and_report(spec, inquiry, backend, args.output, args.verbose)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agwf",
        description="Validate and run agent workflows over process-mining tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a workflow definition file")
    p_validate.add_argument("workflow", help="workflow JSON file")
    p_validate.set_defaults(handler=cmd_validate)

    p_run = sub.add_parser("run", help="execute a workflow file on an inquiry")
    p_run.add_argument("workflow", help="workflow JSON file")
    p_run.add_argument("--inquiry", required=True, help="initial inquiry text")
    p_run.add_argument("--scripted", metavar="RULES", help="scripted-rules JSON file")
    p_run.add_argument("--http", nargs="?", const="", metavar="URL",
                       help="chat-completions endpoint (default: AGWF_ENDPOINT)")
    p_run.add_argument("--output", help="write the JSON transcript here")
    p_run.add_argument("-v", "--verbose", action="store_true")
    p_run.set_defaults(handler=cmd_run)

    p_abstract = sub.add_parser("abstract", help="print a textual abstraction of a log")
    p_abstract.add_argument("log", help="event log (.xes or .csv)")
    p_abstract.add_argument("--kind", choices=("dfg", "variants"), required=True)
    p_abstract.add_argument("--top-k", type=int, default=None, dest="top_k")
    p_abstract.set_defaults(handler=cmd_abstract)

    p_demo = sub.add_parser("demo", help="run a bundled demo workflow")
    p_demo.add_argument("name", choices=demos.BUNDLE_NAMES)
    p_demo.add_argument("--scripted", nargs="?", const=_BUILTIN_RULES, metavar="RULES",
                        help="scripted-rules file (default: the bundled rules)")
    p_demo.add_argument("--http", nargs="?", const="", metavar="URL")
    p_demo.add_argument("--output", help="write the JSON transcript here")
    p_demo.add_argument("-v", "--verbose", action="store_true")
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "top_k", None) is not None and args.top_k < 1:
        return _fail_usage("--top-k must be >= 1")
    if args.command == "abstract" and args.top_k is None:
        args.top_k = DEFAULT_DFG_TOP_K if args.kind == "dfg" else DEFAULT_VARIANTS_TOP_K
    try:
        return args.handler(args)
    except AgentError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
