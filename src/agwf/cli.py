"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 execution or validation
failure (including a TOOL-ERROR recorded in an otherwise completed run),
2 usage or parse failure.  Handlers raise; main alone maps a usage,
file, config or log failure to exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate
from pathlib import Path

from . import demos
from .agents import CompletionBackend, http_chat_backend
from .event_log import EventLogError, discover_dfg, discover_variants
from .pm_tools import (
    DEFAULT_DFG_TOP_K,
    DEFAULT_VARIANTS_TOP_K,
    TOOL_ERROR,
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


class UsageError(Exception):
    """The command line asks for something that cannot be done (exit 2)."""


def _make_backend(args) -> CompletionBackend:
    if args.scripted is not None and args.http is not None:
        raise UsageError("choose exactly one of --scripted / --http")
    if args.scripted is not None:
        return load_scripted_rules(args.scripted)
    if args.http is None:
        raise UsageError("one of --scripted / --http is required")
    endpoint = args.http or os.environ.get("AGWF_ENDPOINT", "")
    try:
        return http_chat_backend(endpoint, os.environ.get("AGWF_API_KEY", ""))
    except ValueError as exc:
        raise UsageError(f"--http (or AGWF_ENDPOINT): {exc}") from exc


def _escaped_states(record: ExecutionRecord) -> list[memoryview]:
    """Each state's JSON-escaped text, without quotes, as a slice of one
    escaped copy of the final state.

    JSON escaping maps each code point on its own, so escaping the final
    state one appended segment at a time gives its escaped text, and at
    each segment's end the escaped end of a state.
    """
    ends = record.state_ends
    pieces = [json.dumps(record.final_state[start:end])[1:-1]
              for start, end in zip((0, *ends), ends)]
    text = memoryview("".join(pieces).encode("ascii"))
    return [text[:end] for end in accumulate(map(len, pieces))]


def _write_states(out, states: list[memoryview]) -> None:
    """The states array as json.dump(indent=2) writes it one level deep."""
    separator = b'[\n    "'
    for state in states:
        out.write(separator)
        out.write(state)
        separator = b'",\n    "'
    out.write(b'"\n  ]')


def _write_details(out, record: ExecutionRecord, details: dict,
                   states: list[memoryview]) -> None:
    """record_to_dict's details as json.dump(indent=2) writes them with
    each sent prompt spelled out, two levels deep.  The i-th detail's task
    ran on states[i], so a sent prompt is written as its escaped head,
    that escaped state and its escaped tail."""
    if not details:
        out.write(b"{}")
        return
    separator = b"{\n    "
    for state, (task_id, detail) in zip(states, details.items()):
        out.write(separator + json.dumps(task_id).encode() + b": {")
        prompts = record.prompt_parts(task_id)
        comma = b"\n      "
        for key, value in detail.items():
            out.write(comma + json.dumps(key).encode() + b": ")
            parts = prompts.get(key)
            if parts is None:
                out.write(json.dumps(value).encode())
            else:
                head, tail = parts
                out.write(json.dumps(head)[:-1].encode())
                out.write(state)
                out.write(json.dumps(tail)[1:].encode())
            comma = b",\n      "
        out.write(b"\n    }")
        separator = b",\n    "
    out.write(b"\n  }")


def _write_transcript(path: Path, record: ExecutionRecord, error: str | None) -> None:
    """json.dump(mirror, indent=2) and a newline, byte for byte, where
    mirror is record_to_dict(record) with the states after task_sequence
    and each prompt spelled out, plus aborted and error."""
    payload = record_to_dict(record)
    payload["aborted"] = error is not None
    payload["error"] = error
    states = _escaped_states(record)
    encoder = json.JSONEncoder(indent=2)
    with open(path, "wb") as out:
        separator = b"{\n  "
        for key, value in payload.items():
            out.write(separator + encoder.encode(key).encode() + b": ")
            if key == "details":
                _write_details(out, record, value, states)
            else:
                for chunk in encoder.iterencode(value):
                    out.write(chunk.replace("\n", "\n  ").encode())
            if key == "task_sequence":
                out.write(b',\n  "states": ')
                _write_states(out, states)
            separator = b",\n  "
        out.write(b"\n}\n")


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
        if record.details[task_id].tool_output.startswith(TOOL_ERROR)
    ]
    if tool_failures:
        print(f"tool failures recorded for: {', '.join(tool_failures)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_validate(args) -> int:
    violations = validate(load_workflow(args.workflow))
    for violation in violations:
        print(str(violation))
    if violations:
        return EXIT_FAILURE
    print("workflow is valid")
    return EXIT_OK


def cmd_run(args) -> int:
    spec = load_workflow(args.workflow)
    backend = _make_backend(args)
    output = Path(args.output) if args.output else None
    if output and (output.is_dir() or not output.parent.is_dir()):
        # checked before any backend call, so a bad path spends no request
        raise UsageError(f"--output needs a file in an existing directory; got {str(output)!r}")
    try:
        record, error = execute(spec, args.inquiry, backend), None
    except InvalidWorkflow as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        return EXIT_FAILURE
    except ExecutionAborted as exc:
        record, error = exc.record, str(exc)
        print(f"execution aborted: {error}", file=sys.stderr)
    finally:
        backend.close()
    if output:
        _write_transcript(output, record, error)
    return EXIT_FAILURE if error is not None else _report_record(record, args.verbose)


def cmd_abstract(args) -> int:
    if args.top_k is not None and args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    log = read_log(args.log)
    if args.kind == "dfg":
        print(abstract_dfg(discover_dfg(log), args.top_k or DEFAULT_DFG_TOP_K))
    else:
        print(abstract_variants(discover_variants(log), args.top_k or DEFAULT_VARIANTS_TOP_K))
    return EXIT_OK


def cmd_demo(args) -> int:
    """`run` on the bundle's workflow and inquiry, with its rules unless --http."""
    workflow, rules, args.inquiry = demos.bundle(args.name)
    args.workflow = str(workflow)
    if args.http is None:
        args.scripted = args.scripted or str(rules)
    return cmd_run(args)


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
    p_demo.add_argument("--scripted", nargs="?", const="", metavar="RULES",
                        help="scripted-rules file (default: the bundled rules)")
    p_demo.add_argument("--http", nargs="?", const="", metavar="URL")
    p_demo.add_argument("--output", help="write the JSON transcript here")
    p_demo.add_argument("-v", "--verbose", action="store_true")
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, OSError, WorkflowConfigError, EventLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
