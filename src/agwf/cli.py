"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 execution or validation
failure (including a TOOL-ERROR recorded in an otherwise completed run),
2 usage or parse failure.  Handlers raise; main alone maps a usage,
file, config or log failure to exit 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import demos
from .agents import CompletionBackend, http_chat_backend, json_escape
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
        # the message opens with what is wrong, and a proxy's with its variable
        source = {"endpoint": "--http (or AGWF_ENDPOINT)", "api_key": "AGWF_API_KEY"}.get(
            str(exc).partition(" ")[0])
        raise UsageError(f"{source}: {exc}" if source else str(exc)) from exc


class _Escaped(tuple):
    """A transcript string held as pieces: bytes of its JSON-escaped text,
    without the quotes, or a str that _write_json escapes as it writes it;
    _write_json writes the pieces between quotes."""


def _escaped_states(record: ExecutionRecord) -> list[memoryview]:
    """Each state's JSON-escaped text, without quotes, as a slice of one
    escaped copy of the final state.

    JSON escaping maps each code point on its own, so escaping the final
    state one appended segment at a time, into one growing buffer, gives
    its escaped text, and at each segment's end the escaped end of a state.
    BytesIO.getvalue() hands over that buffer trimmed in place to its
    length, so the copy holds no growth slack.
    """
    escaped, escaped_ends = io.BytesIO(), []
    ends = record.state_ends
    for start, end in zip((0, *ends), ends):
        escaped.write(json_escape(record.final_state[start:end]))
        escaped_ends.append(escaped.tell())
    text = memoryview(escaped.getvalue())
    return [text[:end] for end in escaped_ends]


def record_to_dict(record: ExecutionRecord) -> dict:
    """The transcript of a record but its aborted and error keys.

    Each state is an _Escaped slice of one escaped copy of the final state,
    and each sent prompt is the state its task ran on followed by its own
    text, escaped as it is written; a prompt not sent is "".
    """
    states = _escaped_states(record)
    details = {}
    for task_id, state in zip(record.task_sequence, states):
        d = record.details[task_id]
        prompt, selection = ("" if text is None else _Escaped((state, text))
                             for text in (d.prompt, d.selection))
        details[task_id] = {
            "selected_tool": d.selected_tool,
            "tool_output": d.tool_output,
            "prompt_sent": prompt,
            "raw_response": d.raw_response,
            "retries_used": d.retries_used,
            "skipped": d.skipped,
            "score": d.score,
            "low_quality": d.low_quality,
            "selection_prompt": selection,
        }
    return {
        "task_sequence": list(record.task_sequence),
        "states": [_Escaped((state,)) for state in states],
        "details": details,
        "memory_final": {
            key: {
                "type": "event_log",
                "source_name": log.source_name,
                "trace_count": len(log.traces),
                "event_count": sum(len(t.events) for t in log.traces),
            }
            for key, log in record.memory_final.items()
        },
    }


#: what json.dumps writes for each constant
_CONSTANTS = {None: b"null", True: b"true", False: b"false"}

#: pieces per os.writev call. The pieces of a batch, newly encoded strings
#: among them, are held until it is written, and os.writev holds a 96-byte
#: Py_buffer and iovec for each while it runs: on review-chain, 24 or more
#: raised the peak memory of the run above that of an 8 KiB BufferedWriter,
#: and 20 wrote about as fast as 32
_BATCH = 20


def _write_json(out, value) -> None:
    """Write value to the binary file out as json.dump(value, indent=2)
    writes it, byte for byte, with an _Escaped leaf as the string it
    escapes.

    The pieces are gathered in a list by list.append alone, as a write
    method per piece would cost as much as the writes it saves, and handed
    to out.writelines _BATCH at a time, as each item of a list or dict
    begins, and the rest at the end.
    """
    pieces, keys = [], {}  # keys: each str dict key written so far, encoded, and its colon
    append, batch = pieces.append, _BATCH

    def gather(value, indent: bytes) -> None:  # indent: the newline and indentation of value's line
        if isinstance(value, _Escaped):
            pieces.extend((b'"', *(json_escape(piece) if isinstance(piece, str) else piece
                                   for piece in value), b'"'))
        elif isinstance(value, (dict, list)) and value:
            is_dict = isinstance(value, dict)
            inner = indent + b"  "
            separator = b"," + inner
            append(b"{" if is_dict else b"[")
            for index, item in enumerate(value.items() if is_dict else value):
                if len(pieces) >= batch:
                    out.writelines(pieces[:batch])
                    del pieces[:batch]
                append(separator if index else inner)
                if is_dict:
                    key, item = item
                    if (encoded := keys.get(key)) is None:
                        encoded = keys[key] = json.dumps(key).encode() + b": "
                    append(encoded)
                gather(item, inner)
            append(indent + (b"}" if is_dict else b"]"))
        elif value is None or value is True or value is False:  # 0 == False: not by value
            append(_CONSTANTS[value])
        elif type(value) is str:  # json.dumps(value), without its two Python-level calls
            append(encode_basestring_ascii(value).encode())
        elif type(value) is int:
            append(b"%d" % value)
        else:
            append(json.dumps(value).encode())

    gather(value, b"\n")
    out.writelines(pieces)


class _VectoredFile(io.FileIO):
    """A raw file whose writelines writes by os.writev, at most _BATCH
    pieces a call, or where os has no writev (Windows) by one os.write a
    piece, and finishes short writes, so it returns having written all."""

    def writelines(self, pieces: list) -> None:
        """Write the bytes and byte memoryviews in pieces, in order."""
        fd = self.fileno()
        if not hasattr(os, "writev"):
            for piece in pieces:
                view = memoryview(piece)
                while view:
                    view = view[os.write(fd, view):]
            return
        for start in range(0, len(pieces), _BATCH):
            batch = pieces[start:start + _BATCH]
            left = sum(map(len, batch))
            while (written := os.writev(fd, batch)) < left:
                left -= written
                for index, piece in enumerate(batch):  # find the first piece not written whole
                    if written < len(piece):
                        break
                    written -= len(piece)
                batch = [memoryview(batch[index])[written:], *batch[index + 1:]]


def _write_transcript(path: Path, record: ExecutionRecord, error: str | None) -> None:
    """json.dump of the transcript, indent 2, and a newline: record_to_dict
    with aborted and error. An existing regular file is overwritten in place
    and cut to length, so symlinks, hard links and its mode hold as with "wb".
    """
    transcript = record_to_dict(record)
    transcript["aborted"] = error is not None
    transcript["error"] = error
    # no O_TRUNC: on ext4, truncating a file that was truncated and rewritten
    # waits for that rewrite's writeback
    with _VectoredFile(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as out:
        try:
            _write_json(out, transcript)
            out.write(b"\n")
        finally:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # ftruncate fails on a device
                out.truncate()


def _report_record(record: ExecutionRecord) -> int:
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
    if args.verbose:  # an aborted run's tasks too
        for task_id in record.task_sequence:
            detail = record.details[task_id]
            note = "skipped" if detail.skipped else (detail.selected_tool or "-")
            print(f"[task] {task_id}: {note}", file=sys.stderr)
    return EXIT_FAILURE if error is not None else _report_record(record)


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
    if hasattr(sys.stdout, "reconfigure"):
        # as on stderr: a character stdout cannot encode is written escaped
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, OSError, WorkflowConfigError, EventLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
