"""The bytes `agwf run --output` writes.

The oracle is ``json.dumps(mirror, indent=2) + "\\n"``, where ``mirror`` is
built here from the execution record with every state materialized, so the
writer's streaming of the states is checked against the plain encoder.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf import cli
from agwf.agents import ScriptedBackend, rule
from agwf.demos import BUNDLE_NAMES, bundle
from agwf.workflow_engine import ExecutionAborted, ExecutionRecord, execute

from conftest import chain_spec
from test_workflow_engine import routed_workflows, scripted

#: text that JSON escapes in every way it can: quotes, backslashes, control
#: characters, DEL, non-ASCII, a non-BMP character, U+2028 and a lone surrogate
SPECIAL = ['"', "\\", "\n", "\t\r\b\f\x00\x1f", "\x7f", "é", "😀", " ", "\ud800", "plain"]


def mirror(record: ExecutionRecord, error: str | None) -> dict:
    return {
        "task_sequence": list(record.task_sequence),
        "states": list(record.states),
        "details": {tid: dataclasses.asdict(d) for tid, d in record.details.items()},
        "memory_final": {
            key: {
                "type": "event_log",
                "source_name": log.source_name,
                "trace_count": len(log.traces),
                "event_count": sum(len(t.events) for t in log.traces),
            }
            for key, log in record.memory_final.items()
        },
        "aborted": error is not None,
        "error": error,
    }


def run_and_capture(argv: list[str]) -> tuple[int, ExecutionRecord, str | None]:
    """cli.main(argv), plus the record and error its run produced."""
    captured = []
    real_execute = cli.execute

    def capturing(*args):
        try:
            record = real_execute(*args)
        except ExecutionAborted as exc:
            captured.append((exc.record, str(exc)))
            raise
        captured.append((record, None))
        return record

    with mock.patch.object(cli, "execute", capturing), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    (record, error), = captured
    return code, record, error


def assert_transcript_matches(argv: list[str], output: Path) -> int:
    code, record, error = run_and_capture([*argv, "--output", str(output)])
    expected = (json.dumps(mirror(record, error), indent=2) + "\n").encode()
    assert output.read_bytes() == expected
    return code


def run_spec(spec, inquiry: str, backend: ScriptedBackend, output: Path) -> int:
    """`agwf run` with the workflow and rules loaders answering spec and backend.

    The inquiry is passed as ``--inquiry=TEXT`` so that text starting with a
    dash is taken as the value, not as another option.
    """
    with mock.patch.object(cli, "load_workflow", lambda _: spec), \
            mock.patch.object(cli, "load_scripted_rules", lambda _: backend):
        return assert_transcript_matches(
            ["run", "workflow.json", f"--inquiry={inquiry}", "--scripted", "rules.json"], output)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_demo_transcripts_match_the_plain_encoder(name, tmp_path):
    assert assert_transcript_matches(["demo", name], tmp_path / "t.json") == 0


def test_escaped_replies_match_the_plain_encoder(tmp_path):
    ids = [f"t{j}" for j in range(len(SPECIAL))]
    backend = ScriptedBackend([rule(f"Task: carry out step {tid}\n", f"{text * 3} end")
                               for tid, text in zip(ids, SPECIAL)])
    code = run_spec(chain_spec(*ids), "".join(SPECIAL), backend, tmp_path / "t.json")
    assert code == 0
    # the escaped reply sits in the transcript as json.dumps writes it
    assert json.dumps("😀" * 3)[1:-1] in (tmp_path / "t.json").read_text()


@settings(max_examples=100, deadline=None)
@given(routed_workflows(), st.data())
def test_routed_runs_match_the_plain_encoder(workflow, data):
    spec, replies, _ = workflow
    text = st.lists(st.sampled_from(SPECIAL) | st.text(max_size=4), max_size=5).map("".join)
    replies = {tid: [data.draw(text) + "\n" + answer if answer == "ok" else answer
                     for answer in answers]
               for tid, answers in replies.items()}
    if data.draw(st.booleans()):  # an empty reply aborts the run there
        tid = data.draw(st.sampled_from(sorted(replies)))
        replies[tid] = replies[tid][:data.draw(st.integers(1, len(replies[tid])))] + [""]
    with tempfile.TemporaryDirectory() as work:
        run_spec(spec, data.draw(text), scripted(replies), Path(work) / "t.json")


# ---------------------------------------------------------------------------
# The writer does not build the states
# ---------------------------------------------------------------------------

def test_a_run_writes_its_transcript_without_reading_record_states(tmp_path, monkeypatch):
    def refuse(_):
        raise AssertionError("ExecutionRecord.states was read")

    monkeypatch.setattr(ExecutionRecord, "states", property(refuse), raising=False)
    workflow, rules, inquiry = bundle("anomaly")
    output = tmp_path / "t.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(workflow), "--inquiry", inquiry, "--scripted", str(rules),
                         "--output", str(output)])
    assert code == 0
    assert len(json.loads(output.read_text())["states"]) == 5


def test_a_long_run_holds_no_separate_states(tmp_path):
    """Execute plus transcript write on a 200-task chain with 1 KB replies.

    Every prompt carries the state it was built on, so the prompts alone
    hold about 100 final states' worth of text.  Separate state strings
    would add about as much again; one final state plus offsets adds next
    to nothing.
    """
    ids = [f"t{j:03d}" for j in range(200)]
    reply = "r" * 1000
    tracemalloc.start()
    try:
        record = execute(chain_spec(*ids), "Q", ScriptedBackend([], fallback=reply))
        cli._write_transcript(tmp_path / "t.json", record, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prompts = sum(len(detail.prompt_sent) for detail in record.details.values())
    final = len(record.final_state)
    assert prompts > 90 * final
    assert peak < prompts + 20 * final
