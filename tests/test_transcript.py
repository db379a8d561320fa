"""The bytes `agwf run --output` writes.

The oracle is ``json.dumps(mirror, indent=2) + "\\n"``, where ``mirror`` is
built here from the execution record with every state and prompt
materialized, so the writer's streaming of them is checked against the
plain encoder.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import signal
import stat
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf import cli
from agwf.agents import Prompt, ScriptedBackend, rule
from agwf.demos import BUNDLE_NAMES, bundle
from agwf.pm_tools import Tool, ToolRegistry
from agwf.task_kinds import EVALUATOR
from agwf.workflow_engine import EvaluatorConfig, ExecutionAborted, ExecutionRecord, execute

from conftest import chain_spec, joined_prompt, plain_task, replace, spec_of
from test_workflow_engine import routed_workflows, scripted

#: text that JSON escapes in every way it can: quotes, backslashes, control
#: characters, DEL, non-ASCII, a non-BMP character, U+2028 and a lone surrogate
SPECIAL = ['"', "\\", "\n", "\t\r\b\f\x00\x1f", "\x7f", "é", "😀", " ", "\ud800", "plain"]


def mirror(record: ExecutionRecord, error: str | None) -> dict:
    return {
        "task_sequence": list(record.task_sequence),
        "states": list(record.states),
        "details": {
            tid: {
                "selected_tool": d.selected_tool,
                "tool_output": d.tool_output,
                "prompt_sent": joined_prompt(record, tid),
                "raw_response": d.raw_response,
                "retries_used": d.retries_used,
                "skipped": d.skipped,
                "score": d.score,
                "low_quality": d.low_quality,
                "selection_prompt": joined_prompt(record, tid, "selection"),
            }
            for tid, d in record.details.items()
        },
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


#: SHA-256 of each demo's transcript and of its stdout, with the bundle data
#: directory written as DATA_DIRECTORY
DEMO_DIGESTS = {
    "fairness": ("e9db028008acc737a50f55de8242bb6e557a767c44568e711f56bd89a8b49567",
                 "8a03147ed3b7e40a068976456b340ac88fc2d1549cc12e7fa477ba908321ab9b"),
    "rca": ("a168f6b5404c529c57a170e566ef6ca2e17519ae593d1ab75019e34db8f4a1a5",
            "715bb0fd396e60b098d8b0bf3a3a74a5b644f752b1e9f3d178bd6f4d8157a851"),
    "anomaly": ("15c8f37fac0c9bf30225f4d4390c2580cc9b76e56f3dd0e7466faeccd73496df",
                "729170ea9db8ba5c9d2c72c49a6d0dcebf0cb794d25594707ca628b25e319abd"),
}
DATA_DIRECTORY = "<data>"


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_demo_transcripts_and_stdout_are_pinned(name, tmp_path):
    output = tmp_path / "t.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["demo", name, "--output", str(output)]) == 0
    data = str(bundle(name).workflow.parent)
    transcript = output.read_text(encoding="ascii").replace(json.dumps(data)[1:-1], DATA_DIRECTORY)
    printed = stdout.getvalue().replace(data, DATA_DIRECTORY)
    assert (hashlib.sha256(transcript.encode()).hexdigest(),
            hashlib.sha256(printed.encode()).hexdigest()) == DEMO_DIGESTS[name]


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


ESCAPES = "".join(SPECIAL)

#: two tools whose documentation and output hold every escape
TWO_TOOLS = ToolRegistry.of(
    Tool("alpha", f"docs for alpha {ESCAPES}", lambda state, memory: f"alpha saw {ESCAPES}"),
    Tool("beta", "docs for beta", lambda state, memory: f"beta saw {ESCAPES}"),
)


def tool_chain(graded: bool = False):
    """t0, then t1 choosing between alpha and beta, then, if graded, an
    evaluator t2 that may rewind to t1 once."""
    tasks = [plain_task("t0"), plain_task("t1", tool_names=("alpha", "beta"))]
    prec = {"t0": set(), "t1": {"t0"}}
    if graded:
        tasks.append(plain_task("t2", kind=EVALUATOR, evaluator_config=EvaluatorConfig(
            threshold=5.0, target_task_id="t1", max_retries=1)))
        prec["t2"] = {"t1"}
    return spec_of(tasks, prec, "t0", tasks[-1].id, registry=TWO_TOOLS)


#: name -> (workflow, rules ahead of an escape-laden fallback reply, exit
#: code, what the transcript shows happened)
PROMPT_CASES = {
    "selection re-asked": (
        tool_chain(), [rule("Choose exactly one tool", "no tool", "beta")], 0,
        lambda t: t["details"]["t1"]["selected_tool"] == "beta"),
    "selection fails": (
        tool_chain(), [rule("Choose exactly one tool", "banana")], 1,
        lambda t: "named no valid tool" in t["error"] and "t1" not in t["details"]),
    "evaluator rewinds": (
        tool_chain(graded=True), [rule("Choose exactly one tool", "alpha", "beta"),
                                  rule("carry out step t2", "SCORE: 2.0", "SCORE: 9.0")], 0,
        lambda t: t["details"]["t1"]["selected_tool"] == "beta"
        and t["details"]["t1"]["retries_used"] == 1),
    "first task aborts": (
        tool_chain(), [rule("carry out step t0", "")], 1,
        lambda t: t["details"] == {} and t["states"] == [ESCAPES]),
}


@pytest.mark.parametrize("case", PROMPT_CASES)
def test_recorded_prompts_match_the_plain_encoder(case, tmp_path):
    spec, rules, expected, happened = PROMPT_CASES[case]
    backend = ScriptedBackend(rules, fallback=f"noted {ESCAPES}")
    assert run_spec(spec, ESCAPES, backend, tmp_path / "t.json") == expected
    assert happened(json.loads((tmp_path / "t.json").read_text()))


# ---------------------------------------------------------------------------
# The record gives the prompts the backend was sent
# ---------------------------------------------------------------------------

class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps every user prompt it is sent."""

    def __init__(self, rules, fallback: str = ""):
        super().__init__(rules, fallback)
        self.sent: list[str] = []

    def complete(self, role_prompt, user_prompt, **kwargs):
        self.sent.append(user_prompt)
        return super().complete(role_prompt, user_prompt, **kwargs)


def test_the_record_gives_the_prompts_each_task_sent():
    """t0; t1 picks alpha; t2 scores low and rewinds to t1, which names no
    tool, is re-asked and picks beta; t2 passes."""
    backend = RecordingBackend([rule("Choose exactly one tool", "alpha", "no tool", "beta"),
                                rule("carry out step t2", "SCORE: 2.0", "SCORE: 9.0")],
                               fallback=f"noted {ESCAPES}")
    record = execute(tool_chain(graded=True), ESCAPES, backend)
    prompt = functools.partial(joined_prompt, record)
    selection = functools.partial(joined_prompt, record, which="selection")
    states = record.states
    assert record.task_sequence == ("t0", "t1", "t2")
    assert record.details["t1"].selected_tool == "beta"
    sent = [str(call) for call in backend.sent]
    assert len(sent) == 8
    # the rewind dropped t1's and t2's first prompts; the re-ask adds a
    # note to the selection prompt
    assert [*sent[:2], sent[4], *sent[6:]] == [
        prompt("t0"), selection("t1"), selection("t1"), prompt("t1"), prompt("t2")]
    assert sent[5].startswith(selection("t1") + "\nYour previous reply")
    assert sent[2].startswith(states[1] + "\n\n") and "alpha saw" in sent[2]
    # each prompt starts with the state its task ran on
    for tid, state in zip(record.task_sequence, states):
        assert prompt(tid).startswith(state + "\n\n")
    assert selection("t1").startswith(states[1] + "\n\nChoose exactly one tool")
    assert selection("t0") == selection("t2") == ""


#: the note a selection re-ask adds to the selection prompt's own text
REASK = "\nYour previous reply was not a valid tool name. Answer with exactly one of: alpha, beta."


@st.composite
def tool_workflows(draw):
    """routed_workflows() with some non-router tasks choosing between alpha
    and beta, plus the replies of every task and the selection replies in
    turn: each selection names a tool at once, after one re-ask, or never,
    which aborts the run."""
    spec, replies, routers = draw(routed_workflows())
    tasks = tuple([replace(task, tool_names=("alpha", "beta"))
                   if task.id not in routers and draw(st.booleans()) else task
                   for task in spec.tasks])
    selections = draw(st.lists(st.sampled_from((["beta"], ["no tool", "alpha"],
                                                ["no tool", "no tool"])), min_size=1, max_size=4))
    return (replace(spec, tasks=tasks, registry=TWO_TOOLS), replies,
            [reply for selection in selections for reply in selection])


@settings(max_examples=60, deadline=None)
@given(tool_workflows())
def test_every_call_is_its_state_then_a_recorded_text(workflow):
    """Each task's last attempt sent its selection prompt, if any, maybe
    that prompt's re-ask, then its prompt, each a Prompt on the state the
    task ran on; the transcript writer writes the record as the plain
    encoder does."""
    spec, replies, selections = workflow
    backend = RecordingBackend([*scripted(replies).rules,
                                rule("Choose exactly one tool", *selections)])
    try:
        record, error = execute(spec, ESCAPES, backend), None
    except ExecutionAborted as exc:
        record, error = exc.record, str(exc)
    assert all(type(call) is Prompt for call in backend.sent)
    # an attempt sends its selection calls, if any, then its prompt, which
    # names its task; a task's last attempt is the last one naming it
    attempts, selecting = {}, []
    for call in backend.sent:
        _, text = call.parts
        if "Choose exactly one tool" in text:
            selecting.append(call)
        else:
            attempts[re.search(r"Task: carry out step (\S+)\n", text)[1]] = [*selecting, call]
            selecting = []
    assert not selecting or "named no valid tool twice" in error
    for tid, end in zip(record.task_sequence, record.state_ends):
        detail, state = record.details[tid], record.final_state[:end]
        if detail.skipped:
            assert detail.prompt is detail.selection is None
            continue
        expected = [(state, detail.prompt)]
        if detail.selection is not None:
            reasks = [(state, detail.selection + REASK)] * (len(attempts[tid]) == 3)
            expected[:0] = [(state, detail.selection), *reasks]
        assert [call.parts for call in attempts[tid]] == expected
    transcript = cli.record_to_dict(record)
    transcript.update(aborted=error is not None, error=error)
    out = io.BytesIO()
    cli._write_json(out, transcript)
    assert out.getvalue() == json.dumps(mirror(record, error), indent=2).encode()


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
    """Execute plus transcript write on a 200-task chain with 1 KB replies,
    where one task chooses between two tools.

    Every prompt starts with the state it was built on, so the prompts hold
    about 100 final states' worth of text, and separate state strings would
    add about as much again.  One final state plus offsets, prompts held as
    their own text and written from the escaped states, stay within a few
    final states.
    """
    ids = [f"t{j:03d}" for j in range(200)]
    spec = chain_spec(*ids, registry=TWO_TOOLS)
    spec = replace(spec, tasks=tuple(
        replace(task, tool_names=("alpha", "beta")) if task.id == "t100" else task
        for task in spec.tasks))
    backend = ScriptedBackend([rule("Choose exactly one tool", "beta")], fallback="r" * 1000)
    tracemalloc.start()
    try:
        record = execute(spec, "Q", backend)
        cli._write_transcript(tmp_path / "t.json", record, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.details["t100"].selected_tool == "beta"
    prompts = sum(len(joined_prompt(record, tid)) for tid in record.details)
    final = len(record.final_state)
    assert prompts > 90 * final
    assert peak < 10 * final


# ---------------------------------------------------------------------------
# One copy of the state: no layer copies it per call, nor escapes it twice
# ---------------------------------------------------------------------------

#: a 50-task chain whose 20 KB replies escape as they are, so the final
#: state is about 1 MB and its escape as long
LONG_CHAIN = chain_spec(*(f"t{j:02d}" for j in range(50)))


def long_chain_backend() -> ScriptedBackend:
    return ScriptedBackend([], fallback="r" * 20_000)


def traced_peak(call) -> tuple[object, int]:
    """call()'s result and its tracemalloc peak above what was traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_execute_makes_no_per_call_copy_of_the_state():
    """The record's final state, and the next state as append_state builds
    it: no prompt holds a joined copy of the state beside them."""
    record, peak = traced_peak(lambda: execute(LONG_CHAIN, "Q", long_chain_backend()))
    final = len(record.final_state)
    assert final > 1_000_000
    assert peak <= 2.5 * final


def test_the_writer_holds_one_escaped_copy_of_the_final_state():
    record = execute(LONG_CHAIN, "Q", long_chain_backend())
    _, peak = traced_peak(lambda: cli._write_transcript(os.devnull, record, None))
    final = len(record.final_state)
    assert peak <= 1.5 * final


# ---------------------------------------------------------------------------
# The writer writes any value as the plain encoder does
# ---------------------------------------------------------------------------

TEXTS = st.sampled_from(SPECIAL) | st.text(max_size=4)

#: (value, what the plain encoder is given for it): a leaf, the pieces of
#: some texts' escapes, stands for the texts joined
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TEXTS).map(
    lambda value: (value, value))
LEAVES = st.lists(TEXTS, max_size=3).map(lambda texts: (
    cli._Escaped(json.dumps(text)[1:-1].encode() for text in texts), "".join(texts)))
VALUES = st.recursive(SCALARS | LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4).map(
        lambda items: ([value for value, _ in items], [plain for _, plain in items])),
    st.dictionaries(TEXTS, children, max_size=4).map(
        lambda items: ({key: value for key, (value, _) in items.items()},
                       {key: plain for key, (_, plain) in items.items()}))))


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_the_writer_writes_any_value_as_the_plain_encoder(pair):
    value, plain = pair
    out = io.BytesIO()
    cli._write_json(out, value)
    assert out.getvalue() == json.dumps(plain, indent=2).encode()


# ---------------------------------------------------------------------------
# A transcript written over a file that already exists
# ---------------------------------------------------------------------------

# the anomaly demo's transcript is about twice the fairness demo's
@pytest.mark.parametrize("first, second", [("anomaly", "fairness"), ("fairness", "anomaly")])
def test_a_transcript_replaces_a_longer_or_a_shorter_one(first, second, tmp_path):
    output = tmp_path / "t.json"
    assert_transcript_matches(["demo", first], output)
    size = output.stat().st_size
    assert_transcript_matches(["demo", second], output)
    assert (output.stat().st_size < size) == (first == "anomaly")


def test_a_transcript_is_written_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 20_000)
    link.symlink_to(target)
    assert_transcript_matches(["demo", "fairness"], link)
    assert link.is_symlink() and link.readlink() == target


def test_a_hard_link_reads_the_new_transcript(tmp_path):
    output, other = tmp_path / "t.json", tmp_path / "other.json"
    assert_transcript_matches(["demo", "anomaly"], output)
    os.link(output, other)
    inode = output.stat().st_ino
    assert_transcript_matches(["demo", "fairness"], output)
    assert output.stat().st_ino == inode
    assert other.read_bytes() == output.read_bytes()


def test_a_transcript_keeps_its_mode_and_a_new_one_follows_the_umask(tmp_path):
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_bytes(b"x" * 20_000)
    kept.chmod(0o600)
    umask = os.umask(0o027)
    try:
        assert_transcript_matches(["demo", "fairness"], kept)
        assert_transcript_matches(["demo", "fairness"], new)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert stat.S_IMODE(new.stat().st_mode) == 0o640


def test_a_transcript_can_go_to_a_device():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["demo", "fairness", "--output", os.devnull]) == 0


def test_a_write_that_fails_leaves_the_bytes_it_wrote(tmp_path):
    output = tmp_path / "t.json"
    output.write_bytes(b"x" * 20_000)
    record = execute(chain_spec("t1"), "Q", ScriptedBackend([], fallback="r"))

    def failing(out, value):
        out.write(b'{\n  "task_sequence": ')
        raise OSError("no space left")

    with mock.patch.object(cli, "_write_json", failing), pytest.raises(OSError, match="no space"):
        cli._write_transcript(output, record, None)
    assert output.read_bytes() == b'{\n  "task_sequence": '


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(SPECIAL), max_size=12), min_size=2, max_size=4,
                unique_by=lambda value: len(json.dumps(value, indent=2))))
def test_rewrites_of_one_path_leave_exactly_the_last_transcript(values):
    """Transcripts of different lengths written in turn to one path, then
    the last one again, which ends where the file already ends."""
    with tempfile.TemporaryDirectory() as work:
        output = Path(work) / "t.json"
        for value in [*values, values[-1]]:
            with mock.patch.object(cli, "record_to_dict", lambda _: {"value": value}):
                cli._write_transcript(output, None, None)
            expected = {"value": value, "aborted": False, "error": None}
            assert output.read_bytes() == json.dumps(expected, indent=2).encode() + b"\n"


@settings(max_examples=100, deadline=None)
@given(VALUES, st.integers(1, 8))
def test_batches_of_any_size_end_at_any_depth(pair, batch):
    """Nested values, written in batches of 1 to 8 pieces, so that a batch
    ends at every depth and inside every kind of item."""
    value, plain = pair
    batches = []
    real_writev = os.writev

    def writev(fd, buffers):
        batches.append(len(buffers))
        return real_writev(fd, buffers)

    with tempfile.TemporaryDirectory() as work:
        output = Path(work) / "t.json"
        with mock.patch.object(cli, "record_to_dict", lambda _: {"value": value}), \
                mock.patch.object(cli, "_BATCH", batch), mock.patch.object(os, "writev", writev):
            cli._write_transcript(output, None, None)
        expected = {"value": plain, "aborted": False, "error": None}
        assert output.read_bytes() == json.dumps(expected, indent=2).encode() + b"\n"
    assert batches and max(batches) <= batch


# ---------------------------------------------------------------------------
# Short writes, and a system without os.writev
# ---------------------------------------------------------------------------

def test_writev_calls_that_write_7_bytes_each_give_the_whole_transcript(tmp_path):
    """Each os.writev call writes at most 7 bytes of at most _BATCH pieces,
    over a longer file that is then cut."""
    output = tmp_path / "t.json"
    output.write_bytes(b"x" * 40_000)
    batches = []
    real_writev = os.writev

    def at_most_7(fd, buffers):
        batches.append(len(buffers))
        return real_writev(fd, [b"".join(bytes(memoryview(b)[:7]) for b in buffers)[:7]])

    with mock.patch.object(os, "writev", at_most_7):
        assert_transcript_matches(["demo", "anomaly"], output)
    assert len(batches) > output.stat().st_size // 7 and max(batches) <= cli._BATCH


def test_a_transcript_to_a_pipe_finishes_its_short_writes(tmp_path):
    """--output to a FIFO that a thread reads slowly, signalling the main
    thread after each read, so that a writev blocked on the full pipe
    returns having written part of its batch; a FIFO is not cut."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received, writes = [], []
    main = threading.get_ident()

    def read():
        with open(fifo, "rb", buffering=0) as pipe:
            while chunk := pipe.read(16_384):
                received.append(chunk)
                time.sleep(0.001)
                signal.pthread_kill(main, signal.SIGUSR1)

    real_writev = os.writev

    def writev(fd, buffers):
        written = real_writev(fd, buffers)
        writes.append(written < sum(map(len, buffers)))
        return written

    spec = chain_spec(*(f"t{j}" for j in range(10)))
    backend = ScriptedBackend([], fallback="r" * 10_000)
    reader = threading.Thread(target=read)
    handler = signal.signal(signal.SIGUSR1, lambda *_: None)
    reader.start()
    try:
        with mock.patch.object(cli, "load_workflow", lambda _: spec), \
                mock.patch.object(cli, "load_scripted_rules", lambda _: backend), \
                mock.patch.object(os, "writev", writev):
            code, record, error = run_and_capture(
                ["run", "workflow.json", "--inquiry=Q", "--scripted", "rules.json",
                 "--output", str(fifo)])
    finally:
        if reader.is_alive():  # a run that never opened the FIFO: end the reader's open
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join()
        signal.signal(signal.SIGUSR1, handler)
    assert code == 0 and any(writes)
    assert b"".join(received) == (json.dumps(mirror(record, error), indent=2) + "\n").encode()
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_without_writev_each_piece_is_written_in_full(tmp_path, monkeypatch):
    """Where os has no writev (Windows), one os.write a piece, here of at
    most 7 bytes a call, over a longer file that is then cut."""
    output = tmp_path / "t.json"
    output.write_bytes(b"x" * 40_000)
    writes = []
    real_write = os.write

    def at_most_7(fd, data):
        writes.append(fd)
        return real_write(fd, memoryview(data)[:7])

    monkeypatch.delattr(os, "writev")
    monkeypatch.setattr(os, "write", at_most_7)
    assert_transcript_matches(["demo", "anomaly"], output)
    assert len(writes) > output.stat().st_size // 7
