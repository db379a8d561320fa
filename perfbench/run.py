#!/usr/bin/env python3
"""Benchmark of `agwf run`, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
src/agwf.  An operation is one `agwf run WORKFLOW --inquiry ... (--scripted
RULES | --http URL) --output TRANSCRIPT` driven through agwf.cli.main in
this process: one client, closed loop, one operation at a time.  Every
operation's transcript is checked (outside the timed interval) against
figures computed from the generator's own traces and plan.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (run_s, setup_s, peak_mem_mb, prompt_kchars); with
--trace 1 it holds the per-layer metrics of a traced run.  The two times,
run_s and setup_s, are rescaled by a reference job timed next to them
(reference.py), because the host's speed drifts.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("anomaly-csv", "fairness-xes", "review-chain", "review-chain-http")
SETUP_REPEATS = 11
MIN_TIMED_OPS = 3
#: files of the checkout the benchmark needs; without them it refuses to run
NEEDED = ("src/agwf/cli.py", "src/agwf/data/anomaly_workflow.json",
          "src/agwf/data/fairness_workflow.json", "scripts/make_demo_fixtures.py")


class StubServer:
    """The chat-completions stub in a process of its own."""

    def __init__(self, replies_path: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(replies_path)],
            stdout=subprocess.PIPE, text=True)
        self.port = int(self.process.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def control(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, f"/control/{path}")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        try:
            self.control("POST", "stop")
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


@dataclass
class Workload:
    argv: list[str]                      # `agwf run` arguments of one operation
    check: Callable[[dict], str | None]  # transcript -> problem or None
    setup_argv: list[str]                # setup_probe.py arguments
    log_path: Path
    transcript: Path
    stub: StubServer | None = None
    expected_requests: int = 0
    verified: set[bytes] = field(default_factory=set)  # digests of checked transcripts


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under work/ and build its checks."""
    import checks
    import inputs

    data = ROOT / "src" / "agwf" / "data"
    transcript = work / "transcript.json"
    if name == "anomaly-csv":
        traces = inputs.make_traces(seed, inputs.ANOMALY_CASES)
        log = work / "log.csv"
        inputs.write_csv(log, traces)
        expected = {"dfg": checks.render_dfg(traces, 25),
                    "variants": checks.render_variants(traces, 15)}
        inquiry = f"List the rule violations in the process recorded at {log}."
        workflow, rules = data / "anomaly_workflow.json", data / "anomaly_rules.json"
        check = partial(checks.check_anomaly, inquiry=inquiry, expected=expected)
    elif name == "fairness-xes":
        traces = inputs.make_traces(seed, inputs.FAIRNESS_CASES)
        log = work / "log.xes"
        inputs.write_xes_quietly(log, traces)
        groups = checks.split_by_gender(traces)
        expected = {"split": checks.split_summary(groups),
                    "comparison": checks.render_comparison(*groups.values())}
        inquiry = ('predicate: gender = "F"\n'
                   "store_as: protected,non_protected\n"
                   "groups: @protected,@non_protected\n"
                   "Assess whether the process treats the protected group differently "
                   f"from everyone else. The event log is at {log}.")
        workflow, rules = data / "fairness_workflow.json", data / "fairness_rules.json"
        check = partial(checks.check_fairness, inquiry=inquiry, expected=expected)
    else:
        traces = inputs.make_traces(seed, inputs.CHAIN_CASES)
        log = work / "log.xes"
        inputs.write_xes_quietly(log, traces)
        plan = inputs.chain_plan(seed)
        inquiry = inputs.chain_inquiry(log)
        workflow, rules = work / "workflow.json", work / "rules.json"
        inputs.write_json(workflow, inputs.chain_workflow())
        inputs.write_json(rules, inputs.chain_rules(plan))
        check = checks.ChainChecker(plan, inquiry, traces)
    argv = ["run", str(workflow), "--inquiry", inquiry, "--output", str(transcript)]
    scripted = ["--scripted", str(rules)]
    workload = Workload(argv + scripted, check, [str(workflow), *scripted], log, transcript)
    if name == "review-chain-http":
        # the reference: the scripted run of the same workflow and replies,
        # checked in full; every HTTP transcript must equal it byte for byte
        code, _, problem = run_operation(workload)
        if code != 0 or problem:
            raise RuntimeError(f"scripted reference run failed: exit {code}, {problem}")
        replies = work / "replies.json"
        inputs.write_json(replies, [{"expect": c.expect, "reply": c.reply} for c in plan.calls])
        workload.stub = StubServer(replies)
        workload.argv = argv + ["--http", workload.stub.url]
        workload.setup_argv = [str(workflow), "--http", workload.stub.url]
        workload.expected_requests = len(plan.calls)
    return workload


def run_operation(workload: Workload, call=None) -> tuple[int, float, str | None]:
    """One `agwf run`; returns exit code, seconds and the check's verdict."""
    import agwf.cli as cli

    def operation() -> int:
        return cli.main(workload.argv)

    if workload.stub:
        workload.stub.control("POST", "reset")
    gc.collect()
    errors = io.StringIO()
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(errors):
        started = time.perf_counter()
        code = call(operation) if call else operation()
        seconds = time.perf_counter() - started
    if code != 0:
        return code, seconds, f"exit {code}: {errors.getvalue().strip()[-300:]}"
    return code, seconds, verify(workload)


def verify(workload: Workload) -> str | None:
    raw = workload.transcript.read_bytes()
    digest = hashlib.sha256(raw).digest()
    problem = None
    if workload.stub:
        stats = workload.stub.control("GET", "stats")
        if stats["mismatches"] or stats["requests"] != workload.expected_requests:
            problem = (f"stub saw {stats['requests']} requests "
                       f"({stats['mismatches']} unexpected), the plan predicts "
                       f"{workload.expected_requests}")
    if problem is None and digest not in workload.verified:
        if workload.stub:
            problem = "transcript differs from the scripted transcript of the same replies"
        else:
            problem = workload.check(json.loads(raw))
            if problem is None:
                workload.verified.add(digest)
    return problem


def setup_times(workload: Workload) -> list[dict]:
    """Set-up in fresh interpreters; the reference job is timed around each."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    stick = Yardstick()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *workload.setup_argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if Path(result["module"]).resolve() != (ROOT / "src" / "agwf" / "cli.py").resolve():
            raise RuntimeError(f"set-up imported {result['module']}, not the checkout's agwf")
        result["scaled_setup_s"] = stick.rescale(result["setup_s"])
        runs.append(result)
    return runs


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


class Tally:
    """Operations attempted and failed, and the first problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = False

    def run(self, workload: Workload, call=None) -> float | None:
        """One counted operation: its seconds, or None when it failed."""
        code, seconds, problem = run_operation(workload, call)
        self.attempted += 1
        if problem is None:
            return seconds
        self.failed += 1
        self.wrong = self.wrong or code == 0
        if self.failed <= 3:
            print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)
        return None


def prompt_and_memory(workload: Workload, tally: Tally) -> tuple[float, float]:
    """Peak traced heap (MB) and prompt characters (k) of one operation."""
    import agwf.agents as agents

    sent, peak = [0], [0]

    def measured(operation):
        tracemalloc.start()
        try:
            return operation()
        finally:
            peak[0] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    patched = []
    for cls in (agents.ScriptedBackend, agents.HttpChatBackend):
        original = cls.__dict__["complete"]

        def counted(self, role_prompt, user_prompt, *args, _original=original, **kwargs):
            sent[0] += len(role_prompt) + len(user_prompt)
            return _original(self, role_prompt, user_prompt, *args, **kwargs)
        patched.append((cls, original))
        cls.complete = counted
    try:
        tally.run(workload, call=measured)
    finally:
        for cls, original in patched:
            cls.complete = original
    return peak[0] / 1e6, sent[0] / 1e3


def parse_peak_ratio(log_path: Path) -> float:
    """Peak traced bytes of one parse of the workload's log over its size."""
    from agwf.event_log import DEFAULT_CSV_MAPPING, parse_csv, parse_xes

    text = log_path.read_text()
    gc.collect()
    tracemalloc.start()
    try:
        if log_path.suffix == ".csv":
            parse_csv(text, DEFAULT_CSV_MAPPING, source_name=str(log_path))
        else:
            parse_xes(text, source_name=str(log_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(text.encode())


def timed_loop(seconds: float, step) -> None:
    """Call step() until the run's seconds are spent, and at least MIN_TIMED_OPS times."""
    deadline = time.perf_counter() + seconds
    steps = 0
    while time.perf_counter() < deadline or steps < MIN_TIMED_OPS:
        step()
        steps += 1


class Yardstick:
    """Rescales operation times by the reference job timed on each side of them.

    The host's speed drifts by up to 2x over seconds to minutes, and an
    operation's wall time drifts with it.  The reference job, timed just
    before and just after the operation, drifts alike, so the ratio of the
    two, times the job's nominal time, moves only with the program.
    """

    def __init__(self):
        import reference

        self.reference = reference
        self.before = reference.timed()
        self.walls: list[float] = []
        self.gauges: list[float] = []

    def rescale(self, seconds: float | None) -> float | None:
        """The seconds of the operation that has just ended, rescaled."""
        after = self.reference.timed()
        gauge = (self.before + after) / 2
        self.before = after
        if seconds is None:
            return None
        self.walls.append(seconds)
        self.gauges.append(gauge)
        return seconds * self.reference.NOMINAL_S / gauge

    def report(self, label: str) -> None:
        if self.walls:
            print(f"{label}: median wall time {statistics.median(self.walls):.4f} s, "
                  f"median reference job {statistics.median(self.gauges):.4f} s, "
                  f"{len(self.walls)} operations", file=sys.stderr)


def run_time(times: list) -> float:
    """The median of the successful operations' rescaled times."""
    times = [t for t in times if t is not None]
    if not times:
        raise RuntimeError("no operation succeeded")
    return statistics.median(times)


def end_to_end(workload: Workload, seconds: float, tally: Tally) -> dict:
    setup = setup_times(workload)
    # the untimed probe operation also warms up the process for the timed ones
    peak_mb, prompt_kchars = prompt_and_memory(workload, tally)
    times = []
    stick = Yardstick()
    timed_loop(seconds, lambda: times.append(stick.rescale(tally.run(workload))))
    stick.report("timed operations")
    return {
        "run_s": (run_time(times), "s"),
        "setup_s": (median_of(setup, "scaled_setup_s"), "s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "prompt_kchars": (prompt_kchars, "kchar"),
    }


def per_layer(workload: Workload, seconds: float, tally: Tally, trace_file: Path) -> dict:
    from tracing import Tracer, layer_metrics

    setup = setup_times(workload)
    tally.run(workload)  # warm-up
    ratio = parse_peak_ratio(workload.log_path)
    tracer = Tracer()
    plain, traced, stubs, transcript_mb = [], [], [], []
    stick = Yardstick()

    def step():
        # untraced and traced operations alternate, so both see the same machine
        plain.append(stick.rescale(tally.run(workload)))
        traced.append(stick.rescale(tally.run(workload, call=tracer.run)))
        transcript_mb.append(workload.transcript.stat().st_size / 1e6)
        if workload.stub:
            stubs.append(workload.stub.control("GET", "stats"))

    timed_loop(seconds, step)
    tracer.write(trace_file)
    ops = tracer.per_operation()
    for op in ops:
        if sum(op["self"].values()) != op["wall"]:
            tally.wrong = True
            print("layer self times do not add up to the operation's wall time",
                  file=sys.stderr)
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(ops).items()}

    def stub_mean(key):
        return statistics.fmean(s[key] for s in stubs) if stubs else 0.0
    connections = stub_mean("connections")
    metrics.update({
        "event_log.parse_peak_ratio": (ratio, "ratio"),
        "agents.http_connections": (connections, "count"),
        "agents.requests_per_connection":
            (stub_mean("requests") / connections if connections else 0.0, "ratio"),
        "agents.request_mb": (stub_mean("request_bytes") / 1e6, "MB"),
        "cli.transcript_mb": (statistics.fmean(transcript_mb), "MB"),
        "cli.import_s": (median_of(setup, "import_s"), "s"),
        "workflow_config.load_workflow_s": (median_of(setup, "load_workflow_s"), "s"),
        "workflow_config.load_rules_s": (median_of(setup, "load_rules_s"), "s"),
        "trace.op_s": (statistics.fmean(op["wall"] for op in ops) / 1e9, "s"),
        "trace.overhead_s": (run_time(traced) - run_time(plain), "s"),
    })
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def work_dir() -> Path:
    """A directory of this process's own, with a path of the same length in
    every run: the log path is part of every prompt."""
    return ROOT / ".perfbench" / f"inputs-{os.getpid():07d}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = work_dir()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    workload = None
    try:
        workload = prepare(name, seed, work)
        if trace:
            trace_file = ROOT / ".perfbench" / f"trace-{name}-{seed}.jsonl"
            metrics = per_layer(workload, seconds, tally, trace_file)
        else:
            metrics = end_to_end(workload, seconds, tally)
    finally:
        if workload is not None and workload.stub is not None:
            workload.stub.close()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def use_checkout() -> str | None:
    """Put the checkout's src/ and scripts/ first on sys.path.

    Returns what is wrong when the working directory is not the root of an
    agwf checkout; an agwf installed elsewhere is never measured instead.
    """
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        return f"run from the root of an agwf checkout; missing {', '.join(missing)}"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(HERE)]
    import agwf.cli

    if Path(agwf.cli.__file__).resolve() != (ROOT / "src" / "agwf" / "cli.py").resolve():
        return f"imported {agwf.cli.__file__}, not the checkout's agwf"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    problem = use_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
