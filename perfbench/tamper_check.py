#!/usr/bin/env python3
"""Shows that each workload's check rejects a tampered transcript.

    python3 perfbench/tamper_check.py

Runs one operation of anomaly-csv, fairness-xes and review-chain, checks
that the untouched transcript passes, then changes one edge frequency, one
group size and drops one task from the sequence respectively, and checks
that the workload's check rejects the result.  Exits 1 if any check lets a
tampered transcript through.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import run


def bump_first_frequency(transcript: dict) -> None:
    detail = transcript["details"]["dfg_insights"]
    detail["tool_output"] = re.sub(r"freq=(\d+)", lambda m: f"freq={int(m[1]) + 1}",
                                   detail["tool_output"], count=1)


def bump_group_size(transcript: dict) -> None:
    detail = transcript["details"]["identify_groups"]
    detail["tool_output"] = re.sub(r"protected=(\d+)", lambda m: f"protected={int(m[1]) + 1}",
                                   detail["tool_output"], count=1)


def drop_task(transcript: dict) -> None:
    del transcript["task_sequence"][len(transcript["task_sequence"]) // 2]


TAMPERS = {"anomaly-csv": bump_first_frequency, "fairness-xes": bump_group_size,
           "review-chain": drop_task}


SEED = 1


def main() -> int:
    problem = run.use_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    work = run.work_dir()
    failures = 0
    for name, tamper in TAMPERS.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            workload = run.prepare(name, SEED, work)
            code, _, problem = run.run_operation(workload)
            transcript = json.loads(workload.transcript.read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        tamper(transcript)
        verdict = workload.check(transcript)
        ok = code == 0 and problem is None and verdict is not None
        failures += not ok
        print(f"{name}: untouched {'passes' if problem is None else 'FAILS: ' + problem}; "
              f"{tamper.__name__} {'rejected: ' + verdict if verdict else 'NOT rejected'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
