"""A fixed pure-Python job that gauges how fast the host runs Python right now.

The benchmark's host is a VM that shares its cores with other tenants, and
the speed at which it runs Python code drifts by up to 2x over seconds to
minutes.  run.py times this job between operations and rescales each
operation's wall time by it (see README.md, "Steadiness on a shared host").

The job imports nothing from agwf and its inputs do not depend on the seed,
so its cost does not move with the program's.  It does the kinds of work an
`agwf run` does: it parses XML with ElementTree, builds dicts of attributes,
parses timestamps, counts and sorts pairs, scans a long string with a
regular expression and grows a string by appending.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
import xml.etree.ElementTree as ET
from datetime import datetime

#: the job's usual time on the 2-vCPU VM the benchmark was built on;
#: rescaled times are seconds on a host that runs the job this fast
NOMINAL_S = 0.015


def _document() -> str:
    rng = random.Random(0)
    parts = ["<log>"]
    for case in range(120):
        parts.append(f'<trace><string key="concept:name" value="case-{case}"/>')
        for day in range(1, 13):
            parts.append(
                f'<event><string key="concept:name" value="Activity {rng.randrange(30)}"/>'
                f'<date key="time:timestamp" '
                f'value="2024-05-{day:02d}T08:{rng.randrange(60):02d}:00+00:00"/></event>')
        parts.append("</trace>")
    parts.append("</log>")
    return "".join(parts)


def _text() -> str:
    rng = random.Random(1)
    words = ["the", "log", "group", "@protected", "edge", "variant", "case",
             "data/log.xes", "frequency", "->", "(12)", "mean", "3.5h"]
    return " ".join(rng.choice(words) for _ in range(12_000))


DOCUMENT = _document()
TEXT = _text()
PATH = re.compile(r"(?<![\w@])[\w./-]+\.(?:xes|csv)\b")
REFERENCE = re.compile(r"@(\w+)")


def job() -> tuple[int, int, int]:
    root = ET.fromstring(DOCUMENT)
    edges: dict[tuple[str, str], int] = {}
    for trace in root:
        events = []
        for event in trace.iter("event"):
            attributes = {a.get("key"): a.get("value") for a in event}
            events.append((datetime.fromisoformat(attributes["time:timestamp"]),
                           attributes["concept:name"]))
        events.sort()
        for (_, a), (_, b) in zip(events, events[1:]):
            edges[a, b] = edges.get((a, b), 0) + 1
    ranked = sorted(edges.items(), key=lambda kv: (-kv[1], kv[0]))
    state = ""
    for line in TEXT[:20_000].split(" -> "):
        state += f"## Section\n{line}\n"
    found = len(PATH.findall(TEXT)) + len(REFERENCE.findall(state))
    return len(ranked), found, len(json.dumps(ranked))


def timed() -> float:
    """Wall seconds of one run of the job."""
    gc.collect()
    start = time.perf_counter()
    job()
    return time.perf_counter() - start
