"""Seeded inputs for the benchmark workloads, and the ground truth they imply.

Everything here is a pure function of the seed.  The XES logs are written
with ``scripts/make_demo_fixtures.write_xes`` (imported from the checkout),
the CSV log from the same traces.  The generator keeps its traces and the
review-chain plan so that the checks in ``checks.py`` can recompute every
expected tool output without going through agwf.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

# run.py puts the checkout's scripts/ directory on sys.path
from make_demo_fixtures import write_xes

BASE = datetime(2024, 5, 6, 8, 0, 0, tzinfo=timezone.utc)

ACTIVITIES = (
    "Register Request", "Check Stock", "Check Credit", "Assess Risk",
    "Request Documents", "Receive Documents", "Validate Documents",
    "Calculate Price", "Send Quote", "Receive Acceptance", "Create Order",
    "Approve Order", "Reject Order", "Reserve Stock", "Pick Items",
    "Pack Items", "Ship Goods", "Confirm Delivery", "Send Invoice",
    "Receive Payment", "Send Reminder", "Escalate Case", "Contact Customer",
    "Update Record", "Audit Case", "Refund Payment", "Handle Complaint",
    "Close Case", "Archive Case", "Notify Manager",
)
START = "Register Request"
ENDS = ("Close Case", "Archive Case", "Reject Order")
PLANTED = "Extra Check"

#: sizes of each workload's inputs (see README.md for the reasoning)
ANOMALY_CASES = 3000
FAIRNESS_CASES = 3000
CHAIN_CASES = 100
TEMPLATES = 40
MODEL_SEED = 2024
CHAIN_STAGES = 40
REPLY_CHARS = 1000


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def make_traces(seed: int, cases: int) -> list[dict]:
    """Cases drawn from a fixed process model, sampled by the seed.

    The model is TEMPLATES variant templates of 5-25 activities whose
    weights fall by 0.7 per rank, so no two variants near the top-k cut of
    the abstractions are close in count.  The model does not depend on the
    seed, and every template gets its share of the cases by weight, so the
    size of the log, its top edges and variants, and with them the work and
    the prompt size of one operation, stay the same from seed to seed.  The
    seed picks the order of the cases, their ``gender`` and ``age``
    attributes and their timestamps.
    The planted group difference: every gender="F" case passes through
    ``Extra Check`` right after its first activity, and its gaps are 1.5x
    longer, so the F group has edges of its own and slower transitions.
    Timestamps are whole seconds, so mean durations are exact.
    """
    model = random.Random(MODEL_SEED)
    middle = [a for a in ACTIVITIES if a != START and a not in ENDS]
    templates = []
    for rank in range(TEMPLATES):
        length = 5 + rank * 8 % 21
        body = [model.choice(middle) for _ in range(length - 2)]
        templates.append([START, *body, model.choice(ENDS)])
    weights = [0.7 ** rank for rank in range(TEMPLATES)]
    counts = [int(cases * w / sum(weights)) for w in weights]
    for rank in range(cases - sum(counts)):
        counts[rank] += 1
    schedule = [rank for rank, n in enumerate(counts) for _ in range(n)]
    rng = random.Random(seed)
    rng.shuffle(schedule)
    traces = []
    for i, rank in enumerate(schedule):
        shape = list(templates[rank])
        female = rng.random() < 0.5
        if female:
            shape.insert(1, PLANTED)
            shape.pop(-2)  # keep 5-25 events per case
        moment = BASE + timedelta(seconds=i * 1800 + rng.randint(0, 900))
        events = [(shape[0], moment)]
        for activity in shape[1:]:
            gap = rng.randint(60, 14400)
            moment = moment + timedelta(seconds=gap * 3 // 2 if female else gap)
            events.append((activity, moment))
        traces.append({
            "case_id": f"case_{i + 1:05d}",
            "attributes": {"gender": "F" if female else "M", "age": rng.randint(20, 65)},
            "events": events,
        })
    return traces


def write_xes_quietly(path: Path, traces: list[dict]) -> None:
    # write_xes reports on stdout, which carries the benchmark's result line
    with contextlib.redirect_stdout(io.StringIO()):
        write_xes(path, traces)


def write_csv(path: Path, traces: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "activity", "timestamp", "resource"])
        for trace in traces:
            for index, (activity, moment) in enumerate(trace["events"]):
                writer.writerow([trace["case_id"], activity, moment.isoformat(),
                                 f"clerk_{index % 7}"])


# ---------------------------------------------------------------------------
# Review chain: workflow, rules, reply sequence, plan
# ---------------------------------------------------------------------------

_WORDS = (
    "the cases in this group show a steady flow with occasional rework "
    "between review steps and the waiting time grows when documents arrive "
    "late so the analyst should compare handovers across teams and note any "
    "loop that repeats more than twice before closure while keeping the "
    "evidence short and tied to observed transitions"
).split()

SPLIT = "s00_split"
SELECT_MATCH = "Choose exactly one tool"
TOOLS = ("dfg_discovery", "variants_discovery")
GROUP_KEYS = ("grp_f", "grp_m")


def _filler(rng: random.Random, target: int) -> str:
    words: list[str] = []
    size = 0
    while size < target:
        word = rng.choice(_WORDS)
        words.append(word)
        size += len(word) + 1
    lines = [" ".join(words[i:i + 12]) for i in range(0, len(words), 12)]
    return "\n".join(lines)


@dataclass
class Call:
    """One backend call the plan predicts: a prompt substring and the reply."""

    expect: str
    reply: str


@dataclass
class ChainPlan:
    """Ground truth of one review-chain operation."""

    sequence: list[str]
    appended: dict[str, str]          # text each kept task appends
    skipped: set[str]
    retries: dict[str, int]           # task id -> retries_used
    tools: dict[str, tuple[str, str, int]]  # mine task -> (tool, group key, top_k)
    scores: dict[str, float]
    calls: list[Call]


def stage_ids(k: int) -> tuple[str, str, str, str, str]:
    p = f"s{k:02d}"
    return f"{p}_route", f"{p}_branch_a", f"{p}_branch_b", f"{p}_mine", f"{p}_review"


def chain_workflow() -> dict:
    agents = [
        {"id": "splitter", "role_prompt": "You separate the cases under scrutiny from the rest."},
        {"id": "router", "role_prompt": "You decide which analyst handles the next review step."},
        {"id": "analyst", "role_prompt": "You write short analytical notes about process behaviour."},
        {"id": "miner", "role_prompt": "You read process-mining abstractions and explain them."},
        {"id": "reviewer", "role_prompt": "You grade analytical notes strictly."},
    ]
    tasks = [{
        "id": SPLIT, "kind": "plain", "agent": "splitter", "tools": ["split_log_by_predicate"],
        "instruction": "Split the cases by the predicate and report both group sizes.",
        "expected_output": "Both group sizes.", "prec": [],
    }]
    previous = SPLIT
    for k in range(1, CHAIN_STAGES + 1):
        route, branch_a, branch_b, mine, review = stage_ids(k)
        tasks += [
            {"id": route, "kind": "router", "agent": "router", "prec": [previous],
             "instruction": f"Choose the branch for review stage {k}.",
             "expected_output": "A routing decision."},
            {"id": branch_a, "kind": "plain", "agent": "analyst", "prec": [route],
             "guard": {"router_task_id": route, "expected_route_token": "a"},
             "instruction": f"Write the branch note A for review stage {k}.",
             "expected_output": "A note naming the group to mine."},
            {"id": branch_b, "kind": "plain", "agent": "analyst", "prec": [route],
             "guard": {"router_task_id": route, "expected_route_token": "b"},
             "instruction": f"Write the branch note B for review stage {k}.",
             "expected_output": "A note naming the group to mine."},
            {"id": mine, "kind": "plain", "agent": "miner", "prec": [branch_a, branch_b],
             "tools": list(TOOLS), "callbacks": ["require_nonempty"],
             "instruction": f"Interpret the mined abstraction for review stage {k}.",
             "expected_output": "An interpretation of the abstraction."},
            {"id": review, "kind": "evaluator", "agent": "reviewer", "prec": [mine],
             "evaluator": {"threshold": 6.0, "max_retries": 1, "target_task_id": mine},
             "instruction": f"Grade the interpretation for review stage {k}.",
             "expected_output": "A grade."},
        ]
        previous = review
    return {"schema_version": 1, "agents": agents, "tasks": tasks,
            "initial_task": SPLIT, "final_task": previous}


def chain_inquiry(log_path: Path) -> str:
    # directives first, path last: the split tool must see the path as the
    # last log reference; later branch notes override it with @group keys
    return (
        'predicate: gender = "F"\n'
        f"store_as: {','.join(GROUP_KEYS)}\n"
        f"Review the process recorded at {log_path} stage by stage."
    )


def chain_plan(seed: int) -> ChainPlan:
    """Replies and expected outcome of every task of the review chain.

    Per stage: the router picks a or b; the chosen branch note names a
    group (``@grp_f``/``@grp_m``) and a ``top_k``; the mine task selects a
    tool twice (the evaluator grades the first attempt below its threshold
    and the second above it, so the mine task runs twice).
    """
    rng = random.Random(seed * 7919 + 1)
    sequence = [SPLIT]
    appended: dict[str, str] = {}
    calls: list[Call] = []
    split_reply = "Both groups are stored; their sizes are in the tool summary."
    calls.append(Call("Split the cases by the predicate", split_reply))
    appended[SPLIT] = split_reply
    skipped: set[str] = set()
    retries: dict[str, int] = {}
    tools: dict[str, tuple[str, str, int]] = {}
    scores: dict[str, float] = {}
    for k in range(1, CHAIN_STAGES + 1):
        route, branch_a, branch_b, mine, review = stage_ids(k)
        token = rng.choice("ab")
        route_reply = f"{_filler(rng, REPLY_CHARS // 2)}\nROUTE: {token}"
        calls.append(Call(f"Choose the branch for review stage {k}.", route_reply))
        group = rng.choice(GROUP_KEYS)
        top_k = rng.randint(5, 20)
        branch_reply = (f"{_filler(rng, REPLY_CHARS)}\n"
                        f"Group to mine: @{group}\ntop_k: {top_k}")
        chosen, other = (branch_a, branch_b) if token == "a" else (branch_b, branch_a)
        calls.append(Call(f"Write the branch note {token.upper()} for review stage {k}.",
                          branch_reply))
        appended.update({route: route_reply, chosen: branch_reply, other: "SKIPPED"})
        skipped.add(other)
        for attempt in range(2):
            tool = rng.choice(TOOLS)
            calls.append(Call(SELECT_MATCH,
                              f"{_filler(rng, 100)}\n{tool}"))
            mine_reply = _filler(rng, REPLY_CHARS)
            calls.append(Call(f"Interpret the mined abstraction for review stage {k}.",
                              mine_reply))
            score = round(rng.uniform(2.0, 5.5) if attempt == 0 else rng.uniform(6.5, 9.5), 1)
            review_reply = f"{_filler(rng, REPLY_CHARS // 3)}\nSCORE: {score}"
            calls.append(Call(f"Grade the interpretation for review stage {k}.", review_reply))
        appended.update({mine: mine_reply, review: review_reply})
        tools[mine] = (tool, group, top_k)
        scores[review] = score
        retries.update({mine: 1, review: 1})
        sequence += [route, branch_a, branch_b, mine, review]
    return ChainPlan(sequence, appended, skipped, retries, tools, scores, calls)


def chain_rules(plan: ChainPlan) -> dict:
    """A handful of per-kind rules whose response sequences replay the plan."""
    matches = ["Split the cases by the predicate", "Decide which branch should handle",
               "Write the branch note", "Interpret the mined abstraction",
               "Grade the interpretation", SELECT_MATCH]
    responses: dict[str, list[str]] = {m: [] for m in matches}
    for call in plan.calls:
        if call.expect == SELECT_MATCH:
            key = SELECT_MATCH
        elif call.expect.startswith("Choose the branch"):
            key = "Decide which branch should handle"
        else:
            key = next(m for m in matches if call.expect.startswith(m))
        responses[key].append(call.reply)
    return {"rules": [{"match": m, "responses": responses[m]} for m in matches],
            "fallback": ""}


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n")
