"""Correctness checks on `agwf run` transcripts, computed apart from agwf.

The expected tool outputs are recomputed here from the generator's own
traces: directly-follows counts, variant counts and group comparisons,
rendered in the documented abstraction formats (README.md of agwf,
"Abstraction formats").  Nothing in this module imports agwf.

Every check returns None when the transcript is right, or a one-line
description of the first thing that is wrong.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from inputs import GROUP_KEYS, SPLIT, ChainPlan


def _dfg(traces: list[dict]):
    counts: Counter = Counter()
    seconds: Counter = Counter()
    starts: Counter = Counter()
    ends: Counter = Counter()
    for trace in traces:
        events = trace["events"]
        starts[events[0][0]] += 1
        ends[events[-1][0]] += 1
        for (a, ta), (b, tb) in zip(events, events[1:]):
            counts[(a, b)] += 1
            seconds[(a, b)] += int((tb - ta).total_seconds())
    edges = {edge: (n, seconds[edge] / n) for edge, n in counts.items()}
    return edges, starts, ends


def _counts_line(label: str, counts: Counter) -> str:
    if not counts:
        return f"{label}:"
    return f"{label}: " + ", ".join(f"{a}={n}" for a, n in sorted(counts.items()))


def render_dfg(traces: list[dict], top_k: int) -> str:
    edges, starts, ends = _dfg(traces)
    ordered = sorted(edges.items(), key=lambda kv: (-kv[1][0], kv[0]))
    shown = ordered[:top_k]
    lines = [f"DFG (top {len(shown)} edges of {len(ordered)}):"]
    lines += [f"{a} -> {b} (freq={n}, avg_dur={d:.1f}s)" for (a, b), (n, d) in shown]
    lines += [_counts_line("start", starts), _counts_line("end", ends)]
    return "\n".join(lines)


def render_variants(traces: list[dict], top_k: int) -> str:
    counts = Counter(tuple(a for a, _ in trace["events"]) for trace in traces)
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    shown = ordered[:top_k]
    lines = [f"Variants (top {len(shown)} of {len(ordered)}):"]
    lines += [f"{','.join(seq)} (count={n})" for seq, n in shown]
    return "\n".join(lines)


def render_comparison(group_a: list[dict], group_b: list[dict],
                      threshold: float = 0.05, limit: int = 25) -> str:
    """Edges only in one group, then relative-frequency and duration shifts."""
    edges_a, _, _ = _dfg(group_a)
    edges_b, _, _ = _dfg(group_b)
    total_a = sum(n for n, _ in edges_a.values())
    total_b = sum(n for n, _ in edges_b.values())
    found = []  # (sort key, line)
    for edge in set(edges_a) | set(edges_b):
        head = f"edge {edge[0]} -> {edge[1]}"
        if edge not in edges_b:
            n = edges_a[edge][0]
            found.append(((-n / total_a, edge, "only_in_a"),
                          f"{head}: only in group A (freq {n} vs 0)"))
            continue
        if edge not in edges_a:
            n = edges_b[edge][0]
            found.append(((-n / total_b, edge, "only_in_b"),
                          f"{head}: only in group B (freq 0 vs {n})"))
            continue
        (n_a, dur_a), (n_b, dur_b) = edges_a[edge], edges_b[edge]
        rel_a, rel_b = n_a / total_a, n_b / total_b
        if abs(rel_a - rel_b) > threshold:
            found.append(((-abs(rel_a - rel_b), edge, "frequency_shift"),
                          f"{head}: frequency shift (rel {rel_a:.3f} vs {rel_b:.3f})"))
        scale = max(dur_a, dur_b)
        if scale > 0.0 and abs((dur_a - dur_b) / scale) > threshold:
            found.append(((-abs((dur_a - dur_b) / scale), edge, "duration_shift"),
                          f"{head}: duration shift (avg {dur_a:.1f}s vs {dur_b:.1f}s)"))
    if not found:
        return "no behavioral differences found"
    found.sort()
    return "\n".join(line for _, line in found[:limit])


def split_by_gender(traces: list[dict]) -> dict[str, list[dict]]:
    groups = defaultdict(list)
    for trace in traces:
        key = GROUP_KEYS[0] if trace["attributes"]["gender"] == "F" else GROUP_KEYS[1]
        groups[key].append(trace)
    return {key: groups[key] for key in GROUP_KEYS}


def split_summary(groups: dict[str, list[dict]]) -> str:
    f, m = (len(groups[key]) for key in GROUP_KEYS)
    return f"protected={f} cases, non-protected={m} cases"


# ---------------------------------------------------------------------------
# Transcript checks
# ---------------------------------------------------------------------------

def _first_difference(label: str, got: str, want: str) -> str:
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"{label} line {i + 1}: got {g!r}, expected {w!r}"
    return f"{label}: got {len(got_lines)} lines, expected {len(want_lines)}"


def _check_states(transcript: dict, inquiry: str, sequence: list[str],
                  appended: dict[str, str] | None = None) -> str | None:
    if transcript.get("aborted") or transcript.get("error"):
        return f"run aborted: {transcript.get('error')}"
    got = transcript["task_sequence"]
    if got != sequence:
        at = next((i for i, (g, w) in enumerate(zip(got, sequence)) if g != w),
                  min(len(got), len(sequence)))
        return f"task sequence differs from the plan at position {at} " \
               f"({len(got)} tasks, expected {len(sequence)})"
    states = transcript["states"]
    if len(states) != len(sequence) + 1 or states[0] != inquiry:
        return "states do not start with the inquiry and hold one state per task"
    for i, task_id in enumerate(sequence):
        prefix = f"{states[i]}\n=== output of {task_id} ===\n"
        if not states[i + 1].startswith(prefix):
            return f"state {i + 1} ({task_id}) does not extend state {i}"
        text = states[i + 1][len(prefix):]
        if appended is not None and text != appended[task_id]:
            return f"state {i + 1} ({task_id}) appends other text than the planned reply"
        if not text.strip():
            return f"state {i + 1} ({task_id}) appends nothing"
    return None


def _check_tool(transcript: dict, task_id: str, tool: str, want: str) -> str | None:
    detail = transcript["details"][task_id]
    if detail["selected_tool"] != tool:
        return f"{task_id}: selected {detail['selected_tool']!r}, expected {tool!r}"
    if detail["tool_output"] != want:
        return _first_difference(f"{task_id} tool output", detail["tool_output"], want)
    return None


ANOMALY_SEQUENCE = ["optimize_inquiry", "dfg_insights", "variant_insights", "combine_insights"]
FAIRNESS_SEQUENCE = ["identify_groups", "compare_groups"]


def check_anomaly(transcript: dict, inquiry: str, expected: dict[str, str]) -> str | None:
    """expected: rendered DFG (top 25) and variant table (top 15) of the log."""
    return (_check_states(transcript, inquiry, ANOMALY_SEQUENCE)
            or _check_tool(transcript, "dfg_insights", "dfg_discovery", expected["dfg"])
            or _check_tool(transcript, "variant_insights", "variants_discovery",
                           expected["variants"]))


def check_fairness(transcript: dict, inquiry: str, expected: dict[str, str]) -> str | None:
    """expected: the split summary and the rendered comparison of F vs M."""
    return (_check_states(transcript, inquiry, FAIRNESS_SEQUENCE)
            or _check_tool(transcript, "identify_groups", "split_log_by_predicate",
                           expected["split"])
            or _check_tool(transcript, "compare_groups", "compare_group_dfgs",
                           expected["comparison"]))


class ChainChecker:
    """Checks a review-chain transcript against the generator's plan."""

    def __init__(self, plan: ChainPlan, inquiry: str, traces: list[dict]):
        self.plan = plan
        self.inquiry = inquiry
        self.groups = split_by_gender(traces)
        self._rendered: dict[tuple[str, str, int], str] = {}

    def expected_tool_output(self, tool: str, group: str, top_k: int) -> str:
        key = (tool, group, top_k)
        if key not in self._rendered:
            render = render_dfg if tool == "dfg_discovery" else render_variants
            self._rendered[key] = render(self.groups[group], top_k)
        return self._rendered[key]

    def __call__(self, transcript: dict) -> str | None:
        plan = self.plan
        problem = _check_states(transcript, self.inquiry, plan.sequence, plan.appended)
        if problem:
            return problem
        details = transcript["details"]
        problem = _check_tool(transcript, SPLIT, "split_log_by_predicate",
                              split_summary(self.groups))
        if problem:
            return problem
        for task_id in plan.sequence:
            detail = details[task_id]
            if detail["skipped"] != (task_id in plan.skipped):
                return f"{task_id}: skipped={detail['skipped']}, expected the opposite"
            if detail["retries_used"] != plan.retries.get(task_id, 0):
                return f"{task_id}: retries_used={detail['retries_used']}, " \
                       f"expected {plan.retries.get(task_id, 0)}"
            if task_id in plan.scores and detail["score"] != plan.scores[task_id]:
                return f"{task_id}: score {detail['score']}, expected {plan.scores[task_id]}"
        for task_id, (tool, group, top_k) in plan.tools.items():
            problem = _check_tool(transcript, task_id, tool,
                                  self.expected_tool_output(tool, group, top_k))
            if problem:
                return problem
        return None
