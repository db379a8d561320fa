"""A run parses each log file once, and again only when the file changed;
it discovers each log's DFG and variants once."""

from __future__ import annotations

import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf import cli, pm_tools
from agwf.agents import ScriptedBackend, rule
from agwf.demos import bundle, data_path
from agwf.event_log import EventLog
from agwf.pm_tools import TOOL_ERROR, builtin_registry, resolve_log_reference
from agwf.task_kinds import EVALUATOR
from agwf.workflow_config import load_scripted_rules, load_workflow
from agwf.workflow_engine import EntityMemory, EvaluatorConfig, execute

from conftest import make_log, plain_task, spec_of, xes_log_text

CSV_LOG = "case_id,activity,timestamp\nc1,A,2024-03-01T09:00:00\nc1,B,2024-03-01T09:01:00\n"


def counting(monkeypatch, *names: str) -> Counter:
    """Counts the calls of the named functions the tools reach through pm_tools."""
    calls: Counter = Counter()
    for name in names:
        def counted(*args, _name=name, _function=getattr(pm_tools, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)
        monkeypatch.setattr(pm_tools, name, counted)
    return calls


@pytest.fixture
def parses(monkeypatch) -> Counter:
    return counting(monkeypatch, "parse_xes", "parse_csv")


@pytest.fixture
def discoveries(monkeypatch) -> Counter:
    return counting(monkeypatch, "discover_dfg", "discover_variants")


def run_anomaly(inquiry: str):
    anomaly = bundle("anomaly")
    return execute(load_workflow(anomaly.workflow), inquiry, load_scripted_rules(anomaly.rules))


def test_an_anomaly_run_parses_its_log_once(parses):
    record = run_anomaly(bundle("anomaly").inquiry)
    assert [record.details[t].selected_tool for t in ("dfg_insights", "variant_insights")] \
        == ["dfg_discovery", "variants_discovery"]
    assert parses == {"parse_xes": 1}
    assert record.memory_final == {}  # the parsed log is no memory entry


def test_an_anomaly_run_over_a_csv_log_parses_it_once(parses, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(CSV_LOG)
    record = run_anomaly(f"List the rule violations in the process recorded at {log}.")
    assert "A -> B (freq=1" in record.details["dfg_insights"].tool_output
    assert parses == {"parse_csv": 1}


def test_each_execute_parses_again(parses):
    run_anomaly(bundle("anomaly").inquiry)
    run_anomaly(bundle("anomaly").inquiry)
    assert parses == {"parse_xes": 2}


def test_each_cli_run_parses_again(parses, capsys):
    assert cli.main(["demo", "anomaly"]) == 0
    assert cli.main(["demo", "anomaly"]) == 0
    assert parses == {"parse_xes": 2}


def test_a_log_file_rewritten_between_tool_calls_is_read_again(parses, tmp_path):
    dfg = builtin_registry().get("dfg_discovery").function
    log = tmp_path / "log.csv"
    log.write_text(CSV_LOG)
    memory = EntityMemory()
    first = dfg(f"see {log}", memory)
    assert dfg(f"again: {log}", memory) == first
    assert parses["parse_csv"] == 1

    # same size, newer mtime
    info = log.stat()
    log.write_text(CSV_LOG.replace(",B,", ",C,"))
    os.utime(log, ns=(info.st_atime_ns, info.st_mtime_ns + 1))
    assert "A -> C (freq=1" in dfg(f"see {log}", memory)
    assert parses["parse_csv"] == 2

    # same mtime, other size
    info = log.stat()
    log.write_text(CSV_LOG.replace(",B,", ",Done,"))
    os.utime(log, ns=(info.st_atime_ns, info.st_mtime_ns))
    assert "A -> Done (freq=1" in dfg(f"see {log}", memory)
    assert parses["parse_csv"] == 3


def test_one_file_under_two_spellings_is_parsed_once_and_keeps_each_name(parses):
    memory = EntityMemory()
    path = data_path("purchase_log.xes")
    spelled = str(path.parent / ".." / "data" / path.name)
    first = resolve_log_reference(f"see {path}", memory)
    second = resolve_log_reference(f"see {spelled}", memory)
    assert parses == {"parse_xes": 1}
    assert (first.source_name, second.source_name) == (str(path), spelled)
    assert first.traces is second.traces


@pytest.mark.parametrize("path, error", [
    ("/nope/missing.xes", "[Errno 2] No such file or directory: '/nope/missing.xes'"),
    ("/nope/a\x00b.xes", "embedded null byte"),
])
def test_a_log_that_cannot_be_read_fails_as_before(parses, path, error):
    out = builtin_registry().get("dfg_discovery").function(f"look at {path}", EntityMemory())
    assert out == f"TOOL-ERROR: {error}"
    assert parses == {}


# ---------------------------------------------------------------------------
# Discovery: once per log and run
# ---------------------------------------------------------------------------

TOOLS = builtin_registry()


def run_tool(name: str, state: str, memory: EntityMemory) -> str:
    out = TOOLS.get(name).function(state, memory)
    assert not out.startswith(TOOL_ERROR), out
    return out


def test_repeated_discovery_on_one_memory_computes_once_per_log(discoveries, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(CSV_LOG)
    memory = EntityMemory()
    memory.store({"other": make_log([["a", "b"], ["a", "c"]])})
    for state in (f"see {log}", f"top_k: 1\nsee {log}", "see @other", "top_k: 1\n@other"):
        for name in ("dfg_discovery", "variants_discovery"):
            run_tool(name, state, memory)
    assert discoveries == {"discover_dfg": 2, "discover_variants": 2}
    # the results are kept beside the entries, not among them
    assert memory.snapshot() == {"other": memory.load("other")}
    # another run's memory holding the same log computes again
    fresh = EntityMemory()
    fresh.store({"other": memory.load("other")})
    run_tool("dfg_discovery", "see @other", fresh)
    assert discoveries == {"discover_dfg": 3, "discover_variants": 2}


def test_one_file_under_two_spellings_is_discovered_once(discoveries):
    memory = EntityMemory()
    path = data_path("purchase_log.xes")
    spelled = str(path.parent / ".." / "data" / path.name)
    assert run_tool("dfg_discovery", f"see {path}", memory) \
        == run_tool("dfg_discovery", f"see {spelled}", memory)
    assert discoveries == {"discover_dfg": 1}


def test_the_two_split_groups_are_discovered_once_each(discoveries):
    memory = EntityMemory()
    inquiry = bundle("fairness").inquiry
    run_tool("split_log_by_predicate", inquiry, memory)
    first = run_tool("compare_group_dfgs", inquiry, memory)
    assert run_tool("compare_group_dfgs", f"limit: 3\n{inquiry}", memory) \
        == "\n".join(first.splitlines()[:3])
    run_tool("dfg_discovery", "see @protected", memory)
    run_tool("dfg_discovery", "see @non_protected", memory)
    assert discoveries == {"discover_dfg": 2}
    assert sorted(memory.snapshot()) == ["non_protected", "protected"]


def test_each_execute_discovers_again(discoveries):
    for _ in range(2):
        assert run_anomaly(bundle("anomaly").inquiry).memory_final == {}
    assert discoveries == {"discover_dfg": 2, "discover_variants": 2}


def test_each_cli_run_discovers_again(discoveries, capsys):
    assert cli.main(["demo", "fairness"]) == 0
    assert cli.main(["demo", "fairness"]) == 0
    assert discoveries == {"discover_dfg": 4}


def test_a_rewound_split_is_discovered_afresh(discoveries, tmp_path):
    """S splits the log file, D draws @protected's DFG and W rewrites the
    file; E's low first score re-runs S on the rewritten file."""
    log = tmp_path / "log.xes"
    log.write_text(xes_log_text(4))
    rewritten = xes_log_text(6)
    tasks = [
        plain_task("S", tool_names=("split_log_by_predicate",), instruction="task S"),
        plain_task("D", tool_names=("dfg_discovery",), instruction="task D"),
        plain_task("W", instruction="task W", callback_names=(f"write_to_file:{log}",)),
        plain_task("E", kind=EVALUATOR, instruction="task E",
                   evaluator_config=EvaluatorConfig(6.0, target_task_id="S", max_retries=1)),
    ]
    spec = spec_of(tasks, {"S": set(), "D": {"S"}, "W": {"D"}, "E": {"S", "W"}}, "S", "E")
    backend = ScriptedBackend(
        [rule("task E", "thin\nSCORE: 2", "fine\nSCORE: 9"), rule("task W", rewritten)],
        fallback="noted @protected",
    )
    inquiry = f'predicate: gender = "F"\nstore_as: protected,non_protected\nsplit {log}'
    record = execute(spec, inquiry, backend)
    assert record.details["S"].retries_used == 1

    def protected_dfg(text: str) -> str:
        path = tmp_path / "fresh.xes"
        path.write_text(text)
        memory = EntityMemory()
        run_tool("split_log_by_predicate", inquiry.replace(str(log), str(path)), memory)
        return run_tool("dfg_discovery", "see @protected", memory)

    assert record.details["D"].tool_output == protected_dfg(rewritten)
    assert record.details["D"].tool_output != protected_dfg(xes_log_text(4))
    assert discoveries["discover_dfg"] == 2 + 2  # the run's two, the check's two


def test_a_log_a_rewind_dropped_lends_its_results_to_no_later_log(discoveries):
    # a dropped log's traces are freed, and a new log's may take their id
    memory = EntityMemory()
    for length in range(2, 12):
        memory.restore({})  # as a rewind drops what the rewound tasks stored
        memory.store({"log": make_log([["a"] * length])})
        assert f"a -> a (freq={length - 1}," in run_tool("dfg_discovery", "see @log", memory)
    assert discoveries == {"discover_dfg": 10}


KEYS = ("whole", "left", "right")
log_shapes = st.lists(st.lists(st.sampled_from("abcd"), max_size=5), max_size=5)
#: (tool, directive lines, log reference or groups)
tool_calls = st.one_of(
    st.tuples(st.sampled_from(["dfg_discovery", "variants_discovery"]),
              st.sampled_from(["", "top_k: 1\n", "top_k: 2\n", "top_k: 30\n"]),
              st.sampled_from([f"@{key}" for key in KEYS])),
    st.tuples(st.just("compare_group_dfgs"),
              st.sampled_from(["", "limit: 1\n", "limit: 3\n", "shift_threshold: 0.5\n"]),
              st.permutations(KEYS).map(lambda keys: f"groups: @{keys[0]},@{keys[1]}")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(log_shapes, min_size=3, max_size=3), st.lists(tool_calls, max_size=8))
def test_kept_discoveries_render_as_fresh_ones(shapes, calls):
    logs = dict(zip(KEYS, (make_log(shape, step_seconds=60 + i) for i, shape in enumerate(shapes))))

    def memory_of_logs() -> EntityMemory:
        memory = EntityMemory()
        for key, log in logs.items():
            memory.store({key: log})
        return memory

    memory = memory_of_logs()
    for name, directives, reference in calls:
        state = f"{directives}{reference}"
        assert TOOLS.get(name).function(state, memory) \
            == TOOLS.get(name).function(state, memory_of_logs())
        # rendering only reads what is kept
        for (discover, _), (traces, result) in memory.kept.items():
            assert result == discover(EventLog(traces))
