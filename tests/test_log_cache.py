"""A run parses each log file once, and again only when the file changed."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from agwf import cli, pm_tools
from agwf.demos import bundle, data_path
from agwf.pm_tools import builtin_registry, resolve_log_reference
from agwf.workflow_config import load_scripted_rules, load_workflow
from agwf.workflow_engine import EntityMemory, execute

CSV_LOG = "case_id,activity,timestamp\nc1,A,2024-03-01T09:00:00\nc1,B,2024-03-01T09:01:00\n"


@pytest.fixture
def parses(monkeypatch) -> Counter:
    """Counts the calls of the parsers the tools reach through pm_tools."""
    calls: Counter = Counter()
    for name in ("parse_xes", "parse_csv"):
        def counted(*args, _name=name, _parse=getattr(pm_tools, name), **kwargs):
            calls[_name] += 1
            return _parse(*args, **kwargs)
        monkeypatch.setattr(pm_tools, name, counted)
    return calls


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
