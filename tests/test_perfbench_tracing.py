"""The benchmark's tracer (perfbench/tracing.py) must keep finding every
function it wraps: a renamed or deleted target breaks ``--trace 1``."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import agwf.workflow_engine as workflow_engine
from agwf import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    # no bytecode cache: loading must leave perfbench/ untouched
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracer = load_tracing(monkeypatch).Tracer()
    original = workflow_engine.validate
    try:
        tracer.install()
        assert workflow_engine.validate is not original
    finally:
        tracer.uninstall()
    assert workflow_engine.validate is original


def test_traced_run_validates_once(monkeypatch, capsys):
    tracer = load_tracing(monkeypatch).Tracer()
    assert tracer.run(lambda: cli.main(["demo", "rca"])) == 0
    calls = tracer.per_operation()[0]["calls"]
    assert calls["workflow_engine.validate"] == 1
    assert calls["workflow_engine.linearize"] == 1


def test_traced_run_builds_its_transcript_once(monkeypatch, capsys, tmp_path):
    # workflow_engine.record_to_dict_s times this one call
    tracer = load_tracing(monkeypatch).Tracer()
    output = tmp_path / "t.json"
    assert tracer.run(lambda: cli.main(["demo", "anomaly", "--output", str(output)])) == 0
    assert tracer.per_operation()[0]["calls"]["workflow_engine.record_to_dict"] == 1
    assert output.is_file()


#: per-name call counts of a traced demo run (a subset of the span names)
DEMO_SPAN_CALLS = {
    "fairness": {
        "event_log.parse_xes": 1, "event_log.parse_predicate": 1, "event_log.split_log": 1,
        "event_log.discover_dfg": 2, "event_log.compare_dfgs": 1,
        "pm_tools.render": 1, "pm_tools.tool": 2,
    },
    "anomaly": {
        "event_log.discover_dfg": 1, "event_log.discover_variants": 1,
        "pm_tools.render": 2, "pm_tools.resolve_log": 2,
    },
    "rca": {"event_log.discover_dfg": 1},
}


@pytest.mark.parametrize("name", DEMO_SPAN_CALLS)
def test_traced_demo_sees_every_tool_layer_call(name, monkeypatch, capsys):
    # the tools look these names up in pm_tools at call time, so the
    # tracer's wrappers see each call
    tracer = load_tracing(monkeypatch).Tracer()
    assert tracer.run(lambda: cli.main(["demo", name])) == 0
    calls = tracer.per_operation()[0]["calls"]
    expected = DEMO_SPAN_CALLS[name]
    assert {span: calls[span] for span in expected} == expected
