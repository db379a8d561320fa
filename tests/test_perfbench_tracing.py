"""The benchmark's tracer (perfbench/tracing.py) must keep finding every
function it wraps: a renamed or deleted target breaks ``--trace 1``."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
