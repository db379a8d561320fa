"""agwf's abstractions against the benchmark's renderers, which compute
them without agwf (perfbench/checks.py from perfbench/inputs.py's traces).

The two must agree byte for byte on logs written the way the benchmark
writes them, XES and CSV, so the benchmark's transcript checks and the
abstraction contract pin each other.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from agwf.pm_tools import builtin_registry
from agwf.workflow_engine import EntityMemory

ROOT = Path(__file__).resolve().parents[1]
CASES = 120


def load_by_path(monkeypatch, name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    """(inputs, checks), loaded from perfbench/ without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # inputs.py and checks.py import these by their bare module names
    load_by_path(monkeypatch, "make_demo_fixtures", ROOT / "scripts" / "make_demo_fixtures.py")
    inputs = load_by_path(monkeypatch, "inputs", ROOT / "perfbench" / "inputs.py")
    checks = load_by_path(monkeypatch, "checks", ROOT / "perfbench" / "checks.py")
    return inputs, checks


def run_tool(name: str, state: str, memory: EntityMemory | None = None) -> str:
    return builtin_registry().get(name).function(state, memory or EntityMemory())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("suffix", [".xes", ".csv"])
def test_discovery_abstractions_match_the_benchmark_renderers(bench, tmp_path, seed, suffix):
    inputs, checks = bench
    traces = inputs.make_traces(seed, CASES)
    log = tmp_path / f"log{suffix}"
    (inputs.write_xes_quietly if suffix == ".xes" else inputs.write_csv)(log, traces)
    for top_k in (3, 25):
        assert run_tool("dfg_discovery", f"top_k: {top_k}\nsee {log}") == \
            checks.render_dfg(traces, top_k)
        assert run_tool("variants_discovery", f"top_k: {top_k}\nsee {log}") == \
            checks.render_variants(traces, top_k)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fairness_split_and_comparison_match_the_benchmark_renderers(bench, tmp_path, seed):
    inputs, checks = bench
    traces = inputs.make_traces(seed, CASES)
    log = tmp_path / "log.xes"
    inputs.write_xes_quietly(log, traces)
    groups = checks.split_by_gender(traces)
    memory = EntityMemory()
    state = ('predicate: gender = "F"\n'
             "store_as: protected,non_protected\n"
             "groups: @protected,@non_protected\n"
             f"The event log is at {log}.")
    assert run_tool("split_log_by_predicate", state, memory) == checks.split_summary(groups)
    assert run_tool("compare_group_dfgs", state, memory) == \
        checks.render_comparison(*groups.values())
