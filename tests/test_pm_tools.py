from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf.event_log import (
    ComparisonFinding,
    Dfg,
    DfgComparison,
    DfgEdgeStats,
    EventLog,
    Variant,
    VariantTable,
    discover_dfg,
)
from agwf.pm_tools import (
    NoLogReference,
    Tool,
    ToolRegistry,
    abstract_dfg,
    abstract_variants,
    builtin_registry,
    parse_directive,
    render_comparison,
    resolve_log_reference,
)
from agwf.workflow_engine import EntityMemory, UnknownEntityKey

from conftest import make_log


# ---------------------------------------------------------------------------
# Tool / registry basics
# ---------------------------------------------------------------------------

def test_tool_name_must_be_identifier_shaped():
    with pytest.raises(ValueError):
        Tool("bad name", "docs", lambda s, m: s)


def test_registry_rejects_duplicates():
    t = Tool("x", "docs", lambda s, m: s)
    with pytest.raises(ValueError):
        ToolRegistry.of(t, t)


def test_builtin_registry_contents():
    registry = builtin_registry()
    assert "dfg_discovery" in registry
    assert registry.names() == [
        "compare_group_dfgs",
        "dfg_discovery",
        "split_log_by_predicate",
        "variants_discovery",
    ]
    for name in registry.names():
        assert registry.get(name).documentation.strip()


# ---------------------------------------------------------------------------
# Log reference resolution
# ---------------------------------------------------------------------------

def test_resolve_path_reference(data_dir):
    log = resolve_log_reference(
        f"the log lives at {data_dir / 'two_traces.xes'} somewhere", EntityMemory()
    )
    assert len(log.traces) == 2


def test_resolve_trailing_punctuation(data_dir):
    log = resolve_log_reference(f"open {data_dir / 'two_traces.xes'}.", EntityMemory())
    assert len(log.traces) == 2


def test_resolve_entity_reference():
    memory = EntityMemory()
    stored = make_log([["a"]])
    memory.store("protected", stored)
    assert resolve_log_reference("use @protected please", memory) is stored


def test_resolve_last_occurrence_wins(data_dir):
    memory = EntityMemory()
    stored = make_log([["a"]])
    memory.store("protected", stored)
    state = f"first {data_dir / 'two_traces.xes'} then @protected"
    assert resolve_log_reference(state, memory) is stored


def test_resolve_no_reference():
    with pytest.raises(NoLogReference):
        resolve_log_reference("nothing to see here", EntityMemory())


def test_resolve_unknown_entity():
    with pytest.raises(UnknownEntityKey):
        resolve_log_reference("use @ghost", EntityMemory())


def test_resolve_text_entity_is_not_a_log():
    memory = EntityMemory()
    memory.store("note", "just text")
    with pytest.raises(NoLogReference):
        resolve_log_reference("use @note", memory)


def test_parse_directive_last_wins():
    state = "top_k: 3\nmore text\ntop_k: 7"
    assert parse_directive(state, "top_k") == "7"
    assert parse_directive(state, "missing") is None


# ---------------------------------------------------------------------------
# Abstraction formats (byte-exact contract)
# ---------------------------------------------------------------------------

def one_edge_dfg():
    return Dfg(
        edges={("a", "b"): DfgEdgeStats(1, 60.0)},
        start_activities={"a": 1},
        end_activities={"b": 1},
    )


def test_abstract_dfg_single_edge():
    text = abstract_dfg(one_edge_dfg(), 25)
    assert text == (
        "DFG (top 1 edges of 1):\n"
        "a -> b (freq=1, avg_dur=60.0s)\n"
        "start: a=1\n"
        "end: b=1"
    )


def test_abstract_dfg_empty():
    assert abstract_dfg(Dfg(), 5) == "DFG (top 0 edges of 0):\nstart:\nend:"


def test_abstract_dfg_truncates():
    dfg = Dfg(
        edges={
            ("a", "b"): DfgEdgeStats(5, 1.0),
            ("b", "c"): DfgEdgeStats(3, 1.0),
            ("c", "d"): DfgEdgeStats(1, 1.0),
        },
        start_activities={"a": 5},
        end_activities={"d": 5},
    )
    text = abstract_dfg(dfg, 1)
    assert text.startswith("DFG (top 1 edges of 3):\n")
    assert text.count(" -> ") == 1
    assert "a -> b (freq=5" in text


def test_abstract_dfg_orders_by_frequency_then_name():
    dfg = Dfg(
        edges={
            ("z", "a"): DfgEdgeStats(2, 0.0),
            ("a", "z"): DfgEdgeStats(2, 0.0),
            ("m", "n"): DfgEdgeStats(9, 0.0),
        },
    )
    lines = abstract_dfg(dfg, 10).splitlines()
    assert lines[1].startswith("m -> n")
    assert lines[2].startswith("a -> z")
    assert lines[3].startswith("z -> a")


def test_abstract_dfg_rejects_bad_top_k():
    with pytest.raises(ValueError):
        abstract_dfg(one_edge_dfg(), 0)


def test_abstract_variants_formats():
    table = VariantTable((Variant(("a", "b"), 2), Variant(("a", "c"), 1)))
    assert abstract_variants(table, 15) == (
        "Variants (top 2 of 2):\na,b (count=2)\na,c (count=1)"
    )


def test_abstract_variants_empty():
    assert abstract_variants(VariantTable(), 3) == "Variants (top 0 of 0):"


def test_abstract_variants_truncates():
    table = VariantTable(tuple(Variant((c,), 1) for c in "abcde"))
    text = abstract_variants(table, 2)
    assert text.startswith("Variants (top 2 of 5):")
    assert len(text.splitlines()) == 3


def test_render_comparison_only_in_a():
    cmp = DfgComparison(
        (ComparisonFinding(("Request", "Extra Check"), 5, 0, 1.0, "only_in_a"),),
        total_a=5,
        total_b=4,
    )
    assert render_comparison(cmp, 10) == (
        "edge Request -> Extra Check: only in group A (freq 5 vs 0)"
    )


def test_render_comparison_empty():
    assert render_comparison(DfgComparison(()), 10) == "no behavioral differences found"


def test_render_comparison_shift_decimals():
    cmp = DfgComparison(
        (ComparisonFinding(("x", "y"), 9, 1, 0.8, "frequency_shift"),),
        total_a=10,
        total_b=10,
    )
    line = render_comparison(cmp, 10)
    assert "0.900" in line and "0.100" in line


def test_render_comparison_duration_line():
    cmp = DfgComparison(
        (ComparisonFinding(("x", "y"), 2, 2, -0.75, "duration_shift", 10.0, 40.0),),
        total_a=2,
        total_b=2,
    )
    assert render_comparison(cmp, 10) == (
        "edge x -> y: duration shift (avg 10.0s vs 40.0s)"
    )


def test_render_comparison_respects_limit():
    findings = tuple(
        ComparisonFinding((c, "x"), 1, 0, 1.0, "only_in_a") for c in "abc"
    )
    cmp = DfgComparison(findings, total_a=3, total_b=0)
    assert len(render_comparison(cmp, 2).splitlines()) == 2


# ---------------------------------------------------------------------------
# Built-in tools
# ---------------------------------------------------------------------------

def fairness_state(data_dir):
    return (
        'predicate: gender = "F"\n'
        "store_as: protected,non_protected\n"
        f"split the log at {data_dir / 'fairness_small.xes'}"
    )


def test_split_tool_on_fairness_fixture(data_dir):
    registry = builtin_registry()
    memory = EntityMemory()
    out = registry.get("split_log_by_predicate").function(fairness_state(data_dir), memory)
    assert out == "protected=2 cases, non-protected=2 cases"
    assert "protected" in memory and "non_protected" in memory
    assert len(memory.load("protected").traces) == 2


def test_compare_tool_names_discriminating_edge(data_dir):
    registry = builtin_registry()
    memory = EntityMemory()
    registry.get("split_log_by_predicate").function(fairness_state(data_dir), memory)
    out = registry.get("compare_group_dfgs").function(
        "groups: @protected,@non_protected", memory
    )
    assert "Extra Check" in out
    assert "only in group A" in out


def test_dfg_tool_honors_top_k(data_dir):
    registry = builtin_registry()
    state = f"top_k: 1\nsee {data_dir / 'two_traces.xes'}"
    out = registry.get("dfg_discovery").function(state, EntityMemory())
    assert out.startswith("DFG (top 1 edges of 2):")
    assert "A -> B (freq=2" in out


def test_variants_tool(data_dir):
    registry = builtin_registry()
    out = registry.get("variants_discovery").function(
        f"see {data_dir / 'two_traces.xes'}", EntityMemory()
    )
    assert out.startswith("Variants (top 2 of 2):")
    assert "A,B (count=1)" in out


def test_tool_errors_are_in_band():
    registry = builtin_registry()
    out = registry.get("dfg_discovery").function("look at /nope/missing.xes", EntityMemory())
    assert out.startswith("TOOL-ERROR:")


def test_split_tool_requires_directives(data_dir):
    registry = builtin_registry()
    out = registry.get("split_log_by_predicate").function(
        f"split {data_dir / 'fairness_small.xes'}", EntityMemory()
    )
    assert out.startswith("TOOL-ERROR:")
    assert "predicate" in out


@pytest.mark.parametrize("store_as", ["a b,rest", "grp_é,rest", "protected,2nd", "same,same"])
def test_split_tool_rejects_keys_no_reference_can_name(data_dir, store_as):
    memory = EntityMemory()
    state = (
        'predicate: gender = "F"\n'
        f"store_as: {store_as}\n"
        f"split the log at {data_dir / 'fairness_small.xes'}"
    )
    out = builtin_registry().get("split_log_by_predicate").function(state, memory)
    assert out.startswith("TOOL-ERROR:")
    assert "store_as" in out
    assert memory.snapshot() == {}


def test_groups_directive_uses_the_entity_key_grammar():
    memory = EntityMemory()
    memory.store("grp_é", make_log([["a", "b"]]))
    memory.store("rest", make_log([["a", "c"]]))
    out = builtin_registry().get("compare_group_dfgs").function("groups: @grp_é,@rest", memory)
    assert out.startswith("TOOL-ERROR:")
    assert "groups" in out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="ab_1é -", min_size=1, max_size=4), min_size=2, max_size=2))
def test_stored_keys_are_reachable_by_reference(keys):
    """A key split_log_by_predicate stores is one that @key and groups: name."""
    tools = builtin_registry()
    memory = EntityMemory()
    memory.store("whole", make_log([["a", "b"], ["a", "c"]], [{"g": "x"}, {"g": "y"}]))
    state = f'predicate: g = "x"\nstore_as: {keys[0]},{keys[1]}\nsplit @whole'
    out = tools.get("split_log_by_predicate").function(state, memory)
    stored = [key for key in memory.snapshot() if key != "whole"]
    if out.startswith("TOOL-ERROR:"):
        assert stored == []
        return
    keys = [key.strip() for key in keys]
    assert stored == keys
    for key in keys:
        assert resolve_log_reference(f"see @{key}", memory) is memory.load(key)
    compared = tools.get("compare_group_dfgs").function(f"groups: @{keys[0]},@{keys[1]}", memory)
    assert not compared.startswith("TOOL-ERROR:")


def test_tool_determinism(data_dir):
    registry = builtin_registry()
    state = f"inspect {data_dir / 'two_traces.xes'}"
    for name in ("dfg_discovery", "variants_discovery"):
        first = registry.get(name).function(state, EntityMemory())
        second = registry.get(name).function(state, EntityMemory())
        assert first == second
    split_state = fairness_state(data_dir)
    split = registry.get("split_log_by_predicate").function
    assert split(split_state, EntityMemory()) == split(split_state, EntityMemory())


# ---------------------------------------------------------------------------
# Abstraction faithfulness: every edge line parses back to a real edge
# ---------------------------------------------------------------------------

_EDGE_LINE = re.compile(r"^(.+) -> (.+) \(freq=(\d+), avg_dur=[0-9.]+s\)$")

activity_names = st.sampled_from(["a", "b", "c", "d"])
log_shapes = st.lists(st.lists(activity_names, min_size=0, max_size=6), max_size=6)


@given(log_shapes)
@settings(max_examples=100, deadline=None)
def test_abstract_dfg_parses_back(shapes):
    log = make_log(shapes)
    dfg = discover_dfg(log)
    text = abstract_dfg(dfg, 100)
    edge_lines = [l for l in text.splitlines()[1:] if " -> " in l]
    assert len(edge_lines) == len(dfg.edges)
    for line in edge_lines:
        match = _EDGE_LINE.match(line)
        assert match, line
        edge = (match.group(1), match.group(2))
        assert dfg.edges[edge].frequency == int(match.group(3))
