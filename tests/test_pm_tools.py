from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agwf import pm_tools
from agwf.event_log import (
    ComparisonFinding,
    Dfg,
    DfgEdgeStats,
    EventLog,
    Variant,
    compare_dfgs,
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
    with pytest.raises(ValueError, match="identifier-shaped"):
        Tool("bad name", "docs", lambda s, m: s)
    with pytest.raises(ValueError, match="has no documentation"):
        Tool("x", " \n\t", lambda s, m: s)


def test_registry_rejects_duplicates():
    t = Tool("x", "docs", lambda s, m: s)
    with pytest.raises(ValueError):
        ToolRegistry.of(t, t)


def test_builtin_registry_contents():
    registry = builtin_registry()
    assert "dfg_discovery" in registry
    assert sorted(registry.tools) == [
        "compare_group_dfgs",
        "dfg_discovery",
        "split_log_by_predicate",
        "variants_discovery",
    ]
    for name in registry.tools:
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
    memory.store({"protected": stored})
    assert resolve_log_reference("use @protected please", memory) is stored


def test_resolve_last_occurrence_wins(data_dir):
    memory = EntityMemory()
    stored = make_log([["a"]])
    memory.store({"protected": stored})
    state = f"first {data_dir / 'two_traces.xes'} then @protected"
    assert resolve_log_reference(state, memory) is stored


def test_resolve_at_inside_a_word_is_not_a_reference(data_dir):
    state = f"log at {data_dir / 'two_traces.xes'}; questions to ops@example.com"
    assert len(resolve_log_reference(state, EntityMemory()).traces) == 2


def test_resolve_no_reference():
    with pytest.raises(NoLogReference):
        resolve_log_reference("nothing to see here", EntityMemory())


def test_resolve_unknown_entity():
    with pytest.raises(UnknownEntityKey):
        resolve_log_reference("use @ghost", EntityMemory())


def test_resolve_text_entity_is_not_a_log():
    memory = EntityMemory()
    with pytest.raises(TypeError):
        memory.store({"note": "just text"})
    with pytest.raises(UnknownEntityKey):
        resolve_log_reference("use @note", memory)


def test_parse_directive_last_wins():
    state = "top_k: 3\nmore text\ntop_k: 7"
    assert parse_directive(state, "top_k") == "7"
    assert parse_directive(state, "missing") is None


# The regex readers the backward scans replaced, kept as the reference.
_REF_ENTITY_RE = re.compile(r"@(?<!\w@)([A-Za-z_][A-Za-z0-9_]*)")
_REF_PATH_RE = re.compile(r"[^\s\"'()\[\]{}<>]+\.(?:xes|csv)")


def reference_pick(state):
    """("entity", key), ("path", span) or None, as the regex resolver picks."""
    entity = path = None
    for entity in _REF_ENTITY_RE.finditer(state):
        pass
    for path in _REF_PATH_RE.finditer(state):
        pass
    if entity is not None and (path is None or entity.start() > path.start()):
        return "entity", entity.group(1)
    return None if path is None else ("path", path.span())


def reference_directive(state, name):
    pattern = rf"^[ \t]*{re.escape(name)}[ \t]*:[ \t]*(.*?)[ \t]*$"
    found = re.findall(pattern, state, re.MULTILINE)
    return found[-1] if found else None


class RecordingMemory:
    """Entity memory that hands out a log for any key and notes the key."""

    def __init__(self):
        self.loaded = []

    def load(self, key):
        self.loaded.append(key)
        return make_log([["a"]])


def picked(state):
    """("entity", key), ("path", span) or None, as resolve_log_reference picks,
    with no file read."""
    memory, read = RecordingMemory(), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm_tools, "read_log", lambda path: read.append(path) or make_log([["a"]]))
        try:
            resolve_log_reference(state, memory)
        except NoLogReference:
            return None
    if memory.loaded:
        return "entity", memory.loaded[0]
    span = pm_tools._last_path_token(state, 0)
    assert read == [state[span[0]:span[1]]]
    return "path", span


STATE_PIECES = [
    "a", "Z9", ".", ".xes", ".csv", "..xes", "x.xes.csv", ".csvb", "xes", "logs/l.xes",
    '"', "'", "(", ")", "[", "]", "{", "}", "<", ">", "@", "@grp_f", "ops@example.com",
    "é", "_", " ", "\t", "\r", "\n", "\x1c", "\xa0", "\u2028",
    "top_k", "top_k: 7", "top_k: top_k", "top_k :", "k: v ", ":", " : ",
]
states = st.lists(
    st.one_of(st.sampled_from(STATE_PIECES), st.characters()), max_size=40
).map("".join)


@settings(max_examples=400, deadline=None)
@given(states)
def test_resolve_picks_what_the_regex_reference_picks(state):
    assert picked(state) == reference_pick(state)


@settings(max_examples=400, deadline=None)
@given(states, st.sampled_from(["top_k", "k", "_", "top_k: top_k", ":"]))
def test_parse_directive_matches_the_regex_reference(state, name):
    assert parse_directive(state, name) == reference_directive(state, name)


def test_state_readers_are_linear_in_a_long_token(data_dir):
    # a log path, then one unbroken 30,000-character token (say, base64 in a
    # model reply): a path pattern that backtracks over the token from each
    # of its characters takes seconds here, on every later tool call
    state = f"log at {data_dir / 'two_traces.xes'}\n=== output of T1 ===\n" + "QUJD" * 7500
    started = time.perf_counter()
    log = resolve_log_reference(state, EntityMemory())
    assert parse_directive(state, "top_k") is None
    assert time.perf_counter() - started < 0.5
    assert len(log.traces) == 2


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


#: DFGs over few activities whose edges often tie on frequency
tied_dfgs = st.dictionaries(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
    st.builds(DfgEdgeStats, st.integers(1, 3), st.floats(0, 1e4)), max_size=16,
).map(lambda edges: Dfg(edges=edges, start_activities={"a": 1}, end_activities={"d": 1}))


@given(tied_dfgs)
@settings(max_examples=100, deadline=None)
def test_abstract_dfg_renders_as_a_plain_sort_at_every_top_k(dfg):
    """Edges ranked once per DFG render, at every top_k, as those sorted
    afresh by (-frequency, edge) on each call."""
    ordered = sorted(dfg.edges.items(), key=lambda kv: (-kv[1].frequency, kv[0]))
    for top_k in range(1, len(ordered) + 2):
        shown = ordered[:top_k]
        expected = [f"DFG (top {len(shown)} edges of {len(ordered)}):",
                    *(f"{a} -> {b} (freq={stats.frequency}, avg_dur={stats.mean_duration_seconds:.1f}s)"
                      for (a, b), stats in shown)]
        assert abstract_dfg(dfg, top_k).splitlines()[:-2] == expected


def test_abstract_variants_formats():
    variants = (Variant(("a", "b"), 2), Variant(("a", "c"), 1))
    assert abstract_variants(variants, 15) == (
        "Variants (top 2 of 2):\na,b (count=2)\na,c (count=1)"
    )


def test_abstract_variants_empty():
    assert abstract_variants((), 3) == "Variants (top 0 of 0):"


def test_abstract_variants_truncates():
    variants = tuple(Variant((c,), 1) for c in "abcde")
    text = abstract_variants(variants, 2)
    assert text.startswith("Variants (top 2 of 5):")
    assert len(text.splitlines()) == 3


def test_render_comparison_only_in_a():
    findings = (ComparisonFinding(("Request", "Extra Check"), "only_in_a", 1.0, 5, 0),)
    assert render_comparison(findings, 10) == (
        "edge Request -> Extra Check: only in group A (freq 5 vs 0)"
    )


def test_render_comparison_empty():
    assert render_comparison((), 10) == "no behavioral differences found"


def test_render_comparison_shift_decimals():
    findings = (ComparisonFinding(("x", "y"), "frequency_shift", 0.8, 0.9, 0.1),)
    line = render_comparison(findings, 10)
    assert "0.900" in line and "0.100" in line


def test_render_comparison_duration_line():
    findings = (ComparisonFinding(("x", "y"), "duration_shift", -0.75, 10.0, 40.0),)
    assert render_comparison(findings, 10) == (
        "edge x -> y: duration shift (avg 10.0s vs 40.0s)"
    )


def test_render_comparison_respects_limit():
    findings = tuple(
        ComparisonFinding((c, "x"), "only_in_a", 1.0, 1, 0) for c in "abc"
    )
    assert len(render_comparison(findings, 2).splitlines()) == 2


def oracle_comparison(a, b, threshold, limit):
    """The comparison text, from relative frequency = frequency / total."""
    total_a = sum(s.frequency for s in a.edges.values())
    total_b = sum(s.frequency for s in b.edges.values())
    found = []  # (relative difference, edge, kind, text)
    for edge in set(a.edges) | set(b.edges):
        sa, sb = a.edges.get(edge), b.edges.get(edge)
        rel_a = sa.frequency / total_a if sa and total_a else 0.0
        rel_b = sb.frequency / total_b if sb and total_b else 0.0
        if sb is None:
            found.append((rel_a, edge, "only_in_a",
                          f"only in group A (freq {sa.frequency} vs 0)"))
        elif sa is None:
            found.append((-rel_b, edge, "only_in_b",
                          f"only in group B (freq 0 vs {sb.frequency})"))
        else:
            if abs(rel_a - rel_b) > threshold:
                found.append((rel_a - rel_b, edge, "frequency_shift",
                              f"frequency shift (rel {rel_a:.3f} vs {rel_b:.3f})"))
            da, db = sa.mean_duration_seconds, sb.mean_duration_seconds
            if max(da, db) > 0.0 and abs((da - db) / max(da, db)) > threshold:
                found.append(((da - db) / max(da, db), edge, "duration_shift",
                              f"duration shift (avg {da:.1f}s vs {db:.1f}s)"))
    if not found:
        return "no behavioral differences found"
    found.sort(key=lambda f: (-abs(f[0]), f[1], f[2]))
    return "\n".join(f"edge {s} -> {t}: {text}" for _, (s, t), _, text in found[:limit])


_EDGES = [(s, t) for s in "abc" for t in "abc"]
_durations = st.sampled_from([0.0, 0.0, 1.0, 2.5, 60.0]) | st.floats(0, 1e5)
_dfgs = st.dictionaries(
    st.sampled_from(_EDGES),
    st.builds(DfgEdgeStats, st.integers(0, 4), _durations),
    max_size=len(_EDGES),
).map(lambda edges: Dfg(edges=edges))


@settings(max_examples=400, deadline=None)
@given(_dfgs, _dfgs, st.floats(0, 1) | st.sampled_from([0.0, 0.05, 1.0]),
       st.integers(1, 12))
def test_render_comparison_matches_the_frequency_over_total_oracle(a, b, threshold, limit):
    assert render_comparison(compare_dfgs(a, b, threshold), limit) == (
        oracle_comparison(a, b, threshold, limit))


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
    assert "protected" in memory.snapshot() and "non_protected" in memory.snapshot()
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


@pytest.mark.parametrize("tool, directive, error", [
    ("dfg_discovery", "top_k: 0", "top_k must be >= 1"),
    ("variants_discovery", "top_k: 0", "top_k must be >= 1"),
    ("compare_group_dfgs", "limit: 0", "limit must be >= 1"),
    ("compare_group_dfgs", "shift_threshold: 2", "shift_threshold must be in [0, 1], got 2.0"),
])
def test_out_of_range_directive_is_one_tool_error(data_dir, tool, directive, error):
    memory = EntityMemory()
    memory.store({"a": make_log([["x", "y"]])})
    memory.store({"b": make_log([["x", "z"]])})
    state = f"{directive}\ngroups: @a,@b\nsee {data_dir / 'two_traces.xes'}"
    assert builtin_registry().get(tool).function(state, memory) == f"TOOL-ERROR: {error}"


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


def test_split_tool_stores_nothing_when_a_key_is_taken(data_dir):
    memory = EntityMemory()
    taken = make_log([["a"]])
    memory.store({"b": taken})
    state = (
        'predicate: gender = "F"\n'
        "store_as: a,b\n"
        f"split the log at {data_dir / 'fairness_small.xes'}"
    )
    out = builtin_registry().get("split_log_by_predicate").function(state, memory)
    assert out == "TOOL-ERROR: entity key 'b' already stored"
    assert memory.snapshot() == {"b": taken}


def test_groups_directive_uses_the_entity_key_grammar():
    memory = EntityMemory()
    memory.store({"grp_é": make_log([["a", "b"]])})
    memory.store({"rest": make_log([["a", "c"]])})
    out = builtin_registry().get("compare_group_dfgs").function("groups: @grp_é,@rest", memory)
    assert out.startswith("TOOL-ERROR:")
    assert "groups" in out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="ab_1é -", min_size=1, max_size=4), min_size=2, max_size=2))
def test_stored_keys_are_reachable_by_reference(keys):
    """A key split_log_by_predicate stores is one that @key and groups: name."""
    tools = builtin_registry()
    memory = EntityMemory()
    memory.store({"whole": make_log([["a", "b"], ["a", "c"]], [{"g": "x"}, {"g": "y"}])})
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
