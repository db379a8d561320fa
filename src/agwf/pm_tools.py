"""Deterministic tools over event logs, plus their textual abstractions.

A Tool is a named, documented, deterministic function from the current
workflow state (a string) to a string.  Structured arguments travel
inside the state as directive lines (``predicate: ...``, ``store_as:
k1,k2``, ``groups: @k1,@k2``, ``top_k: n``), and event logs are located
by scanning the state for ``@key`` entity references or ``*.xes`` /
``*.csv`` path tokens — the last occurrence wins, so later tasks can
override earlier references.

Tool failures are returned in-band as text prefixed ``TOOL-ERROR:`` so a
downstream task can react; they never crash the engine.

The abstraction formats produced here are a versioned contract: tests
and scripted agents match on them byte for byte.
"""

from __future__ import annotations

import codecs
import os
import re
from typing import TYPE_CHECKING, BinaryIO, Callable, Sequence

from ._value import FrozenValue
from .event_log import (
    DEFAULT_CSV_MAPPING,
    DEFAULT_SHIFT_THRESHOLD,
    DURATION_SHIFT,
    FREQUENCY_SHIFT,
    ONLY_IN_A,
    ONLY_IN_B,
    ComparisonFinding,
    Dfg,
    EventLog,
    EventLogError,
    MalformedDocument,
    Variant,
    compare_dfgs,
    discover_dfg,
    discover_variants,
    parse_csv,
    parse_predicate,
    parse_xes,
    split_log,
)

if TYPE_CHECKING:
    from .workflow_engine import EntityMemory

DEFAULT_DFG_TOP_K = 25
DEFAULT_VARIANTS_TOP_K = 15
DEFAULT_COMPARISON_LIMIT = 25

#: the prefix of a tool's in-band failure text
TOOL_ERROR = "TOOL-ERROR:"


class NoLogReference(Exception):
    """The state names no event log (no @key and no .xes/.csv path)."""


#: the identifier grammar of tool names and entity-memory keys (ASCII only)
_KEY = r"[A-Za-z_][A-Za-z0-9_]*"


class Tool(FrozenValue):
    """A deterministic partial string-to-string function with documentation.

    The documentation string is what agent-driven selection operates on,
    so it must describe the purpose, the directives the tool reads, and
    the shape of its output.
    """

    __slots__ = ("name", "documentation", "function")

    def __init__(self, name: str, documentation: str,
                 function: Callable[[str, "EntityMemory"], str]):
        if not re.fullmatch(_KEY, name):
            raise ValueError(f"tool name must be identifier-shaped: {name!r}")
        if not documentation.strip():
            raise ValueError(f"tool {name!r} has no documentation")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "documentation", documentation)
        object.__setattr__(self, "function", function)


class ToolRegistry(FrozenValue):
    __slots__ = ("tools",)

    def __init__(self, tools: dict[str, Tool] | None = None):
        object.__setattr__(self, "tools", {} if tools is None else tools)

    @classmethod
    def of(cls, *tools: Tool) -> "ToolRegistry":
        by_name: dict[str, Tool] = {}
        for tool in tools:
            if tool.name in by_name:
                raise ValueError(f"duplicate tool name: {tool.name!r}")
            by_name[tool.name] = tool
        return cls(tools=by_name)

    def get(self, name: str) -> Tool:
        return self.tools[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tools


# ---------------------------------------------------------------------------
# Locating logs and directives inside the state string
# ---------------------------------------------------------------------------

#: an ``@`` right after a word character (``ops@example.com``) is no reference
_ENTITY_RE = re.compile(rf"@(?<!\w@)({_KEY})")
_GROUPS_RE = re.compile(rf"@({_KEY})\s*,\s*@({_KEY})")
#: characters that end a path token, besides whitespace
_PATH_DELIMITERS = frozenset("\"'()[]{}<>")


def _in_path_token(char: str) -> bool:
    return not char.isspace() and char not in _PATH_DELIMITERS


def _last_path_token(state: str, lo: int) -> tuple[int, int] | None:
    """Span of the last path token that starts at or after ``lo``.

    A path token is a run of characters that are neither whitespace nor
    in ``_PATH_DELIMITERS``, cut after the last ``.xes``/``.csv`` in the
    run; at least one character must precede that extension.
    """
    xes, csv = state.rfind(".xes", lo), state.rfind(".csv", lo)
    while (dot := max(xes, csv)) >= 0:
        start = dot
        while start and _in_path_token(state[start - 1]):
            start -= 1
        if start < dot:
            return (start, dot + 4) if start >= lo else None
        # the extension opens its token, which holds no other: look before it
        if xes == dot:
            xes = state.rfind(".xes", lo, dot)
        else:
            csv = state.rfind(".csv", lo, dot)
    return None


def _last_entity_reference(state: str) -> re.Match | None:
    """The last ``_ENTITY_RE`` match, tried at each ``@`` from the end."""
    at = len(state)
    while (at := state.rfind("@", 0, at)) >= 0:
        if match := _ENTITY_RE.match(state, at):
            return match
    return None


def resolve_log_reference(state: str, memory: "EntityMemory") -> EventLog:
    """Locate and load the event log the state refers to.

    Takes the last occurrence of either an ``@key`` entity-memory
    reference or a path token ending in ``.xes`` or ``.csv``.  Entity
    references resolve from memory; paths are read from disk and parsed
    (CSV files use the default case_id/activity/timestamp column mapping)
    at most once per memory, that is per run, while the file keeps its
    size and modification time.  Each spelling of one file's path gives
    its traces, so the tools discover them once per run (``_discovered``).
    """
    entity_match = _last_entity_reference(state)
    # a path wins only if its token starts at or after the entity reference
    path_span = _last_path_token(state, entity_match.start() if entity_match else 0)
    if path_span is not None:
        return _read_log_once(state[path_span[0]:path_span[1]], memory)
    if entity_match is None:
        raise NoLogReference("state contains no @key reference and no .xes/.csv path")
    return memory.load(entity_match.group(1))  # UnknownEntityKey propagates


def _kept(memory: "EntityMemory", key: tuple, compute: Callable[[], object]):
    """``memory.kept[key]``, computed and kept on first use.  Each caller's
    keys have a length of their own, so no two callers share one."""
    value = memory.kept.get(key)
    if value is None:
        value = memory.kept[key] = compute()
    return value


def _read_log_once(path: str, memory: "EntityMemory") -> EventLog:
    """``read_log(path)``, kept while the file keeps its size and
    modification time."""
    try:
        info = os.stat(path)
    except (OSError, ValueError):
        return read_log(path)  # fails the way reading the file does
    log = _kept(memory, (os.path.realpath(path), info.st_mtime_ns, info.st_size),
                lambda: read_log(path))
    # the same file under another spelling keeps the name it was given
    return log if log.source_name == path else EventLog(log.traces, path)


def read_log(path: str) -> EventLog:
    """Parse a log file as it is read: CSV with the default column mapping
    when the path ends in ``.csv``, XES otherwise.  The file is UTF-8 text
    with universal newlines, as ``Path.read_text`` reads it; a file that is
    not is a MalformedDocument that names the first bad byte's offset."""
    try:
        with open(path, encoding="utf-8") as stream:
            if path.endswith(".csv"):
                return parse_csv(stream, DEFAULT_CSV_MAPPING, source_name=path)
            return parse_xes(stream, source_name=path)
    except (UnicodeDecodeError, EventLogError):
        # a streamed decode error counts its position from the start of one
        # read, and an error in the text may come before the first bad byte
        with open(path, "rb") as stream:
            message = _utf8_error(stream)
        if message is not None:
            raise MalformedDocument(f"{path}: not UTF-8 text: {message}")
        raise


def _utf8_error(stream: BinaryIO, piece_bytes: int = 1 << 14) -> str | None:
    """What ``bytes.decode("utf-8")`` of the stream's whole content says
    of its first bad byte, or None; read ``piece_bytes`` at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    done = 0  # the bytes read before the piece
    while True:
        piece = stream.read(piece_bytes)
        held = len(decoder.getstate()[0])  # the decoder puts them before the piece
        try:
            decoder.decode(piece, final=not piece)
        except UnicodeDecodeError as exc:
            start, end = done - held + exc.start, done - held + exc.end
            if end - start == 1:
                where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
            else:
                where = f"bytes in position {start}-{end - 1}"
            return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"
        if not piece:
            return None
        done += len(piece)


def parse_directive(state: str, name: str) -> str | None:
    """Return the value of the last ``<name>: <value>`` line, or None.

    Only spaces and tabs may precede the name and the ``:``; the value is
    the rest of the line without surrounding spaces and tabs.  Lines end
    at ``\\n`` only.  ``name`` starts with neither a space nor a tab.
    """
    end = len(state)
    while (found := state.rfind(name, 0, end)) >= 0:
        start = state.rfind("\n", 0, found) + 1
        stop = state.find("\n", found)
        line = state[start:stop] if stop >= 0 else state[start:]
        indent = len(line) - len(line.lstrip(" \t"))
        if line.startswith(name, indent):
            rest = line[indent + len(name):].lstrip(" \t")
            if rest.startswith(":"):
                return rest[1:].strip(" \t")
        if not start:
            return None
        end = start - 1
    return None


def _require_directive(state: str, name: str) -> str:
    value = parse_directive(state, name)
    if value is None or not value:
        raise ValueError(f"missing '{name}:' directive in state")
    return value


# ---------------------------------------------------------------------------
# Textual abstractions
# ---------------------------------------------------------------------------

def _counts_line(label: str, counts: dict[str, int]) -> str:
    if not counts:
        return f"{label}:"
    rendered = ", ".join(f"{activity}={n}" for activity, n in sorted(counts.items()))
    return f"{label}: {rendered}"


def abstract_dfg(dfg: Dfg, top_k: int) -> str:
    """Render a DFG as prompt-sized text, strongest edges first.

    Format (byte-exact contract)::

        DFG (top <k> edges of <n>):
        <a> -> <b> (freq=<f>, avg_dur=<s>s)
        ...
        start: <act>=<count>, ...
        end: <act>=<count>, ...
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    ranked = dfg.ranked_edges
    shown = ranked[:top_k]
    lines = [f"DFG (top {len(shown)} edges of {len(ranked)}):"]
    for source, target in shown:
        stats = dfg.edges[source, target]
        lines.append(
            f"{source} -> {target} "
            f"(freq={stats.frequency}, avg_dur={stats.mean_duration_seconds:.1f}s)"
        )
    lines.append(_counts_line("start", dfg.start_activities))
    lines.append(_counts_line("end", dfg.end_activities))
    return "\n".join(lines)


def abstract_variants(variants: Sequence[Variant], top_k: int) -> str:
    """Render variants: ``<a>,<b>,<c> (count=<m>)`` per line."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    shown = variants[:top_k]
    lines = [f"Variants (top {len(shown)} of {len(variants)}):"]
    for variant in shown:
        lines.append(f"{','.join(variant.activity_sequence)} (count={variant.count})")
    return "\n".join(lines)


#: the text of a finding of each kind, from the two quantities it compares
_FINDING_TEXT = {
    ONLY_IN_A: "only in group A (freq {a} vs {b})",
    ONLY_IN_B: "only in group B (freq {a} vs {b})",
    FREQUENCY_SHIFT: "frequency shift (rel {a:.3f} vs {b:.3f})",
    DURATION_SHIFT: "duration shift (avg {a:.1f}s vs {b:.1f}s)",
}


def render_comparison(findings: Sequence[ComparisonFinding], limit: int) -> str:
    """Render comparison findings as one insight line each, up to limit."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if not findings:
        return "no behavioral differences found"
    return "\n".join(
        f"edge {f.edge[0]} -> {f.edge[1]}: " + _FINDING_TEXT[f.kind].format(a=f.a, b=f.b)
        for f in findings[:limit]
    )


# ---------------------------------------------------------------------------
# Built-in tools
# ---------------------------------------------------------------------------

def _in_band_errors(fn: Callable[[str, "EntityMemory"], str]) -> Callable[[str, "EntityMemory"], str]:
    def wrapper(state: str, memory: "EntityMemory") -> str:
        try:
            return fn(state, memory)
        except Exception as exc:  # surfaced to the agent, not the engine
            return f"{TOOL_ERROR} {exc}"
    return wrapper


def _discovered(discover: Callable[[EventLog], object], log: EventLog,
                memory: "EntityMemory"):
    """``discover(log)``, kept for the rest of the run.  The results depend
    on the traces alone, and the traces are kept with them, so that their
    id names them while the run lasts; the renderers only read them."""
    return _kept(memory, (discover, id(log.traces)), lambda: (log.traces, discover(log)))[1]


def _dfg_discovery(state: str, memory: "EntityMemory") -> str:
    log = resolve_log_reference(state, memory)
    top_k = int(parse_directive(state, "top_k") or DEFAULT_DFG_TOP_K)
    return abstract_dfg(_discovered(discover_dfg, log, memory), top_k)


def _variants_discovery(state: str, memory: "EntityMemory") -> str:
    log = resolve_log_reference(state, memory)
    top_k = int(parse_directive(state, "top_k") or DEFAULT_VARIANTS_TOP_K)
    return abstract_variants(_discovered(discover_variants, log, memory), top_k)


def _split_log_by_predicate(state: str, memory: "EntityMemory") -> str:
    log = resolve_log_reference(state, memory)
    predicate = parse_predicate(_require_directive(state, "predicate"))
    keys = [k.strip() for k in _require_directive(state, "store_as").split(",")]
    if len(keys) != 2 or keys[0] == keys[1] or not all(re.fullmatch(_KEY, k) for k in keys):
        raise ValueError("'store_as:' directive must name two distinct identifier keys")
    matching, rest = split_log(log, predicate)
    memory.store({keys[0]: matching, keys[1]: rest})
    return f"protected={len(matching.traces)} cases, non-protected={len(rest.traces)} cases"


def _compare_group_dfgs(state: str, memory: "EntityMemory") -> str:
    groups = _require_directive(state, "groups")
    match = _GROUPS_RE.fullmatch(groups.strip())
    if not match:
        raise ValueError("'groups:' directive must look like '@key1,@key2'")
    logs = [memory.load(key) for key in match.groups()]
    threshold = float(parse_directive(state, "shift_threshold") or DEFAULT_SHIFT_THRESHOLD)
    limit = int(parse_directive(state, "limit") or DEFAULT_COMPARISON_LIMIT)
    dfgs = [_discovered(discover_dfg, log, memory) for log in logs]
    findings = compare_dfgs(dfgs[0], dfgs[1], threshold)
    return render_comparison(findings, limit)


def builtin_registry() -> ToolRegistry:
    """The shipped tool set: discovery, abstraction, splitting, comparison."""
    return ToolRegistry.of(
        Tool(
            "dfg_discovery",
            "Computes the directly-follows graph of the event log referenced in "
            "the state (an @key entity reference or a .xes/.csv file path; the "
            "last reference wins) and renders it as text: one line per edge with "
            "its frequency and average duration in seconds, then start/end "
            "activity counts. Reads an optional 'top_k: <n>' directive line "
            f"(default {DEFAULT_DFG_TOP_K} edges). Use it for questions about "
            "activity ordering, transitions, and where time is spent.",
            _in_band_errors(_dfg_discovery),
        ),
        Tool(
            "variants_discovery",
            "Computes the process variants of the event log referenced in the "
            "state (an @key entity reference or a .xes/.csv file path) and "
            "renders one line per distinct activity sequence with its case "
            "count, most frequent first. Reads an optional 'top_k: <n>' "
            f"directive line (default {DEFAULT_VARIANTS_TOP_K} variants). Use it "
            "for questions about end-to-end paths, repetitions, and rare behavior.",
            _in_band_errors(_variants_discovery),
        ),
        Tool(
            "split_log_by_predicate",
            "Splits the referenced event log into two sub-logs by evaluating "
            "the case-attribute predicate on the 'predicate: <expr>' directive "
            "line (e.g. predicate: gender = \"F\"), stores the matching and "
            "remaining sub-logs in entity memory under the two keys named on "
            "the 'store_as: <key1>,<key2>' line, and returns a one-line summary "
            "with both group sizes.",
            _in_band_errors(_split_log_by_predicate),
        ),
        Tool(
            "compare_group_dfgs",
            "Compares the directly-follows graphs of the two event logs stored "
            "in entity memory under the keys named on the 'groups: @key1,@key2' "
            "directive line and returns a textual list of insights: edges that "
            "occur only in one group, frequency shifts, and duration shifts. "
            "Reads optional 'shift_threshold: <x>' and 'limit: <n>' lines.",
            _in_band_errors(_compare_group_dfgs),
        ),
    )
