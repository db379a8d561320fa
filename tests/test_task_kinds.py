from __future__ import annotations

import pytest

from agwf.agents import ScriptedBackend, ToolSelectionFailed, rule, select_tool, selection_prompt
from agwf.pm_tools import Tool
from agwf.task_kinds import (
    EVALUATOR,
    ROUTER,
    RouteMissing,
    ScoreMissing,
    ScoreOutOfRange,
    apply_wrap_back,
    build_prompt,
    parse_route,
    parse_score,
)
from agwf.workflow_engine import EvaluatorConfig, TaskSpec

from conftest import AGENT, plain_task


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

def test_build_prompt_plain():
    task = plain_task("t1", instruction="list the problems", expected_output="a list")
    prompt = build_prompt(task)
    # the text that follows the state opens with the blank line after it
    assert prompt.startswith("\n\n")
    assert "Task: list the problems" in prompt
    assert prompt.endswith("Expected output: a list")
    assert "ROUTE:" not in prompt and "SCORE:" not in prompt


def test_build_prompt_includes_tool_output():
    task = plain_task("t1")
    prompt = build_prompt(task, tool_output="TOOLTEXT")
    assert prompt.startswith("\n\nTool output:\nTOOLTEXT")
    assert prompt.index("TOOLTEXT") < prompt.index("Task:")


def test_build_prompt_router_lists_options():
    task = plain_task("r", kind=ROUTER, instruction="pick a branch")
    prompt = build_prompt(task, route_options=["code_gen", "llm_insights"])
    assert "code_gen, llm_insights" in prompt
    assert 'ROUTE: <option>' in prompt


def test_build_prompt_evaluator_score_instruction():
    task = plain_task(
        "e", kind=EVALUATOR,
        evaluator_config=EvaluatorConfig(threshold=5.0, target_task_id="t"),
    )
    prompt = build_prompt(task)
    assert 'SCORE: <value>' in prompt
    assert "between 1.0 and 10.0" in prompt


def test_build_prompt_is_pure():
    task = plain_task("t1")
    assert build_prompt(task, "T") == build_prompt(task, "T")


# ---------------------------------------------------------------------------
# ROUTE protocol
# ---------------------------------------------------------------------------

def test_parse_route_token():
    assert parse_route("thinking...\nROUTE: code_gen") == "code_gen"


def test_parse_route_missing():
    with pytest.raises(RouteMissing):
        parse_route("no routing here")


def test_parse_route_last_wins():
    assert parse_route("ROUTE: a\nmore\nROUTE: b") == "b"


def test_parse_route_reads_crlf_lines():
    assert parse_route("A fits.\r\nROUTE: a\r\n") == "a"
    assert parse_route("ROUTE: a \r\nmore\r\nROUTE:\tb\t\r") == "b"


def test_parse_route_reads_lone_cr_lines():
    assert parse_route("A fits.\rROUTE: a\r") == "a"
    assert parse_route("ROUTE: a\rmore\rROUTE: b") == "b"


@pytest.mark.parametrize("response", [
    "ROUTE: ", "ROUTE:", "ROUTE:\t\t\n", "ROUTE:  \r\n", "ROUTE: \r", "A fits.\nROUTE: \n",
])
def test_parse_route_rejects_a_blank_token(response):
    with pytest.raises(RouteMissing):
        parse_route(response)


def test_parse_route_skips_a_blank_route_line():
    assert parse_route("ROUTE: a\nROUTE: \n") == "a"


# ---------------------------------------------------------------------------
# SCORE protocol
# ---------------------------------------------------------------------------

def test_parse_score_returns_the_value():
    assert parse_score("weak evidence\nSCORE: 3.0") == 3.0
    assert parse_score("SCORE: 7") == 7.0


def test_parse_score_out_of_range():
    with pytest.raises(ScoreOutOfRange):
        parse_score("SCORE: 11")
    with pytest.raises(ScoreOutOfRange):
        parse_score("SCORE: 0.5")


def test_parse_score_missing():
    with pytest.raises(ScoreMissing):
        parse_score("fine")


def test_parse_score_last_line_wins():
    assert parse_score("SCORE: 2.0\nrevised\nSCORE: 9.5") == 9.5


def test_parse_score_reads_crlf_lines():
    assert parse_score("fine\r\nSCORE: 8\r\n") == 8.0
    assert parse_score("SCORE: 2.0\r\nrevised\r\nSCORE: 9.5 \r") == 9.5


def test_parse_score_reads_lone_cr_lines():
    assert parse_score("fine\rSCORE: 8\r") == 8.0
    assert parse_score("SCORE: 2.0\rrevised\rSCORE: 9.5") == 9.5


# ---------------------------------------------------------------------------
# One line rule for every reply protocol: ROUTE, SCORE and the chosen tool
# ---------------------------------------------------------------------------

TOOLS = [Tool(name, f"docs for {name}", lambda s, m: s) for name in ("a", "b")]


def choose_tool(reply: str) -> str:
    """The name of the tool that ``reply``, given to the ask and the re-ask, chooses."""
    backend = ScriptedBackend([rule("Choose", reply)])
    return select_tool(AGENT, backend, "state" + selection_prompt(TOOLS), TOOLS).name


#: protocol -> (its label, its reader, a value, what the value reads as)
PROTOCOLS = {
    "route": ("ROUTE:", parse_route, "a", "a"),
    "score": ("SCORE:", parse_score, "8", 8.0),
    "tool": ("", choose_tool, "a", "a"),
}
#: what each reader raises when no line holds a value
MISSING = (RouteMissing, ScoreMissing, ToolSelectionFailed)

LINE_ENDS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r", "U+2028": "\u2028"}
BLANKS = {"space": " ", "tab": "\t", "U+00A0": "\u00a0", "U+3000": "\u3000", "U+001F": "\x1f"}
#: where a blank goes: the keyword of reply() that places it
PLACES = {"before the label": "before", "after the label": "after_label", "at the end": "after"}


def reply(label: str, value: str, end: str, before: str = "", after_label: str = " ",
          after: str = "") -> str:
    """A reply whose last line gives ``value`` after ``label``, its blanks placed."""
    return f"Thinking it over.{end}{before}{label}{after_label}{value}{after}{end}"


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("blank", BLANKS)
@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_blank_around_the_value_is_not_part_of_it(protocol, end, blank, place):
    label, read, value, expected = PROTOCOLS[protocol]
    text = reply(label, value, LINE_ENDS[end], **{PLACES[place]: BLANKS[blank] * 2})
    assert read(text) == expected


@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_last_line_with_a_value_wins(protocol, end):
    label, read, value, expected = PROTOCOLS[protocol]
    end = LINE_ENDS[end]
    other = "b" if protocol == "tool" else "7"
    assert read(f"{label} {other}{end}{reply(label, value, end)}") == expected
    assert read(f"{label} {other}{end}{reply(label, value, end)}  {end}") == expected


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_zero_width_space_is_no_blank(protocol):
    label, read, value, _ = PROTOCOLS[protocol]
    text = reply(label, value + "\u200b", "\n")
    if protocol == "route":
        assert read(text) == "a\u200b"
    else:  # neither a number nor a tool's name
        with pytest.raises(MISSING):
            read(text)


@pytest.mark.parametrize("blank", ["", *BLANKS.values(), " \t\u00a0\u3000"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_blank_value_is_no_value(protocol, blank):
    label, read, _, _ = PROTOCOLS[protocol]
    with pytest.raises(MISSING):
        read(reply(label, "", "\n", after_label=blank))


# ---------------------------------------------------------------------------
# Wrap-back decision
# ---------------------------------------------------------------------------

def evaluator_config(threshold=5.0, max_retries=2):
    return EvaluatorConfig(threshold=threshold, target_task_id="t", max_retries=max_retries)


def test_wrap_back_retries_below_threshold():
    assert apply_wrap_back(evaluator_config(), 3.0, 0) == "retry"


def test_wrap_back_accepts_good_score():
    assert apply_wrap_back(evaluator_config(), 9.0, 0) == "accept"


def test_wrap_back_accepts_after_exhaustion():
    assert apply_wrap_back(evaluator_config(max_retries=2), 3.0, 2) == "accept"


def test_evaluator_config_rejects_out_of_range_threshold():
    with pytest.raises(ValueError):
        EvaluatorConfig(threshold=0.5, target_task_id="t")
