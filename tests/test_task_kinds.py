from __future__ import annotations

import pytest

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

from conftest import plain_task


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
