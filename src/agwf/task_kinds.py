"""Task kinds: per-kind prompt templates and the ROUTE/SCORE protocols.

Routing and evaluation stay inside the fixed task sequence: a router's
reply ends with a ``ROUTE: <token>`` line that downstream guards read,
and an evaluator's reply ends with ``SCORE: <value>`` in [1.0, 10.0]
that drives the bounded wrap-back retry.  Both line protocols are part
of the versioned contract.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Sequence

from ._value import FrozenValue

if TYPE_CHECKING:
    from .workflow_engine import EvaluatorConfig, TaskSpec

PLAIN = "plain"
PROMPT_OPTIMIZER = "prompt_optimizer"
ENSEMBLE = "ensemble"
ROUTER = "router"
EVALUATOR = "evaluator"
IMPROVER = "improver"

TASK_KINDS = frozenset({PLAIN, PROMPT_OPTIMIZER, ENSEMBLE, ROUTER, EVALUATOR, IMPROVER})

SCORE_MIN = 1.0
SCORE_MAX = 10.0


class RouteMissing(Exception):
    pass


class ScoreMissing(Exception):
    pass


class ScoreOutOfRange(Exception):
    pass


class RouterGuard(FrozenValue):
    """Skip the guarded task unless the router's own reply routed to it."""

    __slots__ = ("router_task_id", "expected_route_token")

    def __init__(self, router_task_id: str, expected_route_token: str):
        object.__setattr__(self, "router_task_id", router_task_id)
        object.__setattr__(self, "expected_route_token", expected_route_token)


_KIND_FRAMING = {
    PROMPT_OPTIMIZER: (
        "Rewrite the user inquiry so it is clear and actionable for the "
        "next analysis steps."
    ),
    ENSEMBLE: "Combine the insights above into one coherent conclusion.",
    IMPROVER: "Improve the quality and clarity of the previous output.",
    ROUTER: "Decide which branch should handle this inquiry.",
    EVALUATOR: "Assess the quality of the earlier output.",
}


def build_prompt(task: "TaskSpec", tool_output: str | None = None,
                 route_options: Sequence[str] = ()) -> str:
    """The task's own text of its user prompt, deterministically: the
    prompt is the state followed by this text.

    Skeleton after the state, each part opened by a blank line: tool output
    (if any), kind framing, instruction, expected-output line, plus the
    ROUTE/SCORE protocol instruction for routers and evaluators.
    """
    parts = [""]  # the state's place, so the text opens with the blank line
    if tool_output is not None:
        parts.append(f"Tool output:\n{tool_output}")
    framing = _KIND_FRAMING.get(task.kind)
    if framing:
        parts.append(framing)
    parts.append(f"Task: {task.instruction}")
    parts.append(f"Expected output: {task.expected_output}")
    if task.kind == ROUTER:
        options = ", ".join(route_options)
        parts.append(
            f'End your reply with a final line "ROUTE: <option>" '
            f"where <option> is one of: {options}."
        )
    elif task.kind == EVALUATOR:
        parts.append(
            f'End your reply with a final line "SCORE: <value>" '
            f"where <value> is a number between {SCORE_MIN} and {SCORE_MAX}."
        )
    return "\n\n".join(parts)


# each matched by last_line_match against a line stripped of its blanks
_ROUTE_RE = re.compile(r"ROUTE:\s*(\S.*)")
_SCORE_RE = re.compile(r"SCORE:\s*([+-]?\d+(?:\.\d+)?)")


def last_line_match(pattern: re.Pattern[str], reply: str) -> str | None:
    """The group of the last ``str.splitlines`` line of ``reply`` that
    ``pattern`` matches whole once ``str.strip``-ped: the one reader of
    every reply protocol (ROUTE, SCORE and the chosen tool's name)."""
    for line in reversed(reply.splitlines()):
        if match := pattern.fullmatch(line.strip()):
            return match.group(1)
    return None


def parse_route(response: str) -> str:
    """Token from the last ``ROUTE: <token>`` line."""
    token = last_line_match(_ROUTE_RE, response)
    if token is None:
        raise RouteMissing("no 'ROUTE: <token>' line in response")
    return token


def parse_score(response: str) -> float:
    """Score from the last ``SCORE: <number>`` line; out-of-range rejects."""
    found = last_line_match(_SCORE_RE, response)
    if found is None:
        raise ScoreMissing("no 'SCORE: <number>' line in response")
    score = float(found)
    if not SCORE_MIN <= score <= SCORE_MAX:
        raise ScoreOutOfRange(f"score {score} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return score


def apply_wrap_back(config: "EvaluatorConfig", score: float, retries_used: int) -> str:
    """Decide whether a low score re-runs the evaluated task.

    Returns "retry" while the score is below the threshold and the retry
    budget is not exhausted, "accept" otherwise; exhaustion is not an
    error (the record flags the accepted-but-low result).
    """
    if score < config.threshold and retries_used < config.max_retries:
        return "retry"
    return "accept"
