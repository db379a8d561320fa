"""Task kinds: per-kind prompt templates and the ROUTE/SCORE protocols.

Routing and evaluation stay inside the fixed task sequence: a router's
reply ends with a ``ROUTE: <token>`` line that downstream guards read,
and an evaluator's reply ends with ``SCORE: <value>`` in [1.0, 10.0]
that drives the bounded wrap-back retry.  Both line protocols are part
of the versioned contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .workflow_engine import TaskSpec

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


@dataclass(frozen=True)
class RouterGuard:
    """Skip the guarded task unless the router's own reply routed to it."""

    router_task_id: str
    expected_route_token: str


@dataclass(frozen=True)
class EvaluatorResult:
    score: float
    rationale: str


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


def build_prompt(task: "TaskSpec", state: str, tool_output: str | None = None,
                 route_options: Sequence[str] = ()) -> str:
    """Assemble the user prompt for a task, deterministically.

    Skeleton: state, tool output (if any), kind framing, instruction,
    expected-output line, plus the ROUTE/SCORE protocol instruction for
    routers and evaluators.
    """
    parts = [state]
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


_ROUTE_RE = re.compile(r"^ROUTE:[ \t]*(.+?)[ \t]*$", re.MULTILINE)
_SCORE_RE = re.compile(r"^SCORE:[ \t]*([+-]?\d+(?:\.\d+)?)[ \t]*$", re.MULTILINE)


def parse_route(response: str) -> str:
    """Token from the last ``ROUTE: <token>`` line."""
    found = _ROUTE_RE.findall(response)
    if not found:
        raise RouteMissing("no 'ROUTE: <token>' line in response")
    return found[-1]


def parse_score(response: str) -> EvaluatorResult:
    """Score from the last ``SCORE: <number>`` line; out-of-range rejects."""
    matches = list(_SCORE_RE.finditer(response))
    if not matches:
        raise ScoreMissing("no 'SCORE: <number>' line in response")
    last = matches[-1]
    score = float(last.group(1))
    if not SCORE_MIN <= score <= SCORE_MAX:
        raise ScoreOutOfRange(f"score {score} outside [{SCORE_MIN}, {SCORE_MAX}]")
    rationale = (response[: last.start()] + response[last.end():]).strip()
    return EvaluatorResult(score=score, rationale=rationale)


def apply_wrap_back(evaluator: "TaskSpec", result: EvaluatorResult,
                    retries_used: int) -> str:
    """Decide whether a low score re-runs the evaluated task.

    Returns "retry" while the score is below the threshold and the retry
    budget is not exhausted, "accept" otherwise; exhaustion is not an
    error (the record flags the accepted-but-low result).
    """
    config = evaluator.evaluator_config
    if config is None:
        raise ValueError(f"task {evaluator.id!r} has no evaluator configuration")
    if result.score < config.threshold and retries_used < config.max_retries:
        return "retry"
    return "accept"
