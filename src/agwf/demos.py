"""Bundled demo workflows over the shipped synthetic event logs.

The demo CLI subcommand accepts every name in BUNDLE_NAMES.  "fairness"
splits the log into protected and non-protected cases and compares the
groups' behavior; "rca" drafts root causes from the DFG, grades them, and
walks through the reasoning for the first one.  The "anomaly" bundle
(prompt optimizer, DFG analysis, variant analysis, ensemble) is the
four-task shape also used by the acceptance suite.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .agents import ScriptedBackend
from .workflow_config import load_scripted_rules, load_workflow
from .workflow_engine import WorkflowSpec

#: all shipped bundles, each runnable with the demo CLI subcommand
BUNDLE_NAMES = ("fairness", "rca", "anomaly")


def data_path(filename: str) -> Path:
    return Path(str(resources.files("agwf").joinpath("data", filename)))


def demo_workflow(name: str) -> WorkflowSpec:
    _check(name)
    return load_workflow(data_path(f"{name}_workflow.json"))


def demo_rules_backend(name: str) -> ScriptedBackend:
    _check(name)
    return load_scripted_rules(data_path(f"{name}_rules.json"))


def demo_inquiry(name: str) -> str:
    _check(name)
    if name == "fairness":
        # the directive lines come first so that the path token is the last
        # log reference in the state when the split tool resolves it
        log = data_path("fairness_log.xes")
        return (
            'predicate: gender = "F"\n'
            "store_as: protected,non_protected\n"
            "groups: @protected,@non_protected\n"
            f"Assess whether the process treats the protected group differently "
            f"from everyone else. The event log is at {log}."
        )
    log = data_path("purchase_log.xes")
    if name == "rca":
        return f"Why do cases take so long in the process recorded at {log}?"
    return f"List the rule violations in the process recorded at {log}."


def _check(name: str) -> None:
    if name not in BUNDLE_NAMES:
        raise ValueError(f"unknown demo {name!r}; known: {', '.join(BUNDLE_NAMES)}")
