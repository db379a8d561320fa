"""Bundled demo workflows over the shipped synthetic event logs.

The demo CLI subcommand accepts every name in BUNDLE_NAMES.  "fairness"
splits the log into protected and non-protected cases and compares the
groups' behavior; "rca" drafts root causes from the DFG, grades them, and
walks through the reasoning for the first one.  The "anomaly" bundle
(prompt optimizer, DFG analysis, variant analysis, ensemble) is the
four-task shape also used by the acceptance suite.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

#: all shipped bundles, each runnable with the demo CLI subcommand
BUNDLE_NAMES = ("fairness", "rca", "anomaly")


class Bundle(NamedTuple):
    workflow: Path
    rules: Path
    inquiry: str


def data_path(filename: str) -> Path:
    from importlib import resources  # here, so that `agwf run` does not load it

    return Path(str(resources.files("agwf").joinpath("data", filename)))


def bundle(name: str) -> Bundle:
    """The named bundle's workflow and rules files and its inquiry."""
    if name not in BUNDLE_NAMES:
        raise ValueError(f"unknown demo {name!r}; known: {', '.join(BUNDLE_NAMES)}")
    log = data_path("fairness_log.xes" if name == "fairness" else "purchase_log.xes")
    if name == "fairness":
        # the directive lines come first so that the path token is the last
        # log reference in the state when the split tool resolves it
        inquiry = (
            'predicate: gender = "F"\n'
            "store_as: protected,non_protected\n"
            "groups: @protected,@non_protected\n"
            f"Assess whether the process treats the protected group differently "
            f"from everyone else. The event log is at {log}."
        )
    elif name == "rca":
        inquiry = f"Why do cases take so long in the process recorded at {log}?"
    else:
        inquiry = f"List the rule violations in the process recorded at {log}."
    return Bundle(data_path(f"{name}_workflow.json"), data_path(f"{name}_rules.json"), inquiry)
