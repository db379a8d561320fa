#!/usr/bin/env python3
"""Set-up cost of `agwf run`, measured in a fresh interpreter.

    python3 setup_probe.py WORKFLOW (--scripted RULES | --http URL)

Imports agwf.cli from the checkout's src/, loads the workflow and rules
files and builds the backend, the way `agwf run` does before executing.
Prints one JSON object with the seconds each phase took.
"""

import sys
import time

start = time.perf_counter()
import agwf.cli as cli  # noqa: E402  (run.py puts the checkout's src/ first on PYTHONPATH)

imported = time.perf_counter()
workflow, flag, target = sys.argv[1:4]
cli.load_workflow(workflow)
loaded = time.perf_counter()
if flag == "--scripted":
    cli.load_scripted_rules(target)
else:
    cli.http_chat_backend(target)
built = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "module": cli.__file__,
    "import_s": imported - start,
    "load_workflow_s": loaded - imported,
    "load_rules_s": built - loaded if flag == "--scripted" else 0.0,
    "setup_s": built - start,
}))
