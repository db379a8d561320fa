from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from agwf import cli
from agwf.demos import BUNDLE_NAMES, data_path, demo_inquiry, demo_workflow
from agwf.event_log import DEFAULT_CSV_MAPPING, discover_dfg, parse_csv, parse_xes
from agwf.pm_tools import abstract_dfg
from agwf.workflow_engine import linearize

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def anomaly_args(tmp_path):
    workflow = str(data_path("anomaly_workflow.json"))
    rules = str(data_path("anomaly_rules.json"))
    inquiry = demo_inquiry("anomaly")
    output = tmp_path / "transcript.json"
    return workflow, rules, inquiry, output


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_bundled_workflow_ok(capsys):
    assert run_cli("validate", str(data_path("anomaly_workflow.json"))) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_cycle_exits_1(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "agents": [{"id": "a", "role_prompt": "r"}],
        "tasks": [
            {"id": "T1", "agent": "a", "instruction": "x", "prec": []},
            {"id": "T2", "agent": "a", "instruction": "x", "prec": ["T3"]},
            {"id": "T3", "agent": "a", "instruction": "x", "prec": ["T2"]},
        ],
        "initial_task": "T1",
        "final_task": "T3",
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)) == 1
    assert "CycleDetected" in capsys.readouterr().out


def test_validate_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run_cli("validate", str(path)) == 2


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_anomaly_demo(anomaly_args, capsys):
    workflow, rules, inquiry, output = anomaly_args
    code = run_cli(
        "run", workflow, "--inquiry", inquiry, "--scripted", rules,
        "--output", str(output),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "output of final task combine_insights" in out
    transcript = json.loads(output.read_text())
    assert transcript["task_sequence"] == [
        "optimize_inquiry", "dfg_insights", "variant_insights", "combine_insights"
    ]
    assert transcript["aborted"] is False
    assert transcript["states"][-1].count("=== output of ") == 4


def test_run_missing_log_records_tool_error(anomaly_args, capsys):
    workflow, rules, _, output = anomaly_args
    code = run_cli(
        "run", workflow,
        "--inquiry", "List the rule violations in the log at /nowhere/gone.xes.",
        "--scripted", rules, "--output", str(output),
    )
    assert code == 1
    transcript = json.loads(output.read_text())
    tool_outputs = [d["tool_output"] for d in transcript["details"].values()]
    assert any(t.startswith("TOOL-ERROR:") for t in tool_outputs)


def test_run_requires_backend(anomaly_args):
    workflow, _, inquiry, _ = anomaly_args
    assert run_cli("run", workflow, "--inquiry", inquiry) == 2


def test_run_rejects_two_backends(anomaly_args):
    workflow, rules, inquiry, _ = anomaly_args
    code = run_cli(
        "run", workflow, "--inquiry", inquiry,
        "--scripted", rules, "--http", "http://localhost:1",
    )
    assert code == 2


def test_run_missing_workflow_file_exits_2(tmp_path):
    assert run_cli("run", str(tmp_path / "none.json"), "--inquiry", "q") == 2


# ---------------------------------------------------------------------------
# abstract
# ---------------------------------------------------------------------------

def test_abstract_dfg_matches_library(capsys, data_dir, tmp_path):
    path = data_dir / "two_traces.xes"
    assert run_cli("abstract", str(path), "--kind", "dfg") == 0
    printed = capsys.readouterr().out
    expected = abstract_dfg(discover_dfg(parse_xes(path.read_text(), str(path))), 25)
    assert printed == expected + "\n"

    csv_path = tmp_path / "log.csv"
    csv_path.write_text(
        "case_id,activity,timestamp\n"
        "c1,Request,2024-03-01T09:00:00+00:00\n"
        "c1,Approve,2024-03-01T10:00:00+00:00\n"
        "c2,Request,2024-03-01T09:30:00+00:00\n"
    )
    assert run_cli("abstract", str(csv_path), "--kind", "dfg") == 0
    printed = capsys.readouterr().out
    log = parse_csv(csv_path.read_text(), DEFAULT_CSV_MAPPING, str(csv_path))
    assert printed == abstract_dfg(discover_dfg(log), 25) + "\n"
    assert "Request -> Approve (freq=1, avg_dur=3600.0s)" in printed


def test_abstract_variants_top_k(capsys, data_dir):
    path = data_dir / "two_traces.xes"
    assert run_cli("abstract", str(path), "--kind", "variants", "--top-k", "1") == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "Variants (top 1 of 2):"
    assert len(printed) == 2


def test_abstract_bad_path_exits_2():
    assert run_cli("abstract", "/no/such/file.xes", "--kind", "dfg") == 2


def test_abstract_rejects_bad_top_k(data_dir):
    path = data_dir / "two_traces.xes"
    assert run_cli("abstract", str(path), "--kind", "dfg", "--top-k", "0") == 2


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def test_demo_fairness_default_rules(tmp_path, capsys):
    output = tmp_path / "fairness.json"
    assert run_cli("demo", "fairness", "--scripted", "--output", str(output)) == 0
    transcript = json.loads(output.read_text())
    compare = transcript["details"]["compare_groups"]
    assert "Request -> Extra Check: only in group A" in compare["tool_output"]
    split = transcript["details"]["identify_groups"]
    assert "protected=20 cases, non-protected=20 cases" in split["tool_output"]


def documented_detail_keys():
    """The per-task detail keys README's transcript section lists, in order."""
    listed = re.search(r"`details` per task \(([^)]*)\)", README.read_text()).group(1)
    return re.findall(r"`(\w+)`", listed)


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_demo_bundle(name, tmp_path, capsys):
    output = tmp_path / f"{name}.json"
    assert run_cli("demo", name, "--output", str(output)) == 0
    transcript = json.loads(output.read_text())
    assert transcript["task_sequence"] == linearize(demo_workflow(name))
    keys = documented_detail_keys()
    for detail in transcript["details"].values():
        assert list(detail) == keys
    if name == "rca":
        out = capsys.readouterr().out
        assert "SCORE: 7.5" in out
        assert "step" in out.lower()


def test_demo_unknown_name_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli("demo", "nonsense")
    assert err.value.code == 2


def test_demo_http_backend_via_env(monkeypatch, tmp_path):
    # a stub endpoint that answers every prompt with a score-bearing reply,
    # good enough for all three rca tasks
    import json as jsonlib
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = jsonlib.dumps(
                {"choices": [{"message": {"content": "stub findings\nSCORE: 7.0"}}]}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        monkeypatch.setenv(
            "AGWF_ENDPOINT", f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
        )
        monkeypatch.setenv("AGWF_API_KEY", "test-key")
        output = tmp_path / "rca_http.json"
        assert run_cli("demo", "rca", "--http", "--output", str(output)) == 0
        transcript = json.loads(output.read_text())
        assert transcript["details"]["grade_causes"]["score"] == 7.0
    finally:
        server.shutdown()
        server.server_close()
