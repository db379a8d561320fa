"""scripts/make_demo_fixtures.py regenerates the shipped demo logs byte for
byte, so a change to the generator or to a shipped log shows here, by
file name."""

from __future__ import annotations

import sys

import pytest

from test_perfbench_checks import ROOT, load_by_path

DATA_DIR = ROOT / "src" / "agwf" / "data"


@pytest.mark.parametrize("name", ["purchase_log", "fairness_log"])
def test_the_fixture_generator_writes_the_shipped_logs(monkeypatch, tmp_path, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    fixtures = load_by_path(monkeypatch, "make_demo_fixtures",
                            ROOT / "scripts" / "make_demo_fixtures.py")
    written = tmp_path / f"{name}.xes"
    fixtures.write_xes(written, getattr(fixtures, name)())
    assert written.read_bytes() == (DATA_DIR / f"{name}.xes").read_bytes()
