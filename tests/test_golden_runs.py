import importlib.util
import sys
from pathlib import Path

import pytest

import ottokiln.cli

ROOT = Path(__file__).resolve().parents[1]


def load_golden_runs():
    spec = importlib.util.spec_from_file_location("golden_runs", ROOT / "tools" / "golden_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _crash(argv):
    raise RuntimeError("boom")


@pytest.mark.parametrize("cli_main,code", [(_crash, 1), (lambda argv: 0, 0)], ids=["raises", "returns"])
def test_golden_runs_exit_1_when_an_exception_escapes_the_cli(tmp_path, monkeypatch, capsys, cli_main, code):
    golden_runs = load_golden_runs()
    monkeypatch.setattr(ottokiln.cli, "main", cli_main)
    monkeypatch.setattr(golden_runs, "CI_RUNS", [("one-run", "simulate", [], None)])
    monkeypatch.setattr(golden_runs, "EDGE_RUNS", [])
    monkeypatch.setattr(golden_runs, "_workload_runs", lambda: [])
    monkeypatch.setattr(golden_runs, "TRACE_CONFIGS", [])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)  # main changes into OUT
    out = tmp_path / "out"
    assert golden_runs.main([str(ROOT), str(out)]) == code
    err = capsys.readouterr().err
    recorded = (out / "one-run.txt").read_text()
    if code:
        assert err == "one-run: an exception escaped cli.main (see one-run.txt)\n"
        assert "exit raised RuntimeError: boom\n" in recorded
    else:
        assert err == "" and "exit 0\n" in recorded
