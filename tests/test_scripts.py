"""Smoke tests of the scripts in ``scripts/``: each runs the three modes end to end; and
``scripts/reach.py``'s line counting, on small modules of its own, with the suite stubbed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_run_case_study_script(tmp_path):
    out = tmp_path / "case"
    lines = _run_script("run_case_study.py", "--seed", "1", "--out", str(out))
    assert lines[0] == "scenario: seed=1, 12 prosumers, 22 slots"
    assert lines[-1] == f"reports written to {out}"
    assert {p.name for p in out.glob("*.csv")} == {
        "prices.csv", "cps_cost.csv", "coalitions.csv", "trades.csv", "summary.csv"
    }


def test_prosumer_scaling_script():
    lines = _run_script("prosumer_scaling.py", "--slots", "4", "--counts", "12", "24")
    assert lines[0].split() == [
        "N", "cps", "cost", "p2p", "cps", "cost", "no-p2p", "cost/prosumer", "p2p", "cost/prosumer", "no-p2p"
    ]
    assert [line.split()[0] for line in lines[2:]] == ["12", "24"]


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_counts_no_line_of_a_main_guard_body(tmp_path):
    source = 'import sys\n\n\ndef f():\n    return 1\n\n\nif __name__ == "__main__":\n    f()\n    sys.exit(0)\n'
    path = tmp_path / "mod.py"
    path.write_text(source)
    # The import, the def and its body, and the guard's test; not the guard's body.
    assert _reach().executable_lines(path, source) == {1, 4, 5, 8}


def test_reach_lists_the_text_read_before_the_suite_ran(tmp_path, monkeypatch, capsys):
    reach = _reach()
    package = tmp_path / "src" / "gridp2p"
    package.mkdir(parents=True)
    module = package / "mod.py"
    module.write_text("x = 1\ny = 2\n")
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.delitem(sys.modules, "gridp2p", raising=False)
    monkeypatch.chdir(tmp_path)

    def suite(args):
        # The suite imports nothing from the package, and the file changes meanwhile.
        module.write_text("# edited\n# while\n# the suite ran\n")
        return 0

    monkeypatch.setattr(pytest, "main", suite)
    # Untraced, so a traced run of this suite keeps its own tracer.
    monkeypatch.setattr(reach.PackageTrace, "runfunc", lambda self, func, *args: func(*args))
    assert reach.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/gridp2p/mod.py:1: x = 1",
        "src/gridp2p/mod.py:2: y = 2",
        "reach: 2 unreached line(s) outside the allow-list; tier-1 exit status 0",
    ]
