"""Smoke tests of the scripts in ``scripts/``: each runs the three modes end to end."""

import os
import subprocess
import sys
from pathlib import Path

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
