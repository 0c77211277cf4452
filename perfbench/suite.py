"""Run every workload and print every end-to-end metric by name, with its unit.

Usage, from the root of a checkout:

    python3 perfbench/suite.py [--seconds 10]

Runs each workload of BENCHMARK.json twice with seed 0, each run a fresh
``perfbench/run.py`` process, so peak RSS is that of a process running one
workload. The table also shows, from each run's metadata, the raw set-up
and study times in seconds, the study time's 95th percentile where a run
yields enough studies for one (case-sweep), the fail ratio (failed studies
over studies attempted) and the sha256 of the emitted CSVs, and says
whether the two runs emitted identical bytes. Exits 1 if any run failed a
check or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0
REPEATS = 2
# Raw timings kept in each run's metadata; study_p95_s only where a run
# yields enough studies for it.
EXTRA = (
    ("setup_raw_s", "s"),
    ("study_p50_s", "s"),
    ("prosumer_slots_per_s", "1/s"),
    ("study_p95_s", "s"),
    ("reference_s", "s"),
)


def run_once(workload: str, seconds: float) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"suite: {workload} exited with {done.returncode}")
    *_, meta_line, result_line = done.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = [run_once(workload, args.seconds) for _ in range(REPEATS)]
        print(f"== {workload} (seed {SEED}, {args.seconds:g} s per run, {REPEATS} runs)")
        names = list(runs[0][1]["metrics"])
        for name in names:
            values = "  ".join(f"{r['metrics'][name]['value']:.6g}" for _, r in runs)
            print(f"  {name:28s} {values}  {runs[0][1]['metrics'][name]['unit']}")
        for name, unit in EXTRA:
            found = [m[name] for m, _ in runs]
            if None not in found:
                values = "  ".join(f"{v:.6g}" for v in found)
                print(f"  {name:28s} {values}  {unit}  (metadata)")
        for meta, result in runs:
            print(
                f"  fail_ratio {meta['fail_ratio']:g} ({result['failed']}/{result['attempted']} studies)"
                f"  csv_sha256 {meta['csv_sha256']} over {meta['scenarios_covered']} scenario(s)"
            )
            ok &= result["correct"]
        covered = {m["scenarios_covered"] for m, _ in runs}
        if len(covered) == 1:
            same = len({m["csv_sha256"] for m, _ in runs}) == 1
            print(f"  csv digests identical across runs: {'yes' if same else 'NO'}")
            ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
