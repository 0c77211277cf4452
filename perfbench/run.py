"""Run one gridp2p benchmark workload and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet-192 --seed 1 --seconds 36 --trace 0

The scenarios are generated from ``--seed``; the package under ``src/`` is
imported from the checkout itself, never from an installed copy. With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the run's metadata. The full record
(and, when tracing, the spans) is written under ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"


def _import_package():
    if not (SRC / "gridp2p" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'gridp2p'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gridp2p

    if Path(gridp2p.__file__).resolve().parent != SRC / "gridp2p":
        sys.exit(f"perfbench: imported gridp2p from {gridp2p.__file__}, not from {SRC}")


def _commit() -> str | None:
    """The checkout's git commit, or None when it is not a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package source, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gridp2p").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    _import_package()
    from harness import WORKLOADS, measure

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to run studies")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = RUN_DIR / f"work-{os.getpid()}"
    RUN_DIR.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    try:
        result = measure(
            workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            spans_path=RUN_DIR / f"{tag}.spans.tsv" if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = result.pop("detail")
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **detail,
    }
    (RUN_DIR / f"{tag}.json").write_text(json.dumps({"meta": meta, **result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
