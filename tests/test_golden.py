"""Byte-for-byte pins on the CSVs that ``gridp2p simulate`` writes.

The ``compare`` digests in ``golden_sha256.json`` were taken while settlement
still re-summed every pairwise trade, so they pin the per-participant legs to
that result; any change to a number, a row or the row order fails here. The
``grid-only`` and ``third-party`` digests were taken while every baseline slot
was still settled as it was run, so they pin the slots settled on first read
to that result. The ``seed0-n192`` compare digests were taken while every
pooled peak still built its pairwise trades eagerly, so they pin the rows
formatted from the pools, at a larger integer width than the n96 cases.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gridp2p.cli import EXIT_OK, main

GOLDEN = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())
BASELINES = [(mode, case) for mode in ("grid-only", "third-party") for case in sorted(GOLDEN[mode])]


def _simulate_digests(case: str, mode: str, out: Path) -> dict[str, str]:
    seed, n = case.removeprefix("seed").split("-n")
    code = main(["simulate", "--seed", seed, "--prosumers", n, "--mode", mode, "--out", str(out)])
    assert code == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("case", sorted(GOLDEN["compare"]))
def test_compare_csvs_match_golden_digests(case, tmp_path):
    assert _simulate_digests(case, "compare", tmp_path) == GOLDEN["compare"][case]


@pytest.mark.parametrize("mode, case", BASELINES, ids=[f"{mode}-{case}" for mode, case in BASELINES])
def test_baseline_csvs_match_golden_digests(mode, case, tmp_path):
    assert _simulate_digests(case, mode, tmp_path) == GOLDEN[mode][case]
