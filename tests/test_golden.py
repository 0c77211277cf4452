"""Byte-for-byte pins on the CSVs of ``gridp2p simulate --mode compare``.

The digests in ``golden_compare_sha256.json`` were taken while settlement
still re-summed every pairwise trade, so they pin the per-participant legs to
that result; any change to a number, a row or the row order fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gridp2p.cli import EXIT_OK, main

GOLDEN = json.loads((Path(__file__).parent / "golden_compare_sha256.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_compare_csvs_match_golden_digests(case, tmp_path):
    seed, n = case.removeprefix("seed").split("-n")
    code = main(["simulate", "--seed", seed, "--prosumers", n, "--mode", "compare", "--out", str(tmp_path)])
    assert code == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.glob("*.csv"))}
    assert digests == GOLDEN[case]
