"""Byte-for-byte pins on the CSVs that ``gridp2p simulate`` writes.

The ``compare`` digests in ``golden_sha256.json`` were taken while settlement
still re-summed every pairwise trade, so they pin the per-participant legs to
that result; any change to a number, a row or the row order fails here. The
``grid-only`` and ``third-party`` digests were taken while every baseline slot
was still settled as it was run, so they pin the slots settled on first read
to that result. The ``seed0-n192`` compare digests were taken while every
pooled peak still built its pairwise trades eagerly, so they pin the rows
formatted from the pools, at a larger integer width than the n96 cases.
The ``scenario`` digests pin the JSON that ``gen-fixture`` and
``emit_scenario`` write, taken while each record's keys were still written
out by hand; the ``n192-s22`` and ``n24-s1344`` ones, at the benchmark's
fleet and long-horizon shapes, were taken while every file was still written
by ``json.dumps(..., indent=2)`` and every value drawn by ``random.uniform``.
The ``seed0-n24-s1344`` compare digests, at the benchmark's long-horizon
shape, were taken while ``trades.csv`` was still written one call per row.
The ``seed0-n768`` compare digests, whose unreduced pair denominators reach
71 bits, were taken while each pool block was still handed over unreduced.
The ``quoted-ids`` digests pin a compare run whose prosumer ids
need CSV quoting, taken while every ``trades.csv`` row still went through
``csv.writer``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import fixtures
from conftest import golden_case
from gridp2p.cli import EXIT_OK, main
from gridp2p.core import emit_scenario, make_case_study_scenario, save_scenario
from gridp2p.reports import audit_run

GOLDEN = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())
BASELINES = [(mode, case) for mode in ("grid-only", "third-party") for case in sorted(GOLDEN[mode])]


def _simulate_digests(case: str, mode: str, out: Path) -> dict[str, str]:
    seed, sizes = golden_case(case)
    slots = ["--slots", str(sizes["slots"])] if "slots" in sizes else []
    code = main(["simulate", "--seed", str(seed), "--prosumers", str(sizes["n_prosumers"]), *slots,
                 "--mode", mode, "--out", str(out)])
    assert code == EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("case", sorted(GOLDEN["compare"]))
def test_compare_csvs_match_golden_digests(case, tmp_path):
    assert _simulate_digests(case, "compare", tmp_path) == GOLDEN["compare"][case]


@pytest.mark.parametrize("mode, case", BASELINES, ids=[f"{mode}-{case}" for mode, case in BASELINES])
def test_baseline_csvs_match_golden_digests(mode, case, tmp_path):
    assert _simulate_digests(case, mode, tmp_path) == GOLDEN[mode][case]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_scenario_json_matches_golden_digests(tmp_path):
    digests = {}
    for name, args in (
        ("gen-fixture-seed0-n12", ["--seed", "0"]),
        ("gen-fixture-seed7-n96-s48", ["--seed", "7", "--prosumers", "96", "--slots", "48"]),
        ("gen-fixture-seed0-n192-s22", ["--seed", "0", "--prosumers", "192", "--slots", "22"]),
        ("gen-fixture-seed0-n24-s1344", ["--seed", "0", "--prosumers", "24", "--slots", "1344"]),
    ):
        assert main(["gen-fixture", *args, "--out", str(tmp_path / name)]) == EXIT_OK
        digests[name] = _sha256((tmp_path / name).read_bytes())
    for name in ("uniform_auction_scenario", "blended_price_scenario", "two_coalition_demo_scenario"):
        digests[name] = _sha256(emit_scenario(getattr(fixtures, name)()).encode())
    scenario = make_case_study_scenario(5, n_prosumers=4, slots=3)
    first = replace(scenario.prosumers[0], alpha=(7.5, 8.25, 9.0))
    per_slot_alpha = replace(scenario, prosumers=(first, *scenario.prosumers[1:]))
    digests["per-slot-alpha"] = _sha256(emit_scenario(per_slot_alpha).encode())
    assert digests == GOLDEN["scenario"]


def test_quoted_ids_match_golden_digests(tmp_path):
    # Ids holding a comma, a quote, a newline, a leading space and a
    # semicolon; the sixth prosumer keeps its plain id.
    scenario = make_case_study_scenario(5, n_prosumers=6, slots=6)
    names = ("a,b", 'q"uote', "new\nline", " lead", "semi;colon")
    renamed = tuple(replace(p, id=name) for p, name in zip(scenario.prosumers, names))
    save_scenario(replace(scenario, prosumers=renamed + scenario.prosumers[5:]), tmp_path / "quoted.json")
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(tmp_path / "quoted.json"), "--mode", "compare", "--out", str(out)])
    assert code == EXIT_OK
    digests = {p.name: _sha256(p.read_bytes()) for p in sorted(out.glob("*.csv"))}
    assert digests == GOLDEN["quoted-ids"]["seed5-n6-s6"]
    assert audit_run(out) == []
