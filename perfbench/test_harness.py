"""Tests of the benchmark itself, on tiny versions of each workload.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from gridp2p import Venue, engine  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Same code path as the real workloads, at sizes that run in milliseconds.
TINY = {
    "fleet-192": dataclasses.replace(harness.WORKLOADS["fleet-192"], prosumers=8),
    "long-horizon": dataclasses.replace(harness.WORKLOADS["long-horizon"], prosumers=4, slots=96),
    "case-sweep": dataclasses.replace(harness.WORKLOADS["case-sweep"], scenarios=3),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(tmp_path, name, trace):
    result = harness.measure(TINY[name], seed=3, seconds=0.0, trace=trace, workdir=tmp_path)
    assert result["correct"], result["detail"]["failures"]
    assert result["attempted"] == 2
    assert result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["detail"]["absent_hooks"] == []
        assert result["metrics"]["leader.calls"]["value"] == 3 * TINY[name].slots
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _fail_once(monkeypatch, module, attr, failure):
    """Patch ``module.attr`` so that ``failure`` alters the first result it applies to.

    ``failure`` takes the real result and returns the altered one, or None
    where it does not apply; it may also raise.
    """
    original = getattr(module, attr)
    done = []

    def patched(*args, **kwargs):
        result = original(*args, **kwargs)
        if not done:
            done.append(1)
            altered = failure(result)
            if altered is not None:
                return altered
            done.pop()
        return result

    monkeypatch.setattr(module, attr, patched)


def _raise(result):
    raise RuntimeError("forced")


def _audit_problem(problems):
    return ["forced problem"]


def _leak_energy(result):
    return dataclasses.replace(result, trades=result.trades[1:])


def _first_trade(result, venue):
    return next((i for i, t in enumerate(result.trades) if t.venue is venue), None)


def _drop_auction_trade(result):
    i = _first_trade(result, Venue.AUCTION)
    if i is None:
        return None
    return dataclasses.replace(result, trades=result.trades[:i] + result.trades[i + 1 :])


def _waive_midmarket_fee(result):
    i = _first_trade(result, Venue.MID_MARKET)
    if i is None:
        return None
    free = dataclasses.replace(result.trades[i], buyer_price=result.trades[i].seller_price)
    return dataclasses.replace(result, trades=result.trades[:i] + (free,) + result.trades[i + 1 :])


@pytest.mark.parametrize(
    "module, attr, failure, expected",
    [
        (engine, "run_slot", _raise, "study raised RuntimeError"),
        (harness, "audit_run", _audit_problem, "audit: forced problem"),
        (engine, "run_slot", _leak_energy, "routed kWh differ from its position"),
        (engine, "run_slot", _drop_auction_trade, "truthful delivery flagged a cleared outcome"),
        (engine, "run_slot", _waive_midmarket_fee, "not priced as its venue requires"),
    ],
    ids=["exception", "audit", "conservation", "delivery", "pricing"],
)
def test_forced_failure_is_counted_and_the_run_goes_on(tmp_path, monkeypatch, module, attr, failure, expected):
    _fail_once(monkeypatch, module, attr, failure)
    result = harness.measure(TINY["case-sweep"], seed=0, seconds=0.2, trace=False, workdir=tmp_path)
    assert result["attempted"] >= 2
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["detail"]["fail_ratio"] == 1 / result["attempted"]
    assert any(expected in line for line in result["detail"]["failures"]), result["detail"]["failures"]


def test_same_seed_gives_identical_digests_and_counts(tmp_path):
    runs = [
        harness.measure(TINY["case-sweep"], seed=5, seconds=0.0, trace=True, workdir=tmp_path / str(i))
        for i in range(2)
    ]
    assert runs[0]["detail"]["csv_sha256"] == runs[1]["detail"]["csv_sha256"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes", "ratio")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["reports.trade_rows"] > 0
    other = harness.measure(TINY["case-sweep"], seed=6, seconds=0.0, trace=True, workdir=tmp_path / "x")
    assert other["detail"]["csv_sha256"] != runs[0]["detail"]["csv_sha256"]


def test_missing_hook_is_reported_absent(tmp_path, monkeypatch):
    gone = ("gridp2p.engine", "split_search", "coalition.split_search")
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (gone,))
    original = engine.run_slot
    result = harness.measure(TINY["case-sweep"], seed=0, seconds=0.0, trace=True, workdir=tmp_path)
    assert result["correct"]
    assert result["detail"]["absent_hooks"] == ["coalition.split_search"]
    assert engine.run_slot is original


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.study = 0
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    totals = tracer.self_times()[0]
    (_, outer_start, outer_end, _, _), (_, inner_start, inner_end, parent, _) = tracer.spans
    assert parent == 0
    assert totals["inner"] == (1, inner_end - inner_start)
    assert totals["outer"] == (1, outer_end - outer_start - (inner_end - inner_start))
