"""CSV emission, the audit re-checker and the command-line interface."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from gridp2p.cli import EXIT_FAILURE, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from conftest import leg_cash, payment, receipt, trades_of
from fixtures import two_coalition_demo_scenario, uniform_auction_scenario
from gridp2p.coalition import GRID_ID
from gridp2p.core import (
    ConfigurationError,
    GridPolicy,
    MarketConfig,
    ProsumerProfile,
    Scenario,
    emit_scenario,
    load_scenario,
    make_case_study_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from gridp2p import reports
from gridp2p.engine import Positions, baseline_grid_only, baseline_third_party, run_horizon
from gridp2p.reports import _fmt, _trade_lines, audit_run, write_run

_RUNS = [run_horizon, baseline_grid_only, baseline_third_party]


def _read(path: Path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_write_run_layout(tmp_path):
    report = run_horizon(make_case_study_scenario(2, slots=4))
    write_run(report, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {
        "prices.csv",
        "cps_cost.csv",
        "coalitions.csv",
        "trades.csv",
    }
    prices = _read(tmp_path / "prices.csv")
    assert prices[0] == ["slot", "selling_price", "peak_flag"]
    assert len(prices) == 5
    trades = _read(tmp_path / "trades.csv")
    assert trades[0] == ["slot", "venue", "seller", "buyer", "qty", "seller_price", "buyer_price"]
    # Six decimal places on every float field.
    assert all("." in row[4] and len(row[4].split(".")[1]) == 6 for row in trades[1:])


def test_audit_accepts_fresh_run(tmp_path):
    write_run(run_horizon(make_case_study_scenario(4, slots=6)), tmp_path)
    assert audit_run(tmp_path) == []


def test_audit_accepts_baseline_run(tmp_path):
    write_run(baseline_grid_only(make_case_study_scenario(4, slots=6)), tmp_path)
    assert audit_run(tmp_path) == []


def test_audit_flags_imbalance(tmp_path):
    write_run(run_horizon(make_case_study_scenario(4, slots=4)), tmp_path)
    trades = (tmp_path / "trades.csv").read_text().splitlines()
    slot, venue, seller, buyer, qty, sp, bp = trades[1].split(",")
    trades[1] = ",".join([slot, venue, seller, buyer, qty, sp, "99.000000"])
    (tmp_path / "trades.csv").write_text("\n".join(trades) + "\n")
    # The buyer pays 99 for what the seller sells at 10, and the other grid
    # sales of the slot are priced at 10.
    assert audit_run(tmp_path) == [
        "slot 0: grid trade with a price spread",
        "slot 0: grid trades at more than one price",
    ]


# One tampered trades.csv row per audit check: (venue of the row to tamper,
# fields to overwrite, the problems the audit must report). The demo run is one
# peak slot; its first auction row is p04 -> p07 and its first mid-market row
# p01 -> p10, with auction members p04-p09 and mid-market members p01-p03, p10-p12.
# A row priced apart from its venue's first row makes the next row a second price.
_TAMPERED_ROWS = {
    "zero_quantity": ("auction", {"qty": "0.000000"}, ["slot 0: non-positive trade quantity 0.000000"]),
    "midmarket_undercut": (
        "mid_market",
        {"buyer_price": "10.000000"},
        ["slot 0: buyer price 10.0 below seller price 11.0", "slot 0: mid_market trades at more than one price"],
    ),
    "auction_spread": (
        "auction",
        {"buyer_price": "12.500000"},
        ["slot 0: auction trade with a price spread", "slot 0: auction trades at more than one price"],
    ),
    "second_auction_price": (
        "auction",
        {"seller_price": "0.010000", "buyer_price": "0.010000"},
        ["slot 0: auction trades at more than one price"],
    ),
    "grid_sale_at_peak": (
        "mid_market",
        {"venue": "grid", "seller": "grid", "buyer_price": "11.000000"},
        ["slot 0: grid sale to p10 during a peak slot"],
    ),
    "auction_party_outside": (
        "auction", {"buyer": "p10"}, ["slot 0: auction trade party p10 not in the auction coalition"]
    ),
    "midmarket_party_outside": (
        "mid_market", {"seller": "p04"}, ["slot 0: mid_market trade party p04 not in the mid_market coalition"]
    ),
}


@pytest.mark.parametrize("case", sorted(_TAMPERED_ROWS))
def test_audit_flags_each_tampered_trade_row(tmp_path, case):
    venue, fields, problems = _TAMPERED_ROWS[case]
    write_run(run_horizon(two_coalition_demo_scenario()), tmp_path)
    assert audit_run(tmp_path) == []
    path = tmp_path / "trades.csv"
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    row = next(r for r in rows if r[1] == venue)
    for name, value in fields.items():
        row[header.index(name)] = value
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    assert audit_run(tmp_path) == problems


# One malformed row per case: (file, data row to alter, how, the problems the
# audit must report). Lines are numbered from the header, line 1.
_MALFORMED_ROWS = {
    "short_trade_row": ("trades.csv", 0, lambda r: r[:3], ["trades.csv line 2: expected 7 fields, got 3"]),
    "long_trade_row": ("trades.csv", 1, lambda r: r + ["x"], ["trades.csv line 3: expected 7 fields, got 8"]),
    "qty_not_a_number": (
        "trades.csv", 0, lambda r: r[:4] + ["abc"] + r[5:], ["trades.csv line 2: qty 'abc' is not a number"]
    ),
    "seller_price_not_a_number": (
        "trades.csv", 2, lambda r: r[:5] + ["", r[6]], ["trades.csv line 4: seller_price '' is not a number"]
    ),
    "buyer_price_not_a_number": (
        "trades.csv", 0, lambda r: r[:6] + ["12,5"], ["trades.csv line 2: buyer_price '12,5' is not a number"]
    ),
    "trade_slot_not_an_integer": (
        "trades.csv", 0, lambda r: ["0.5"] + r[1:], ["trades.csv line 2: slot '0.5' is not an integer"]
    ),
    "price_slot_not_an_integer": (
        "prices.csv",
        0,
        lambda r: ["zero"] + r[1:],
        ["prices.csv line 2: slot 'zero' is not an integer",
         "cps_cost.csv and prices.csv cover different slots",
         "slot 0: trades in a slot missing from prices.csv"],
    ),
    "peak_flag_not_a_flag": (
        "prices.csv",
        0,
        lambda r: r[:2] + ["yes"],
        ["prices.csv line 2: peak_flag 'yes' is not true or false",
         "cps_cost.csv and prices.csv cover different slots",
         "slot 0: trades in a slot missing from prices.csv"],
    ),
    "selling_price_not_a_number": (
        "prices.csv",
        0,
        lambda r: r[:1] + ["n/a"] + r[2:],
        ["prices.csv line 2: selling_price 'n/a' is not a number",
         "cps_cost.csv and prices.csv cover different slots",
         "slot 0: trades in a slot missing from prices.csv"],
    ),
    "cps_cost_not_a_number": (
        "cps_cost.csv",
        0,
        lambda r: r[:1] + ["abc#0.000000"],
        ["cps_cost.csv line 2: cps_cost 'abc#0.000000' is not a number",
         "cps_cost.csv and prices.csv cover different slots"],
    ),
    "qty_not_finite": (
        "trades.csv", 0, lambda r: r[:4] + ["nan"] + r[5:], ["trades.csv line 2: qty 'nan' is not a finite number"]
    ),
    "selling_price_not_finite": (
        "prices.csv",
        0,
        lambda r: r[:1] + ["inf"] + r[2:],
        ["prices.csv line 2: selling_price 'inf' is not a finite number",
         "cps_cost.csv and prices.csv cover different slots",
         "slot 0: trades in a slot missing from prices.csv"],
    ),
    "cps_cost_not_finite": (
        "cps_cost.csv",
        0,
        lambda r: r[:1] + ["-inf"],
        ["cps_cost.csv line 2: cps_cost '-inf' is not a finite number",
         "cps_cost.csv and prices.csv cover different slots"],
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ROWS))
def test_audit_reports_each_malformed_row(tmp_path, capsys, case):
    name, index, alter, problems = _MALFORMED_ROWS[case]
    write_run(run_horizon(two_coalition_demo_scenario()), tmp_path)
    path = tmp_path / name
    header, *rows = _read(path)
    rows[index] = alter(rows[index])
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert audit_run(tmp_path) == problems
    assert main(["audit", "--dir", str(tmp_path)]) == EXIT_FAILURE
    assert capsys.readouterr().err == "".join(f"audit: {p}\n" for p in problems)


def test_audit_reports_read_problems_before_trade_checks(tmp_path):
    # A grid sale at a peak as the first trade row, and a short row at the
    # end: the read problem still comes first.
    write_run(run_horizon(make_case_study_scenario(3, slots=6)), tmp_path)
    path = tmp_path / "trades.csv"
    header, *lines = path.read_text().splitlines()
    lines = [header, "2,grid,grid,p01,1.000000,99.000000,99.000000", *lines, "5,grid,p01"]
    path.write_text("\n".join(lines) + "\n")
    assert audit_run(tmp_path) == [
        "trades.csv line 117: expected 7 fields, got 3",
        "slot 2: grid sale to p01 during a peak slot",
    ]


def _p2p_run(out: Path) -> tuple[list[str], list[str]]:
    """A seed-3, 6-slot p2p run whose peaks are slots 2, 3 and 5: its trades.csv and prices.csv lines."""
    write_run(run_horizon(make_case_study_scenario(3, slots=6)), out)
    assert audit_run(out) == []
    return (out / "trades.csv").read_text().splitlines(), (out / "prices.csv").read_text().splitlines()


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def test_audit_rejects_an_unknown_venue(tmp_path):
    # Every auction row renamed: one problem per slot and venue, not per row.
    trades, _ = _p2p_run(tmp_path)
    _write_lines(tmp_path / "trades.csv", [line.replace(",auction,", ",bogus,") for line in trades])
    assert audit_run(tmp_path) == [f"slot {slot}: unknown venue 'bogus'" for slot in (2, 3, 5)]


def test_audit_rejects_an_unknown_venue_whose_prices_repeat_in_each_slot(tmp_path):
    # Every grid row renamed: its blocks, at the same prices in every slot,
    # are not carried from one slot to the next as the grid's are.
    trades, _ = _p2p_run(tmp_path)
    _write_lines(tmp_path / "trades.csv", [line.replace(",grid,", ",bogus,") for line in trades])
    assert audit_run(tmp_path) == [f"slot {slot}: unknown venue 'bogus'" for slot in (0, 1, 3, 4, 5)]


def test_audit_checks_the_trades_of_a_slot_missing_from_prices(tmp_path):
    # A malformed flag drops peak slot 2 from prices.csv; a grid sale appended
    # to that slot cannot be judged against its flag, so the slot is reported.
    trades, prices = _p2p_run(tmp_path)
    prices[3] = "2,548.800000,yes"
    _write_lines(tmp_path / "prices.csv", prices)
    _write_lines(tmp_path / "trades.csv", [*trades, "2,grid,grid,p07,1.000000,99.000000,99.000000"])
    assert audit_run(tmp_path) == [
        "prices.csv line 4: peak_flag 'yes' is not true or false",
        "cps_cost.csv and prices.csv cover different slots",
        "slot 2: trades in a slot missing from prices.csv",
    ]


@pytest.mark.parametrize("slot, flag, problem", [
    (2, "false", "slot 2: coalitions at an off-peak slot"),
    (0, "true", "slot 0: a peak slot without coalitions"),
])
def test_audit_flags_a_peak_flag_that_disagrees_with_the_coalitions(tmp_path, slot, flag, problem):
    # A peer-trading run lists coalitions at exactly its peak slots (2, 3 and 5).
    _, prices = _p2p_run(tmp_path)
    prices[slot + 1] = f"{prices[slot + 1].rsplit(',', 1)[0]},{flag}"
    _write_lines(tmp_path / "prices.csv", prices)
    assert audit_run(tmp_path) == [problem]


def test_audit_flags_a_peak_slot_with_every_trade_row_deleted(tmp_path):
    write_run(run_horizon(make_case_study_scenario(3, n_prosumers=96)), tmp_path)
    trades = (tmp_path / "trades.csv").read_text().splitlines()
    kept = [line for line in trades if not line.startswith("3,")]
    assert len(trades) - len(kept) > 1000
    _write_lines(tmp_path / "trades.csv", kept)
    assert audit_run(tmp_path) == ["slot 3: a peak slot without trades"]


def test_audit_lists_the_peak_slots_without_trades_after_the_trade_problems(tmp_path):
    # Slots 5 and 2 lose every row: each is listed in coalitions.csv order,
    # after slot 3's trade problem and before summary.csv's.
    trades, _ = _p2p_run(tmp_path)
    kept = [line.replace(",auction,", ",bogus,") for line in trades if not line.startswith(("2,", "5,"))]
    _write_lines(tmp_path / "trades.csv", kept)
    _write_lines(tmp_path / "summary.csv", ["metric,scope"])
    assert audit_run(tmp_path) == [
        "slot 3: unknown venue 'bogus'",
        "slot 2: a peak slot without trades",
        "slot 5: a peak slot without trades",
        "summary.csv: expected header ['metric', 'scope', 'value'], got ['metric', 'scope']",
    ]


def test_audit_reports_no_missing_trades_past_a_read_error(tmp_path):
    # The read stops at the oversized field, so the peak slots after it
    # were never read, not found without trades.
    trades, _ = _p2p_run(tmp_path)
    _write_lines(tmp_path / "trades.csv", [trades[0], f"2,grid,{'x' * 200_000},p01,1,1,1", *trades[1:]])
    assert audit_run(tmp_path) == [f"trades.csv line 2: field larger than field limit ({csv.field_size_limit()})"]


def test_audit_keeps_the_first_flag_of_a_repeated_prices_slot(tmp_path):
    # A later off-peak flag for peak slot 2 is reported and ignored, so a grid
    # sale appended to that slot is still judged against the peak flag.
    trades, prices = _p2p_run(tmp_path)
    _write_lines(tmp_path / "prices.csv", [*prices, "2,28.000000,false"])
    _write_lines(tmp_path / "trades.csv", [*trades, "2,grid,grid,p07,1.000000,28.000000,28.000000"])
    assert audit_run(tmp_path) == [
        "prices.csv line 8: slot '2' repeats line 4",
        "slot 2: grid sale to p07 during a peak slot",
    ]


def test_audit_reports_a_repeated_cps_cost_slot(tmp_path):
    _p2p_run(tmp_path)
    path = tmp_path / "cps_cost.csv"
    _write_lines(path, [*path.read_text().splitlines(), "3,1.000000"])
    assert audit_run(tmp_path) == ["cps_cost.csv line 8: slot '3' repeats line 5"]


def _rows_of(trades: list[str]) -> list[tuple[int, list[str]]]:
    """Each data row of ``trades`` with its index in ``trades``."""
    return [(i, line.split(",")) for i, line in enumerate(trades) if i]


def _audit_with(path: Path, trades: list[str], i: int, row: list[str]) -> list[str]:
    """The audit after line ``i`` of ``trades`` is replaced by ``row``."""
    _write_lines(path / "trades.csv", [*trades[:i], ",".join(row), *trades[i + 1:]])
    return audit_run(path)


# Most rows repeat the slot, venue and prices of a clean row before them, so
# the audit checks them only for their quantity and parties; these cases reach
# every row, each block's last row among them.
def test_audit_flags_a_zero_quantity_in_any_row(tmp_path):
    trades, _ = _p2p_run(tmp_path)
    for i, row in _rows_of(trades):
        slot = row[0]
        row[4] = "0.000000"
        assert _audit_with(tmp_path, trades, i, row) == [f"slot {slot}: non-positive trade quantity 0.000000"], i


def test_audit_flags_an_outsider_in_any_peer_row(tmp_path):
    trades, _ = _p2p_run(tmp_path)
    coalitions = _read(tmp_path / "coalitions.csv")[1:]
    peer_rows = [(i, row) for i, row in _rows_of(trades) if row[1] in ("auction", "mid_market")]
    assert len(peer_rows) == 60
    for i, row in peer_rows:
        slot, venue = row[0], row[1]
        outsider = next(member for s, c, member in coalitions if s == slot and c != venue)
        for party in (2, 3):
            tampered = row[:party] + [outsider] + row[party + 1:]
            assert _audit_with(tmp_path, trades, i, tampered) == [
                f"slot {slot}: {venue} trade party {outsider} not in the {venue} coalition"
            ], (i, party)


def test_audit_flags_a_self_trade_in_any_row(tmp_path):
    # No valid run writes a trade from a party to itself: the grid and the
    # third party are reserved ids, and a slot's sellers and buyers are apart.
    trades, _ = _p2p_run(tmp_path)
    for i, row in _rows_of(trades):
        slot, venue, seller = row[:3]
        row[3] = seller
        assert _audit_with(tmp_path, trades, i, row) == [f"slot {slot}: {venue} trade from {seller} to itself"], i


_BAD_QUANTITIES = {
    "abc": "trades.csv line {line}: qty 'abc' is not a number",
    "nan": "trades.csv line {line}: qty 'nan' is not a finite number",
    "inf": "trades.csv line {line}: qty 'inf' is not a finite number",
    "-1": "slot {slot}: non-positive trade quantity -1",
}


@pytest.mark.parametrize("qty", sorted(_BAD_QUANTITIES))
def test_audit_flags_a_bad_quantity_in_each_blocks_last_row(tmp_path, qty):
    # A block is a run of rows with one slot, venue, grid side and price pair.
    trades, _ = _p2p_run(tmp_path)
    rows = _rows_of(trades)
    block = lambda row: (row[0], row[1], row[2] == "grid", row[5], row[6])
    last = [(i, row) for (i, row), after in zip(rows, [*rows[1:], (None, None)])
            if after[1] is None or block(after[1]) != block(row)]
    assert len(last) == 28
    for i, row in last:
        slot = row[0]
        row[4] = qty
        assert _audit_with(tmp_path, trades, i, row) == [_BAD_QUANTITIES[qty].format(line=i + 1, slot=slot)], i


@pytest.mark.parametrize(
    "appended, problems",
    [
        # A clean mid-market row of slot 2, repeated after slot 5.
        (lambda trades: trades[30], []),
        # Slot 5's last mid-market row, moved to slot 2: slot 5's clean blocks
        # do not carry over to it.
        (lambda trades: "2" + trades[-5][1:],
         ["slot 2: mid_market trade party p11 not in the mid_market coalition",
          "slot 2: mid_market trades at more than one price"]),
        # The same row moved to off-peak slot 4, which has no coalitions: a
        # peer block is never carried from one slot to another.
        (lambda trades: "4" + trades[-5][1:],
         ["slot 4: mid_market trade party p08 not in the mid_market coalition",
          "slot 4: mid_market trade party p11 not in the mid_market coalition"]),
    ],
    ids=["slot_2_row", "slot_5_row_as_slot_2", "slot_5_row_as_off_peak_slot_4"],
)
def test_audit_checks_a_row_appended_out_of_slot_order(tmp_path, appended, problems):
    trades, _ = _p2p_run(tmp_path)
    _write_lines(tmp_path / "trades.csv", [*trades, appended(trades)])
    assert audit_run(tmp_path) == problems


def _missing_slot_4(trades, prices):
    prices[5] = "4,28.000000,yes"
    return trades, prices


def _grid_sale_in_slot_2(trades, prices):
    first = next(i for i, line in enumerate(trades) if line.startswith("2,"))
    return [*trades[:first + 1], "2,grid,grid,p07,1.000000,28.000000,28.000000", *trades[first + 1:]], prices


def _second_price_in_slot_4(trades, prices):
    first = next(i for i, line in enumerate(trades) if line.startswith("4,"))
    return [*trades[:first], "4,grid,grid,p01,1.000000,29.000000,29.000000", *trades[first:]], prices


# Slots 0 and 1 leave the grid's sales at 28 and its purchases at 10 clean
# blocks, whose first row in a later slot takes only the checks that depend
# on that slot; each case fails one of them.
@pytest.mark.parametrize("edit, problems", [
    (_missing_slot_4, ["prices.csv line 6: peak_flag 'yes' is not true or false",
                       "cps_cost.csv and prices.csv cover different slots",
                       "slot 4: trades in a slot missing from prices.csv"]),
    (_grid_sale_in_slot_2, ["slot 2: grid sale to p07 during a peak slot"]),
    (_second_price_in_slot_4, ["slot 4: grid trades at more than one price"]),
], ids=["slot_missing_from_prices", "peak_grid_sale", "second_price_pair"])
def test_audit_checks_a_block_clean_in_an_earlier_slot_against_its_new_slot(tmp_path, edit, problems):
    trades, prices = edit(*_p2p_run(tmp_path))
    _write_lines(tmp_path / "trades.csv", trades)
    _write_lines(tmp_path / "prices.csv", prices)
    assert audit_run(tmp_path) == problems


def _audit_peak_over_file_size(tmp_path, **sizes) -> tuple[int, int]:
    """Peak allocation of a clean audit of a fresh run, and its trades.csv size."""
    write_run(run_horizon(make_case_study_scenario(0, **sizes)), tmp_path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert audit_run(tmp_path) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, (tmp_path / "trades.csv").stat().st_size


def test_audit_memory_stays_below_the_trades_file(tmp_path):
    # The audit streams trades.csv: its peak allocation stays below the
    # size of the file it checks (about 1.5 MB here).
    peak, size = _audit_peak_over_file_size(tmp_path, n_prosumers=192)
    assert peak < size


def test_audit_memory_stays_below_the_trades_file_over_a_long_horizon(tmp_path):
    # The same bound over many short slots (about 1.5 MB of trades.csv):
    # what the audit keeps per slot does not pile up across the horizon.
    peak, size = _audit_peak_over_file_size(tmp_path, n_prosumers=24, slots=1344)
    assert peak < size


def _reference_lines(slot) -> list[str]:
    """The slot's trades.csv lines, rendered field by field from its eager trades."""
    return [
        ",".join([str(slot.slot), t.venue.value, t.seller_id, t.buyer_id,
                  *map(_fmt, (t.quantity, t.seller_price, t.buyer_price))]) + "\n"
        for t in trades_of(slot)
    ]


# Odd multiples of 1/128 sit exactly on a six-decimal half, so they round to
# even; the rest are above 1e6, or within an ulp of a half.
_PRINTED_NETS = (0.0078125, -0.0234375, 1234567.0078125, -3.5e6, 2.0000005, -1e6 - 5e-7)
# At most 5e-7 kWh, so each prints as 0.000000.
_ZERO_NETS = (4e-7, -5e-7, 1e-300)


@settings(max_examples=400)
@given(st.lists(st.one_of(st.sampled_from(_PRINTED_NETS + _ZERO_NETS), st.floats(-2e6, 2e6)), min_size=1, max_size=6))
@example(list(_PRINTED_NETS))
@example(list(_ZERO_NETS))
def test_whole_position_lines_equal_the_rendered_trades(nets):
    # Slot 0 is a peak whenever anyone buys, slot 1 never is; in the
    # baselines both are whole positions, in the peer-trading run slot 1.
    # A slot with a quantity that prints as zero, which the audit rejects,
    # is refused, not written.
    scenario = Scenario(
        slots=2,
        prosumers=tuple(ProsumerProfile(f"p{i}", 7.0, (net, net), (12.0, 12.0), (12.0, 12.0))
                        for i, net in enumerate(nets)),
        grid=GridPolicy(68.6, 274.4, (0.0, 1e300), 28.0, 10.0),
        market=MarketConfig(),
    )
    for run in _RUNS:
        for slot in run(scenario).slots:
            if not isinstance(slot.ledger[0], Positions):
                continue
            report = SimpleNamespace(scenario=scenario, slots=[slot])
            reference = _reference_lines(slot)
            if any(line.split(",")[4] == "0.000000" for line in reference):
                event("refused")
                with pytest.raises(ConfigurationError, match=rf"^slot {slot.slot}: the .* prints as 0\.000000$"):
                    "".join(_trade_lines(report))
            else:
                event("written")
                lines = "".join(_trade_lines(report))
                assert lines == "".join(reference), run.__name__
                assert lines.count("\n") == sum(net != 0 for net in nets)
            # Each leg, read off the position, is exactly what its trades pay.
            summed = {}
            for t in trades_of(slot):
                pid, leg = (t.seller_id, (receipt(t), 0)) if t.buyer_id == GRID_ID else (t.buyer_id, (0, payment(t)))
                assert pid not in summed
                summed[pid] = leg
            assert list(map(leg_cash, slot.ledger[0].legs())) == [
                (p.id, *summed[p.id]) for p in scenario.prosumers if p.id in summed
            ], run.__name__


def test_a_negative_zero_feed_in_tariff_prints_unsigned_in_every_ledger(tmp_path):
    # Whole positions hold the float FiT -0.0 and a pool the Fraction 0; both
    # print as 0.000000, in the off-peak slots 0 and 1 and in the peaks.
    base = make_case_study_scenario(3, slots=6)
    report = run_horizon(dataclasses.replace(base, grid=dataclasses.replace(base.grid, fit_price=-0.0)))
    write_run(report, tmp_path)
    peaks = {str(s.slot) for s in report.slots if s.price_signal.peak_flag}
    assert peaks == {"2", "3", "5"}
    sales = {(slot in peaks, sell, buy) for slot, _, _, buyer, _, sell, buy in _read(tmp_path / "trades.csv")[1:]
             if buyer == GRID_ID}
    assert sales == {(False, "0.000000", "0.000000"), (True, "0.000000", "0.000000")}


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_a_ledger_less_report_writes_the_same_bytes(run, tmp_path):
    # The copies that once lost their ledger keep it: a pickled slot keeps its
    # ledger, and one rebuilt with its trades keeps the same ledger object.
    # Both write the same bytes.
    report = run(make_case_study_scenario(3, n_prosumers=24))
    write_run(report, tmp_path / "fresh")
    pickled = pickle.loads(pickle.dumps(report))
    assert all("ledger" in vars(s) for s in pickled.slots)
    replaced = dataclasses.replace(report, slots=tuple(dataclasses.replace(s, trades=s.trades) for s in report.slots))
    assert all(r.ledger is s.ledger for r, s in zip(replaced.slots, report.slots))
    for name, copy in (("pickled", pickled), ("replaced", replaced)):
        write_run(copy, tmp_path / name)
        assert _dir_bytes(tmp_path / name) == _dir_bytes(tmp_path / "fresh"), name


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_a_slot_with_replaced_trades_writes_its_ledger(run, tmp_path):
    # A slot's trades are a view of its ledger: replacing them changes
    # nothing that is written.
    report = run(make_case_study_scenario(3, n_prosumers=24))
    write_run(report, tmp_path / "fresh")
    cut = dataclasses.replace(report, slots=tuple(dataclasses.replace(s, trades=s.trades[1:]) for s in report.slots))
    assert any(len(r.trades) < len(s.trades) for r, s in zip(cut.slots, report.slots))
    write_run(cut, tmp_path / "cut")
    assert _dir_bytes(tmp_path / "cut") == _dir_bytes(tmp_path / "fresh")


def _compare_run(out: Path) -> list[list[str]]:
    assert main(["simulate", "--seed", "3", "--mode", "compare", "--out", str(out)]) == EXIT_OK
    return _read(out / "summary.csv")


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_audit_rejects_summary_values_that_are_not_finite_numbers(tmp_path):
    header, *rows = _compare_run(tmp_path)
    rows[0][2], rows[1][2] = "abc", "nan"
    # The last row is one that every summary holds, so its deletion is
    # reported after the malformed rows; a deleted per-prosumer row needs the
    # scenario to be noticed.
    del rows[-1]
    _write_rows(tmp_path / "summary.csv", [header, *rows])
    assert audit_run(tmp_path) == [
        "summary.csv line 2: value 'abc' is not a number",
        "summary.csv line 3: value 'nan' is not a finite number",
        "summary.csv: no well-formed row for metric 'avg_cost_per_prosumer_third_party', scope 'all'",
    ]


# The rows every summary.csv holds, whatever its prosumers.
_FIXED_SUMMARY_ROWS = [
    ("seller_uplift_pct", "average"),
    ("buyer_savings_vs_grid_pct", "average"),
    ("buyer_savings_vs_third_party_pct", "average"),
    ("buyer_premium_vs_third_party_pct", "average"),
    ("cps_cost_with_p2p", "total"),
    ("cps_cost_without_p2p", "total"),
    ("avg_cost_per_prosumer_p2p", "all"),
    ("avg_cost_per_prosumer_grid_only", "all"),
    ("avg_cost_per_prosumer_third_party", "all"),
]


def test_audit_reports_each_deleted_row_that_every_summary_holds(tmp_path):
    header, *rows = _compare_run(tmp_path)
    assert [tuple(row[:2]) for row in rows[-len(_FIXED_SUMMARY_ROWS):]] == _FIXED_SUMMARY_ROWS
    for metric, scope in _FIXED_SUMMARY_ROWS:
        _write_rows(tmp_path / "summary.csv", [header, *(row for row in rows if row[:2] != [metric, scope])])
        assert audit_run(tmp_path) == [f"summary.csv: no well-formed row for metric {metric!r}, scope {scope!r}"]
    # A malformed row is reported where it stands, and does not count as the row.
    malformed = [row if row[:2] != ["cps_cost_with_p2p", "total"] else [*row[:2], "abc"] for row in rows]
    _write_rows(tmp_path / "summary.csv", [header, *malformed])
    line = 2 + next(i for i, row in enumerate(rows) if row[:2] == ["cps_cost_with_p2p", "total"])
    assert audit_run(tmp_path) == [
        f"summary.csv line {line}: value 'abc' is not a number",
        "summary.csv: no well-formed row for metric 'cps_cost_with_p2p', scope 'total'",
    ]
    # A read error leaves the rest of the file unread, so no row is reported missing.
    _write_rows(tmp_path / "summary.csv", [header, ["x" * 200_000, "all", "1.000000"], *rows])
    assert audit_run(tmp_path) == [f"summary.csv line 2: field larger than field limit ({csv.field_size_limit()})"]


def test_audit_reports_a_repeated_summary_metric_and_scope(tmp_path):
    header, *rows = _compare_run(tmp_path)
    metric, scope, _ = rows[0]
    _write_rows(tmp_path / "summary.csv", [header, *rows, [metric, scope, "1.000000"]])
    assert audit_run(tmp_path) == [f"summary.csv line {len(rows) + 2}: metric {metric!r}, scope {scope!r} repeats line 2"]


def test_audit_reports_a_summary_with_a_wrong_header(tmp_path):
    _, *rows = _compare_run(tmp_path)
    _write_rows(tmp_path / "summary.csv", [["metric", "value"], *rows])
    assert audit_run(tmp_path) == [
        "summary.csv: expected header ['metric', 'scope', 'value'], got ['metric', 'value']"
    ]


def test_audit_allows_an_empty_summary_value_only_as_a_missing_mean(tmp_path):
    header, *rows = _compare_run(tmp_path)
    average = next(i for i, row in enumerate(rows) if row[1] == "average")
    rows[average][2] = ""
    _write_rows(tmp_path / "summary.csv", [header, *rows])
    assert audit_run(tmp_path) == []
    rows[0][2] = ""
    _write_rows(tmp_path / "summary.csv", [header, *rows])
    assert audit_run(tmp_path) == ["summary.csv line 2: value '' is not a number"]


@pytest.mark.parametrize(
    "name, row",
    [("trades.csv", "2,grid,{big},p01,1.000000,1.000000,1.000000"), ("summary.csv", "{big},all,1.000000")],
)
def test_audit_reports_a_field_over_the_csv_limit(tmp_path, capsys, name, row):
    _compare_run(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    _write_lines(path, [*lines, row.format(big="x" * 200_000)])
    problems = [f"{name} line {len(lines) + 1}: field larger than field limit ({csv.field_size_limit()})"]
    assert audit_run(tmp_path) == problems
    assert main(["audit", "--dir", str(tmp_path)]) == EXIT_FAILURE
    assert capsys.readouterr().err == "".join(f"audit: {p}\n" for p in problems)


def test_audit_flags_bad_header(tmp_path):
    write_run(run_horizon(make_case_study_scenario(4, slots=4)), tmp_path)
    (tmp_path / "prices.csv").write_text("wrong,header\n")
    assert audit_run(tmp_path)


def test_audit_flags_double_membership(tmp_path):
    write_run(run_horizon(uniform_auction_scenario()), tmp_path)
    lines = (tmp_path / "coalitions.csv").read_text().splitlines()
    member = lines[1].split(",")[2]
    lines.append(f"0,mid_market,{member}")
    (tmp_path / "coalitions.csv").write_text("\n".join(lines) + "\n")
    assert any("more than one coalition" in p for p in audit_run(tmp_path))


def test_cli_simulate_compare_writes_five_files(tmp_path):
    scenario_path = tmp_path / "case.json"
    save_scenario(make_case_study_scenario(6, slots=6), scenario_path)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_path), "--mode", "compare", "--out", str(out)]) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {
        "prices.csv",
        "cps_cost.csv",
        "coalitions.csv",
        "trades.csv",
        "summary.csv",
    }


def test_cli_single_mode_writes_four_files(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "3", "--slots", "6", "--mode", "p2p", "--out", str(out)]) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {
        "prices.csv",
        "cps_cost.csv",
        "coalitions.csv",
        "trades.csv",
    }


def test_cli_deterministic_bytes(tmp_path):
    scenario_path = tmp_path / "case.json"
    save_scenario(make_case_study_scenario(7, slots=8), scenario_path)
    args = ["simulate", "--scenario", str(scenario_path), "--mode", "compare"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")
    # The two legacy grid keys of older files are read and ignored.
    data = json.loads(scenario_path.read_text())
    data["grid"].update(other_demand=[30.0] * 8, supply_capacity=[80.0] * 8)
    scenario_path.write_text(json.dumps(data))
    assert main(args + ["--out", str(tmp_path / "legacy")]) == EXIT_OK
    assert _dir_bytes(tmp_path / "legacy") == _dir_bytes(tmp_path / "a")


def test_cli_does_not_mutate_scenario_file(tmp_path):
    scenario_path = tmp_path / "case.json"
    save_scenario(make_case_study_scenario(7, slots=4), scenario_path)
    before = scenario_path.read_bytes()
    main(["simulate", "--scenario", str(scenario_path), "--mode", "p2p", "--out", str(tmp_path / "r")])
    assert scenario_path.read_bytes() == before


def test_cli_gen_fixture_matches_generator(tmp_path):
    out = tmp_path / "case12.json"
    assert main(["gen-fixture", "--seed", "42", "--out", str(out)]) == EXIT_OK
    assert load_scenario(out) == make_case_study_scenario(42)


def test_cli_price_rule_override(tmp_path):
    out = tmp_path / "case.json"
    main(["gen-fixture", "--seed", "1", "--slots", "4", "--out", str(out)])
    a = tmp_path / "high"
    b = tmp_path / "vic"
    main(["simulate", "--scenario", str(out), "--mode", "p2p", "--out", str(a)])
    main(["simulate", "--scenario", str(out), "--mode", "p2p", "--price-rule", "vickrey", "--out", str(b)])
    # The override must actually change peak-slot auction pricing.
    assert (a / "trades.csv").read_bytes() != (b / "trades.csv").read_bytes()
    assert audit_run(b) == []


def test_cli_jobs_flag_is_a_usage_error(tmp_path, capsys):
    # --jobs was accepted and ignored; it is gone, so argparse rejects it and nothing is written.
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--seed", "5", "--slots", "6", "--jobs", "2", "--out", str(tmp_path / "run")])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("sizes", [["--slots", "3"], ["--prosumers", "24"], ["--prosumers", "12", "--slots", "22"]])
def test_cli_rejects_sizes_given_with_a_scenario_file(tmp_path, capsys, sizes):
    scenario_path = tmp_path / "case.json"
    save_scenario(make_case_study_scenario(6), scenario_path)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_path), *sizes, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --prosumers and --slots apply only to --seed scenarios\n"
    assert not out.exists()
    # A --seed run keeps its defaults, 12 prosumers over 22 slots.
    assert main(["simulate", "--seed", "6", "--mode", "p2p", "--out", str(out)]) == EXIT_OK
    write_run(run_horizon(make_case_study_scenario(6, n_prosumers=12, slots=22)), tmp_path / "expected")
    assert _dir_bytes(out) == _dir_bytes(tmp_path / "expected")


def test_cli_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    scenario = make_case_study_scenario(1, slots=2)
    data = json.loads(emit_scenario(scenario))
    data["market"]["beta"] = -1
    bad.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(bad), "--mode", "p2p", "--out", str(tmp_path / "r")])
    assert code == EXIT_VALIDATION


def test_cli_rejects_nan_and_boolean_numbers(tmp_path):
    scenario = make_case_study_scenario(1, slots=4)
    for field, value in (("threshold", math.nan), ("net_energy", True)):
        data = json.loads(emit_scenario(scenario))
        (data["grid"] if field == "threshold" else data["prosumers"][0])[field][0] = value
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", "--scenario", str(bad), "--mode", "compare", "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION
    # The legacy grid keys are still checked before they are dropped.
    for field in ("other_demand", "supply_capacity"):
        for values in ([30.0, 30.0, 30.0, "x"], [30.0, 30.0, 30.0, True], [30.0] * 3):
            data = json.loads(emit_scenario(scenario))
            data["grid"][field] = values
            bad = tmp_path / f"{field}.json"
            bad.write_text(json.dumps(data))
            code = main(["simulate", "--scenario", str(bad), "--mode", "compare", "--out", str(tmp_path / "r")])
            assert code == EXIT_VALIDATION


def test_cli_rejects_mistyped_fields(tmp_path):
    scenario = make_case_study_scenario(1, slots=4)
    for field, value in (("seed", "x"), ("slot_minutes", True), ("id", 7)):
        data = json.loads(emit_scenario(scenario))
        (data["prosumers"][0] if field == "id" else data)[field] = value
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", "--scenario", str(bad), "--mode", "p2p", "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION


def _scale_net_energy(data: dict) -> None:
    for p in data["prosumers"]:
        p["net_energy"] = [x * 1e307 for x in p["net_energy"]]


def _overflow_demand(data: dict) -> None:
    for p in data["prosumers"]:
        if p["net_energy"][0] < 0:
            p["net_energy"][0] = -1e308


def _overflow_payments(data: dict) -> None:
    for p in data["prosumers"]:
        p["reservation_price"][2], p["bid_price"][2] = 1e308, 1.5e308


def _overflow_average(data: dict) -> None:
    # Every seller's uplift fits a float, and their sum does not.
    for p in data["prosumers"]:
        p["reservation_price"], p["bid_price"] = [1e307] * len(p["bid_price"]), [1.5e307] * len(p["bid_price"])


def _overflow_grid_only_cost(data: dict) -> None:
    # A 4 kWh overshoot: the price 2a*4 + b fits a float, the cost a*4^2 does not.
    data["grid"]["a"] = 2e307
    data["grid"]["threshold"][2] -= 2


# Finite scenario numbers whose demand, price, system cost or comparison does
# not fit a float: each case's change, the modes that meet the overflow, and
# the first overflow named.
_OVERFLOWS = {
    "grid-a": (
        lambda d: d["grid"].update(a=1e308),
        ("p2p", "compare"),
        "slot 2: the peak price overflows a float (a=1e+308, overshoot=2)",
    ),
    "net-energy": (
        _scale_net_energy,
        ("p2p", "compare"),
        "slot 0: the peak price overflows a float (a=68.6, overshoot=1.7165e+308)",
    ),
    "demand": (_overflow_demand, ("p2p", "compare"), "slot 0: total prosumer demand overflows a float"),
    "payments": (_overflow_payments, ("compare",), "comparison metric seller_uplift_pct does not fit a float"),
    "average": (_overflow_average, ("compare",), "comparison metric avg_seller_uplift_pct does not fit a float"),
    "grid-only-cost": (_overflow_grid_only_cost, ("grid-only", "compare"), "slot 2: the system cost overflows a float"),
    "offpeak-cost": (
        lambda d: d["grid"].update(offpeak_price=1e308),
        ("p2p", "grid-only", "third-party", "compare"),
        "slot 0: the system cost overflows a float",
    ),
    "mid-market-fee": (
        lambda d: d["market"].update(beta=1e308),
        ("p2p", "compare"),
        "slot 2: the mid-market buying price overflows a float",
    ),
}


@pytest.mark.parametrize(
    "case, mode", [(case, mode) for case, (_, modes, _) in sorted(_OVERFLOWS.items()) for mode in modes]
)
def test_cli_rejects_a_value_that_overflows_a_float(tmp_path, capsys, case, mode):
    alter, _, message = _OVERFLOWS[case]
    data = json.loads(emit_scenario(make_case_study_scenario(0, n_prosumers=6, slots=4)))
    alter(data)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(scenario_path), "--mode", mode, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _simulate(tmp_path: Path, data: dict, mode: str = "compare") -> tuple[int, str, Path]:
    """``gridp2p simulate`` of the scenario ``data`` into ``tmp_path / "run"``: its exit code, stderr and run."""
    scenario_path, out, err = tmp_path / "scenario.json", tmp_path / "run", io.StringIO()
    scenario_path.write_text(json.dumps(data), encoding="utf-8")
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--scenario", str(scenario_path), "--mode", mode, "--out", str(out)])
    return code, err.getvalue(), out


def test_cli_refuses_a_position_that_prints_as_zero(tmp_path):
    # 5e-7 kWh prints as 0.000000, which the audit rejects as a non-positive quantity.
    data = scenario_to_dict(make_case_study_scenario(0, n_prosumers=6, slots=6))
    data["prosumers"][0]["net_energy"][0] = 5e-7
    code, err, out = _simulate(tmp_path, data)
    assert (code, err) == (EXIT_VALIDATION, "error: slot 0: the 5e-07 kWh trade of prosumer p01 prints as 0.000000\n")
    assert not (out / "trades.csv").exists()


@pytest.mark.parametrize("mode", ["p2p", "grid-only", "third-party", "compare"])
def test_a_slot_where_every_prosumer_sits_out_runs_and_audits_clean(tmp_path, mode):
    # Slot 0's whole positions are one empty block: no trade, nothing to refuse.
    data = scenario_to_dict(make_case_study_scenario(0, n_prosumers=6, slots=6))
    for prosumer in data["prosumers"]:
        prosumer["net_energy"][0] = 0
    code, err, out = _simulate(tmp_path, data, mode)
    assert (code, err, audit_run(out)) == (EXIT_OK, "", [])


@pytest.mark.parametrize("nets, bid, message", [
    # No ask meets a bid, so every prosumer is in the mid-market pool. a's own position prints as
    # 0.000001, but its share of c's 3 kWh, 2.9999997e-07 kWh, does not.
    ({"a": 1e-6, "b": 10.0, "c": -3.0}, 12.0, "the 3e-07 kWh trade of prosumers a and c"),
    # Every pair prints, but a's 4e-07 kWh left over for the grid does not.
    ({"a": 3.0000004, "c": -3.0}, 12.0, "the 4e-07 kWh trade of prosumer a"),
    # Every pair prints, but c's 4e-07 kWh left over for the third party does not.
    ({"a": 3.0, "c": -3.0000004}, 12.0, "the 4e-07 kWh trade of prosumer c"),
    # Every ask meets a bid, and the sellers share the burden of a long auction: each clears 1e-06 kWh,
    # over a denominator twice the buyers', and sends each buyer half of it.
    ({"a": 10.0, "b": 10.0, "c": -1e-6, "d": -1e-6}, 15.0, "the 5e-07 kWh trade of prosumers a and c"),
], ids=["mid-market-pair", "mid-market-residual", "third-party-residual", "auction-pair"])
def test_cli_refuses_a_pool_quantity_that_prints_as_zero(tmp_path, nets, bid, message):
    # Slot 0 is the one slot, a peak.
    scenario = Scenario(
        slots=1,
        prosumers=tuple(ProsumerProfile(pid, 7.0, (net,), (14.0,), (bid,)) for pid, net in nets.items()),
        grid=GridPolicy(68.6, 274.4, (0.0,), 28.0, 10.0),
        market=MarketConfig(),
    )
    for mode in ("p2p", "compare"):
        code, err, out = _simulate(tmp_path, scenario_to_dict(scenario), mode)
        assert (code, err) == (EXIT_VALIDATION, f"error: slot 0: {message} prints as 0.000000\n")
        assert not (out / "trades.csv").exists()
    # Whole positions print: the baselines run, and audit clean.
    for mode in ("grid-only", "third-party"):
        code, err, out = _simulate(tmp_path, scenario_to_dict(scenario), mode)
        assert (code, err, audit_run(out)) == (EXIT_OK, "", [])


# Values that a scenario file may hold anywhere, one or two of them at random paths of a small scenario.
_CORRUPTIONS = (0, -0.0, -1, 5e-324, 1e-300, 4e-7, 1e308, -1e308, 2**64, 10**400, True, None, "", "1.5", [], {})
_FUZZ_BASE = scenario_to_dict(make_case_study_scenario(0, n_prosumers=6, slots=6))


def _paths(value, path=()):
    """Every path into the JSON ``value`` but the root's."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(st.tuples(st.sampled_from(list(_paths(_FUZZ_BASE))), st.sampled_from(_CORRUPTIONS)),
             min_size=1, max_size=2),
    st.sampled_from(["p2p", "grid-only", "third-party", "compare"]),
)
def test_every_scenario_the_loader_accepts_gives_a_run_the_audit_accepts(edits, mode):
    data = copy.deepcopy(_FUZZ_BASE)
    for path, value in edits:
        target = data
        # An earlier edit may have replaced a container on this path.
        with contextlib.suppress(KeyError, IndexError, TypeError):
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        code, err, out = _simulate(Path(tmp), data, mode)
        if code == EXIT_OK:
            assert audit_run(out) == []
        else:
            assert code == EXIT_VALIDATION
            assert re.fullmatch("error: [^\n]*\n", err)


def test_write_run_refuses_a_position_that_prints_as_zero_for_every_caller(tmp_path):
    # The refusal is write_run's own, so a library caller gets it too: into a
    # fresh directory it writes no file, and into an earlier run's directory it
    # leaves no trades.csv, so the audit rejects what is left.
    data = scenario_to_dict(make_case_study_scenario(0, n_prosumers=6, slots=6))
    data["prosumers"][0]["net_energy"][0] = 5e-7
    report = run_horizon(scenario_from_dict(data))
    message = "^slot 0: the 5e-07 kWh trade of prosumer p01 prints as 0\\.000000$"
    with pytest.raises(ConfigurationError, match=message):
        write_run(report, tmp_path / "fresh")
    assert list((tmp_path / "fresh").iterdir()) == []
    earlier = tmp_path / "earlier"
    write_run(run_horizon(make_case_study_scenario(0, n_prosumers=6, slots=6)), earlier)
    assert audit_run(earlier) == []
    with pytest.raises(ConfigurationError, match=message):
        write_run(report, earlier)
    assert not (earlier / "trades.csv").exists() and not (earlier / "trades.csv.partial").exists()
    assert audit_run(earlier)


def test_cli_compare_that_fails_writes_nothing(tmp_path, monkeypatch, capsys):
    def fail(*reports):
        raise ConfigurationError("comparison failed")

    monkeypatch.setattr("gridp2p.cli.compare", fail)
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "0", "--slots", "4", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: comparison failed\n"
    assert not list(tmp_path.rglob("*.csv"))


def _cut_trades(monkeypatch):
    """Make every ``trades.csv`` stream raise ``OSError`` halfway, after whole lines."""
    whole = reports._trade_lines

    def cut(report):
        lines = list(whole(report))
        yield from lines[: len(lines) // 2]
        raise OSError("no space left on device")

    monkeypatch.setattr(reports, "_trade_lines", cut)


def test_a_run_cut_while_writing_its_trades_fails_the_audit(tmp_path, monkeypatch):
    report = run_horizon(make_case_study_scenario(3))
    write_run(report, tmp_path)  # an earlier, complete run in the same directory
    assert audit_run(tmp_path) == []
    _cut_trades(monkeypatch)
    with pytest.raises(OSError):
        write_run(report, tmp_path)
    assert not (tmp_path / "trades.csv").exists()
    assert audit_run(tmp_path)


def _fail_summary(monkeypatch):
    def fail(metrics, out_dir):
        raise OSError("no space left on device")

    monkeypatch.setattr("gridp2p.cli.write_summary", fail)


@pytest.mark.parametrize("fail", [_cut_trades, _fail_summary], ids=["trades", "summary"])
def test_cli_run_that_fails_while_writing_leaves_a_directory_the_audit_rejects(tmp_path, monkeypatch, fail):
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "0", "--slots", "6", "--out", str(out)]) == EXIT_OK
    fail(monkeypatch)
    assert main(["simulate", "--seed", "1", "--slots", "6", "--out", str(out)]) == EXIT_IO
    assert not (out / "trades.csv").exists()
    assert main(["audit", "--dir", str(out)]) == EXIT_FAILURE


def test_a_single_mode_run_into_a_compare_run_leaves_no_stale_files(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--seed", "0", "--dump-orders", "--out", str(out)]) == EXIT_OK
    assert (out / "summary.csv").exists() and (out / "orders.csv").exists()
    assert main(["simulate", "--seed", "0", "--mode", "p2p", "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["coalitions.csv", "cps_cost.csv", "prices.csv", "trades.csv"]
    assert audit_run(out) == []


def test_cli_missing_scenario_is_io_error(tmp_path):
    code = main(["simulate", "--scenario", str(tmp_path / "nope.json"), "--mode", "p2p", "--out", str(tmp_path / "r")])
    assert code == EXIT_IO


def test_cli_audit_command(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--seed", "2", "--slots", "4", "--mode", "p2p", "--out", str(out)])
    assert main(["audit", "--dir", str(out)]) == EXIT_OK
    (out / "trades.csv").write_text("slot,venue\n")
    assert main(["audit", "--dir", str(out)]) == EXIT_FAILURE


def test_cli_order_dump(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--seed", "2", "--slots", "4", "--mode", "p2p", "--out", str(out), "--dump-orders"])
    rows = _read(out / "orders.csv")
    assert rows[0] == ["slot", "prosumer", "side", "price", "quantity"]
    assert len(rows) > 1


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_cli_unknown_log_level_warns_and_runs(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("GRIDP2P_LOG", value)
    assert main(["gen-fixture", "--seed", "1", "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert f"unknown GRIDP2P_LOG level {value!r}; using warning" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["debug", "INFO", "warning", "Error", "critical"])
def test_cli_known_log_level_is_accepted_quietly(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("GRIDP2P_LOG", value)
    assert main(["gen-fixture", "--seed", "1", "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert "GRIDP2P_LOG" not in capsys.readouterr().err


def test_cli_names_the_encoding_of_every_file_it_opens(tmp_path):
    # With default-encoding warnings as errors, a file opened in the locale's
    # encoding fails the command.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    run, fixture = str(tmp_path / "run"), str(tmp_path / "case.json")
    for args in (
        ["simulate", "--seed", "0", "--dump-orders", "--out", run],
        ["audit", "--dir", run],
        ["gen-fixture", "--seed", "0", "--out", fixture],
        ["simulate", "--scenario", fixture, "--mode", "p2p", "--out", run],
    ):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "gridp2p.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_OK, (args, done.stderr)
