"""CSV emission for simulation runs, plus the audit re-checker.

One run writes one directory: ``prices.csv``, ``cps_cost.csv``,
``coalitions.csv`` and ``trades.csv``, with ``summary.csv`` added by compare
runs. Headers are fixed, floats carry six decimal places, and rows are
emitted in a deterministic order, so identical runs produce byte-identical
directories.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from .coalition import GRID_ID, Venue
from .engine import MetricsTable, SimulationReport

PRICES_HEADER = ["slot", "selling_price", "peak_flag"]
CPS_COST_HEADER = ["slot", "cps_cost"]
COALITIONS_HEADER = ["slot", "coalition", "member"]
TRADES_HEADER = ["slot", "venue", "seller", "buyer", "qty", "seller_price", "buyer_price"]
SUMMARY_HEADER = ["metric", "scope", "value"]

# The coalition each peer venue's parties belong to.
_GRID = Venue.GRID.value
_MID_MARKET = Venue.MID_MARKET.value
_COALITION_OF = {Venue.AUCTION.value: "auction", _MID_MARKET: "mid_market"}


def _fmt(value: float | Fraction) -> str:
    return f"{float(value):.6f}"


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _trade_rows(report: SimulationReport) -> Iterator[list[str]]:
    """Each slot's trade rows, formatted from its ledger without building its trades.

    Int true division is correctly rounded and a float's rational is exact,
    so each string equals ``_fmt`` of the trade's ``Fraction``.
    """
    for s in report.slots:
        slot = str(s.slot)
        sell_price = buy_price = None
        for venue, seller, buyer, num, den, sell, buy in s.rows():
            # Prices repeat across a pool's rows; format each one once.
            if sell is not sell_price:
                sell_price, sell_text = sell, _fmt(sell)
            if buy is not buy_price:
                buy_price, buy_text = buy, sell_text if buy is sell else _fmt(buy)
            yield [slot, venue.value, seller, buyer, f"{num / den:.6f}", sell_text, buy_text]


def write_run(report: SimulationReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    prices = []
    costs = []
    coalitions = []
    for s in report.slots:
        prices.append([str(s.slot), _fmt(s.price_signal.selling_price), str(s.price_signal.peak_flag).lower()])
        costs.append([str(s.slot), _fmt(s.cps_cost)])
        if s.structure is not None:
            for pid in s.structure.auction_members:
                coalitions.append([str(s.slot), "auction", pid])
            for pid in s.structure.midmarket_members:
                coalitions.append([str(s.slot), "mid_market", pid])

    _write_csv(out / "prices.csv", PRICES_HEADER, prices)
    _write_csv(out / "cps_cost.csv", CPS_COST_HEADER, costs)
    _write_csv(out / "coalitions.csv", COALITIONS_HEADER, coalitions)
    _write_csv(out / "trades.csv", TRADES_HEADER, _trade_rows(report))


def write_summary(metrics: MetricsTable, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "summary.csv", SUMMARY_HEADER, [list(r) for r in metrics.rows()])


def write_order_dump(report: SimulationReport, out_dir: str | Path) -> None:
    """Optional per-slot dump of the orders implied by the scenario."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    scenario = report.scenario
    for s in report.slots:
        if not s.price_signal.peak_flag:
            continue
        for p in scenario.prosumers:
            net = p.net_energy[s.slot]
            if net > 0:
                rows.append([str(s.slot), p.id, "ask", _fmt(p.reservation_price[s.slot]), _fmt(net)])
            elif net < 0:
                rows.append([str(s.slot), p.id, "bid", _fmt(p.bid_price[s.slot]), _fmt(-net)])
    _write_csv(out / "orders.csv", ["slot", "prosumer", "side", "price", "quantity"], rows)


# --- Audit -------------------------------------------------------------------


def _read_csv(
    path: Path, header: list[str], problems: list[str], numeric: tuple[str, ...] = ()
) -> list[tuple[str, ...]]:
    """The rows after ``header``, as tuples; a malformed row is a problem, not a row.

    A row is malformed when its width differs from the header's, its slot
    (where the first column is one) is not an integer, its peak flag (where
    the last column is one) is not ``true`` or ``false``, or a ``numeric``
    column does not parse as a finite number. Each becomes one line in
    ``problems`` naming the file and line. Each returned row ends with its
    ``numeric`` columns parsed as floats, in ``numeric`` order. A missing or
    different header raises ``ValueError``.
    """
    columns = [header.index(name) for name in numeric]
    rows: list[tuple[str, ...]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise ValueError(f"{path.name}: expected header {header}, got {first if first is not None else 'nothing'}")
        for row in reader:
            problem = _row_problem(row, header, columns)
            if problem is None:
                rows.append(tuple(row))
            else:
                problems.append(f"{path.name} line {reader.line_num}: {problem}")
    return rows


def _row_problem(row: list[str], header: list[str], columns: list[int]) -> str | None:
    """Why ``row`` is malformed under ``header``, or None after appending its parsed ``columns``."""
    if len(row) != len(header):
        return f"expected {len(header)} fields, got {len(row)}"
    if header[0] == "slot":
        try:
            int(row[0])
        except ValueError:
            return f"slot {row[0]!r} is not an integer"
    if header[-1] == "peak_flag" and row[-1] not in ("true", "false"):
        return f"peak_flag {row[-1]!r} is not true or false"
    for i in columns:
        try:
            value = float(row[i])
        except ValueError:
            return f"{header[i]} {row[i]!r} is not a number"
        if not math.isfinite(value):
            return f"{header[i]} {row[i]!r} is not a finite number"
        row.append(value)
    return None


def audit_run(run_dir: str | Path) -> list[str]:
    """Re-check an emitted run directory; returns a list of problems found.

    Verifies that every CSV parses under its fixed header, with rows of the
    header's width, integer slots, true/false peak flags and finite prices,
    costs and trade quantities;
    that per-slot cash flows balance (payments equal receipts plus fees,
    within the rounding of the six-decimal output), that the coalition rows
    form a partition, that trades stay inside their coalition, and that
    nobody buys from the grid at a peak slot.
    """
    run = Path(run_dir)
    problems: list[str] = []
    try:
        prices = _read_csv(run / "prices.csv", PRICES_HEADER, problems, ("selling_price",))
        costs = _read_csv(run / "cps_cost.csv", CPS_COST_HEADER, problems, ("cps_cost",))
        coalitions = _read_csv(run / "coalitions.csv", COALITIONS_HEADER, problems)
        trades = _read_csv(run / "trades.csv", TRADES_HEADER, problems, ("qty", "seller_price", "buyer_price"))
    except (OSError, ValueError) as exc:
        return [str(exc)]

    peak = {slot: flag == "true" for slot, _, flag, _ in prices}
    if {slot for slot, *_ in costs} != set(peak):
        problems.append("cps_cost.csv and prices.csv cover different slots")

    membership: dict[str, dict[str, str]] = {}
    for slot, coalition, member in coalitions:
        slot_members = membership.setdefault(slot, {})
        if member in slot_members:
            problems.append(f"slot {slot}: prosumer {member} appears in more than one coalition")
        slot_members[member] = coalition

    balance: dict[str, tuple[float, float, float]] = {}
    for slot, venue, seller, buyer, qty_text, _, _, qty, sell, buy in trades:
        if qty <= 0:
            problems.append(f"slot {slot}: non-positive trade quantity {qty_text}")
        if buy < sell:
            problems.append(f"slot {slot}: buyer price {buy} below seller price {sell}")
        if venue != _MID_MARKET and buy != sell:
            problems.append(f"slot {slot}: {venue} trade with a price spread")
        # A structure for the slot means a peer-trading run, in which nobody
        # may buy from the grid at the peak; baselines emit no coalitions.
        if venue == _GRID and seller == GRID_ID and peak.get(slot) and membership.get(slot):
            problems.append(f"slot {slot}: grid sale to {buyer} during a peak slot")
        want = _COALITION_OF.get(venue)
        if want is not None:
            members = membership.get(slot, {})
            for pid in (seller, buyer):
                if members.get(pid) != want:
                    problems.append(f"slot {slot}: {venue} trade party {pid} not in the {want} coalition")
        payments, receipts, fees = balance.get(slot, (0.0, 0.0, 0.0))
        balance[slot] = (
            payments + buy * qty,
            receipts + sell * qty,
            fees + (buy - sell) * qty,
        )

    for slot, (payments, receipts, fees) in sorted(balance.items(), key=lambda kv: int(kv[0])):
        if abs(payments - (receipts + fees)) > 1e-2:
            problems.append(
                f"slot {slot}: cash imbalance payments={payments:.6f} receipts+fees={receipts + fees:.6f}"
            )

    summary = run / "summary.csv"
    if summary.exists():
        try:
            _read_csv(summary, SUMMARY_HEADER, problems)
        except ValueError as exc:
            problems.append(str(exc))
    return problems
