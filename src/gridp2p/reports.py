"""CSV emission for simulation runs, plus the audit re-checker.

One run writes one directory: ``prices.csv``, ``cps_cost.csv``,
``coalitions.csv`` and ``trades.csv``, with ``summary.csv`` added by compare
runs. Headers are fixed, floats carry six decimal places, and rows are
emitted in a deterministic order, so identical runs produce byte-identical
directories.

``trades.csv``, the one file that grows with the pairs of a slot, is a stream
at both ends. ``write_run`` writes it a block at a time: the text around the
trades that share a slot, venue and prices is built once, so a line adds only
its two ids and its quantity, and no more than one seller's lines are held.
``audit_run`` checks each row as it reads it, holding no row. A row that
repeats the slot, venue and prices of a clean row before it is checked only
for its quantity and parties.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .coalition import GRID_ID, THIRD_PARTY_ID, Venue
from .core import ConfigurationError
from .engine import MetricsTable, SimulationReport

PRICES_HEADER = ["slot", "selling_price", "peak_flag"]
CPS_COST_HEADER = ["slot", "cps_cost"]
COALITIONS_HEADER = ["slot", "coalition", "member"]
TRADES_HEADER = ["slot", "venue", "seller", "buyer", "qty", "seller_price", "buyer_price"]
SUMMARY_HEADER = ["metric", "scope", "value"]

_KNOWN_VENUES = frozenset(venue.value for venue in Venue)
# The coalition each peer venue's parties belong to.
_GRID = Venue.GRID.value
_MID_MARKET = Venue.MID_MARKET.value
_COALITION_OF = {Venue.AUCTION.value: "auction", _MID_MARKET: "mid_market"}


def _fmt(value: float | Fraction) -> str:
    return f"{float(value):.6f}"


def _write_csv(path: Path, header: list[str], rows: Iterable[list[str]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text: str) -> str:
    """``text`` as the row writer of ``_write_csv`` writes it: quoted only where it must be."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text,))
    return out.getvalue()[:-1]


def _trade_lines(report: SimulationReport) -> Iterator[str]:
    """Each slot's ``trades.csv`` lines, formatted a block at a time without building its trades.

    Each id is quoted once per run, and each block's slot, venue and prices
    once per block, so a trade adds only its two ids and its quantity. Int
    true division is correctly rounded and a float position is exact, so each
    quantity equals ``_fmt`` of the trade's ``Fraction``.
    """
    ids = {pid: _csv_field(pid) for pid in (GRID_ID, THIRD_PARTY_ID, *(p.id for p in report.scenario.prosumers))}

    def terms(slot: int, venue: Venue, sell: float | Fraction, buy: float | Fraction) -> Callable[..., str]:
        head, tail = f"{slot},{venue.value},", f",{_fmt(sell)},{_fmt(buy)}\n"
        return lambda seller, buyer, num, den: f"{head}{ids[seller]},{ids[buyer]},{num / den:.6f}{tail}"

    return chain.from_iterable(s.present(partial(terms, s.slot)) for s in report.slots)


def check_quantities(report: SimulationReport) -> None:
    """Raise ``ConfigurationError``, naming the slot and the prosumers, if a ``trades.csv`` quantity of
    ``report`` would print as ``0.000000``, which the audit rejects.

    Printing is monotone in the quantity, so each ledger part's ``smallest`` trades decide.
    """
    for s in report.slots:
        for part in s.ledger:
            for num, den, ids in part.smallest():
                qty = num / den  # as _trade_lines formats it
                if f"{qty:.6f}" == "0.000000":
                    names = ("prosumers " if len(ids) > 1 else "prosumer ") + " and ".join(ids)
                    raise ConfigurationError(f"slot {s.slot}: the {qty:.3g} kWh trade of {names} prints as 0.000000")


def write_run(report: SimulationReport, out_dir: str | Path) -> None:
    """Write the run's four CSVs into ``out_dir``, each created new.

    The files a run writes, and the ``summary.csv`` and ``orders.csv`` an
    earlier run may have left, are removed first. ``trades.csv`` is written under a temporary name
    and renamed into place once complete, so a run cut while writing leaves
    no ``trades.csv``, and the audit rejects its directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    partial = out / "trades.csv.partial"
    for name in ("prices.csv", "cps_cost.csv", "coalitions.csv", "trades.csv", partial.name,
                 "summary.csv", "orders.csv"):
        (out / name).unlink(missing_ok=True)

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
    with partial.open("w", encoding="utf-8") as fh:
        fh.write(",".join(TRADES_HEADER) + "\n")
        fh.writelines(_trade_lines(report))
    partial.rename(out / "trades.csv")


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


@contextmanager
def _csv_rows(path: Path, header: list[str], problems: list[str]) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over the rows of ``path`` after ``header``.

    A missing or different header raises ``ValueError``. A ``csv.Error``
    while reading, such as a field over the field size limit, ends the read
    and becomes one line in ``problems`` naming the file and line.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first != header:
                raise ValueError(f"{path.name}: expected header {header}, got {first if first is not None else 'nothing'}")
            yield reader
        except csv.Error as exc:
            problems.append(f"{path.name} line {reader.line_num}: {exc}")


def _read_csv(
    path: Path, header: list[str], problems: list[str], numeric: tuple[str, ...] = (), key: int = 0
) -> Iterator[list[str]]:
    """Yield each row after ``header`` as it is read; a malformed row is a problem, not a row.

    A row is malformed when its width differs from the header's, its slot
    (where the first column is one) is not an integer, its peak flag (where
    the last column is one) is not ``true`` or ``false``, or a ``numeric``
    column does not parse as a finite number, or its first ``key`` columns
    repeat an earlier row's, which stands. Each becomes one line in
    ``problems`` naming the file and line, appended when the reader reaches
    it. An empty ``summary.csv`` average, the mean over no prosumers, is
    not malformed. ``_csv_rows`` checks the header and reports a read error.
    """
    columns = [header.index(name) for name in numeric]
    first_line: dict[tuple[str, ...], int] = {}
    with _csv_rows(path, header, problems) as reader:
        for row in reader:
            problem = _row_problem(row, header, columns)
            if problem is None and key:
                first = first_line.setdefault(tuple(row[:key]), reader.line_num)
                if first != reader.line_num:
                    problem = f"{', '.join(f'{h} {v!r}' for h, v in zip(header[:key], row))} repeats line {first}"
            if problem is None:
                yield row
            else:
                problems.append(f"{path.name} line {reader.line_num}: {problem}")


def _row_problem(row: list[str], header: list[str], columns: list[int]) -> str | None:
    """Why ``row`` is malformed under ``header``, or None."""
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
            if not math.isfinite(float(row[i])):
                return f"{header[i]} {row[i]!r} is not a finite number"
        except ValueError:
            if row[i] or header[1] != "scope" or row[1] != "average":
                return f"{header[i]} {row[i]!r} is not a number"
    return None


def audit_run(run_dir: str | Path) -> list[str]:
    """Re-check an emitted run directory; returns a list of problems found.

    Verifies that every CSV parses under its fixed header, with rows of the
    header's width, integer slots, true/false peak flags, finite prices,
    costs and trade quantities, and finite summary values (an empty one only
    as a missing average), one row per slot in ``prices.csv`` and
    ``cps_cost.csv`` and per (metric, scope) in ``summary.csv``; that the
    coalition rows form a partition; that every trade has a known venue and a
    slot in ``prices.csv``, is between two different parties, stays inside
    its coalition and is priced like every other trade of its slot and venue
    (grid sales and grid purchases apart); that nobody buys from the grid
    at a peak slot; and, in a run that lists coalitions, that the slots
    ``prices.csv`` flags as peaks are exactly those with coalition rows, and
    that each slot with coalition rows has a trade row.

    Every file is checked one row at a time as it is read. The audit keeps
    each slot's peak flag and coalitions, the slots with a trade row, the first
    price pair of each slot and venue, and the clean blocks of the slot being read.
    A trade row that passes the full check with no problem makes its (venue,
    grid sells, seller price, buyer price) text a clean block of its slot.
    A later row of the same slot with a clean block's text is checked only
    for a positive finite quantity and for two different parties, both in
    the block's coalition: every other check depends only on that text and
    on state fixed by then, so it would pass again. Any other row takes the
    full check, so the problems are those of checking every row in full.

    Problems are listed in one fixed order: malformed rows, file by file,
    then slot coverage, double membership, peak flags that disagree with the
    coalitions, the trade problems in row order
    (an unknown venue, a missing slot or a second price once per slot and
    venue), the slots with coalitions but no trade, in ``coalitions.csv``
    order, and ``summary.csv``'s problems.
    """
    run = Path(run_dir)
    problems: list[str] = []
    # Every check's problem, listed after all the malformed rows.
    found: list[str] = []
    try:
        prices = _read_csv(run / "prices.csv", PRICES_HEADER, problems, ("selling_price",), key=1)
        peak = {slot: flag == "true" for slot, _, flag in prices}
        costs = _read_csv(run / "cps_cost.csv", CPS_COST_HEADER, problems, ("cps_cost",), key=1)
        if {slot for slot, *_ in costs} != set(peak):
            found.append("cps_cost.csv and prices.csv cover different slots")

        membership: dict[str, dict[str, str]] = {}
        for slot, coalition, member in _read_csv(run / "coalitions.csv", COALITIONS_HEADER, problems):
            slot_members = membership.setdefault(slot, {})
            if member in slot_members:
                found.append(f"slot {slot}: prosumer {member} appears in more than one coalition")
            slot_members[member] = coalition
        # A peer-trading run lists coalitions at exactly its peak slots; a baseline lists none.
        if membership:
            for slot, flag in peak.items():
                if flag and slot not in membership:
                    found.append(f"slot {slot}: a peak slot without coalitions")
                elif not flag and slot in membership:
                    found.append(f"slot {slot}: coalitions at an off-peak slot")

        # The (seller price, buyer price) text of each (slot, venue, grid
        # sells) group's first row, which every later row must repeat.
        price_of: dict[tuple[str, str, bool], tuple[str, str]] = {}
        once: set[str] = set()

        def note(problem: str) -> None:
            if problem not in once:
                once.add(problem)
                found.append(problem)

        # The clean blocks of slot ``block_slot``: each one's parties, or None
        # where any party may trade.
        block_slot = None
        clean: dict[tuple[str, bool, str, str], frozenset[str] | None] = {}
        # Every slot with a trade row, added at each change of slot.
        traded: set[str] = set()
        columns = [TRADES_HEADER.index(name) for name in ("qty", "seller_price", "buyer_price")]
        with _csv_rows(run / "trades.csv", TRADES_HEADER, problems) as reader:
            for row in reader:
                try:
                    slot, venue, seller, buyer, qty_text, sell_text, buy_text = row
                    if slot != block_slot:
                        block_slot, clean = slot, {}
                        traded.add(slot)
                    block = (venue, seller == GRID_ID, sell_text, buy_text)
                    parties = clean[block]
                    if 0 < float(qty_text) < math.inf and seller != buyer and (
                        parties is None or seller in parties and buyer in parties
                    ):
                        continue
                except (ValueError, KeyError):
                    # Not seven fields, not a clean block, or a quantity that is not a number.
                    pass
                problem = _row_problem(row, TRADES_HEADER, columns)
                if problem is not None:
                    problems.append(f"trades.csv line {reader.line_num}: {problem}")
                    continue
                seen = len(found)
                slot, venue, seller, buyer, qty_text, sell_text, buy_text = row
                qty, sell, buy = float(qty_text), float(sell_text), float(buy_text)
                if qty <= 0:
                    found.append(f"slot {slot}: non-positive trade quantity {qty_text}")
                if seller == buyer:
                    found.append(f"slot {slot}: {venue} trade from {seller} to itself")
                if buy < sell:
                    found.append(f"slot {slot}: buyer price {buy} below seller price {sell}")
                if venue != _MID_MARKET and buy != sell:
                    found.append(f"slot {slot}: {venue} trade with a price spread")
                # A structure for the slot means a peer-trading run, in which nobody
                # may buy from the grid at the peak; baselines emit no coalitions.
                if venue == _GRID and seller == GRID_ID and peak.get(slot) and membership.get(slot):
                    found.append(f"slot {slot}: grid sale to {buyer} during a peak slot")
                want = _COALITION_OF.get(venue)
                members = membership.get(slot, {})
                if want is not None:
                    for pid in (seller, buyer):
                        if members.get(pid) != want:
                            found.append(f"slot {slot}: {venue} trade party {pid} not in the {want} coalition")
                pair = (sell_text, buy_text)
                first = price_of.setdefault((slot, venue, seller == GRID_ID), pair)
                if first is pair:
                    if venue not in _KNOWN_VENUES:
                        note(f"slot {slot}: unknown venue {venue!r}")
                    if slot not in peak:
                        note(f"slot {slot}: trades in a slot missing from prices.csv")
                elif first != pair:
                    note(f"slot {slot}: {venue} trades at more than one price")
                if len(found) == seen:
                    clean[block] = (
                        None if want is None else frozenset(pid for pid, c in members.items() if c == want)
                    )
            # Skipped after a read error, which leaves the rest of the file unread.
            found += (f"slot {slot}: a peak slot without trades" for slot in membership if slot not in traded)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems += found

    summary = run / "summary.csv"
    if summary.exists():
        try:
            for _ in _read_csv(summary, SUMMARY_HEADER, problems, ("value",), key=2):
                pass
        except ValueError as exc:
            problems.append(str(exc))
    return problems
