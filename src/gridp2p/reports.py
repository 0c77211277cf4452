"""CSV emission for simulation runs, plus the audit re-checker.

One run writes one directory: ``prices.csv``, ``cps_cost.csv``,
``coalitions.csv`` and ``trades.csv``, with ``summary.csv`` added by compare
runs. Headers are fixed, floats carry six decimal places, and rows are
emitted in a deterministic order, so identical runs produce byte-identical
directories.

``trades.csv``, the one file that grows with the pairs of a slot, is a stream
at both ends. ``write_run`` writes it a block at a time: each ledger part
passes a block's columns in one call, and the block's lines are formatted in
one comprehension around the text of its slot, venue and prices, built once, so
a line adds only its parties and quantity, and at most one seller's lines, or
one slot's whole positions, are held. A block with a quantity that would print
as zero refuses the run. ``audit_run`` reads each file as one stream of
records, split at commas until ``csv.reader`` must take over, and checks each
row as it reaches it. A row that repeats the slot, venue and prices of a clean
row before it is checked only for its quantity and parties; a grid or
third-party row that repeats those of an earlier slot's clean row, also for
what depends on its own slot.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager, suppress
from dataclasses import fields
from fractions import Fraction
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Generator, Iterable, Iterator, Sequence

from .coalition import GRID_ID, THIRD_PARTY_ID, Block, Venue
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
# The (metric, scope) of the rows every summary.csv holds: a table's over no prosumers, every value missing.
_METRICS = [f.name for f in fields(MetricsTable)]
_SUMMARY_KEYS = [r[:2] for r in MetricsTable(**{m: {} if f"avg_{m}" in _METRICS else None for m in _METRICS}).rows()]


def _fmt(value: float | Fraction) -> str:
    # ``+ 0.0`` makes a float -0.0 print as a pool's Fraction 0 does, unsigned.
    return f"{float(value) + 0.0:.6f}"


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


class _Lines:
    """The terms that format each block of one slot's trades as its ``trades.csv`` lines.

    ``ids`` holds each party's field, quoted once per run. A block's slot,
    venue and prices are formatted once, so a line adds only its parties and
    its quantity. Int true division is correctly rounded and a float position
    is exact, so each quantity equals ``_fmt`` of the trade's ``Fraction``.
    Each block is strings of whole lines, each string one comprehension's
    lines: one per seller of a ``cross`` block, so a pool's pairs are never
    held all at once, and one for a ``split`` block.

    Before it formats a block, it refuses one whose smallest trade, a tie
    going to the least id, prints as ``0.000000``, which the audit rejects.
    Printing is monotone, and a float prints so exactly when it is at most
    ``5e-7``, the float just below 5e-7: the next float up prints ``0.000001``.
    """

    def __init__(self, slot: int, ids: dict[str, str]) -> None:
        self.slot = slot
        self.ids = ids

    def _ends(self, block: Block) -> tuple[str, str]:
        """The text before a line's parties, and after its quantity."""
        venue, seller_price, buyer_price = block
        return f"{self.slot},{venue.value},", f",{_fmt(seller_price)},{_fmt(buyer_price)}\n"

    def _refuse(self, qty: float, *parties: str) -> None:
        """Raise the refusal of the ``qty`` kWh trade between ``parties``, naming only the prosumers."""
        names = [pid for pid in parties if pid not in (GRID_ID, THIRD_PARTY_ID)]
        names_text = ("prosumers " if len(names) > 1 else "prosumer ") + " and ".join(names)
        raise ConfigurationError(f"slot {self.slot}: the {qty:.3g} kWh trade of {names_text} prints as 0.000000")

    def cross(self, block: Block, sellers: Sequence[str], seller_nums: Sequence[int], buyers: Sequence[str],
              buyer_nums: Sequence[int], den: int) -> Iterator[str]:
        if min(seller_nums) * min(buyer_nums) / den <= 5e-7:
            (a, seller), (b, buyer) = min(zip(seller_nums, sellers)), min(zip(buyer_nums, buyers))
            self._refuse(a * b / den, seller, buyer)
        head, tail = self._ends(block)
        quoted = self.ids
        to = [(quoted[buyer], b) for buyer, b in zip(buyers, buyer_nums)]
        for seller, a in zip(sellers, seller_nums):
            before = f"{head}{quoted[seller]},"
            yield "".join([f"{before}{buyer},{a * b / den:.6f}{tail}" for buyer, b in to])

    def split(self, sold: Block, buyer: str, bought: Block, seller: str, ids: Sequence[str],
              nets: Sequence[float]) -> tuple[str]:
        if min(map(abs, nets)) <= 5e-7:
            self._refuse(*min(zip(map(abs, nets), ids)))
        (s_head, s_tail), (b_head, b_tail) = self._ends(sold), self._ends(bought)
        quoted = self.ids
        to, source = quoted[buyer], quoted[seller]
        return ("".join([f"{s_head}{quoted[pid]},{to},{net:.6f}{s_tail}" if net > 0
                         else f"{b_head}{source},{quoted[pid]},{-net:.6f}{b_tail}" for pid, net in zip(ids, nets)]),)


def _trade_lines(report: SimulationReport) -> Iterator[str]:
    """Each slot's ``trades.csv`` lines, a string of whole lines at a time, formatted from its ledger, in its order."""
    ids = {pid: _csv_field(pid) for pid in (GRID_ID, THIRD_PARTY_ID, *(p.id for p in report.scenario.prosumers))}
    return chain.from_iterable(chain.from_iterable(s.present(_Lines(s.slot, ids)) for s in report.slots))


def write_run(report: SimulationReport, out_dir: str | Path) -> None:
    """Write the run's four CSVs into ``out_dir``, each created new.

    The files a run writes, and the ``summary.csv`` and ``orders.csv`` an
    earlier run may have left, are removed first. ``trades.csv`` is written
    first, under a temporary name, and renamed into place after the other
    three. On any error, such as a quantity that would print as ``0.000000``,
    the temporary file is removed, so the audit rejects what is left.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    partial = out / "trades.csv.partial"
    for name in ("prices.csv", "cps_cost.csv", "coalitions.csv", "trades.csv", partial.name,
                 "summary.csv", "orders.csv"):
        (out / name).unlink(missing_ok=True)

    try:
        with partial.open("w", encoding="utf-8") as fh:
            fh.write(",".join(TRADES_HEADER) + "\n")
            fh.writelines(_trade_lines(report))
        slots = report.slots
        _write_csv(out / "prices.csv", PRICES_HEADER, ([str(s.slot), _fmt(s.price_signal.selling_price),
                                                        str(s.price_signal.peak_flag).lower()] for s in slots))
        _write_csv(out / "cps_cost.csv", CPS_COST_HEADER, ([str(s.slot), _fmt(s.cps_cost)] for s in slots))
        _write_csv(out / "coalitions.csv", COALITIONS_HEADER, (
            [str(s.slot), coalition, pid] for s in slots if s.structure is not None
            for coalition, members in (("auction", s.structure.auction_members),
                                       ("mid_market", s.structure.midmarket_members)) for pid in members))
        partial.rename(out / "trades.csv")
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_summary(metrics: MetricsTable, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "summary.csv", SUMMARY_HEADER, [list(r) for r in metrics.rows()])


def write_order_dump(report: SimulationReport, out_dir: str | Path) -> None:
    """Optional per-slot dump of the orders implied by the scenario."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "orders.csv", ["slot", "prosumer", "side", "price", "quantity"], (
        [str(t), p.id, "ask", _fmt(p.reservation_price[t]), _fmt(net)] if net > 0
        else [str(t), p.id, "bid", _fmt(p.bid_price[t]), _fmt(-net)]
        for t in (s.slot for s in report.slots if s.price_signal.peak_flag)
        for p in report.scenario.prosumers if (net := p.net_energy[t])))


# --- Audit -------------------------------------------------------------------


# Text of about this many characters is read, and split, at a time.
_CHUNK = 1 << 13

# A chunk of records, each with the line it ends on, in order.
_Chunk = Iterable[tuple[int, list[str]]]


def _plain(text: str, lines: list[str]) -> bool:
    """Whether ``text``, whose lines are ``lines``, reads as ``csv.reader`` reads it once each line is split at its commas.

    It must hold no quote, carriage return or NUL (which Python 3.10's ``csv``
    refuses), no blank line, which is a record of no fields, and no line over
    the field size limit.
    """
    limit = csv.field_size_limit()
    return not ('"' in text or "\r" in text or "\0" in text or "\n\n" in text or text[0] == "\n") and (
        len(text) <= limit or max(map(len, lines)) <= limit)


def _chunks(path: Path, fh: io.TextIOBase) -> Iterator[_Chunk]:
    """Every record of ``fh``, the open ``path``, a bounded chunk of whole lines at a time.

    While each chunk is plain it is split at newlines and commas. From the
    first chunk that is not, or that holds a byte that does not decode, the
    last chunk is ``csv.reader`` on a fresh handle from the first line not yet
    split, which reads as it would have read the whole file: the same records,
    line numbers, errors and decode error.
    """
    line, rest = 0, ""  # the lines split so far, and the text read after them, which holds no newline
    with suppress(UnicodeDecodeError):
        while (read := fh.read(_CHUNK)) or rest:
            # Whole lines; at the end of the file, the last needs no newline.
            text = rest + read
            cut = text.rfind("\n") + 1 if read else len(text)
            text, rest = text[:cut], text[cut:]
            if text:
                lines = text.removesuffix("\n").split("\n")
                if not _plain(text, lines):
                    break
                yield zip(range(line + 1, line + 1 + len(lines)), map(str.split, lines, repeat(",")))
                line += len(lines)
        else:  # every chunk was plain
            return
    with path.open(newline="", encoding="utf-8") as again:
        yield _records(csv.reader(islice(again, line, None)), line)


def _records(reader: Iterator[list[str]], line: int) -> _Chunk:
    """Each record ``reader`` reads from line ``line + 1`` on, with the line it ends on; a ``csv.Error``
    is raised as ``csv.Error("line N: ...")``."""
    try:
        for row in reader:
            yield line + reader.line_num, row
    except csv.Error as exc:
        raise csv.Error(f"line {line + reader.line_num}: {exc}")


@contextmanager
def _csv_rows(path: Path, header: list[str], problems: list[str]) -> Iterator[_Chunk]:
    """Each record of ``path`` after ``header``, with the line it ends on, read by :func:`_chunks` as one stream.

    The header is the stream's first record, checked when it is read: a
    missing or different one raises ``ValueError``. A ``csv.Error`` while
    reading, such as a field over the field size limit, the header's too,
    ends the read and becomes one line in ``problems`` naming the file and line.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        records = chain.from_iterable(_chunks(path, fh))

        # The header is read in the stream: a csv.Error caught before the yield ends as "generator didn't yield".
        def after_header() -> Iterator[_Chunk]:
            _, first = next(records, (0, None))
            if first != header:
                raise ValueError(f"{path.name}: expected header {header}, got {'nothing' if first is None else first}")
            yield records

        try:
            yield chain.from_iterable(after_header())
        except csv.Error as exc:
            problems.append(f"{path.name} {exc}")


def _read_csv(
    path: Path, header: list[str], problems: list[str], numeric: tuple[str, ...] = (), key: int = 0
) -> Generator[list[str], None, dict[tuple[str, ...], int] | None]:
    """Yield each row after ``header`` as it is read; a malformed row is a problem, not a row.

    A row is malformed when its width differs from the header's, its slot
    (where the first column is one) is not an integer, its peak flag (where
    the last column is one) is not ``true`` or ``false``, or a ``numeric``
    column does not parse as a finite number, or its first ``key`` columns
    repeat an earlier row's, which stands. Each becomes one line in
    ``problems`` naming the file and line, appended when the reader reaches
    it. An empty ``summary.csv`` average, the mean over no prosumers, is
    not malformed. ``_csv_rows`` checks the header and reports a read error.
    It returns each well-formed key's first line, or None after a read error.
    """
    columns = [header.index(name) for name in numeric]
    first_line: dict[tuple[str, ...], int] = {}
    with _csv_rows(path, header, problems) as rows:
        for line, row in rows:
            problem = _row_problem(row, header, columns)
            if problem is None and key:
                first = first_line.setdefault(tuple(row[:key]), line)
                if first != line:
                    problem = f"{', '.join(f'{h} {v!r}' for h, v in zip(header[:key], row))} repeats line {first}"
            if problem is None:
                yield row
            else:
                problems.append(f"{path.name} line {line}: {problem}")
        return first_line


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


def _positive_finite(text: str) -> bool:
    """Whether ``text`` parses as a number that is > 0 and finite."""
    try:
        return 0 < float(text) < math.inf
    except ValueError:
        return False


def audit_run(run_dir: str | Path) -> list[str]:
    """Re-check an emitted run directory; returns a list of problems found.

    Verifies that every CSV parses under its fixed header, with rows of the
    header's width, integer slots, true/false peak flags, finite prices,
    costs and trade quantities, and finite summary values (an empty one only
    as a missing average), one row per slot in ``prices.csv`` and
    ``cps_cost.csv`` and per (metric, scope) in ``summary.csv``, and each row
    that every summary holds, unless a read error left the rest unread; that the
    coalition rows form a partition; that every trade has a known venue and a
    slot in ``prices.csv``, is between two different parties, stays inside
    its coalition and is priced like every other trade of its slot and venue
    (grid sales and grid purchases apart); that nobody buys from the grid
    at a peak slot; and, in a run that lists coalitions, that the slots
    ``prices.csv`` flags as peaks are exactly those with coalition rows, and
    that each slot with coalition rows has a trade row.

    Every file is read as one stream of records, as ``csv.reader`` reads them
    (:func:`_csv_rows`), and checked one row at a time. The audit keeps each
    slot's peak flag and coalitions, the slots with a trade row, the first
    price pair of each slot and venue, the current slot's clean blocks, and
    the clean grid and third-party blocks of every slot.
    A trade row that passes the full check with no problem makes its (venue,
    grid sells, seller price, buyer price) text a clean block of its slot.
    A later row of the same slot with a clean block's text is checked only
    for a positive finite quantity and for two different parties, both in
    the block's coalition: every other check depends only on that text and
    on state fixed by then, so it would pass again. A clean grid or
    third-party block, whose parties may be anyone, is carried into later
    slots: its first row in another slot is checked, besides, for the rest
    that depends on the slot: that the slot is in ``prices.csv``, that the
    row is no grid sale at a peak slot with coalitions, and that its price
    pair is the first of its slot, venue and grid side. Any other row takes
    the full check, so the problems are those of checking every row in full.

    Problems are listed in one fixed order: malformed rows, file by file,
    then slot coverage, double membership, peak flags that disagree with the
    coalitions, the trade problems in row order
    (an unknown venue, a missing slot or a second price once per slot and
    venue), the slots with coalitions but no trade, in ``coalitions.csv``
    order, and ``summary.csv``'s malformed rows, then its missing rows.
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
        # The grid and third-party blocks clean in any slot, whose parties do not change with it.
        carried: set[tuple[str, bool, str, str]] = set()
        # Every slot with a trade row, added at each change of slot.
        traded: set[str] = set()
        columns = [TRADES_HEADER.index(name) for name in ("qty", "seller_price", "buyer_price")]
        inf = math.inf
        with _csv_rows(run / "trades.csv", TRADES_HEADER, problems) as rows:
            for line, row in rows:
                try:
                    slot, venue, seller, buyer, qty_text, sell_text, buy_text = row
                    if slot != block_slot:
                        block_slot, clean = slot, {}
                        traded.add(slot)
                    parties = clean[venue, seller == GRID_ID, sell_text, buy_text]
                    if 0 < float(qty_text) < inf and seller != buyer and (
                        parties is None or seller in parties and buyer in parties
                    ):
                        continue
                except KeyError:
                    # Not a clean block of this slot: a carried one's first row here adds the checks of its slot.
                    grid_sells, pair = seller == GRID_ID, (sell_text, buy_text)
                    key = (venue, grid_sells, *pair)
                    if key in carried and _positive_finite(qty_text) and seller != buyer and slot in peak and not (
                        venue == _GRID and grid_sells and peak[slot] and membership.get(slot)
                    ) and price_of.setdefault((slot, venue, grid_sells), pair) == pair:
                        clean[key] = None
                        continue
                except ValueError:
                    # Not seven fields, or a quantity that is not a number.
                    pass
                problem = _row_problem(row, TRADES_HEADER, columns)
                if problem is not None:
                    problems.append(f"trades.csv line {line}: {problem}")
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
                    key = venue, seller == GRID_ID, sell_text, buy_text
                    clean[key] = None if want is None else frozenset(pid for pid, c in members.items() if c == want)
                    if want is None and venue in _KNOWN_VENUES:
                        carried.add(key)
            # Skipped after a read error, which leaves the rest of the file unread.
            found += (f"slot {slot}: a peak slot without trades" for slot in membership if slot not in traded)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    problems += found

    summary = run / "summary.csv"
    if summary.exists():
        rows = _read_csv(summary, SUMMARY_HEADER, problems, ("value",), key=2)
        try:
            while True:
                next(rows)
        except StopIteration as end:
            if end.value is not None:
                problems += (f"summary.csv: no well-formed row for metric {metric!r}, scope {scope!r}"
                             for metric, scope in _SUMMARY_KEYS if (metric, scope) not in end.value)
        except ValueError as exc:
            problems.append(str(exc))
    return problems
