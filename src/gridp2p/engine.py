"""Horizon orchestration: per-slot runs, settlement, baselines and metrics.

``run_slot`` plays one slot end to end: the system announces its price, and
at a peak the prosumers clear a double auction, split into the two
coalitions, trade, and route residuals. Two baselines replay the same
horizon without peer trading (everything through the grid, or deficits
through the third party), and ``compare`` distills the three runs into the
cost and revenue metrics of interest.

Every slot carries one ledger, its ``ledger`` field: a pooled peak its
auction and mid-market pools, a whole-position slot (every off-peak slot, and
both baselines' peaks) its :class:`Positions`. Each part of a ledger presents
the slot's trades in one fixed order, calling its :class:`~gridp2p.coalition.Terms`
once per block with the block's columns (a pool's pairs, then each side's
residuals; a whole-position slot's active ids and nets, each row picked by
its sign), and yields each participant's leg: its revenue and cost,
read off its own pool side or position in O(S+B). ``write_run`` formats
every slot's ``trades.csv`` lines from its ledger, one comprehension per
block, and refuses a block whose smallest trade would print as zero; a
slot's ``trades`` are the same blocks presented by ``as_trade``, built anew
on every read and never kept, so a reader binds them once. Only a read of ``per_prosumer``,
kept once settled from the legs by ``_settle``, settles a slot: a run and
writing it read no legs; ``compare`` and ``stability_context`` read them off
the ledger, ``compare`` only those of the three runs' peak slots. ``replace``,
``copy`` and a pickle keep the ledger. The trades sum exactly to the legs.
Settled cash is exact and in integers: a leg is its revenue and cost as
numerators over one denominator, from its pool side's or its position's
integers and its prices' integer ratios; a prosumer's peak total is its
legs' sum over the lcm of their denominators, one ``Fraction``; ``compare``'s
floats are each one correctly rounded int division, for an average that of
its values' exact sum, then divided by their count, so none depends on the
order of the prosumers; and ``stability_context`` builds one ``Fraction`` of
cash per active prosumer.
Floats appear only in positions, prices, system costs, metrics and emitted
reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain
from typing import Collection, Iterable, Iterator, Sequence

from .auction import OrderBook, clear
from .coalition import (
    GRID_ID,
    THIRD_PARTY_ID,
    CoalitionStructure,
    Leg,
    Pool,
    StabilityContext,
    T,
    Terms,
    Trade,
    Venue,
    as_trade,
    match_midmarket,
    partition,
)
from .core import ConfigurationError, DomainError, Order, Scenario
from .leader import PriceSignal, cps_cost, decide_slot_price

log = logging.getLogger("gridp2p.engine")
_ZERO = Fraction(0)

MODE_P2P = "p2p"
MODE_GRID_ONLY = "grid-only"
MODE_THIRD_PARTY = "third-party"


@dataclass(frozen=True)
class ProsumerSlot:
    """One prosumer's settled slot: its cash flows."""

    revenue: Fraction
    cost: Fraction


@dataclass(frozen=True)
class SlotResult:
    """One slot's price signal, coalition structure, system cost and ledger, with its trades and settlement.

    The ledger is the slot's one source: ``present`` reads only it, and
    ``trades`` and ``per_prosumer`` are views of it. A slot built by
    :meth:`deferred` builds ``trades`` anew on every read and keeps none, so
    a reader binds it once; it settles ``per_prosumer`` on first read and
    keeps it. A view passed in is an ordinary field. ``==`` and ``repr`` read
    both views; ``dataclasses.replace``, ``copy`` and pickle keep the ledger,
    so a loaded slot stays lazy.
    """

    slot: int
    price_signal: PriceSignal
    structure: CoalitionStructure | None
    trades: tuple[Trade, ...]
    cps_cost: float
    per_prosumer: dict[str, ProsumerSlot]
    ledger: Sequence[Pool | Positions] = field(compare=False, repr=False)

    @classmethod
    def deferred(cls, scenario: Scenario, ledger: Sequence[Pool | Positions], **fields) -> SlotResult:
        """A slot given every field but ``trades`` and ``per_prosumer``, which ``ledger`` yields."""
        result = object.__new__(cls)
        result.__dict__.update(fields, _scenario=scenario, ledger=ledger)
        return result

    def __getattr__(self, name: str):
        # Reached only when the normal lookup fails: for ``trades``, built anew
        # on every read; for ``per_prosumer`` before it is settled; or a bad name.
        if name == "trades":
            return tuple(chain.from_iterable(self.present(as_trade)))
        if name == "per_prosumer":
            object.__setattr__(self, "per_prosumer", _settle(self._scenario, self.ledger))
        return object.__getattribute__(self, name)

    def present(self, terms: Terms[T]) -> Iterator[T]:
        """The slot's trades, presented by ``terms`` a block at a time: its ledger's blocks, in order."""
        return chain.from_iterable(part.present(terms) for part in self.ledger)


@dataclass(frozen=True)
class SimulationReport:
    scenario: Scenario
    mode: str
    slots: tuple[SlotResult, ...]


_IDLE = ProsumerSlot(_ZERO, _ZERO)


def _settle(scenario: Scenario, ledger: Iterable[Pool | Positions]) -> dict[str, ProsumerSlot]:
    """Settle each leg of the slot's ledger; a prosumer without one is idle."""
    settled = dict.fromkeys((p.id for p in scenario.prosumers), _IDLE)
    for part in ledger:
        # A leg's zero side shares one zero, as an idle prosumer's do.
        for pid, revenue, cost, den in part.legs():
            settled[pid] = ProsumerSlot(*(Fraction(v, den) if v else _ZERO for v in (revenue, cost)))
    return settled


@dataclass(slots=True)
class Positions:
    """Every prosumer's whole position at one slot, as a ledger: surplus to
    the grid at the feed-in tariff, deficit from ``buy_venue`` at ``buy_price``.

    Not frozen: one is built for every slot, and a frozen ``__init__`` costs
    about three times as much.
    """

    scenario: Scenario
    slot: int
    buy_price: float
    buy_venue: Venue

    def present(self, terms: Terms[T]) -> Iterator[T]:
        """The slot as one block: one trade per active prosumer, in prosumer order, of its float position,
        its surplus sold to the grid at the FiT or its deficit bought from ``buy_venue`` at ``buy_price``.
        With no prosumer active, the block is empty and not presented."""
        fit = self.scenario.grid.fit_price
        source = GRID_ID if self.buy_venue is Venue.GRID else THIRD_PARTY_ID
        slot = self.slot
        ids, nets = [], []
        for p in self.scenario.prosumers:
            if net := p.net_energy[slot]:
                ids.append(p.id)
                nets.append(net)
        if ids:
            yield terms.split((Venue.GRID, fit, fit), GRID_ID, (self.buy_venue, self.buy_price, self.buy_price),
                              source, ids, nets)

    def legs(self) -> Iterator[Leg]:
        """Each active prosumer's leg, in order, off its own position: surplus at the FiT, deficit at ``buy_price``.

        A leg is its price times its position, both exact floats, as the
        product of their two integer ratios.
        """
        fit_num, fit_den = self.scenario.grid.fit_price.as_integer_ratio()
        buy_num, buy_den = self.buy_price.as_integer_ratio()
        for p in self.scenario.prosumers:
            net = p.net_energy[self.slot]
            if net > 0:
                num, den = net.as_integer_ratio()
                yield p.id, fit_num * num, 0, fit_den * den
            elif net < 0:
                num, den = net.as_integer_ratio()
                yield p.id, 0, -buy_num * num, buy_den * den


def _ratio(num: int, den: int) -> float:
    """``num / den``, for ``den > 0``, as a float, or an infinity of its sign where it is too large for one.

    Int true division is correctly rounded, so this is ``float(Fraction(num, den))`` bit for bit.
    """
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact_sum(ratios: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The exact sum of ratios ``(num, den)``, each ``den > 0``, over their denominators' lcm; ``(0, 1)`` if none."""
    den = math.lcm(*(d for _, d in ratios))
    return sum(n * (den // d) for n, d in ratios), den


def _mean(values: Collection[float | Fraction]) -> float:
    """The mean of ``values``: their :func:`_exact_sum` as one correctly rounded :func:`_ratio`, divided
    by their count, so it does not depend on their order. NaN if a float value is infinite (a
    ``Fraction`` never is): the table that holds it then fails on its own."""
    if any(math.isinf(v) for v in values if type(v) is float):
        return math.nan
    return _ratio(*_exact_sum([v.as_integer_ratio() for v in values])) / len(values)


def run_slot(scenario: Scenario, slot: int) -> SlotResult:
    """Simulate one slot of the peer-trading scheme."""
    if not 0 <= slot < scenario.slots:
        raise DomainError(f"slot {slot} out of range")
    grid = scenario.grid
    market = scenario.market
    signal = decide_slot_price(scenario, slot)
    if not signal.peak_flag:
        return _baseline_slot(scenario, slot, MODE_P2P, signal)

    sellers = scenario.sellers_at(slot)
    buyers = scenario.buyers_at(slot)
    book = OrderBook(
        asks=tuple(Order(p.id, p.reservation_price[slot], p.net_energy[slot]) for p in sellers),
        bids=tuple(Order(p.id, p.bid_price[slot], -p.net_energy[slot]) for p in buyers),
    )
    outcome = clear(book, market.auction_price_rule)
    active = [p.id for p in scenario.prosumers if p.net_energy[slot] != 0]
    structure = partition(active, outcome)

    # With no intersection there is no auction price; the mid-market formula
    # then degenerates to the feed-in tariff as its floor.
    mid_ids = set(structure.midmarket_members)
    mid_pool = match_midmarket(
        sellers=[(p.id, p.net_energy[slot]) for p in sellers if p.id in mid_ids],
        buyers=[(p.id, -p.net_energy[slot]) for p in buyers if p.id in mid_ids],
        p_auc=grid.fit_price if outcome.is_empty else outcome.auction_price,
        beta=market.beta,
        fit_price=grid.fit_price,
        third_party_price=market.third_party_price,
    )
    if not math.isfinite(_ratio(*mid_pool.buy_price.as_integer_ratio())):
        raise ConfigurationError(f"slot {slot}: the mid-market buying price overflows a float")
    ledger = (mid_pool,)
    if not outcome.is_empty:
        # Unsold burden goes to the grid at the feed-in tariff; unmet buyer
        # demand is covered by the third party.
        price = Fraction(outcome.auction_price)
        ledger = (
            Pool(outcome.sellers, outcome.buyers, Venue.AUCTION, price, price, mid_pool.fit, mid_pool.third),
            mid_pool,
        )

    # No prosumer buys from the system at the peak, so delivered demand is
    # zero and the slot costs the system exactly nothing.
    cost = cps_cost(grid.a, grid.b, 0.0, grid.threshold[slot], signal.selling_price)
    return SlotResult.deferred(
        scenario, ledger, slot=slot, price_signal=signal, structure=structure, cps_cost=cost
    )


def _baseline_slot(scenario: Scenario, slot: int, mode: str, signal: PriceSignal) -> SlotResult:
    """A slot settled by whole positions, on first read: any off-peak slot, and a baseline's peak."""
    grid = scenario.grid
    buy_price, buy_venue = signal.selling_price, Venue.GRID
    if not signal.peak_flag:
        cost = cps_cost(grid.a, grid.b, signal.demand, grid.threshold[slot], signal.selling_price)
    elif mode == MODE_GRID_ONLY:
        # The punitive price is a deterrent, not a revenue stream: the cost
        # booked against the slot is the uncredited overage of serving the
        # full demand beyond the threshold.
        cost = cps_cost(grid.a, grid.b, signal.demand, grid.threshold[slot], 0.0)
    else:
        buy_price, buy_venue = scenario.market.third_party_price, Venue.THIRD_PARTY
        cost = cps_cost(grid.a, grid.b, 0.0, grid.threshold[slot], signal.selling_price)
    if not math.isfinite(cost):
        raise ConfigurationError(f"slot {slot}: the system cost overflows a float")

    return SlotResult.deferred(
        scenario, (Positions(scenario, slot, buy_price, buy_venue),),
        slot=slot, price_signal=signal, structure=None, cps_cost=cost,
    )


def aggregate_slots(
    scenario: Scenario, slots: Sequence[SlotResult]
) -> tuple[float, dict[str, Fraction], dict[str, Fraction]]:
    """The system cost, and each prosumer's revenue and cost, summed over the peak slots.

    The sums read each peak's legs straight from its ledger, settling no slot.
    Each prosumer's legs are summed once, by :func:`_exact_sum`, as one ``Fraction``.
    """
    revenue = {p.id: [] for p in scenario.prosumers}
    cost = {p.id: [] for p in scenario.prosumers}
    cps_peak = 0.0
    for s in slots:
        if not s.price_signal.peak_flag:
            continue
        cps_peak += s.cps_cost
        for part in s.ledger:
            # Every leg has one zero side, and an idle prosumer no leg.
            for pid, rev, paid, den in part.legs():
                if rev:
                    revenue[pid].append((rev, den))
                if paid:
                    cost[pid].append((paid, den))
    revenue, cost = ({pid: Fraction(*_exact_sum(legs)) for pid, legs in sums.items()} for sums in (revenue, cost))
    return cps_peak, revenue, cost


def _run(scenario: Scenario, mode: str) -> SimulationReport:
    if mode == MODE_P2P:
        slots = tuple(run_slot(scenario, t) for t in range(scenario.slots))
    else:
        slots = tuple(
            _baseline_slot(scenario, t, mode, decide_slot_price(scenario, t))
            for t in range(scenario.slots)
        )
    log.debug("mode=%s slots=%d peak=%d", mode, len(slots), sum(s.price_signal.peak_flag for s in slots))
    return SimulationReport(scenario, mode, slots)


def run_horizon(scenario: Scenario) -> SimulationReport:
    """Run the peer-trading scheme over the whole horizon."""
    return _run(scenario, MODE_P2P)


def baseline_grid_only(scenario: Scenario) -> SimulationReport:
    """Replay the horizon with every prosumer trading only with the grid."""
    return _run(scenario, MODE_GRID_ONLY)


def baseline_third_party(scenario: Scenario) -> SimulationReport:
    """Replay the horizon with peak deficits bought from the third party."""
    return _run(scenario, MODE_THIRD_PARTY)


def stability_context(scenario: Scenario, result: SlotResult) -> StabilityContext:
    """Each active prosumer's position and settled cash at a peak slot, exactly.

    Every active prosumer has one leg in the slot's ledger, and its cash is
    built from it as one ``Fraction``; positions and prices stay the exact
    floats they are.
    """
    if result.structure is None:
        raise DomainError("stability is defined for peak slots with a coalition structure")
    cash = {pid: Fraction(revenue - cost, den) for part in result.ledger for pid, revenue, cost, den in part.legs()}
    surplus: dict[str, float] = {}
    deficit: dict[str, float] = {}
    for p in scenario.prosumers:
        net = p.net_energy[result.slot]
        if net > 0:
            surplus[p.id] = net
        elif net < 0:
            deficit[p.id] = -net
    return StabilityContext(
        surplus=surplus,
        deficit=deficit,
        cash=cash,
        grid_selling_price=result.price_signal.selling_price,
        fit_price=scenario.grid.fit_price,
        third_party_price=scenario.market.third_party_price,
    )


@dataclass(frozen=True)
class MetricsTable:
    """Cross-run comparison over the peak slots of the horizon. Every value is a
    finite float, or None for a missing average; any other is a ``ConfigurationError``."""

    seller_uplift_pct: dict[str, float]
    buyer_savings_vs_grid_pct: dict[str, float]
    buyer_savings_vs_third_party_pct: dict[str, float]
    buyer_premium_vs_third_party_pct: dict[str, float]
    avg_seller_uplift_pct: float | None
    avg_buyer_savings_vs_grid_pct: float | None
    avg_buyer_savings_vs_third_party_pct: float | None
    avg_buyer_premium_vs_third_party_pct: float | None
    cps_cost_with_p2p: float
    cps_cost_without_p2p: float
    avg_cost_per_prosumer_p2p: float
    avg_cost_per_prosumer_grid_only: float
    avg_cost_per_prosumer_third_party: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            values = value.values() if isinstance(value, dict) else () if value is None else (value,)
            if not all(map(math.isfinite, values)):
                raise ConfigurationError(f"comparison metric {f.name} does not fit a float")

    def rows(self) -> list[tuple[str, str, str]]:
        """The ``summary.csv`` rows as (metric, scope, value), in this order:
        each per-prosumer table's rows, one per prosumer, tables in field
        order; then each table's ``avg_<table>`` field, as scope ``average``;
        then the ``cps_cost_*`` fields, as ``total``; then the
        ``avg_cost_per_prosumer_*`` fields, as ``all``. A missing average is
        an empty value.
        """
        def fmt(x: float | None) -> str:
            return "" if x is None else f"{x:.6f}"

        values = {f.name: getattr(self, f.name) for f in fields(self)}
        tables = [name for name, value in values.items() if isinstance(value, dict)]
        out = [(name, pid, fmt(value)) for name in tables for pid, value in values[name].items()]
        out += [(name, "average", fmt(values[f"avg_{name}"])) for name in tables]
        for prefix, scope in (("cps_cost_", "total"), ("avg_cost_per_prosumer_", "all")):
            out += [(name, scope, fmt(value)) for name, value in values.items() if name.startswith(prefix)]
        return out


def compare(
    p2p: SimulationReport, grid_only: SimulationReport, third_party: SimulationReport
) -> MetricsTable:
    """Distill the three runs into the headline metrics.

    Percentages are computed over peak slots only: off-peak settlement is
    identical in every mode, so including it would only dilute the ratios.
    The cost-per-prosumer averages divide by the full prosumer count, buyers
    and sellers alike.
    """
    if p2p.scenario != grid_only.scenario or p2p.scenario != third_party.scenario:
        raise DomainError("compare requires reports over the same scenario")
    if (p2p.mode, grid_only.mode, third_party.mode) != (MODE_P2P, MODE_GRID_ONLY, MODE_THIRD_PARTY):
        raise DomainError("compare requires one report per mode, in order")

    scenario = p2p.scenario
    cps_p2p, rev_p2p, cost_p2p = aggregate_slots(scenario, p2p.slots)
    cps_grid, rev_grid, cost_grid = aggregate_slots(scenario, grid_only.slots)
    _, _, cost_tp = aggregate_slots(scenario, third_party.slots)
    ids = [p.id for p in scenario.prosumers]

    def pct(high: dict[str, Fraction], low: dict[str, Fraction], base: dict[str, Fraction]) -> dict[str, float]:
        """(high - low) / base as a percentage, for each prosumer whose base is > 0, in prosumer order.

        Each ratio is one int division of the three values' integer cross-products.
        """
        out = {}
        for pid in ids:
            bn, bd = base[pid].as_integer_ratio()
            if bn > 0:
                hn, hd = high[pid].as_integer_ratio()
                ln, ld = low[pid].as_integer_ratio()
                out[pid] = _ratio((hn * ld - ln * hd) * bd, hd * ld * bn) * 100.0
        return out

    tables = {
        "seller_uplift_pct": pct(rev_p2p, rev_grid, rev_grid),
        "buyer_savings_vs_grid_pct": pct(cost_grid, cost_p2p, cost_grid),
        "buyer_savings_vs_third_party_pct": pct(cost_tp, cost_p2p, cost_tp),
        "buyer_premium_vs_third_party_pct": pct(cost_tp, cost_p2p, cost_p2p),
    }
    averages = {f"avg_{name}": _mean(t.values()) if t else None for name, t in tables.items()}
    return MetricsTable(
        **tables,
        **averages,
        cps_cost_with_p2p=cps_p2p,
        cps_cost_without_p2p=cps_grid,
        avg_cost_per_prosumer_p2p=_mean(cost_p2p.values()),
        avg_cost_per_prosumer_grid_only=_mean(cost_grid.values()),
        avg_cost_per_prosumer_third_party=_mean(cost_tp.values()),
    )
