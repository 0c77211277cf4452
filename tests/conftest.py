"""Shared test helpers: book builders and independent clearing oracles.

The oracles here re-derive the expected results along a different path than
the implementation: clearing by exhaustive candidate-depth enumeration and
burden allocation by a closed-form water-fill level, instead of the
engine's prefix scan and integer clipping passes, D_hp stability by
trying every group of mid-market members, instead of the one-prosumer moves
that ``check_dhp_stability`` proves sufficient, and a pool's pairwise trades
built eagerly as fill ratio times each buyer's fill in ``Fraction``s, instead
of the integer ratios of ``Pool.present``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import settings, strategies as st

from gridp2p.core import Order
from gridp2p.auction import OrderBook, Side, allocate
from gridp2p.coalition import GRID_ID, THIRD_PARTY_ID, Trade, Venue

settings.register_profile("gridp2p", deadline=None)
settings.load_profile("gridp2p")


# Positive quantities at the ends of the float range and off the binary grid:
# the smallest subnormal, the largest float, any positive float, and rationals
# with any denominator. Over one common denominator, a book's integers then
# reach thousands of bits.
TINY, HUGE = 5e-324, 1.7976931348623157e308
EXTREME_QUANTITY = st.one_of(
    st.sampled_from([TINY, HUGE]),
    st.floats(min_value=TINY, max_value=HUGE),
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9).filter(lambda q: q > 0),
)

# An order's side is the side of the book that holds it.
ask = bid = Order


def book(asks, bids) -> OrderBook:
    return OrderBook(asks=tuple(asks), bids=tuple(bids))


def random_book(rng: random.Random, max_side: int = 5, prices=(10.0, 12.0, 14.0), quantities=(1.0, 2.0, 3.0)) -> OrderBook:
    n_asks = rng.randint(0, max_side)
    n_bids = rng.randint(0, max_side)
    return book(
        [ask(f"s{i}", rng.choice(prices), rng.choice(quantities)) for i in range(n_asks)],
        [bid(f"b{i}", rng.choice(prices), rng.choice(quantities)) for i in range(n_bids)],
    )


def oracle_trading_sets(asks, bids):
    """Deepest feasible prefix, found by checking every candidate depth."""
    asks_sorted = sorted(asks, key=lambda o: (o.price, -o.quantity, o.prosumer_id))
    bids_sorted = sorted(bids, key=lambda o: (-o.price, -o.quantity, o.prosumer_id))
    feasible = [
        k
        for k in range(1, min(len(asks_sorted), len(bids_sorted)) + 1)
        if all(asks_sorted[i].price <= bids_sorted[i].price for i in range(k))
    ]
    if not feasible:
        return None
    k = max(feasible)
    return asks_sorted[:k], bids_sorted[:k]


def oracle_price(trading_asks, vickrey: bool) -> float:
    prices = sorted(o.price for o in trading_asks)
    if vickrey and len(prices) >= 2:
        return prices[-2]
    return prices[-1]


def fraction_allocate(supplies, demands):
    """Burden allocation through ``Fraction`` operators, by iterative clipping.

    The engine's former ``allocate``, kept as a reference for its integer
    form: buyers pro-rata to a ``Fraction`` ratio when supply is short,
    otherwise the equal share taken from every seller and re-shared over the
    sellers still clearing until the totals match.
    """
    supplies = [Fraction(s) for s in supplies]
    demands = [Fraction(d) for d in demands]
    if not supplies or not demands:
        return [Fraction(0)] * len(supplies), [Fraction(0)] * len(supplies), [Fraction(0)] * len(demands)
    total_supply = sum(supplies)
    total_demand = sum(demands)
    if total_supply <= total_demand:
        ratio = total_supply / total_demand
        return list(supplies), [Fraction(0)] * len(supplies), [d * ratio for d in demands]
    share = (total_supply - total_demand) / len(supplies)
    cleared = [max(s - share, Fraction(0)) for s in supplies]
    while (excess := sum(cleared) - total_demand) > 0:
        active = [i for i, c in enumerate(cleared) if c > 0]
        extra = excess / len(active)
        for i in active:
            cleared[i] = max(cleared[i] - extra, Fraction(0))
    return cleared, [s - c for s, c in zip(supplies, cleared)], list(demands)


def allocated(supplies, demands):
    """``allocate`` on bare quantities, in ``fraction_allocate``'s form: (seller cleared, seller burden, buyer cleared).

    A burden is what a seller submitted less what it cleared; a book with an
    empty side trades nothing, so, as in that form, its sellers bear none.
    """
    sellers, buyers = allocate([(f"s{i}", q) for i, q in enumerate(supplies)],
                               [(f"b{j}", q) for j, q in enumerate(demands)])
    sold, bought = sellers.fills(), buyers.fills()
    burdens = [f.submitted - f.cleared if bought else Fraction(0) for f in sold]
    return [f.cleared for f in sold], burdens, [f.cleared for f in bought]


def side_of(fills) -> Side:
    """The side of ``fills``, its quantities over the lcm of their denominators."""
    den = math.lcm(*(q.denominator for f in fills for q in (f.submitted, f.cleared)))
    return Side([f.prosumer_id for f in fills], [int(f.submitted * den) for f in fills],
                [int(f.cleared * den) for f in fills], den)


def oracle_allocate(supplies, demands):
    """Water-fill allocation: a single burden level, clipped sellers below it.

    Solves sum(max(s_i - level, 0)) = total demand directly instead of
    iterating, and fills buyers pro-rata when supply is short.
    """
    supplies = [Fraction(s) for s in supplies]
    demands = [Fraction(d) for d in demands]
    total_supply = sum(supplies)
    total_demand = sum(demands)
    if not supplies or not demands:
        return [Fraction(0)] * len(supplies), [Fraction(0)] * len(demands)
    if total_supply <= total_demand:
        ratio = total_supply / total_demand
        return list(supplies), [d * ratio for d in demands]

    order = sorted(range(len(supplies)), key=lambda i: supplies[i])
    cleared = [Fraction(0)] * len(supplies)
    for first_active in range(len(order)):
        active = order[first_active:]
        level = (sum(supplies[i] for i in active) - total_demand) / len(active)
        clipped_max = supplies[order[first_active - 1]] if first_active else Fraction(0)
        if level >= clipped_max and all(supplies[i] >= level for i in active):
            for i in active:
                cleared[i] = supplies[i] - level
            break
    assert sum(cleared) == total_demand
    return cleared, list(demands)


def oracle_dhp_stable(scenario, result) -> bool:
    """Exhaustive, exact D_hp stability of a peak slot's coalition structure.

    Tries every active prosumer alone (grid, and third party for a deficit)
    and every nonempty group of mid-market members regrouping at mid-market
    terms. A group's side with the smaller total fills completely and the
    other side fills at the ratio of the totals; a side alone in the group
    fills nothing. Unstable iff some move strictly raises every mover's cash.
    """
    slot, grid, market = result.slot, scenario.grid, scenario.market
    fit, third = Fraction(grid.fit_price), Fraction(market.third_party_price)
    peak = Fraction(result.price_signal.selling_price)
    outcome = result.structure.outcome
    p_auc = grid.fit_price if outcome.auction_price is None else outcome.auction_price
    mid_sell = Fraction((p_auc + grid.fit_price) / 2.0)
    mid_buy = mid_sell * (1 + Fraction(market.beta))

    net = {p.id: Fraction(p.net_energy[slot]) for p in scenario.prosumers}
    cash = {pid: s.revenue - s.cost for pid, s in result.per_prosumer.items()}
    members = result.structure.auction_members + result.structure.midmarket_members
    for pid in members:
        q = net[pid]
        alone = [fit * q] if q > 0 else [peak * q, third * q]
        if any(after > cash[pid] for after in alone):
            return False

    mids = result.structure.midmarket_members
    for size in range(1, len(mids) + 1):
        for group in combinations(mids, size):
            supply = sum(net[pid] for pid in group if net[pid] > 0)
            demand = -sum(net[pid] for pid in group if net[pid] < 0)

            def after(pid):
                q = net[pid]
                own, other = (supply, demand) if q > 0 else (demand, supply)
                fill = abs(q) * (min(own, other) / own)
                if q > 0:
                    return mid_sell * fill + fit * (q - fill)
                return -(mid_buy * fill + third * (-q - fill))

            if all(after(pid) > cash[pid] for pid in group):
                return False
    return True


def leg_cash(leg) -> tuple[str, Fraction, Fraction]:
    """A ledger leg ``(pid, revenue, cost, den)`` as ``(pid, revenue, cost)`` in ``Fraction``s."""
    pid, revenue, cost, den = leg
    return pid, Fraction(revenue, den), Fraction(cost, den)


def receipt(trade: Trade) -> Fraction:
    """What the seller of ``trade`` receives."""
    return trade.seller_price * trade.quantity


def payment(trade: Trade) -> Fraction:
    """What the buyer of ``trade`` pays, fee included."""
    return trade.buyer_price * trade.quantity


def eager_pool_trades(sellers, buyers, matched, venue, sell_price, buy_price, fit, third):
    """A pool's trades built one by one: the pairs, then seller and buyer residuals."""
    trades = []
    if matched > 0:
        filled = [(f.prosumer_id, f.cleared) for f in buyers if f.cleared > 0]
        for f in sellers:
            if f.cleared == 0:
                continue
            ratio = f.cleared / matched
            for bid, b_cleared in filled:
                trades.append(Trade(f.prosumer_id, bid, ratio * b_cleared, sell_price, buy_price, venue))
    for f in sellers:
        if (unfilled := f.submitted - f.cleared) > 0:
            trades.append(Trade(f.prosumer_id, GRID_ID, unfilled, fit, fit, Venue.GRID))
    for f in buyers:
        if (unfilled := f.submitted - f.cleared) > 0:
            trades.append(Trade(THIRD_PARTY_ID, f.prosumer_id, unfilled, third, third, Venue.THIRD_PARTY))
    return trades
