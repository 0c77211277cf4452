"""Double-auction clearing: sorting, breakeven matching, burden allocation.

The book is sorted with asks ascending and bids descending; the trading sets
are the longest prefix on which the i-th ask does not exceed the i-th bid
(the discrete intersection of the aggregated supply and demand step curves).
The uniform auction price is the highest trading ask, or the second highest
under the Vickrey rule.

Quantities then clear through :func:`allocate`. Cleared amounts, burdens and
fills are exact rationals (``fractions.Fraction``) so that energy
conservation and the equal-burden identity hold exactly, not merely to
floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import AuctionPriceRule, DomainError, Order


@dataclass(frozen=True)
class OrderBook:
    """All asks and bids submitted for one slot; an order's side is the one that holds it."""

    asks: tuple[Order, ...]
    bids: tuple[Order, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "asks", tuple(self.asks))
        object.__setattr__(self, "bids", tuple(self.bids))
        ask_ids = {o.prosumer_id for o in self.asks}
        bid_ids = {o.prosumer_id for o in self.bids}
        if len(ask_ids) != len(self.asks) or len(bid_ids) != len(self.bids):
            raise DomainError("duplicate prosumer id on one side of the book")
        overlap = ask_ids & bid_ids
        if overlap:
            raise DomainError(f"prosumer {sorted(overlap)[0]!r} appears on both sides")


@dataclass(frozen=True)
class Fill:
    """One participant's submitted and cleared quantity."""

    prosumer_id: str
    submitted: Fraction
    cleared: Fraction


@dataclass(frozen=True)
class AuctionOutcome:
    auction_price: float | None
    seller_fills: tuple[Fill, ...]
    buyer_fills: tuple[Fill, ...]

    @property
    def is_empty(self) -> bool:
        return self.auction_price is None

    @property
    def trading_sellers(self) -> tuple[str, ...]:
        return tuple(f.prosumer_id for f in self.seller_fills)

    @property
    def trading_buyers(self) -> tuple[str, ...]:
        return tuple(f.prosumer_id for f in self.buyer_fills)

    @property
    def total_cleared(self) -> Fraction:
        return sum((f.cleared for f in self.seller_fills), Fraction(0))


EMPTY_OUTCOME = AuctionOutcome(None, (), ())


def _sort_key(order: Order, ascending: bool):
    price = order.price if ascending else -order.price
    return (price, -order.quantity, order.prosumer_id)


def order_books(book: OrderBook) -> OrderBook:
    """Return a copy with asks ascending and bids descending by price.

    Price ties break by larger quantity first, then lexicographic id, so a
    replay of the same book always clears identically.
    """
    return OrderBook(
        asks=tuple(sorted(book.asks, key=lambda o: _sort_key(o, True))),
        bids=tuple(sorted(book.bids, key=lambda o: _sort_key(o, False))),
    )


def allocate(
    supplies: Sequence[Fraction], demands: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Clear quantities between trading sellers and buyers.

    When supply does not exceed demand every seller clears fully and buyers
    are filled pro-rata to their demands. Otherwise the excess is a burden
    shared equally by the sellers; a seller whose whole quantity is absorbed
    by its share is clipped at zero and the leftover is redistributed equally
    over the sellers still clearing, until seller and buyer totals match
    exactly. Returns (seller cleared, seller burden, buyer cleared).
    """
    supplies = [Fraction(s) for s in supplies]
    demands = [Fraction(d) for d in demands]
    if any(s <= 0 for s in supplies) or any(d <= 0 for d in demands):
        raise DomainError("allocate requires positive quantities")
    if not supplies or not demands:
        return [Fraction(0)] * len(supplies), [Fraction(0)] * len(supplies), [Fraction(0)] * len(demands)

    total_supply = sum(supplies)
    total_demand = sum(demands)

    if total_supply <= total_demand:
        cleared_sellers = list(supplies)
        ratio = total_supply / total_demand
        cleared_buyers = [d * ratio for d in demands]
        burdens = [Fraction(0)] * len(supplies)
        return cleared_sellers, burdens, cleared_buyers

    share = (total_supply - total_demand) / len(supplies)
    cleared = [max(s - share, Fraction(0)) for s in supplies]
    # Clipping at zero can strand part of the excess; push it back onto the
    # sellers that still clear. Totals never drop below demand, and each pass
    # either balances exactly or clips one more seller, so this terminates.
    while (excess := sum(cleared) - total_demand) > 0:
        active = [i for i, c in enumerate(cleared) if c > 0]
        extra = excess / len(active)
        for i in active:
            cleared[i] = max(cleared[i] - extra, Fraction(0))
    burdens = [s - c for s, c in zip(supplies, cleared)]
    return cleared, burdens, list(demands)


def clear(book: OrderBook, rule: AuctionPriceRule = AuctionPriceRule.HIGHEST_RESERVATION) -> AuctionOutcome:
    """Run the uniform-price double auction on ``book``.

    Returns :data:`EMPTY_OUTCOME`, in which nobody trades, when the curves do
    not intersect or one side of the book is empty.
    """
    sorted_book = order_books(book)
    asks, bids = sorted_book.asks, sorted_book.bids

    depth = 0
    for ask, bid in zip(asks, bids):
        if ask.price <= bid.price:
            depth += 1
        else:
            break
    if depth == 0:
        return EMPTY_OUTCOME

    trading_asks = asks[:depth]
    trading_bids = bids[:depth]
    if rule is AuctionPriceRule.VICKREY and depth >= 2:
        price = trading_asks[-2].price
    else:
        price = trading_asks[-1].price

    cleared_s, burdens, cleared_b = allocate(
        [Fraction(o.quantity) for o in trading_asks],
        [Fraction(o.quantity) for o in trading_bids],
    )
    seller_fills = tuple(
        Fill(o.prosumer_id, Fraction(o.quantity), c) for o, c in zip(trading_asks, cleared_s)
    )
    buyer_fills = tuple(
        Fill(o.prosumer_id, Fraction(o.quantity), c) for o, c in zip(trading_bids, cleared_b)
    )
    return AuctionOutcome(price, seller_fills, buyer_fills)


@dataclass(frozen=True)
class DeliveryReport:
    """Result of checking delivered quantities against the cleared ones."""

    deviators: tuple[str, ...]
    inconsistency: Fraction

    @property
    def ok(self) -> bool:
        return not self.deviators


def verify_truthful_delivery(
    outcome: AuctionOutcome, delivered: Mapping[str, float | Fraction]
) -> DeliveryReport:
    """Flag sellers whose delivery deviates from their cleared quantity.

    The equal-burden identity only holds when every seller delivers exactly
    what it cleared, so any unilateral deviation shifts the implied burden
    and is detectable. ``inconsistency`` is the absolute shift of the seller
    total in kWh; an all-truthful settlement yields an empty report.
    """
    expected = {f.prosumer_id: f.cleared for f in outcome.seller_fills}
    if set(delivered) != set(expected):
        raise DomainError(
            "delivered quantities must cover exactly the trading sellers "
            f"(expected {sorted(expected)}, got {sorted(delivered)})"
        )
    deviations = {}
    for pid, cleared in expected.items():
        delta = Fraction(delivered[pid]) - cleared
        if delta != 0:
            deviations[pid] = delta
    inconsistency = abs(sum(deviations.values(), Fraction(0)))
    return DeliveryReport(deviators=tuple(sorted(deviations)), inconsistency=inconsistency)
