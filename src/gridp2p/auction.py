"""Double-auction clearing: sorting, breakeven matching, burden allocation.

The book is sorted with asks ascending and bids descending; the trading sets
are the longest prefix on which the i-th ask does not exceed the i-th bid
(the discrete intersection of the aggregated supply and demand step curves).
The uniform auction price is the highest trading ask, or the second highest
under the Vickrey rule.

Quantities then clear through :func:`allocate`, exactly, so that energy
conservation and the equal-burden identity hold exactly, not merely to
floating-point tolerance. Each side of the book is scaled once to integer
numerators over one shared denominator (a power of two for float
quantities), and the clearing is integer arithmetic; a fill is a
``fractions.Fraction`` built once from its integer ratio, or the submitted
quantity itself where it clears in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import AuctionPriceRule, DomainError, Order

_ZERO = Fraction(0)


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


def common_denominator(values: Sequence[Fraction | float]) -> tuple[list[int], int]:
    """``values`` as integer numerators over one denominator, the lcm of theirs (for floats, the largest)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def allocate(
    supplies: Sequence[Fraction], demands: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Clear quantities between trading sellers and buyers.

    When supply does not exceed demand every seller clears fully and buyers
    are filled pro-rata to their demands. Otherwise the excess is a burden
    shared equally by the sellers; a seller whose whole quantity is absorbed
    by its share is clipped at zero and the leftover is redistributed equally
    over the sellers still clearing, until seller and buyer totals match
    exactly. Returns (seller cleared, seller burden, buyer cleared), each an
    exact ``Fraction``; a side that clears in full returns its own quantities.

    The work is in integers: both sides as numerators over one denominator
    ``D``, supply ``A/D`` and demand ``B/D``. When ``A <= B`` buyer ``j``
    clears ``b_j*A / (B*D)``. Otherwise the ``k`` sellers still clearing
    share the burden level ``X / (k*D)``, ``X`` being their numerators' total
    less ``B``, and seller ``i`` clears ``(k*a_i - X) / (k*D)``. Each pass
    clips every seller below the level, which only raises it, so no clipped
    seller clears at the final level; the largest seller never clips.
    """
    supplies = [s if isinstance(s, Fraction) else Fraction(s) for s in supplies]
    demands = [d if isinstance(d, Fraction) else Fraction(d) for d in demands]
    nums, den = common_denominator(supplies + demands)
    if any(n <= 0 for n in nums):
        raise DomainError("allocate requires positive quantities")
    if not supplies or not demands:
        return [_ZERO] * len(supplies), [_ZERO] * len(supplies), [_ZERO] * len(demands)

    supply, demand = nums[: len(supplies)], nums[len(supplies) :]
    total_supply, total_demand = sum(supply), sum(demand)
    if total_supply <= total_demand:
        scale = total_demand * den
        return list(supplies), [_ZERO] * len(supplies), [Fraction(b * total_supply, scale) for b in demand]

    active, level = range(len(supply)), total_supply - total_demand
    while clipped := [i for i in active if supply[i] * len(active) < level]:
        active = [i for i in active if supply[i] * len(active) >= level]
        level -= sum(supply[i] for i in clipped)
    k = len(active)
    cleared, burdens, burden = [_ZERO] * len(supply), list(supplies), Fraction(level, k * den)
    for i in active:
        cleared[i] = Fraction(k * supply[i] - level, k * den)
        burdens[i] = burden
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

    supplies = [Fraction(o.quantity) for o in trading_asks]
    demands = [Fraction(o.quantity) for o in trading_bids]
    cleared_s, _, cleared_b = allocate(supplies, demands)
    seller_fills = tuple(map(Fill, (o.prosumer_id for o in trading_asks), supplies, cleared_s))
    buyer_fills = tuple(map(Fill, (o.prosumer_id for o in trading_bids), demands, cleared_b))
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
    # Comparing a float or a Fraction with a Fraction is exact, so only a deviator's shift is built.
    deviations = {
        pid: Fraction(delivered[pid]) - cleared for pid, cleared in expected.items() if delivered[pid] != cleared
    }
    inconsistency = abs(sum(deviations.values(), _ZERO))
    return DeliveryReport(deviators=tuple(sorted(deviations)), inconsistency=inconsistency)
