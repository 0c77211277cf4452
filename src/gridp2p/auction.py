"""Double-auction clearing: sorting, breakeven matching, pro-rata and equal-burden fills.

The book is sorted with asks ascending and bids descending; the trading sets
are the longest prefix on which the i-th ask does not exceed the i-th bid
(the discrete intersection of the aggregated supply and demand step curves).
The uniform auction price is the highest trading ask, or the second highest
under the Vickrey rule.

Quantities then clear through :func:`allocate`, exactly, so that energy
conservation and the equal-burden identity hold exactly, not merely to
floating-point tolerance. Both sides of the book are scaled once to integer
numerators over one denominator (a power of two for float quantities), and
the clearing is integer arithmetic: :func:`pro_rata`, the rule both
coalitions share, or the sellers' equal burden. Each side of the outcome is
a :class:`Side` of integers; a ``Fill`` is built from it only where read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

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


class Side(NamedTuple):
    """One cleared side: its participants' ids, and their submitted and
    cleared kWh as integer numerators over one denominator ``den > 0``."""

    ids: Sequence[str]
    submitted: Sequence[int]
    cleared: Sequence[int]
    den: int

    def fills(self) -> tuple[Fill, ...]:
        """Each participant's fill, its quantities as ``Fraction``s."""
        return tuple(Fill(pid, Fraction(s, self.den), Fraction(c, self.den))
                     for pid, s, c in zip(self.ids, self.submitted, self.cleared))


@dataclass(frozen=True)
class AuctionOutcome:
    auction_price: float | None
    sellers: Side
    buyers: Side

    @property
    def is_empty(self) -> bool:
        return self.auction_price is None

    @property
    def seller_fills(self) -> tuple[Fill, ...]:
        return self.sellers.fills()

    @property
    def buyer_fills(self) -> tuple[Fill, ...]:
        return self.buyers.fills()

    @property
    def trading_sellers(self) -> tuple[str, ...]:
        return tuple(self.sellers.ids)

    @property
    def trading_buyers(self) -> tuple[str, ...]:
        return tuple(self.buyers.ids)


EMPTY_OUTCOME = AuctionOutcome(None, Side((), (), (), 1), Side((), (), (), 1))


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


# One side of a book as submitted: each participant's ``(id, kWh)``.
Submitted = Sequence[tuple[str, float | Fraction]]


def scaled(sellers: Submitted, buyers: Submitted, error: str) -> tuple[list[str], list[int], list[str], list[int], int]:
    """Both sides as ``(seller ids, a, buyer ids, b, D)``: each kWh is ``a_i/D`` or ``b_j/D``, ``D`` the lcm
    of the quantities' denominators (for floats, the largest). ``DomainError(error)`` unless all are > 0."""
    ratios = [q.as_integer_ratio() for _, q in (*sellers, *buyers)]
    den = math.lcm(*(d for _, d in ratios))
    nums = [n * (den // d) for n, d in ratios]
    if any(n <= 0 for n in nums):
        raise DomainError(error)
    return [pid for pid, _ in sellers], nums[: len(sellers)], [pid for pid, _ in buyers], nums[len(sellers) :], den


def pro_rata(
    seller_ids: list[str], supply: list[int], buyer_ids: list[str], demand: list[int], den: int
) -> tuple[Side, Side]:
    """Clear a book pro-rata: the short side in full, the long side in proportion to its quantities.

    Seller ``i`` holds ``a_i/D`` and buyer ``j`` holds ``b_j/D``, so supply is
    ``A/D`` and demand ``B/D``. Over ``D*max(A, B)`` seller ``i`` submits
    ``a_i*max(A, B)`` and clears ``a_i*B``, and buyer ``j`` submits
    ``b_j*max(A, B)`` and clears ``b_j*A``: one formula, whichever side is
    short. A side with nobody on it clears nothing, and ``den`` stays > 0.
    """
    total_supply, total_demand = sum(supply), sum(demand)
    scale = max(total_supply, total_demand) or 1
    return (
        Side(seller_ids, [a * scale for a in supply], [a * total_demand for a in supply], den * scale),
        Side(buyer_ids, [b * scale for b in demand], [b * total_supply for b in demand], den * scale),
    )


def allocate(sellers: Submitted, buyers: Submitted) -> tuple[Side, Side]:
    """Clear ``(id, kWh)`` trading sellers against buyers, as the seller and the buyer :class:`Side`.

    When supply does not exceed demand this is :func:`pro_rata`: every seller
    clears fully and buyers are filled pro-rata to their demands. Otherwise
    the excess is a burden shared equally by the sellers, each seller's
    submitted kWh less its cleared; a seller whose whole quantity is absorbed
    by its share is clipped at zero and the leftover is redistributed equally
    over the sellers still clearing, until seller and buyer totals match
    exactly.

    The burden is found on the integers of :func:`scaled`: the ``k`` sellers
    still clearing share the level ``X / (k*D)``, ``X`` being their
    numerators' total less ``B``, and seller ``i`` submits ``k*a_i`` and
    clears ``k*a_i - X``, over ``k*D``. Each pass clips every seller below the
    level, which only raises it, so no clipped seller clears at the final
    level; the largest seller never clips.
    """
    book = seller_ids, supply, buyer_ids, demand, den = scaled(sellers, buyers, "allocate requires positive quantities")
    level = sum(supply) - sum(demand)
    if level <= 0:
        return pro_rata(*book)
    active = range(len(supply))
    while clipped := [i for i in active if supply[i] * len(active) < level]:
        active = [i for i in active if supply[i] * len(active) >= level]
        level -= sum(supply[i] for i in clipped)
    k = len(active)
    cleared = [0] * len(supply)
    for i in active:
        cleared[i] = k * supply[i] - level
    return Side(seller_ids, [k * a for a in supply], cleared, k * den), Side(buyer_ids, demand, demand, den)


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

    sellers = [(o.prosumer_id, o.quantity) for o in trading_asks]
    return AuctionOutcome(price, *allocate(sellers, [(o.prosumer_id, o.quantity) for o in trading_bids]))


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
