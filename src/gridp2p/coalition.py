"""Coalition formation, mid-market trading and partition stability.

At a peak slot the prosumers split into two groups: those the auction
cleared, who trade at the auction price, and everyone else, who trade with
each other at the mid-market price (the midpoint of auction price and
feed-in tariff, with a network fee on the buyer side). Imbalances inside the
mid-market group fall back to the grid (surplus, at the feed-in tariff) or a
third-party source (deficit, at a fixed price). Both coalitions clear by
the auction module's one pro-rata rule (the auction shares an equal burden
instead when its sellers are long), and each is a :class:`Pool` of the two
integer sides (:class:`~gridp2p.auction.Side`) that the clearing returns; its
trades and each participant's leg are read straight from those integers.

``check_dhp_stability`` then asks whether any prosumer, or any group of
mid-market members, could do strictly better by walking away. Auction
participants are committed by the clearing mechanism, so their only unilateral
moves are the non-cooperative ones: trade with the grid at the announced
prices, or buy from the third party. Mid-market members can additionally leave
to form their own side market, in a group of any size, at the same mid-market
terms. A deviation counts as a counterexample only if every prosumer in it
strictly gains. The check is exact, in settled cash, and needs only the
one-prosumer moves: its docstring proves that no breakaway group can gain
unless one of its members already gains alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

from .auction import AuctionOutcome, Side, Submitted, pro_rata, scaled
from .core import GRID_ID, THIRD_PARTY_ID, DomainError

T = TypeVar("T")


class Venue(Enum):
    AUCTION = "auction"
    MID_MARKET = "mid_market"
    GRID = "grid"
    THIRD_PARTY = "third_party"


# A ledger presents its trades a block at a time: it calls ``terms(venue,
# seller_price, buyer_price)``, each price a Fraction or an exact float, once per
# block, and what that returns once per trade, as ``(seller, buyer, num, den)``:
# ``num / den`` is the quantity, ``num`` an int or a whole position's float over 1.
Terms = Callable[[Venue, "float | Fraction", "float | Fraction"], Callable[[str, str, "int | float", int], T]]
# One participant's settled slot, exact: its id, then its revenue and its cost
# as numerators over one denominator ``den > 0``: ``(id, revenue, cost, den)``.
Leg = tuple[str, int, int, int]


def _price_error(venue: Venue, seller_price: Fraction, buyer_price: Fraction) -> str | None:
    """Why a trade's prices fail, or None: a mid-market buyer may not undercut the seller; other venues have one price."""
    if venue is Venue.MID_MARKET:
        return "mid-market buyer price cannot undercut the seller price" if buyer_price < seller_price else None
    return f"{venue.value} trades settle at a single price" if buyer_price != seller_price else None


@dataclass(frozen=True, slots=True)
class Trade:
    """A settled energy transfer between two parties.

    Prices are exact rationals so that conservation identities hold exactly;
    ``buyer_price`` differs from ``seller_price`` only by the mid-market
    network fee, as :func:`_price_error` checks. A slot's trades come from
    :func:`as_trade`, which checks each block's prices once, by the same rule.
    """

    seller_id: str
    buyer_id: str
    quantity: Fraction
    seller_price: Fraction
    buyer_price: Fraction
    venue: Venue

    def __post_init__(self) -> None:
        if self.quantity.numerator <= 0:
            raise DomainError("trade quantity must be > 0")
        if error := _price_error(self.venue, self.seller_price, self.buyer_price):
            raise DomainError(error)


# Trade's slots, each set directly: a trade whose checks have passed needs
# neither ``__init__`` nor the frozen ``__setattr__``.
_SET_SELLER, _SET_BUYER, _SET_QUANTITY, _SET_SELL, _SET_BUY, _SET_VENUE = (
    getattr(Trade, f.name).__set__ for f in fields(Trade)
)


@dataclass(frozen=True)
class CoalitionStructure:
    """The two-coalition partition of the active prosumers at one slot."""

    auction_members: tuple[str, ...]
    midmarket_members: tuple[str, ...]
    outcome: AuctionOutcome


def mid_market_prices(p_auc: float, p_fit: float, beta: float) -> tuple[float, float]:
    """Selling and buying price for the mid-market coalition.

    Sellers receive the midpoint of the auction price and the feed-in
    tariff; buyers pay the same plus a fractional network fee ``beta``.
    """
    if p_auc < 0 or p_fit < 0:
        raise DomainError("prices must be >= 0")
    if beta < 0:
        raise DomainError("beta must be >= 0")
    sell = (p_auc + p_fit) / 2.0
    return sell, (1.0 + beta) * sell


def partition(active: Sequence[str], outcome: AuctionOutcome) -> CoalitionStructure:
    """Split the active prosumers into the auction and mid-market coalitions."""
    trading = set(outcome.trading_sellers) | set(outcome.trading_buyers)
    stray = trading - set(active)
    if stray:
        raise DomainError(f"auction outcome references inactive prosumer {sorted(stray)[0]!r}")
    return CoalitionStructure(
        auction_members=tuple(pid for pid in active if pid in trading),
        midmarket_members=tuple(pid for pid in active if pid not in trading),
        outcome=outcome,
    )


@dataclass(frozen=True)
class Pool:
    """A pro-rata pool: its two sides, whose cleared totals are equal, its
    venue and prices, and the prices of its residuals: surplus sells to the
    grid at the feed-in tariff ``fit``, deficit comes from the third party at
    ``third``. As a ledger it presents its trades and yields its
    participants' legs, each read off its side's integers.
    """

    sellers: Side
    buyers: Side
    venue: Venue
    sell_price: Fraction
    buy_price: Fraction
    fit: Fraction
    third: Fraction

    def present(self, terms: Terms[T]) -> Iterator[T]:
        """The pool as pairwise trades: each pair, then each seller's and each buyer's residual.

        Seller ``s`` delivers ``cleared_s * cleared_b / matched`` to buyer
        ``b``, which over the sides' integers is ``c_s * c_b`` over
        ``buyers.den * sum(sellers.cleared)``. The pairs form one block, the
        residuals to each side one more; a residual is ``s - c`` over its side's ``den``.
        """
        sellers, buyers = self.sellers, self.buyers
        if matched := sum(sellers.cleared):
            pair = terms(self.venue, self.sell_price, self.buy_price)
            den = buyers.den * matched
            shares = [(bid, c) for bid, c in zip(buyers.ids, buyers.cleared) if c]
            for sid, c_s in zip(sellers.ids, sellers.cleared):
                if c_s:
                    yield from [pair(sid, bid, c_s * c_b, den) for bid, c_b in shares]
        sold = terms(Venue.GRID, self.fit, self.fit)
        for sid, s, c in zip(sellers.ids, sellers.submitted, sellers.cleared):
            if s > c:
                yield sold(sid, GRID_ID, s - c, sellers.den)
        bought = terms(Venue.THIRD_PARTY, self.third, self.third)
        for bid, s, c in zip(buyers.ids, buyers.submitted, buyers.cleared):
            if s > c:
                yield bought(THIRD_PARTY_ID, bid, s - c, buyers.den)

    def legs(self) -> Iterator[Leg]:
        """Each participant's leg, sellers then buyers, read off its side's integers.

        The pairwise trades of :meth:`present` sum exactly to each side's
        cleared kWh, so every leg is computed in O(S+B) without building them:
        ``price * c + residual_price * (s - c)``, over one denominator per side.
        """
        for side, is_seller, price, residual_price in ((self.sellers, True, self.sell_price, self.fit),
                                                       (self.buyers, False, self.buy_price, self.third)):
            pn, pd = price.as_integer_ratio()
            rn, rd = residual_price.as_integer_ratio()
            on_cleared, on_residual, den = pn * rd, rn * pd, pd * rd * side.den
            for pid, s, c in zip(side.ids, side.submitted, side.cleared):
                value = on_cleared * c + on_residual * (s - c)
                yield (pid, value, 0, den) if is_seller else (pid, 0, value, den)


def as_trade(venue: Venue, seller_price: float | Fraction, buyer_price: float | Fraction) -> Callable[..., Trade]:
    """The terms that present each trade as a :class:`Trade`, its prices exact.

    The block's prices are checked once, by :func:`_price_error`, and each
    trade is built without ``Trade.__init__``. A trade raises what ``Trade``
    would, in its order: a non-positive quantity, then the block's price
    error; a block with no trades raises nothing.
    """
    sell = Fraction(seller_price)
    buy = sell if buyer_price is seller_price else Fraction(buyer_price)
    error = _price_error(venue, sell, buy)

    def trade(seller: str, buyer: str, num: int | float, den: int) -> Trade:
        quantity = Fraction(num) if den == 1 else Fraction(num, den)
        if quantity.numerator <= 0:
            raise DomainError("trade quantity must be > 0")
        if error:
            raise DomainError(error)
        t = object.__new__(Trade)
        _SET_SELLER(t, seller)
        _SET_BUYER(t, buyer)
        _SET_QUANTITY(t, quantity)
        _SET_SELL(t, sell)
        _SET_BUY(t, buy)
        _SET_VENUE(t, venue)
        return t

    return trade


def match_midmarket(
    sellers: Submitted, buyers: Submitted, mid_sell: float, beta: float, fit_price: float, third_party_price: float
) -> Pool:
    """Match mid-market surplus against deficit pro-rata and route residuals.

    The surplus and deficit clear by :func:`~gridp2p.auction.pro_rata`, the
    auction's own rule when supply is short: the short side in full and the
    long side in proportion to its quantities, so the matched total is the
    smaller of total surplus and total deficit, exactly. Leftover surplus is
    sold to the grid at the feed-in tariff; leftover deficit is bought from
    the third party. Returns the pool, the slot's mid-market ledger: it
    presents the trades, and its legs are each participant's settlement.
    Only the four prices are ``Fraction``s.
    """
    sell = Fraction(mid_sell)
    sell_n, sell_d = sell.as_integer_ratio()
    beta_n, beta_d = beta.as_integer_ratio()
    return Pool(
        *pro_rata(*scaled(sellers, buyers, "mid-market quantities must be > 0")), Venue.MID_MARKET, sell,
        Fraction(sell_n * (beta_d + beta_n), sell_d * beta_d), Fraction(fit_price), Fraction(third_party_price),
    )


# --- Stability ---------------------------------------------------------------


@dataclass(frozen=True)
class StabilityContext:
    """Each active prosumer's position and settled cash, and the outside prices, each exact:
    a rational, or a float read as the rational it is."""

    surplus: Mapping[str, float | Fraction]
    deficit: Mapping[str, float | Fraction]
    cash: Mapping[str, Fraction]
    grid_selling_price: float | Fraction
    fit_price: float | Fraction
    third_party_price: float | Fraction


@dataclass(frozen=True)
class Deviation:
    """One prosumer's move alone and the exact cash it settles to, before and after."""

    kind: str
    member: str
    cash_before: Fraction
    cash_after: Fraction


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    witness: Deviation | None = None


def check_dhp_stability(
    structure: CoalitionStructure, ctx: StabilityContext
) -> StabilityVerdict:
    """Decide D_hp stability (Apt & Witzel, 2009) exactly, from settled cash.

    Each active prosumer, auction members first, is tried acting alone: through
    the grid (surplus at the feed-in tariff, deficit at the announced peak
    price), then, for a deficit, through the third party. The first move that
    settles to strictly more cash is returned as the witness; if none exists
    the structure is stable. This also covers every group of mid-market
    members, of any size, breaking away into a side market of its own:

    - Every active position is fully routed, before and after any deviation,
      so the satisfaction term alpha*log2(1+|net|) does not change, and a
      strict gain in utility is a strict gain in cash.
    - A mid-market seller's cash is ``FiT*q + (mid_sell - FiT)*m`` and a
      buyer's is ``-tp*q + (tp - mid_buy)*m``, where ``m`` is its matched
      share. A member whose cash falls with ``m`` (a seller when
      ``mid_sell < FiT``, a buyer when ``mid_buy > tp``) gains only from
      ``m > 0``, and then it already gains strictly alone, through the grid
      or the third party, which is tried first. Any other member gains
      strictly only through a strictly higher fill ratio.
    - In the pro-rata pool the short side has fill ratio 1. So a group whose
      members all need a higher fill cannot gain: a member from the short
      side cannot raise its fill, and a group without one holds one side
      only, whose members get fill 0.

    So whenever some group gains strictly, some prosumer gains strictly alone,
    and the one-prosumer moves decide stability.

    Each move's cash, ``±price * qty``, is compared with the cash before by
    integer cross-multiplication; a ``Fraction`` is built only for a witness.
    """
    for pid in structure.auction_members + structure.midmarket_members:
        before = ctx.cash[pid]
        bn, bd = before.as_integer_ratio()
        if pid in ctx.surplus:
            sign, qty, moves = 1, ctx.surplus[pid], (("grid_alone", ctx.fit_price),)
        else:
            sign, qty = -1, ctx.deficit[pid]
            moves = (("grid_alone", ctx.grid_selling_price), ("third_party_alone", ctx.third_party_price))
        qn, qd = qty.as_integer_ratio()
        for kind, price in moves:
            pn, pd = price.as_integer_ratio()
            num, den = sign * pn * qn, pd * qd
            if num * bd > bn * den:
                return StabilityVerdict(stable=False, witness=Deviation(kind, pid, before, Fraction(num, den)))
    return StabilityVerdict(stable=True)
