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
from math import gcd
from operator import sub
from typing import Callable, Iterator, Mapping, Protocol, Sequence, TypeVar

from .auction import AuctionOutcome, Side, Submitted, pro_rata, scaled
from .core import GRID_ID, THIRD_PARTY_ID, DomainError

T = TypeVar("T")
T_co = TypeVar("T_co", covariant=True)


class Venue(Enum):
    AUCTION = "auction"
    MID_MARKET = "mid_market"
    GRID = "grid"
    THIRD_PARTY = "third_party"


# The terms every trade of a block shares: its venue, then its seller's and its buyer's price, each
# a Fraction or an exact float.
Block = tuple[Venue, "float | Fraction", "float | Fraction"]


class Terms(Protocol[T_co]):
    """What a ledger presents its trades to, a block at a time: it makes one call per block that has
    trades, with the block's columns, and yields what each call returns, in its fixed row order.
    :data:`as_trade` builds a block's trades; ``reports`` checks and formats its lines."""

    def cross(self, block: Block, sellers: Sequence[str], seller_nums: Sequence[int], buyers: Sequence[str],
              buyer_nums: Sequence[int], den: int) -> T_co:
        """Each seller's trade with each buyer, seller by seller: ``seller_num * buyer_num / den`` kWh."""

    def split(self, sold: Block, buyer: str, bought: Block, seller: str, ids: Sequence[str],
              nets: Sequence[float]) -> T_co:
        """One trade per id, in order, picked by the sign of its nonzero ``net``: where it is > 0,
        ``net`` kWh sold to ``buyer`` on the ``sold`` terms, else ``-net`` kWh bought from ``seller``
        on the ``bought`` terms."""


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
    :data:`as_trade`, whose :func:`_terms` checks each block's prices once,
    by the same rule, and which checks each pool block's smallest quantity
    once and builds every quantity already in lowest terms, as ``Fraction`` would.
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


def _slot_setters(cls: type) -> tuple[Callable[[Fraction, int], None], Callable[[Fraction, int], None]] | None:
    """``cls``'s setters of ``_numerator`` and ``_denominator``, if it keeps its value in exactly those two
    slots, as ``Fraction`` does on 3.10 to 3.13, and a ratio set through them reads as ``Fraction(-6, 35)``;
    else ``None``, so that a change in ``Fraction``'s internals costs only speed."""
    try:
        setters = cls._numerator.__set__, cls._denominator.__set__
        q, want = object.__new__(cls), Fraction(-6, 35)
        setters[0](q, -6)
        setters[1](q, 35)
        same = cls.__slots__ == ("_numerator", "_denominator") and q == want and (
            q.numerator, q.denominator, hash(q), str(q)) == (-6, 35, hash(want), "-6/35")
    except (AttributeError, TypeError):
        return None
    return setters if same else None


# Fraction's two slots, each set directly, as 3.12's ``Fraction._from_coprime_ints`` does: a quantity
# built already in lowest terms, with a denominator > 0, needs no normalising ``Fraction.__new__``.
_SET_NUMERATOR, _SET_DENOMINATOR = _slot_setters(Fraction) or (None, None)


@dataclass(frozen=True)
class CoalitionStructure:
    """The two-coalition partition of the active prosumers at one slot."""

    auction_members: tuple[str, ...]
    midmarket_members: tuple[str, ...]
    outcome: AuctionOutcome


def partition(active: Sequence[str], outcome: AuctionOutcome) -> CoalitionStructure:
    """Split the active prosumers into the auction and mid-market coalitions."""
    trading = {*outcome.sellers.ids, *outcome.buyers.ids}
    stray = trading - set(active)
    if stray:
        raise DomainError(f"auction outcome references inactive prosumer {sorted(stray)[0]!r}")
    return CoalitionStructure(
        auction_members=tuple(pid for pid in active if pid in trading),
        midmarket_members=tuple(pid for pid in active if pid not in trading),
        outcome=outcome,
    )


def _positive(ids: Sequence[str], nums: Sequence[int], times: int, over: int) -> tuple[list[str], list[int]]:
    """The ids whose numerator is > 0, and those numerators times ``times`` over ``over``, which divides each."""
    kept_ids, kept = [], []
    for pid, num in zip(ids, nums):
        if num > 0:
            kept_ids.append(pid)
            kept.append(num * times // over)
    return kept_ids, kept


def _lowest(sellers: Sequence[str], seller_nums: Sequence[int], buyers: Sequence[str], buyer_nums: Sequence[int],
            den: int) -> tuple[list[str], list[int], list[str], list[int], int]:
    """A block's columns as presented, from numerators >= 0: the parties whose numerator is > 0, with their
    numerators and ``den`` in lowest terms, in O(S+B). The seller numerators go over their gcd ``g``, then
    the buyer numerators times ``g``, and ``den``, over their gcd. Each pair's ``a * b / den`` is unchanged,
    each side keeps its order, and ``gcd(*seller_nums) == gcd(den, *buyer_nums) == 1``."""
    g = gcd(*seller_nums)  # A zero numerator leaves a gcd as it is.
    h = gcd(den, g * gcd(*buyer_nums))
    return *_positive(sellers, seller_nums, 1, g), *_positive(buyers, buyer_nums, g, h), den // h


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
        """The pool's trades in three blocks: the pairs, then the sellers' and the buyers' residuals.

        Seller ``s`` delivers ``cleared_s * cleared_b / matched`` to buyer
        ``b``, which over the sides' integers is ``c_s * c_b`` over
        ``buyers.den * sum(sellers.cleared)``, for each seller and each buyer
        that clear. A residual is ``s - c`` over its side's ``den``, sold to
        the grid or bought from the third party. Each block is handed over in
        :func:`_lowest` terms, the same quantity per pair on far smaller
        integers. An empty block is not presented.
        """
        sellers, buyers = self.sellers, self.buyers
        if matched := sum(sellers.cleared):
            yield terms.cross((self.venue, self.sell_price, self.buy_price),
                              *_lowest(sellers.ids, sellers.cleared, buyers.ids, buyers.cleared, buyers.den * matched))
        if any(residuals := list(map(sub, sellers.submitted, sellers.cleared))):
            yield terms.cross((Venue.GRID, self.fit, self.fit),
                              *_lowest(sellers.ids, residuals, [GRID_ID], [1], sellers.den))
        if any(residuals := list(map(sub, buyers.submitted, buyers.cleared))):
            yield terms.cross((Venue.THIRD_PARTY, self.third, self.third),
                              *_lowest([THIRD_PARTY_ID], [1], buyers.ids, residuals, buyers.den))

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


def _terms(block: Block) -> tuple[Venue, Fraction, Fraction, str | None]:
    """``block``'s venue, its prices made exact, and their :func:`_price_error`, found once and raised only
    by a trade. A ``Fraction`` price is kept as the very object given; a float is converted, once if both are one."""
    venue, seller_price, buyer_price = block
    sell = seller_price if isinstance(seller_price, Fraction) else Fraction(seller_price)
    buy = sell if buyer_price is seller_price else (
        buyer_price if isinstance(buyer_price, Fraction) else Fraction(buyer_price))
    return venue, sell, buy, _price_error(venue, sell, buy)


def _ratio(num: int, den: int) -> Fraction:
    """The ``Fraction`` ``num / den``, from a ratio already in lowest terms with ``den > 0``: set into its slots
    where :func:`_slot_setters` found them, else normalised by ``Fraction``."""
    if _SET_NUMERATOR is None:
        return Fraction(num, den)
    q = object.__new__(Fraction)
    _SET_NUMERATOR(q, num)
    _SET_DENOMINATOR(q, den)
    return q


def _trade(terms: tuple[Venue, Fraction, Fraction, str | None], seller: str, buyer: str, quantity: Fraction) -> Trade:
    """A :class:`Trade` on a block's :func:`_terms`, built without ``Trade.__init__``. It raises what ``Trade``
    would, in its order: a non-positive quantity, then the block's price error."""
    venue, sell, buy, error = terms
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


class _AsTrade:
    """The terms that present each block's trades as a list of :class:`Trade`, their prices exact.

    A ``cross`` block, ints as :class:`Terms` presents them, whose prices pass, whose ``den`` is > 0
    and whose smallest trade is > 0 is checked once, and each of its quantities is built already in
    lowest terms through ``Fraction``'s slots, with no normalising ``Fraction`` per trade. Any other
    block, and each row of a ``split`` block, builds its trade by :func:`_trade`, so its first failing
    trade raises what ``Trade`` raises.
    """

    def cross(self, block: Block, sellers: Sequence[str], seller_nums: Sequence[int], buyers: Sequence[str],
              buyer_nums: Sequence[int], den: int) -> list[Trade]:
        terms = venue, sell, buy, error = _terms(block)
        if (error is not None or den <= 0 or min(seller_nums, default=0) <= 0 or min(buyer_nums, default=0) <= 0
                or _SET_NUMERATOR is None):
            # Each trade is checked, and the first that fails raises what ``Trade`` raises.
            return [_trade(terms, seller, buyer, Fraction(a * b, den))
                    for seller, a in zip(sellers, seller_nums) for buyer, b in zip(buyers, buyer_nums)]
        # The block is checked once: its numbers are ints > 0, so every product is. Each buyer's ``b / den``
        # is put in lowest terms ``b1 / d_b`` once, so ``a * b1`` and ``d_b`` share only
        # ``gcd(a, d_b) == gcd(gcd(a, den), d_b)``, which is 1 whenever the seller's ``gcd(a, den)`` is.
        # :func:`_ratio` and :func:`_trade`'s setters are written out here: two calls per pair cost about a tenth.
        columns = [(buyer, b // g, den // g) for buyer, b in zip(buyers, buyer_nums) for g in (gcd(b, den),)]
        trades = []
        for seller, a in zip(sellers, seller_nums):
            g_a = gcd(a, den)
            for buyer, b1, d_b in columns:
                g = gcd(g_a, d_b)
                q = object.__new__(Fraction)
                _SET_NUMERATOR(q, a // g * b1)
                _SET_DENOMINATOR(q, d_b // g)
                t = object.__new__(Trade)
                _SET_SELLER(t, seller)
                _SET_BUYER(t, buyer)
                _SET_QUANTITY(t, q)
                _SET_SELL(t, sell)
                _SET_BUY(t, buy)
                _SET_VENUE(t, venue)
                trades.append(t)
        return trades

    def split(self, sold: Block, buyer: str, bought: Block, seller: str, ids: Sequence[str],
              nets: Sequence[float]) -> list[Trade]:
        on_sold, on_bought = _terms(sold), _terms(bought)
        # A float's integer ratio is already in lowest terms.
        return [_trade(on_sold, pid, buyer, _ratio(*net.as_integer_ratio())) if net > 0
                else _trade(on_bought, seller, pid, _ratio(*(-net).as_integer_ratio())) for pid, net in zip(ids, nets)]


as_trade = _AsTrade()


def match_midmarket(
    sellers: Submitted, buyers: Submitted, p_auc: float, beta: float, fit_price: float, third_party_price: float
) -> Pool:
    """Match mid-market surplus against deficit pro-rata and route residuals.

    Sellers receive the float midpoint of the auction price ``p_auc`` and the
    feed-in tariff, and buyers pay that exactly, times ``1 + beta``, the
    network fee. The surplus and deficit clear by
    :func:`~gridp2p.auction.pro_rata`, the auction's own rule when supply is
    short: the short side in full and the long side in proportion to its
    quantities, so the matched total is the smaller of total surplus and
    total deficit, exactly. Leftover surplus is sold to the grid at the
    feed-in tariff; leftover deficit is bought from the third party. Returns
    the pool, the slot's mid-market ledger: it presents the trades, and its
    legs are each participant's settlement. Only the four prices are
    ``Fraction``s.
    """
    sell = Fraction((p_auc + fit_price) / 2.0)
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
