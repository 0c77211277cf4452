"""Hand-built scenarios with known clearing outcomes.

These are single-slot peak scenarios whose books are constructed so the
auction price, coalition split and settlement arithmetic can be computed by
hand. They back the test suite.
"""

from __future__ import annotations

from dataclasses import replace

from gridp2p.core import (
    CASE_STUDY_A,
    CASE_STUDY_B,
    AuctionPriceRule,
    GridPolicy,
    MarketConfig,
    ProsumerProfile,
    Scenario,
)


def _profile(pid: str, net: float, ask: float = 15.0, bid: float = 15.0, alpha: float = 7.0) -> ProsumerProfile:
    return ProsumerProfile(
        id=pid,
        alpha=alpha,
        net_energy=(net,),
        reservation_price=(ask,),
        bid_price=(bid,),
    )


def _single_peak_scenario(
    prosumers: tuple[ProsumerProfile, ...],
    threshold_margin: float = 2.0,
    third_party_price: float = 21.0,
    beta: float = 0.1,
) -> Scenario:
    demand = sum(-p.net_energy[0] for p in prosumers if p.net_energy[0] < 0)
    grid = GridPolicy(
        a=CASE_STUDY_A,
        b=CASE_STUDY_B,
        threshold=(demand - threshold_margin,),
        offpeak_price=28.0,
        fit_price=10.0,
    )
    market = MarketConfig(
        beta=beta,
        third_party_price=third_party_price,
        auction_price_rule=AuctionPriceRule.HIGHEST_RESERVATION,
    )
    return Scenario(slots=1, prosumers=prosumers, grid=grid, market=market, seed=0)


def uniform_auction_scenario(third_party_price: float = 21.0) -> Scenario:
    """Every buyer clears in the auction at exactly 14 cents/kWh.

    Six sellers ask up to 14, six buyers bid at least 14, supply equals
    demand, so the whole book trades at the auction price with an empty
    mid-market coalition. The 2 kWh threshold overshoot makes the punitive
    price 548.8 cents/kWh.
    """
    asks = [11.0, 12.0, 12.5, 13.0, 13.5, 14.0]
    bids = [15.0, 15.0, 15.0, 14.5, 14.5, 14.0]
    prosumers = tuple(
        [_profile(f"s{i + 1:02d}", 4.0, ask=asks[i]) for i in range(6)]
        + [_profile(f"b{i + 1:02d}", -4.0, bid=bids[i]) for i in range(6)]
    )
    return _single_peak_scenario(prosumers, third_party_price=third_party_price)


def blended_price_scenario() -> Scenario:
    """One auction seller at 14, nine mid-market sellers at 12.

    With the feed-in tariff at 10 the per-seller revenue uplifts are 40% for
    the auction seller and 20% for each mid-market seller, averaging 22%.
    Mid-market supply and demand balance exactly, so no residuals arise.
    """
    sellers = [_profile("s01", 2.0, ask=14.0)] + [
        _profile(f"s{i + 2:02d}", 2.0, ask=15.0) for i in range(9)
    ]
    buyers = [_profile("b01", -2.0, bid=15.0)] + [
        _profile(f"b{i + 2:02d}", -2.0, bid=11.0) for i in range(9)
    ]
    return _single_peak_scenario(tuple(sellers + buyers))


def two_coalition_demo_scenario() -> Scenario:
    """Twelve prosumers splitting into a six-member auction coalition.

    Sellers p01..p06 hold surplus and buyers p07..p12 hold deficits; the
    three cheapest asks and three highest bids clear at 12 cents/kWh, and
    the remaining six prosumers trade at the mid-market rate.
    """
    prosumers = (
        _profile("p01", 2.0, ask=14.8),
        _profile("p02", 2.0, ask=14.9),
        _profile("p03", 2.0, ask=15.0),
        _profile("p04", 3.0, ask=11.0),
        _profile("p05", 4.0, ask=11.5),
        _profile("p06", 5.0, ask=12.0),
        _profile("p07", -4.0, bid=15.0),
        _profile("p08", -4.0, bid=14.5),
        _profile("p09", -4.0, bid=14.0),
        _profile("p10", -2.0, bid=11.4),
        _profile("p11", -2.0, bid=11.2),
        _profile("p12", -2.0, bid=11.0),
    )
    return _single_peak_scenario(prosumers)


def with_third_party_price(scenario: Scenario, price: float) -> Scenario:
    """A copy of ``scenario`` with a different third-party price."""
    return replace(scenario, market=replace(scenario.market, third_party_price=price))
