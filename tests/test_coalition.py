"""Coalition partitioning, mid-market matching and stability checks."""

import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    EXTREME_QUANTITY, HUGE, TINY, ask, bid, book, eager_pool_trades, leg_cash, oracle_dhp_stable, payment, receipt,
    side_of,
)
from fixtures import (
    two_coalition_demo_scenario,
    uniform_auction_scenario,
    with_third_party_price,
)
from gridp2p.auction import EMPTY_OUTCOME, AuctionOutcome, Fill, clear
from gridp2p.coalition import (
    GRID_ID,
    THIRD_PARTY_ID,
    CoalitionStructure,
    Pool,
    StabilityContext,
    Trade,
    Venue,
    as_trade,
    check_dhp_stability,
    match_midmarket,
    mid_market_prices,
    partition,
)
from gridp2p.core import (
    AuctionPriceRule,
    DomainError,
    GridPolicy,
    MarketConfig,
    ProsumerProfile,
    Scenario,
    make_case_study_scenario,
)
from gridp2p.engine import run_slot, stability_context
from gridp2p.reports import _fmt, _trade_lines


def _price_pair(same_object):
    """Two equal prices: one shared object, or two distinct objects."""
    price = Fraction(12)
    return (price, price) if same_object else (price, Fraction(12))


@pytest.mark.parametrize("same_object", [False, True])
@pytest.mark.parametrize("venue", list(Venue))
def test_trade_rejects_nonpositive_quantity(venue, same_object):
    sell, buy = _price_pair(same_object)
    for quantity in (Fraction(0), Fraction(-1, 3)):
        with pytest.raises(DomainError, match="quantity"):
            Trade("s", "b", quantity, sell, buy, venue)
    trade = Trade("s", "b", Fraction(1, 3), sell, buy, venue)
    with pytest.raises(DomainError, match="quantity"):
        dataclasses.replace(trade, quantity=Fraction(0))


@pytest.mark.parametrize("same_object", [False, True])
@pytest.mark.parametrize("venue", [Venue.AUCTION, Venue.GRID, Venue.THIRD_PARTY])
def test_trade_single_price_venues_reject_a_spread(venue, same_object):
    sell, buy = _price_pair(same_object)
    Trade("s", "b", Fraction(1), sell, buy, venue)
    with pytest.raises(DomainError, match="single price"):
        Trade("s", "b", Fraction(1), sell, buy + Fraction(1, 10), venue)
    with pytest.raises(DomainError, match="single price"):
        Trade("s", "b", Fraction(1), sell, sell - Fraction(1, 10), venue)


@pytest.mark.parametrize("same_object", [False, True])
def test_trade_midmarket_buyer_price_cannot_undercut(same_object):
    sell, buy = _price_pair(same_object)
    Trade("s", "b", Fraction(1), sell, buy, Venue.MID_MARKET)
    Trade("s", "b", Fraction(1), sell, buy * Fraction(11, 10), Venue.MID_MARKET)
    with pytest.raises(DomainError, match="undercut"):
        Trade("s", "b", Fraction(1), sell, sell - Fraction(1, 10), Venue.MID_MARKET)


# A block's terms, as a ledger presents them: ``as_trade`` checks the prices
# once per block, and each trade's quantity on its own.
def test_as_trade_block_with_an_undercut_raises_on_its_first_trade():
    terms = as_trade(Venue.MID_MARKET, Fraction(12), Fraction(11))
    with pytest.raises(DomainError, match="undercut"):
        terms("s", "b", 1, 3)


@pytest.mark.parametrize("venue", [Venue.AUCTION, Venue.GRID, Venue.THIRD_PARTY])
def test_as_trade_single_price_block_with_a_spread_raises(venue):
    terms = as_trade(venue, 12.0, 12.5)
    with pytest.raises(DomainError, match="single price"):
        terms("s", "b", 1, 3)
    # A non-positive quantity in a failing block names the quantity, as ``Trade`` does.
    with pytest.raises(DomainError, match="quantity"):
        terms("s", "b", 0, 1)


@pytest.mark.parametrize("venue", list(Venue))
def test_as_trade_block_with_no_trades_raises_nothing(venue):
    as_trade(venue, Fraction(12), Fraction(11))
    as_trade(venue, 12.0, 12.5)


@pytest.mark.parametrize("venue", list(Venue))
@pytest.mark.parametrize("num, den", [(0, 1), (-1, 3), (0.0, 1), (-0.5, 1)])
def test_as_trade_nonpositive_quantity_mid_block_raises(venue, num, den):
    price = Fraction(12)
    terms = as_trade(venue, price, price)
    before = terms("s", "b", 1, 3)
    with pytest.raises(DomainError, match="quantity"):
        terms("s", "b", num, den)
    after = terms("s", "b", 2.5, 1)
    assert before == Trade("s", "b", Fraction(1, 3), price, price, venue)
    assert after == Trade("s", "b", Fraction(5, 2), price, price, venue)
    assert hash(after) == hash(Trade("s", "b", Fraction(5, 2), price, price, venue))


# Price pairs: one shared object, equal values in two objects, and any two
# values (an undercut or a spread), as exact floats or as rationals.
_PRICES = st.one_of(st.fractions(0, 100), st.floats(0, 100))
_PRICE_PAIRS = st.one_of(
    _PRICES.map(lambda p: (p, p)),
    _PRICES.map(lambda p: (p, p + 0)),
    st.tuples(_PRICES, _PRICES),
)
_QUANTITIES = st.one_of(st.tuples(st.integers(-5, 5), st.integers(1, 7)), st.tuples(st.floats(-5, 5), st.just(1)))


@given(st.sampled_from(list(Venue)), _PRICE_PAIRS, _QUANTITIES)
@example(Venue.MID_MARKET, (Fraction(12), Fraction(11)), (1, 3))
@example(Venue.MID_MARKET, (Fraction(12), Fraction(11)), (0, 1))
@example(Venue.AUCTION, (12.0, 12.5), (-0.5, 1))
@example(Venue.GRID, (12.0, 11.5), (1, 3))
def test_as_trade_raises_iff_trade_does_with_the_same_message(venue, prices, quantity):
    seller_price, buyer_price = prices
    num, den = quantity
    sell = Fraction(seller_price)
    buy = sell if buyer_price is seller_price else Fraction(buyer_price)
    outcomes = []
    for build in (lambda: as_trade(venue, seller_price, buyer_price)("s", "b", num, den),
                  lambda: Trade("s", "b", Fraction(num) / den, sell, buy, venue)):
        try:
            outcomes.append(build())
        except DomainError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_mid_market_examples():
    sell, buy = mid_market_prices(14.0, 10.0, 0.1)
    assert sell == pytest.approx(12.0)
    assert buy == pytest.approx(13.2)
    sell, buy = mid_market_prices(9.0, 9.0, 0.7)
    assert sell == pytest.approx(9.0)
    sell, buy = mid_market_prices(14.0, 10.0, 0.0)
    assert sell == buy == pytest.approx(12.0)


@given(st.floats(0.0, 100.0), st.floats(0.0, 50.0), st.floats(0.0, 1.0))
def test_mid_market_price_ordering(p_auc, p_fit, beta):
    sell, buy = mid_market_prices(p_auc, p_fit, beta)
    assert buy >= sell
    if p_auc >= p_fit:
        assert p_fit <= sell <= p_auc


def test_partition_splits_around_trading_sets():
    b = book(
        [ask("s1", 11.0, 2.0), ask("s2", 12.0, 2.0), ask("s3", 15.0, 2.0)],
        [bid("b1", 14.0, 2.0), bid("b2", 13.0, 2.0), bid("b3", 11.0, 2.0)],
    )
    out = clear(b)
    structure = partition(["s1", "s2", "s3", "b1", "b2", "b3"], out)
    assert structure.auction_members == ("s1", "s2", "b1", "b2")
    assert structure.midmarket_members == ("s3", "b3")


def test_partition_empty_outcome_puts_everyone_midmarket():
    structure = partition(["a", "b"], EMPTY_OUTCOME)
    assert structure.auction_members == ()
    assert structure.midmarket_members == ("a", "b")


def test_partition_everyone_trading_leaves_midmarket_empty():
    out = clear(book([ask("s1", 11.0, 2.0)], [bid("b1", 14.0, 2.0)]))
    structure = partition(["s1", "b1"], out)
    assert structure.midmarket_members == ()


def test_partition_is_exhaustive_and_disjoint_over_random_slots():
    rng = random.Random(5)
    for _ in range(300):
        seed = rng.randrange(10**6)
        scenario = make_case_study_scenario(seed, slots=6)
        result = run_slot(scenario, rng.randrange(scenario.slots))
        if result.structure is None:
            continue
        members = set(result.structure.auction_members) | set(result.structure.midmarket_members)
        assert not (set(result.structure.auction_members) & set(result.structure.midmarket_members))
        active = {p.id for p in scenario.prosumers if p.net_energy[result.slot] != 0}
        assert members == active


def _midmarket_trades(*args, **kwargs):
    return list(match_midmarket(*args, **kwargs).present(as_trade))


def test_match_midmarket_exact_balance():
    trades = _midmarket_trades(
        [("s1", Fraction(4))], [("b1", Fraction(2)), ("b2", Fraction(2))],
        mid_sell=12.0, beta=0.1, fit_price=10.0, third_party_price=21.0,
    )
    assert [(t.seller_id, t.buyer_id, t.quantity) for t in trades] == [
        ("s1", "b1", Fraction(2)),
        ("s1", "b2", Fraction(2)),
    ]
    assert all(t.venue is Venue.MID_MARKET for t in trades)


def test_match_midmarket_surplus_residual_to_grid():
    trades = _midmarket_trades(
        [("s1", Fraction(6))], [("b1", Fraction(2))],
        mid_sell=12.0, beta=0.1, fit_price=10.0, third_party_price=21.0,
    )
    mid = [t for t in trades if t.venue is Venue.MID_MARKET]
    grid = [t for t in trades if t.venue is Venue.GRID]
    assert len(mid) == 1 and mid[0].quantity == 2
    assert len(grid) == 1 and grid[0].quantity == 4
    assert grid[0].buyer_id == GRID_ID
    assert grid[0].seller_price == Fraction(10)


def test_match_midmarket_deficit_residual_to_third_party():
    trades = _midmarket_trades(
        [("s1", Fraction(2))], [("b1", Fraction(5))],
        mid_sell=12.0, beta=0.1, fit_price=10.0, third_party_price=21.0,
    )
    third = [t for t in trades if t.venue is Venue.THIRD_PARTY]
    assert len(third) == 1
    assert third[0].quantity == 3
    assert third[0].seller_id == THIRD_PARTY_ID
    assert third[0].buyer_price == Fraction(21)


def test_match_midmarket_no_sellers():
    trades = _midmarket_trades(
        [], [("b1", Fraction(3))], mid_sell=11.0, beta=0.1, fit_price=10.0, third_party_price=21.0
    )
    assert len(trades) == 1 and trades[0].venue is Venue.THIRD_PARTY


def test_midmarket_fee_is_exactly_beta_times_receipt():
    trades = _midmarket_trades(
        [("s1", Fraction(5)), ("s2", Fraction(3))],
        [("b1", Fraction(2)), ("b2", Fraction(4))],
        mid_sell=11.5, beta=0.1, fit_price=10.0, third_party_price=21.0,
    )
    beta = Fraction(0.1)
    for t in trades:
        if t.venue is Venue.MID_MARKET:
            assert t.buyer_price == (1 + beta) * t.seller_price
        else:
            assert t.buyer_price == t.seller_price


# Kilowatt-hours as small rationals, and as floats read exactly, whose
# denominators are large powers of two.
_KWH = st.one_of(
    st.fractions(min_value=0, max_value=12, max_denominator=97),
    st.floats(0.0, 12.0).map(Fraction),
)


@st.composite
def _pools(draw):
    """Fields of a ``Pool``: either side may be empty, fills may clear nothing."""
    weights = [draw(st.lists(_KWH, max_size=4)) for _ in range(2)]
    matched = draw(_KWH) if all(sum(w) > 0 for w in weights) else Fraction(0)
    sides = []
    for side, side_weights in zip("sb", weights):
        total = sum(side_weights)
        fills = []
        for i, w in enumerate(side_weights):
            cleared = w * matched / total if matched else Fraction(0)
            residual = draw(_KWH.filter(lambda r, c=cleared: c + r > 0))
            fills.append(Fill(f"{side}{i}", cleared + residual, cleared))
        sides.append(fills)
    venue = draw(st.sampled_from([Venue.AUCTION, Venue.MID_MARKET]))
    sell = Fraction(draw(st.floats(0.01, 40.0)))
    buy = sell if venue is Venue.AUCTION else sell * (1 + Fraction(draw(st.floats(0.0, 0.5))))
    fit, third = (Fraction(draw(st.floats(0.01, 40.0))) for _ in range(2))
    return sides[0], sides[1], matched, venue, sell, buy, fit, third


_PRICES = (Fraction(3, 10), Fraction(33, 100), Fraction(1, 10), Fraction(21))
_HALF = Fraction(1, 2)


@given(_pools())
@example(([], [], Fraction(0), Venue.AUCTION, *_PRICES))
@example(([Fill("s0", Fraction(2), Fraction(0))], [Fill("b0", Fraction(3), Fraction(0))], Fraction(0),
          Venue.MID_MARKET, *_PRICES))
@example(([Fill("s0", Fraction(2), Fraction(0)), Fill("s1", Fraction(7, 3), Fraction(0))], [], Fraction(0),
          Venue.MID_MARKET, *_PRICES))
@example(([Fill("s0", Fraction(1), Fraction(0)), Fill("s1", Fraction(5, 3), Fraction(4, 3))],
          [Fill("b0", Fraction(1, 3), Fraction(1, 3)), Fill("b1", Fraction(3), Fraction(1))], Fraction(4, 3),
          Venue.AUCTION, _HALF, _HALF, Fraction(1, 10), Fraction(21)))
def test_pool_rows_present_the_eager_trades_as_csv(args):
    # The examples: no fills at all, nothing matched, one side only, and a
    # seller that clears nothing beside ones that do.
    pool = Pool(side_of(args[0]), side_of(args[1]), *args[3:])
    trades = list(pool.present(as_trade))
    assert trades == eager_pool_trades(*args)
    sellers, buyers = args[:2]
    scenario = SimpleNamespace(prosumers=[SimpleNamespace(id=f.prosumer_id) for f in (*sellers, *buyers)])
    report = SimpleNamespace(scenario=scenario, slots=[SimpleNamespace(slot=7, present=pool.present)])
    assert list(_trade_lines(report)) == [
        ",".join(["7", t.venue.value, t.seller_id, t.buyer_id, *map(_fmt, (t.quantity, t.seller_price, t.buyer_price))])
        + "\n"
        for t in trades
    ]
    # Each leg is its participant's receipts and payments summed over the
    # eager trades.
    summed = {}
    for t in trades:
        for pid, received, paid in ((t.seller_id, receipt(t), 0), (t.buyer_id, 0, payment(t))):
            revenue, cost = summed.get(pid, (0, 0))
            summed[pid] = (revenue + received, cost + paid)
    assert list(map(leg_cash, pool.legs())) == [(f.prosumer_id, *summed[f.prosumer_id]) for f in (*sellers, *buyers)]


# Any non-negative finite float, subnormals and the largest included, or any
# non-negative rational, as a fee-bearing price or a pro-rata share is.
_ANY_FLOAT = st.floats(min_value=0.0, allow_infinity=False)
_ANY_AMOUNT = st.one_of(_ANY_FLOAT.map(Fraction), st.fractions(min_value=0))
_MAX = Fraction(1.7976931348623157e308)
_TINY = Fraction(5e-324)


@st.composite
def _fills(draw, side):
    """Fills that clear nothing, everything, or a part of what they submitted."""
    fills = []
    for i in range(draw(st.integers(0, 3))):
        submitted = draw(_ANY_AMOUNT)
        cleared = draw(st.sampled_from([Fraction(0), submitted]) | st.fractions(0, 1).map(submitted.__mul__))
        fills.append(Fill(f"{side}{i}", submitted, cleared))
    return fills


@given(_fills("s"), _fills("b"), *[_ANY_AMOUNT] * 4)
@example([Fill("s0", _MAX, _TINY)], [Fill("b0", _MAX, _MAX - _TINY)], _MAX, _MAX, _TINY, _MAX)
@example([Fill("s0", _TINY, Fraction(0))], [Fill("b0", _TINY, _TINY)], _TINY, _MAX, _MAX, _TINY)
@example([Fill("s0", Fraction(3), Fraction(1))], [Fill("b0", Fraction(2), Fraction(1))], Fraction(0), Fraction(1),
         Fraction(0), Fraction(0))
def test_pool_leg_is_the_fraction_operator_form(sellers, buyers, sell, buy, fit, third):
    # Each leg, built from integer ratios, equals the same sum taken through
    # Fraction operators, whether or not the two sides' cleared totals agree.
    pool = Pool(side_of(sellers), side_of(buyers), Venue.MID_MARKET, sell, buy, fit, third)
    assert list(map(leg_cash, pool.legs())) == [
        (f.prosumer_id, sell * f.cleared + fit * (f.submitted - f.cleared), 0) for f in sellers
    ] + [(f.prosumer_id, 0, buy * f.cleared + third * (f.submitted - f.cleared)) for f in buyers]


def _fills_of(side):
    """A pool side as ``(id, submitted, cleared)`` per participant, each quantity a ``Fraction``."""
    return [(pid, Fraction(s, side.den), Fraction(c, side.den))
            for pid, s, c in zip(side.ids, side.submitted, side.cleared)]


@given(st.lists(st.tuples(EXTREME_QUANTITY, st.fractions(0, 1)), max_size=6))
@example([(TINY, Fraction(1, 3)), (HUGE, Fraction(0)), (Fraction(2, 7), Fraction(1)), (HUGE, Fraction(1, 7))])
def test_a_side_gives_back_each_fill_exactly(fills):
    # Fills that clear nothing, all or a part, over one denominator; the
    # mid-market's sides are checked against the Fraction pro-rata below.
    fills = [Fill(f"p{i}", Fraction(q), Fraction(q) * share) for i, (q, share) in enumerate(fills)]
    side = side_of(fills)
    assert side.den > 0
    assert _fills_of(side) == [(f.prosumer_id, f.submitted, f.cleared) for f in fills]
    assert side.fills() == tuple(fills)


@given(st.lists(EXTREME_QUANTITY, max_size=6), st.lists(EXTREME_QUANTITY, max_size=6), st.floats(0.0, 1.0))
@example([TINY, HUGE], [HUGE], 0.1)
@example([HUGE, HUGE], [TINY, Fraction(1, 3)], 0.1)
@example([Fraction(1, 3), Fraction(2, 7)], [Fraction(5, 11), TINY], 0.3)
@example([], [HUGE], 0.0)
def test_midmarket_fills_are_the_fraction_pro_rata(surpluses, deficits, beta):
    # The floats as the engine passes them, or rationals.
    pool = match_midmarket(
        [(f"s{i}", q) for i, q in enumerate(surpluses)], [(f"b{i}", q) for i, q in enumerate(deficits)],
        11.0, beta, 10.0, 21.0,
    )
    supply, demand = (sum(map(Fraction, side), Fraction(0)) for side in (surpluses, deficits))
    matched = min(supply, demand)
    for pool_side, side, total, name in ((pool.sellers, surpluses, supply, "s"), (pool.buyers, deficits, demand, "b")):
        assert Fraction(sum(pool_side.cleared), pool_side.den) == matched
        assert _fills_of(pool_side) == [
            (f"{name}{i}", Fraction(q), Fraction(q) * matched / total) for i, q in enumerate(side)
        ]
    assert (pool.sell_price, pool.buy_price) == (Fraction(11.0), Fraction(11.0) * (1 + Fraction(beta)))


@given(
    st.lists(st.floats(0.5, 9.0), min_size=1, max_size=5),
    st.lists(st.floats(0.5, 9.0), min_size=1, max_size=5),
    st.floats(10.0, 15.0),
    st.floats(0.0, 0.5),
)
def test_midmarket_conservation(surpluses, deficits, mid_sell, beta):
    sellers = [(f"s{i}", Fraction(q)) for i, q in enumerate(surpluses)]
    buyers = [(f"b{i}", Fraction(q)) for i, q in enumerate(deficits)]
    trades = _midmarket_trades(sellers, buyers, mid_sell, beta, 10.0, 21.0)
    sold = {pid: Fraction(0) for pid, _ in sellers}
    bought = {pid: Fraction(0) for pid, _ in buyers}
    for t in trades:
        if t.seller_id in sold:
            sold[t.seller_id] += t.quantity
        if t.buyer_id in bought:
            bought[t.buyer_id] += t.quantity
    # Every position is fully routed somewhere, exactly.
    assert sold == dict(sellers)
    assert bought == dict(buyers)
    matched = sum(t.quantity for t in trades if t.venue is Venue.MID_MARKET)
    assert matched == min(sum(q for _, q in sellers), sum(q for _, q in buyers))


def _peak_result(scenario):
    result = run_slot(scenario, 0)
    assert result.price_signal.peak_flag
    return result


def test_demo_structure_is_stable():
    scenario = two_coalition_demo_scenario()
    result = _peak_result(scenario)
    verdict = check_dhp_stability(result.structure, stability_context(scenario, result))
    assert verdict.stable
    assert verdict.witness is None


def test_uniform_auction_structure_is_stable():
    scenario = uniform_auction_scenario()
    result = _peak_result(scenario)
    verdict = check_dhp_stability(result.structure, stability_context(scenario, result))
    assert verdict.stable


def test_cheap_third_party_destabilizes():
    scenario = with_third_party_price(uniform_auction_scenario(), 5.0)
    result = _peak_result(scenario)
    ctx = stability_context(scenario, result)
    verdict = check_dhp_stability(result.structure, ctx)
    assert not verdict.stable
    witness = verdict.witness
    assert witness.kind == "third_party_alone"
    assert witness.member in result.structure.auction_members
    assert witness.member in ctx.deficit
    assert witness.cash_after > witness.cash_before


def test_empty_structure_is_stable():
    structure = CoalitionStructure((), (), EMPTY_OUTCOME)
    ctx = StabilityContext(
        surplus={}, deficit={}, cash={},
        grid_selling_price=Fraction(548.8), fit_price=Fraction(10), third_party_price=Fraction(21),
    )
    assert check_dhp_stability(structure, ctx).stable


def test_stability_over_random_case_studies():
    for seed in range(40):
        scenario = make_case_study_scenario(seed, slots=4)
        for t in range(scenario.slots):
            result = run_slot(scenario, t)
            if result.structure is None:
                continue
            verdict = check_dhp_stability(result.structure, stability_context(scenario, result))
            assert verdict.stable, (seed, t, verdict.witness)


def test_stability_is_decided_exactly():
    # The demo's mid-market buyers pay exactly this; a third party one float
    # step cheaper saves p10 about 2e-15 per kWh, a strict gain nonetheless.
    mid_buy = Fraction(435948443929464015, 36028797018963968)
    price = float(mid_buy)
    if Fraction(price) >= mid_buy:
        price = math.nextafter(price, 0.0)
    scenario = with_third_party_price(two_coalition_demo_scenario(), price)
    result = _peak_result(scenario)
    verdict = check_dhp_stability(result.structure, stability_context(scenario, result))
    assert not verdict.stable
    assert verdict.witness.kind == "third_party_alone"
    assert verdict.witness.member == "p10"
    assert verdict.witness.cash_after > verdict.witness.cash_before


_PRICES = st.one_of(st.floats(5.0, 25.0), st.integers(5, 25).map(float))


@st.composite
def peak_structures(draw):
    n = draw(st.integers(4, 10))
    n_sellers = draw(st.integers(1, n - 1))
    prosumers = []
    for i in range(n):
        qty = draw(st.integers(1, 36)) / 4
        prosumers.append(ProsumerProfile(
            f"p{i:02d}", 7.0, (qty if i < n_sellers else -qty,), (draw(_PRICES),), (draw(_PRICES),)
        ))
    demand = sum(-p.net_energy[0] for p in prosumers if p.net_energy[0] < 0)
    grid = GridPolicy(68.6, 274.4, (max(0.0, demand - 2.0),), 28.0, 10.0)
    market = MarketConfig(
        beta=draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1, 1.0]))),
        third_party_price=draw(st.one_of(st.floats(5.0, 30.0), st.integers(5, 30).map(float))),
        auction_price_rule=draw(st.sampled_from(list(AuctionPriceRule))),
    )
    return Scenario(slots=1, prosumers=tuple(prosumers), grid=grid, market=market)


@settings(max_examples=150)
@given(peak_structures())
def test_stability_matches_exhaustive_group_search(scenario):
    result = _peak_result(scenario)
    verdict = check_dhp_stability(result.structure, stability_context(scenario, result))
    assert verdict.stable == oracle_dhp_stable(scenario, result)


_INACTIVE_OUTCOME = AuctionOutcome(12.0, side_of([Fill("s", Fraction(1), Fraction(1))]), side_of([]))


@pytest.mark.parametrize("call, message", [
    (lambda: mid_market_prices(-1.0, 10.0, 0.1), "prices must be >= 0"),
    (lambda: mid_market_prices(14.0, -1.0, 0.1), "prices must be >= 0"),
    (lambda: mid_market_prices(14.0, 10.0, -0.1), "beta must be >= 0"),
    (lambda: partition(["b"], _INACTIVE_OUTCOME), "auction outcome references inactive prosumer 's'"),
    (lambda: match_midmarket([("s", Fraction(0))], [("b", Fraction(1))], 11.0, 0.1, 10.0, 30.0),
     "mid-market quantities must be > 0"),
    (lambda: match_midmarket([("s", Fraction(1))], [("b", Fraction(-1))], 11.0, 0.1, 10.0, 30.0),
     "mid-market quantities must be > 0"),
], ids=["auction-price", "fit-price", "beta", "inactive", "seller-quantity", "buyer-quantity"])
def test_each_guard_raises_its_domain_error(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert info.type is DomainError and str(info.value) == message
