"""Double-auction clearing against independent oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    EXTREME_QUANTITY, HUGE, TINY, allocated, ask, bid, book, fraction_allocate, oracle_allocate, oracle_price,
    oracle_trading_sets, random_book,
)
from gridp2p.auction import DeliveryReport, Side, allocate, clear, order_books, verify_truthful_delivery
from gridp2p.core import AuctionPriceRule, DomainError, Order

HIGHEST = AuctionPriceRule.HIGHEST_RESERVATION
VICKREY = AuctionPriceRule.VICKREY


def test_sorting():
    b = book(
        [ask("a", 12.0, 1.0), ask("b", 11.0, 1.0), ask("c", 14.0, 1.0)],
        [bid("d", 12.0, 1.0), bid("e", 15.0, 1.0), bid("f", 13.0, 1.0)],
    )
    s = order_books(b)
    assert [o.price for o in s.asks] == [11.0, 12.0, 14.0]
    assert [o.price for o in s.bids] == [15.0, 13.0, 12.0]


def test_sorting_tie_break_quantity_then_id():
    b = book([ask("a", 11.0, 2.0), ask("b", 11.0, 5.0)], [])
    assert [o.prosumer_id for o in order_books(b).asks] == ["b", "a"]
    b = book([ask("z", 11.0, 2.0), ask("a", 11.0, 2.0)], [])
    assert [o.prosumer_id for o in order_books(b).asks] == ["a", "z"]


def test_book_rejects_id_on_both_sides():
    with pytest.raises(DomainError):
        book([ask("x", 11.0, 1.0)], [bid("x", 12.0, 1.0)])


def test_order_rejects_nonpositive_quantity():
    with pytest.raises(DomainError):
        Order("x", 11.0, 0.0)


def _excluded(b, out) -> set[str]:
    """The ids in book ``b`` that ``out`` does not trade."""
    return {o.prosumer_id for o in (*b.asks, *b.bids)} - set(out.trading_sellers) - set(out.trading_buyers)


def test_clear_three_by_three():
    """Supply steps at 11 and 12 cross the demand curve at depth two."""
    b = book(
        [ask("s1", 11.0, 2.0), ask("s2", 12.0, 3.0), ask("s3", 14.0, 4.0)],
        [bid("b1", 15.0, 3.0), bid("b2", 13.0, 3.0), bid("b3", 12.0, 2.0)],
    )
    out = clear(b)
    assert out.auction_price == 12.0
    assert out.trading_sellers == ("s1", "s2")
    assert out.trading_buyers == ("b1", "b2")
    assert [f.cleared for f in out.seller_fills] == [Fraction(2), Fraction(3)]
    # 5 kWh of supply over 6 kWh of demand: both buyers fill pro-rata.
    assert [f.cleared for f in out.buyer_fills] == [Fraction(5, 2), Fraction(5, 2)]
    assert _excluded(b, out) == {"s3", "b3"}


def test_clear_no_intersection():
    b = book([ask("s1", 14.0, 2.0)], [bid("b1", 11.0, 2.0)])
    out = clear(b)
    assert out.is_empty
    assert _excluded(b, out) == {"s1", "b1"}


def test_clear_empty_side():
    out = clear(book([], [bid("b1", 11.0, 2.0)]))
    assert out.is_empty


def test_clear_single_pair():
    out = clear(book([ask("s1", 11.0, 2.0)], [bid("b1", 15.0, 3.0)]))
    assert out.auction_price == 11.0
    assert out.seller_fills[0].cleared == 2
    assert out.buyer_fills[0].cleared == 2


def test_vickrey_price_is_second_highest_trading_ask():
    b = book(
        [ask("s1", 11.0, 2.0), ask("s2", 12.0, 2.0), ask("s3", 13.0, 2.0)],
        [bid("b1", 15.0, 2.0), bid("b2", 14.0, 2.0), bid("b3", 13.0, 2.0)],
    )
    assert clear(b, HIGHEST).auction_price == 13.0
    assert clear(b, VICKREY).auction_price == 12.0
    # A single trading pair has no second ask to fall back on.
    single = book([ask("s1", 11.0, 2.0)], [bid("b1", 15.0, 2.0)])
    assert clear(single, VICKREY).auction_price == 11.0


def test_allocate_equal_burden():
    cleared, burdens, buyers = allocated([Fraction(5), Fraction(3)], [Fraction(6)])
    assert cleared == [Fraction(4), Fraction(2)]
    assert burdens == [Fraction(1), Fraction(1)]
    assert buyers == [Fraction(6)]
    # Over 2: the sellers submit 10 and 6 and clear 8 and 4; the buyer clears in full.
    assert allocate([("s0", 5), ("s1", 3)], [("b0", 6)]) == (Side(["s0", "s1"], [10, 6], [8, 4], 2),
                                                             Side(["b0"], [6], [6], 1))


def test_allocate_supply_short():
    cleared, burdens, buyers = allocated([Fraction(2), Fraction(3)], [Fraction(4), Fraction(2)])
    assert cleared == [Fraction(2), Fraction(3)]
    assert burdens == [Fraction(0), Fraction(0)]
    assert buyers == [Fraction(10, 3), Fraction(5, 3)]
    assert sum(buyers) == 5
    # Supply 5 against demand 6, over 6: sellers submit and clear a_i*6, buyers submit b_j*6 and clear b_j*5.
    assert allocate([("s0", 2), ("s1", 3)], [("b0", 4), ("b1", 2)]) == (Side(["s0", "s1"], [12, 18], [12, 18], 6),
                                                                        Side(["b0", "b1"], [24, 12], [20, 10], 6))


def test_allocate_clipping_redistributes():
    cleared, burdens, buyers = allocated([Fraction(5), Fraction(1)], [Fraction(2)])
    assert cleared == [Fraction(2), Fraction(0)]
    assert burdens == [Fraction(3), Fraction(1)]
    assert sum(cleared) == sum(buyers) == 2


def test_allocate_rejects_nonpositive():
    with pytest.raises(DomainError):
        allocated([Fraction(0)], [Fraction(1)])


def test_allocate_empty_lists():
    cleared, burdens, buyers = allocated([], [Fraction(1)])
    assert cleared == [] and burdens == [] and buyers == [Fraction(0)]


def test_allocate_matches_water_fill_oracle():
    rng = random.Random(99)
    for _ in range(2000):
        supplies = [Fraction(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 6))]
        demands = [Fraction(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 6))]
        cleared, burdens, buyers = allocated(supplies, demands)
        oracle_cleared, oracle_buyers = oracle_allocate(supplies, demands)
        assert cleared == oracle_cleared
        assert buyers == oracle_buyers
        assert burdens == [s - c for s, c in zip(supplies, cleared)]
        assert sum(cleared) == sum(buyers)


def _assert_matches_oracle(b, rule):
    out = clear(b, rule)
    oracle = oracle_trading_sets(b.asks, b.bids)
    if oracle is None:
        assert out.is_empty
        assert _excluded(b, out) == {o.prosumer_id for o in (*b.asks, *b.bids)}
        return
    oracle_asks, oracle_bids = oracle
    assert out.trading_sellers == tuple(o.prosumer_id for o in oracle_asks)
    assert out.trading_buyers == tuple(o.prosumer_id for o in oracle_bids)
    assert out.auction_price == oracle_price(oracle_asks, rule is VICKREY)
    # The price sandwich is a property of the highest-reservation rule; the
    # second-price rule deliberately prices below the marginal ask.
    for fill, order in zip(out.seller_fills, oracle_asks):
        if rule is HIGHEST:
            assert order.price <= out.auction_price
        assert 0 <= fill.cleared <= fill.submitted
    for fill, order in zip(out.buyer_fills, oracle_bids):
        assert order.price >= out.auction_price
        assert 0 <= fill.cleared <= fill.submitted
    assert sum(f.cleared for f in out.seller_fills) == sum(f.cleared for f in out.buyer_fills)


def test_clear_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(3000):
        b = random_book(rng)
        _assert_matches_oracle(b, HIGHEST)
        _assert_matches_oracle(b, VICKREY)


@given(
    st.lists(st.tuples(st.floats(1.0, 30.0), st.floats(0.5, 10.0)), max_size=6),
    st.lists(st.tuples(st.floats(1.0, 30.0), st.floats(0.5, 10.0)), max_size=6),
)
def test_clear_matches_oracle_hypothesis(raw_asks, raw_bids):
    b = book(
        [ask(f"s{i}", p, q) for i, (p, q) in enumerate(raw_asks)],
        [bid(f"b{i}", p, q) for i, (p, q) in enumerate(raw_bids)],
    )
    _assert_matches_oracle(b, HIGHEST)


@given(
    st.lists(st.tuples(st.floats(1.0, 30.0), st.floats(0.5, 10.0)), min_size=1, max_size=6),
    st.lists(st.tuples(st.floats(1.0, 30.0), st.floats(0.5, 10.0)), min_size=1, max_size=6),
)
def test_vickrey_never_above_highest_rule(raw_asks, raw_bids):
    b = book(
        [ask(f"s{i}", p, q) for i, (p, q) in enumerate(raw_asks)],
        [bid(f"b{i}", p, q) for i, (p, q) in enumerate(raw_bids)],
    )
    high = clear(b, HIGHEST)
    vic = clear(b, VICKREY)
    assert high.is_empty == vic.is_empty
    if not high.is_empty:
        assert vic.auction_price <= high.auction_price


def test_truthful_delivery_passes():
    out = clear(book(
        [ask("s1", 11.0, 5.0), ask("s2", 12.0, 3.0)],
        [bid("b1", 15.0, 4.0), bid("b2", 13.0, 2.0)],
    ))
    delivered = {f.prosumer_id: f.cleared for f in out.seller_fills}
    report = verify_truthful_delivery(out, delivered)
    assert report.ok
    assert report.deviators == ()
    assert report.inconsistency == 0


def test_delivery_deviation_flagged():
    out = clear(book(
        [ask("s1", 11.0, 5.0), ask("s2", 12.0, 3.0)],
        [bid("b1", 15.0, 4.0), bid("b2", 13.0, 2.0)],
    ))
    delivered = {f.prosumer_id: f.cleared for f in out.seller_fills}
    delivered["s1"] += 1
    report = verify_truthful_delivery(out, delivered)
    assert report.deviators == ("s1",)
    assert report.inconsistency == 1


def test_float_deliveries_equal_to_the_fills_pass():
    out = clear(book(
        [ask("s1", 11.0, 5.0), ask("s2", 12.0, 3.0)],
        [bid("b1", 15.0, 4.0), bid("b2", 13.0, 2.0)],
    ))
    report = verify_truthful_delivery(out, {f.prosumer_id: float(f.cleared) for f in out.seller_fills})
    assert report == DeliveryReport(deviators=(), inconsistency=Fraction(0))


def test_one_float_deviator_is_flagged_by_its_exact_shift():
    out = clear(book(
        [ask("s1", 11.0, 5.0), ask("s2", 12.0, 3.0)],
        [bid("b1", 15.0, 4.0), bid("b2", 13.0, 2.0)],
    ))
    delivered = {f.prosumer_id: float(f.cleared) for f in out.seller_fills}
    delivered["s2"] -= 0.1
    report = verify_truthful_delivery(out, delivered)
    assert report.deviators == ("s2",)
    assert report.inconsistency == out.seller_fills[1].cleared - Fraction(delivered["s2"])


def test_all_zero_delivery_flags_everyone():
    out = clear(book(
        [ask("s1", 11.0, 5.0), ask("s2", 12.0, 3.0)],
        [bid("b1", 15.0, 4.0), bid("b2", 13.0, 2.0)],
    ))
    report = verify_truthful_delivery(out, {"s1": 0, "s2": 0})
    assert set(report.deviators) == {"s1", "s2"}
    assert report.inconsistency == sum(f.cleared for f in out.seller_fills)


def test_delivery_dimension_mismatch():
    out = clear(book([ask("s1", 11.0, 5.0)], [bid("b1", 15.0, 4.0)]))
    with pytest.raises(DomainError):
        verify_truthful_delivery(out, {"s1": 4.0, "ghost": 1.0})


@pytest.mark.parametrize("asks, bids", [
    ([ask("a", 11.0, 1.0), ask("a", 12.0, 1.0)], [bid("b", 13.0, 1.0)]),
    ([ask("a", 11.0, 1.0)], [bid("b", 13.0, 1.0), bid("b", 14.0, 2.0)]),
], ids=["asks", "bids"])
def test_a_duplicate_id_on_one_side_of_the_book_is_rejected(asks, bids):
    with pytest.raises(DomainError) as info:
        book(asks, bids)
    assert info.type is DomainError and str(info.value) == "duplicate prosumer id on one side of the book"


_EXTREME_SIDE = st.lists(EXTREME_QUANTITY, max_size=6)


@given(_EXTREME_SIDE, _EXTREME_SIDE)
@example([TINY, HUGE], [HUGE])
@example([HUGE, HUGE, TINY], [TINY, Fraction(1, 3)])
@example([Fraction(1, 3), Fraction(2, 7), TINY], [Fraction(5, 11)])
@example([TINY], [TINY, HUGE])
def test_allocate_on_extreme_quantities_equals_both_fraction_oracles(supplies, demands):
    expected = fraction_allocate(supplies, demands)
    assert allocated(supplies, demands) == expected
    assert allocated(list(map(Fraction, supplies)), list(map(Fraction, demands))) == expected
    cleared, burdens, buyers = expected
    oracle_cleared, oracle_buyers = oracle_allocate(supplies, demands)
    assert (cleared, buyers) == (oracle_cleared, oracle_buyers)


@given(
    st.lists(st.tuples(st.sampled_from([10.0, 12.0, 14.0]), EXTREME_QUANTITY), max_size=6),
    st.lists(st.tuples(st.sampled_from([10.0, 12.0, 14.0]), EXTREME_QUANTITY), max_size=6),
)
@example([(10.0, TINY), (12.0, HUGE)], [(14.0, HUGE), (12.0, Fraction(1, 3))])
def test_clear_on_extreme_quantities_fills_as_the_fraction_oracle(asks, bids):
    b = book([ask(f"s{i}", p, q) for i, (p, q) in enumerate(asks)], [bid(f"b{i}", p, q) for i, (p, q) in enumerate(bids)])
    out = clear(b)
    sellers, buyers = out.seller_fills, out.buyer_fills
    cleared, _, bought = fraction_allocate([f.submitted for f in sellers], [f.submitted for f in buyers])
    quantity = {o.prosumer_id: Fraction(o.quantity) for o in (*b.asks, *b.bids)}
    assert [f.submitted for f in (*sellers, *buyers)] == [quantity[f.prosumer_id] for f in (*sellers, *buyers)]
    assert [f.cleared for f in (*sellers, *buyers)] == cleared + bought
    assert sum(f.cleared for f in sellers) == sum(f.cleared for f in buyers)
