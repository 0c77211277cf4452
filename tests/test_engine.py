"""Slot orchestration, baselines, settlement and comparison metrics."""

import dataclasses
import itertools
import json
import math
import operator
import pickle
import random
import string
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import eager_pool_trades, golden_case, leg_cash, payment, receipt
from fixtures import (
    blended_price_scenario,
    two_coalition_demo_scenario,
    uniform_auction_scenario,
)
from gridp2p.auction import Fill
from gridp2p.coalition import GRID_ID, THIRD_PARTY_ID, Trade, Venue
from gridp2p.core import (
    DomainError,
    GridPolicy,
    MarketConfig,
    ProsumerProfile,
    Scenario,
    make_case_study_scenario,
)
from gridp2p import engine
from gridp2p.engine import (
    SlotResult,
    aggregate_slots,
    baseline_grid_only,
    baseline_third_party,
    compare,
    run_horizon,
    run_slot,
)
from gridp2p.leader import total_prosumer_demand
from gridp2p.reports import write_run, write_summary


def _one_slot_scenario(prosumers, threshold, **market_kwargs):
    grid = GridPolicy(68.6, 274.4, (threshold,), 28.0, 10.0)
    return Scenario(
        slots=1, prosumers=tuple(prosumers), grid=grid, market=MarketConfig(**market_kwargs)
    )


def _prosumer(pid, net, ask=12.0, bidp=12.0, alpha=7.0):
    return ProsumerProfile(pid, alpha, (net,), (ask,), (bidp,))


def test_offpeak_slot_settles_with_grid():
    scenario = _one_slot_scenario([_prosumer("b1", -5.0)], threshold=8.0)
    result = run_slot(scenario, 0)
    assert not result.price_signal.peak_flag
    assert result.structure is None
    assert result.cps_cost == pytest.approx(-140.0)
    assert all(t.venue is Venue.GRID for t in result.trades)
    assert result.per_prosumer["b1"].cost == Fraction(28) * 5


def test_demo_fixture_partition_and_zero_cost():
    scenario = two_coalition_demo_scenario()
    result = run_slot(scenario, 0)
    assert result.price_signal.peak_flag
    assert result.price_signal.selling_price == pytest.approx(548.8)
    assert result.cps_cost == 0.0
    assert result.structure.auction_members == ("p04", "p05", "p06", "p07", "p08", "p09")
    assert result.structure.midmarket_members == ("p01", "p02", "p03", "p10", "p11", "p12")
    assert result.structure.outcome.auction_price == 12.0
    # Nobody buys from the grid at the peak.
    assert not any(t.seller_id == GRID_ID for t in result.trades)


def test_peak_without_intersection_routes_everything_midmarket():
    prosumers = [
        _prosumer("s1", 4.0, ask=15.0),
        _prosumer("b1", -6.0, bidp=11.0),
    ]
    scenario = _one_slot_scenario(prosumers, threshold=4.0)
    result = run_slot(scenario, 0)
    assert result.price_signal.peak_flag
    assert result.structure.auction_members == ()
    assert set(result.structure.midmarket_members) == {"s1", "b1"}
    assert result.cps_cost == 0.0
    venues = {t.venue for t in result.trades}
    assert Venue.MID_MARKET in venues and Venue.THIRD_PARTY in venues
    # With no auction price the mid-market rate floors at the feed-in tariff.
    mid = next(t for t in result.trades if t.venue is Venue.MID_MARKET)
    assert mid.seller_price == Fraction(10)


def test_zero_net_prosumer_sits_out():
    prosumers = [_prosumer("idle", 0.0), _prosumer("s1", 3.0, ask=11.0), _prosumer("b1", -3.0, bidp=14.0)]
    scenario = _one_slot_scenario(prosumers, threshold=1.0)
    result = run_slot(scenario, 0)
    members = set(result.structure.auction_members) | set(result.structure.midmarket_members)
    assert "idle" not in members
    assert result.per_prosumer["idle"].revenue == 0


def test_run_slot_out_of_range():
    scenario = _one_slot_scenario([_prosumer("b1", -5.0)], threshold=8.0)
    with pytest.raises(DomainError):
        run_slot(scenario, 1)


def test_auction_burden_routed_to_grid_at_fit():
    # Trading sellers offer 9 kWh against 4 kWh of demand; the 5 kWh burden
    # sells to the grid at the feed-in tariff.
    prosumers = [
        _prosumer("s1", 5.0, ask=11.0),
        _prosumer("s2", 4.0, ask=11.5),
        _prosumer("b1", -4.0, bidp=14.0),
    ]
    scenario = _one_slot_scenario(prosumers, threshold=2.0)
    result = run_slot(scenario, 0)
    grid_sales = [t for t in result.trades if t.buyer_id == GRID_ID]
    assert sum(t.quantity for t in grid_sales) == 5
    assert all(t.seller_price == Fraction(10) for t in grid_sales)
    sold = {pid: Fraction(0) for pid in ("s1", "s2")}
    for t in result.trades:
        if t.seller_id in sold:
            sold[t.seller_id] += t.quantity
    assert sold == {"s1": Fraction(5), "s2": Fraction(4)}


def test_auction_shortfall_bought_from_third_party():
    prosumers = [
        _prosumer("s1", 2.0, ask=11.0),
        _prosumer("b1", -5.0, bidp=14.0),
    ]
    scenario = _one_slot_scenario(prosumers, threshold=2.0)
    result = run_slot(scenario, 0)
    third = [t for t in result.trades if t.seller_id == THIRD_PARTY_ID]
    assert sum(t.quantity for t in third) == 3
    assert result.per_prosumer["b1"].cost == Fraction(11) * 2 + Fraction(21) * 3


def test_run_horizon_deterministic():
    scenario = make_case_study_scenario(3, slots=6)
    assert run_horizon(scenario) == run_horizon(scenario)


def _peak_slots(report):
    return [s.slot for s in report.slots if s.price_signal.peak_flag]


def test_run_horizon_single_slot():
    scenario = uniform_auction_scenario()
    report = run_horizon(scenario)
    assert len(report.slots) == 1
    assert _peak_slots(report) == [0]


def test_full_case_study_peaks_cost_zero_offpeak_revenue():
    scenario = make_case_study_scenario(8)
    report = run_horizon(scenario)
    assert _peak_slots(report) == [2, 3, 5, 12, 14, 18]
    for s in report.slots:
        if s.price_signal.peak_flag:
            assert s.cps_cost == 0.0
        else:
            assert s.cps_cost < 0.0


def test_aggregate_slots_sums_the_peak_slots():
    scenario = make_case_study_scenario(21, slots=8)
    for report in (run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)):
        peaks = [report.slots[t] for t in _peak_slots(report)]
        assert len(peaks) == 3
        cps = 0.0
        for s in peaks:  # in slot order, as float sums depend on it
            cps += s.cps_cost
        revenue = {p.id: sum((s.per_prosumer[p.id].revenue for s in peaks), Fraction(0)) for p in scenario.prosumers}
        cost = {p.id: sum((s.per_prosumer[p.id].cost for s in peaks), Fraction(0)) for p in scenario.prosumers}
        assert aggregate_slots(scenario, report.slots) == (cps, revenue, cost)


def _assert_settles_exactly(scenario, report):
    """Every settled leg equals what the prosumer's trades add up to, exactly."""
    for s in report.slots:
        # Per-prosumer cash and kWh in the settlement equal the trades it appears in.
        rev = {pid: Fraction(0) for pid in (p.id for p in scenario.prosumers)}
        cost = dict(rev)
        kwh = dict(rev)
        for t in s.trades:
            if t.seller_id in rev:
                rev[t.seller_id] += receipt(t)
                kwh[t.seller_id] += t.quantity
            if t.buyer_id in cost:
                cost[t.buyer_id] += payment(t)
                kwh[t.buyer_id] += t.quantity
        for p in scenario.prosumers:
            settled = s.per_prosumer[p.id]
            assert settled.revenue == rev[p.id]
            assert settled.cost == cost[p.id]
            assert kwh[p.id] == abs(Fraction(p.net_energy[s.slot]))


def test_settlement_conservation_exact():
    # The smallest seller is clipped at zero by the equal burden and clears nothing.
    clipped = _one_slot_scenario(
        [_prosumer("s1", 1.0, ask=11.0), _prosumer("s2", 10.0, ask=11.5), _prosumer("s3", 10.0, ask=12.0)]
        + [_prosumer(f"b{i}", -1.0, bidp=14.0 + i / 2) for i in range(3)],
        threshold=1.0,
    )
    fills = {f.prosumer_id: f.cleared for f in run_slot(clipped, 0).structure.outcome.seller_fills}
    assert fills["s1"] == 0 and fills["s2"] > 0
    no_auction = _one_slot_scenario([_prosumer("s1", 4.0, ask=15.0), _prosumer("b1", -6.0, bidp=11.0)], 4.0)
    assert run_slot(no_auction, 0).structure.outcome.is_empty
    # The auction clears s1 and b1; s2 is left in a mid-market without buyers.
    sellers_only_mid = _one_slot_scenario(
        [_prosumer("s1", 3.0, ask=11.0), _prosumer("s2", 2.0, ask=15.0), _prosumer("b1", -3.0, bidp=14.0)],
        threshold=1.0,
    )
    assert run_slot(sellers_only_mid, 0).structure.midmarket_members == ("s2",)
    # Positions and prices off the binary grid, so every float of the
    # settlement is a rounding of its exact rational: slot 0 is a peak with an
    # auction and a mid-market pool, slot 1 is off-peak.
    non_dyadic = Scenario(
        slots=2,
        prosumers=(
            ProsumerProfile("s1", 0.3, (0.3, 0.7), (0.12, 0.12), (0.12, 0.12)),
            ProsumerProfile("s2", 0.3, (0.7, -0.1), (0.23, 0.23), (0.23, 0.23)),
            ProsumerProfile("s3", 0.7, (0.1, 0.3), (0.15, 0.15), (0.15, 0.15)),
            ProsumerProfile("b1", 0.7, (-0.7, -0.3), (0.25, 0.25), (0.25, 0.25)),
            ProsumerProfile("b2", 0.1, (-0.1, 0.0), (0.18, 0.18), (0.18, 0.18)),
            ProsumerProfile("b3", 0.3, (-0.3, -0.7), (0.11, 0.11), (0.11, 0.11)),
        ),
        grid=GridPolicy(0.3, 1.7, (0.3, 7.0), 0.29, 0.07),
        market=MarketConfig(beta=0.1, third_party_price=0.21),
    )
    structure = run_slot(non_dyadic, 0).structure
    assert structure.auction_members and structure.midmarket_members
    assert not run_slot(non_dyadic, 1).price_signal.peak_flag

    scenarios = [make_case_study_scenario(seed) for seed in (0, 7, 13, 29)] + [
        make_case_study_scenario(3, sellers_per_slot=3),
        make_case_study_scenario(3, sellers_per_slot=9),
        uniform_auction_scenario(),
        blended_price_scenario(),
        two_coalition_demo_scenario(),
        clipped,
        no_auction,
        sellers_only_mid,
        non_dyadic,
    ]
    for scenario in scenarios:
        for run in (run_horizon, baseline_grid_only, baseline_third_party):
            _assert_settles_exactly(scenario, run(scenario))


def _eager_peak_trades(scenario, s):
    """A peak slot's trades rebuilt eagerly from its outcome, structure and scenario."""
    grid, market, t = scenario.grid, scenario.market, s.slot
    outcome = s.structure.outcome
    fit, third = Fraction(grid.fit_price), Fraction(market.third_party_price)
    trades = []
    if not outcome.is_empty:
        price = Fraction(outcome.auction_price)
        sellers, buyers = outcome.seller_fills, outcome.buyer_fills
        matched = sum(f.cleared for f in sellers)
        trades += eager_pool_trades(sellers, buyers, matched, Venue.AUCTION, price, price, fit, third)
    p_auc = grid.fit_price if outcome.is_empty else outcome.auction_price
    sell = Fraction((p_auc + grid.fit_price) / 2.0)
    mid = set(s.structure.midmarket_members)
    net = {p.id: Fraction(p.net_energy[t]) for p in scenario.prosumers if p.id in mid}
    supply = sum(q for q in net.values() if q > 0)
    demand = -sum(q for q in net.values() if q < 0)
    matched = min(supply, demand)
    trades += eager_pool_trades(
        [Fill(pid, q, q * matched / supply) for pid, q in net.items() if q > 0],
        [Fill(pid, -q, -q * matched / demand) for pid, q in net.items() if q < 0],
        matched, Venue.MID_MARKET, sell, sell * (1 + Fraction(market.beta)), fit, third,
    )
    return tuple(trades)


def test_lazy_peak_trades_equal_the_eager_pool_trades():
    scenarios = [make_case_study_scenario(seed) for seed in (0, 7, 13)] + [
        make_case_study_scenario(3, n_prosumers=96),
        make_case_study_scenario(3, sellers_per_slot=9),
        uniform_auction_scenario(),
        blended_price_scenario(),
        two_coalition_demo_scenario(),
    ]
    peaks = 0
    for scenario in scenarios:
        for s in run_horizon(scenario).slots:
            if s.structure is None:
                continue
            peaks += 1
            assert "trades" not in vars(s)
            assert s.trades == _eager_peak_trades(scenario, s)
    assert peaks > 8


def test_grid_only_baseline_peak_pricing():
    scenario = uniform_auction_scenario()
    report = baseline_grid_only(scenario)
    slot = report.slots[0]
    assert slot.price_signal.peak_flag
    # Every buyer pays the punitive price for its whole deficit.
    assert slot.per_prosumer["b01"].cost == Fraction(548.8) * 4
    # The booked cost is the uncredited overage of serving beyond threshold.
    assert slot.cps_cost == pytest.approx(68.6 * 4 + 274.4 * 2)
    assert slot.cps_cost > 0
    assert slot.structure is None


def test_grid_only_offpeak_identical_to_p2p():
    scenario = make_case_study_scenario(5, slots=2)  # slots 0..1 are off-peak
    p2p = run_horizon(scenario)
    grid = baseline_grid_only(scenario)
    assert p2p.slots == grid.slots


def test_third_party_baseline():
    scenario = uniform_auction_scenario()
    report = baseline_third_party(scenario)
    slot = report.slots[0]
    assert slot.cps_cost == 0.0
    assert slot.per_prosumer["b01"].cost == Fraction(21) * 4
    assert slot.per_prosumer["s01"].revenue == Fraction(10) * 4


def test_compare_uniform_fixture_metrics():
    scenario = uniform_auction_scenario()
    p2p = run_horizon(scenario)
    grid = baseline_grid_only(scenario)
    third = baseline_third_party(scenario)
    metrics = compare(p2p, grid, third)
    # Buyers pay 14 instead of 548.8: a 97.45% saving.
    expected_saving = (1 - 14.0 / 548.8) * 100.0
    assert metrics.avg_buyer_savings_vs_grid_pct == pytest.approx(expected_saving, abs=1e-6)
    # The third party charges 21 against 14: a 50% premium.
    assert metrics.avg_buyer_premium_vs_third_party_pct == pytest.approx(50.0, abs=1e-9)
    assert metrics.cps_cost_with_p2p == 0.0
    assert metrics.cps_cost_without_p2p > 0.0
    assert metrics.avg_cost_per_prosumer_p2p < metrics.avg_cost_per_prosumer_grid_only


def test_compare_blended_fixture_uplift():
    scenario = blended_price_scenario()
    metrics = compare(
        run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
    )
    assert metrics.avg_seller_uplift_pct == pytest.approx(22.0, abs=1e-9)
    assert metrics.seller_uplift_pct["s01"] == pytest.approx(40.0)
    assert metrics.seller_uplift_pct["s02"] == pytest.approx(20.0)


def test_third_party_price_parity_with_auction():
    scenario = uniform_auction_scenario(third_party_price=14.0)
    metrics = compare(
        run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
    )
    assert metrics.avg_buyer_premium_vs_third_party_pct == pytest.approx(0.0, abs=1e-9)
    assert metrics.avg_buyer_savings_vs_third_party_pct == pytest.approx(0.0, abs=1e-9)


def test_compare_marks_metrics_undefined_without_peak_trades():
    scenario = make_case_study_scenario(5, slots=2)  # no peak slots in range
    metrics = compare(
        run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
    )
    assert metrics.seller_uplift_pct == {}
    assert metrics.avg_seller_uplift_pct is None
    assert metrics.avg_buyer_savings_vs_grid_pct is None
    undefined = [row for row in metrics.rows() if row[2] == ""]
    assert undefined


def test_compare_rejects_mismatched_scenarios():
    a = uniform_auction_scenario()
    b = blended_price_scenario()
    with pytest.raises(DomainError):
        compare(run_horizon(a), baseline_grid_only(b), baseline_third_party(a))


def test_compare_rejects_wrong_mode_order():
    scenario = uniform_auction_scenario()
    p2p = run_horizon(scenario)
    with pytest.raises(DomainError):
        compare(p2p, p2p, baseline_third_party(scenario))


def test_dominance_on_random_scenarios():
    """Peer trading never hurts: sellers beat the tariff, buyers beat the peak."""
    rng = random.Random(17)
    for _ in range(60):
        scenario = make_case_study_scenario(rng.randrange(10**6), slots=4)
        p2p = run_horizon(scenario)
        grid = baseline_grid_only(scenario)
        for s_p2p, s_grid in zip(p2p.slots, grid.slots):
            if not s_p2p.price_signal.peak_flag:
                continue
            for pid in (p.id for p in scenario.prosumers):
                assert s_p2p.per_prosumer[pid].revenue >= s_grid.per_prosumer[pid].revenue
                assert s_p2p.per_prosumer[pid].cost <= s_grid.per_prosumer[pid].cost


def test_pickled_report_equals_fresh_run():
    scenario = make_case_study_scenario(9, slots=6)
    for run in (run_horizon, baseline_grid_only, baseline_third_party):
        assert pickle.loads(pickle.dumps(run(scenario))) == run(scenario)


def test_a_report_with_read_peak_trades_pickles_equal_trades():
    report = run_horizon(make_case_study_scenario(3, n_prosumers=24))
    read = {s.slot: s.trades for s in report.slots if s.structure is not None}
    assert sum(map(len, read.values())) > 50
    loaded = pickle.loads(pickle.dumps(report))
    for s in loaded.slots:
        if s.slot in read:
            assert "trades" not in vars(s)
            assert s.trades == read[s.slot]
            assert all(type(t) is Trade for t in s.trades)


_RUNS = [run_horizon, baseline_grid_only, baseline_third_party]


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_each_slot_signal_carries_the_demand_it_priced(run):
    scenarios = [make_case_study_scenario(seed) for seed in range(4)]
    scenarios += [uniform_auction_scenario(), blended_price_scenario(), two_coalition_demo_scenario()]
    for scenario in scenarios:
        for s in run(scenario).slots:
            assert s.price_signal.demand == total_prosumer_demand(scenario.prosumers, s.slot), s.slot


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MAX = 1.7976931348623157e308


@given(price=_FINITE, net=_FINITE.filter(bool))
@example(price=5e-324, net=5e-324)
@example(price=2.2250738585072014e-308, net=-4.9e-322)
@example(price=_MAX, net=_MAX)
@example(price=_MAX, net=-1e308)
@example(price=1e-300, net=-_MAX)
def test_whole_position_leg_is_the_exact_product(price, net):
    # Any finite floats, whether or not a scenario would accept them.
    prosumer = SimpleNamespace(id="p", net_energy=(net,))
    scenario = SimpleNamespace(grid=SimpleNamespace(fit_price=price), prosumers=(prosumer,))
    ((pid, revenue, cost),) = map(leg_cash, engine.Positions(scenario, 0, price, Venue.GRID).legs())
    leg = Fraction(price) * Fraction(abs(net))
    assert (pid, revenue, cost) == (("p", leg, 0) if net > 0 else ("p", 0, leg))


_GOLDEN_COMPARE = sorted(json.loads((Path(__file__).parent / "golden_sha256.json").read_text())["compare"])


@pytest.mark.parametrize("case", _GOLDEN_COMPARE)
def test_peak_totals_equal_the_one_at_a_time_sums_of_the_trades(case):
    seed, sizes = golden_case(case)
    scenario = make_case_study_scenario(seed, **sizes)
    for run in _RUNS:
        report = run(scenario)
        revenue = {p.id: Fraction(0) for p in scenario.prosumers}
        cost = dict(revenue)
        for s in report.slots:
            if s.price_signal.peak_flag:
                for t in s.trades:
                    if t.seller_id in revenue:
                        revenue[t.seller_id] += receipt(t)
                    if t.buyer_id in cost:
                        cost[t.buyer_id] += payment(t)
        assert aggregate_slots(scenario, report.slots)[1:] == (revenue, cost), run.__name__


def _fraction_totals(scenario, report):
    """Each prosumer's peak revenue and cost, added one ``Fraction`` at a time."""
    revenue = {p.id: Fraction(0) for p in scenario.prosumers}
    cost = dict(revenue)
    for s in report.slots:
        if s.price_signal.peak_flag:
            for pid, settled in s.per_prosumer.items():
                revenue[pid] += settled.revenue
                cost[pid] += settled.cost
    return revenue, cost


def _oracle_metrics(scenario, p2p, grid_only, third_party):
    """``compare`` through ``Fraction`` operators and ``float()``: the reference its integer forms match bit for bit."""
    ids = [p.id for p in scenario.prosumers]
    (rev_p2p, cost_p2p), (rev_grid, cost_grid), (_, cost_tp) = (
        _fraction_totals(scenario, r) for r in (p2p, grid_only, third_party)
    )

    def pct(high, low, base):
        return {pid: float((high[pid] - low[pid]) / base[pid]) * 100.0 for pid in ids if base[pid] > 0}

    tables = {
        "seller_uplift_pct": pct(rev_p2p, rev_grid, rev_grid),
        "buyer_savings_vs_grid_pct": pct(cost_grid, cost_p2p, cost_grid),
        "buyer_savings_vs_third_party_pct": pct(cost_tp, cost_p2p, cost_tp),
        "buyer_premium_vs_third_party_pct": pct(cost_tp, cost_p2p, cost_p2p),
    }
    cps = {}
    for name, report in (("with_p2p", p2p), ("without_p2p", grid_only)):
        cps[f"cps_cost_{name}"] = 0.0
        for s in report.slots:
            if s.price_signal.peak_flag:
                cps[f"cps_cost_{name}"] += s.cps_cost
    return engine.MetricsTable(
        **tables,
        # Correctly rounded, so independent of the prosumers' order.
        **{f"avg_{name}": float(sum(map(Fraction, t.values()))) / len(t) if t else None for name, t in tables.items()},
        **cps,
        **{
            f"avg_cost_per_prosumer_{name}": float(sum(cost.values(), Fraction(0))) / len(ids)
            for name, cost in (("p2p", cost_p2p), ("grid_only", cost_grid), ("third_party", cost_tp))
        },
    )


@pytest.mark.parametrize("values", sorted(set(itertools.permutations([1e308, -1e308, 1e308]))))
def test_a_mean_of_extremes_is_the_same_in_every_order(values):
    # Partial sums overflow in some orders; the exact sum, 1e308, fits.
    assert engine._mean(values) == 1e308 / 3


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8), st.randoms())
@example([1e308, 1e308, -1e308], random.Random(0))
@example([1.7976931348623157e308, 1.7976931348623157e308], random.Random(0))
def test_a_mean_is_the_rounded_exact_sum_over_the_count_in_any_order(xs, rng):
    exact = sum(map(Fraction, xs))
    try:
        expected = float(exact) / len(xs)
    except OverflowError:
        expected = math.inf if exact > 0 else -math.inf
    shuffled = rng.sample(xs, len(xs))
    assert engine._mean(xs) == engine._mean(shuffled) == expected


def _bits(table):
    """Every field of a ``MetricsTable``, each float as its exact bits, dicts in order."""
    def exact(value):
        return None if value is None else value.hex()

    return {
        f.name: [(k, exact(v)) for k, v in value.items()] if isinstance(value, dict) else exact(value)
        for f in dataclasses.fields(table)
        for value in (getattr(table, f.name),)
    }


@pytest.mark.parametrize("case", _GOLDEN_COMPARE)
def test_compare_is_bit_identical_to_the_fraction_operator_oracle(case):
    seed, sizes = golden_case(case)
    scenario = make_case_study_scenario(seed, **sizes)
    reports = [run(scenario) for run in _RUNS]
    assert _bits(compare(*reports)) == _bits(_oracle_metrics(scenario, *reports))


def _all_peak_scenario():
    """Seed 11 over 300 slots, every threshold 0: each slot peaks, so a prosumer's sums take hundreds of legs."""
    base = make_case_study_scenario(11, slots=300)
    return dataclasses.replace(base, grid=dataclasses.replace(base.grid, threshold=(0.0,) * 300))


def test_compare_on_an_all_peak_horizon_is_bit_identical_to_the_fraction_operator_oracle():
    scenario = _all_peak_scenario()
    reports = [run(scenario) for run in _RUNS]
    assert _bits(compare(*reports)) == _bits(_oracle_metrics(scenario, *reports))


def test_all_peak_sums_equal_the_fraction_totals():
    scenario = _all_peak_scenario()
    for run in _RUNS:
        report = run(scenario)
        assert sum(s.price_signal.peak_flag for s in report.slots) == 300
        assert aggregate_slots(scenario, report.slots)[1:] == _fraction_totals(scenario, report), run.__name__


def _unread_offpeak_slot(run):
    """An off-peak slot of ``run`` on a case study that nothing has read yet."""
    report = run(make_case_study_scenario(8))
    slot = next(s for s in report.slots if not s.price_signal.peak_flag)
    assert "trades" not in vars(slot) and "per_prosumer" not in vars(slot)
    return slot


def _settled_form(run):
    """The same slot as :func:`_unread_offpeak_slot`, settled and rebuilt eagerly."""
    slot = _unread_offpeak_slot(run)
    return SlotResult(**{f.name: getattr(slot, f.name) for f in dataclasses.fields(SlotResult)})


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_unread_whole_position_slot_equals_its_settled_form(run):
    settled = _settled_form(run)
    assert _unread_offpeak_slot(run) == settled
    assert repr(_unread_offpeak_slot(run)) == repr(settled)


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_replace_on_an_unread_slot_keeps_the_settlement(run):
    replaced = dataclasses.replace(_unread_offpeak_slot(run), trades=())
    assert replaced.trades == ()
    assert replaced.per_prosumer == _settled_form(run).per_prosumer


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_unread_slot_pickles_its_ledger(run):
    loaded = pickle.loads(pickle.dumps(_unread_offpeak_slot(run)))
    assert "ledger" in vars(loaded)
    assert "trades" not in vars(loaded) and "per_prosumer" not in vars(loaded)
    assert loaded == _settled_form(run)


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_second_read_returns_the_same_objects(run):
    slot = _unread_offpeak_slot(run)
    trades = slot.trades
    # Reading the trades keeps none of them and settles nothing, and the
    # ledger stays for the settlement, which is kept once read.
    assert "trades" not in vars(slot)
    assert "per_prosumer" not in vars(slot) and "ledger" in vars(slot)
    per_prosumer = slot.per_prosumer
    assert slot.trades == trades and slot.per_prosumer is per_prosumer
    with pytest.raises(AttributeError):
        slot.no_such_field
    assert not hasattr(slot, "__setstate__")


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_trades_given_to_replace_are_returned_as_given(run):
    # A slot's own trades are built on every read, but trades passed in are
    # an ordinary field, on a fresh slot and on one loaded from a pickle.
    peak = next(s for s in run(make_case_study_scenario(8)).slots if s.price_signal.peak_flag)
    for slot in (_unread_offpeak_slot(run), peak):
        for source in (slot, pickle.loads(pickle.dumps(slot))):
            given = source.trades[1:]
            replaced = dataclasses.replace(source, trades=given)
            assert replaced.trades is given
            assert "trades" in vars(replaced) and replaced.ledger is source.ledger
            loaded = pickle.loads(pickle.dumps(replaced))
            assert loaded.trades == given and loaded.trades is loaded.trades


def test_reading_every_slots_trades_keeps_none_of_them():
    report = run_horizon(make_case_study_scenario(0, n_prosumers=192))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        read = sum(len(s.trades) for s in report.slots)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert read > 30_000
    # Each slot's trades are freed once read: keeping them would hold about 6 MB.
    assert abs(kept) < 500_000


@pytest.fixture
def ledger_reads(monkeypatch):
    """What the test reads of the ledgers, in order: each part whose legs are
    read (``parts``), and the ledger of each ``engine._settle`` call (``settled``)."""
    reads = SimpleNamespace(parts=[], settled=[])
    for cls in (engine.Pool, engine.Positions):
        def counted(part, legs=cls.legs):
            reads.parts.append(part)
            return legs(part)

        monkeypatch.setattr(cls, "legs", counted)
    settle = engine._settle

    def settled(scenario, ledger):
        reads.settled.append(ledger)
        return settle(scenario, ledger)

    monkeypatch.setattr(engine, "_settle", settled)
    return reads


def test_single_mode_run_settles_nothing(ledger_reads):
    scenario = make_case_study_scenario(8)
    for run in _RUNS:
        assert _peak_slots(run(scenario))
        assert ledger_reads.parts == ledger_reads.settled == [], run.__name__


def test_compare_settles_only_the_slots_it_reads(ledger_reads, tmp_path):
    scenario = make_case_study_scenario(8)
    runs = (run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario))
    table = compare(*runs)
    write_run(runs[0], tmp_path)
    write_summary(table, tmp_path)
    assert scenario.slots == 22 and _peak_slots(runs[0])
    # The legs of the three runs' peaks, each read once, straight from the
    # ledger, for the comparison: no slot is settled into ``per_prosumer``,
    # trades.csv is written from the ledgers, and no off-peak leg is read.
    peak_parts = [part for run in runs for s in run.slots if s.price_signal.peak_flag for part in s.ledger]
    assert len(peak_parts) >= 3 * len(_peak_slots(runs[0]))
    assert sorted(map(id, ledger_reads.parts)) == sorted(map(id, peak_parts))
    assert ledger_reads.settled == []


@pytest.mark.parametrize("run", _RUNS, ids=lambda run: run.__name__)
def test_write_run_leaves_whole_position_slots_unsettled(run, tmp_path):
    report = run(make_case_study_scenario(8))
    before = [dict(vars(s)) for s in report.slots]
    write_run(report, tmp_path)
    # Writing builds no trades and settles nothing: every slot is as it was.
    assert [vars(s) for s in report.slots] == before
    assert all("trades" not in state for state in before)
    unsettled = [s for s in report.slots if not s.price_signal.peak_flag]
    assert unsettled and all("per_prosumer" not in vars(s) for s in unsettled)


def test_stability_context_needs_a_coalition_structure():
    scenario = _one_slot_scenario([_prosumer("b1", -5.0)], threshold=8.0)
    with pytest.raises(DomainError) as info:
        engine.stability_context(scenario, run_slot(scenario, 0))
    assert info.type is DomainError
    assert str(info.value) == "stability is defined for peak slots with a coalition structure"


def test_stability_context_leaves_out_a_prosumer_idle_at_the_peak():
    scenario = _one_slot_scenario([_prosumer("s1", 4.0), _prosumer("i1", 0.0), _prosumer("b1", -6.0)], threshold=4.0)
    result = run_slot(scenario, 0)
    assert result.price_signal.peak_flag and result.per_prosumer["i1"] == engine.ProsumerSlot(0, 0)
    ctx = engine.stability_context(scenario, result)
    assert ctx.surplus == {"s1": 4} and ctx.deficit == {"b1": 6}
    assert set(ctx.cash) == {"s1", "b1"}


def _with_energies(scenario, factor):
    """``scenario`` with every prosumer's net energy multiplied by ``factor``."""
    return dataclasses.replace(scenario, prosumers=tuple(
        dataclasses.replace(p, net_energy=tuple(e * factor for e in p.net_energy)) for p in scenario.prosumers
    ))


def _bits_by_id(table):
    """:func:`_bits`, each per-prosumer table as a dict, so the prosumers' order does not enter."""
    return {name: dict(value) if isinstance(value, list) else value for name, value in _bits(table).items()}


def _assert_same_outputs(scenario, reordered):
    """Every price signal, system cost, coalition, settlement and ``MetricsTable`` value of the
    three runs of ``scenario`` and ``reordered``, the same prosumers in another order, agree, and
    each slot's trades agree as a multiset."""
    forward, other = ([run(s) for run in _RUNS] for s in (scenario, reordered))
    for run, report, other_report in zip(_RUNS, forward, other):
        for a, b in zip(report.slots, other_report.slots, strict=True):
            signal, other_signal = a.price_signal, b.price_signal
            assert (signal.selling_price.hex(), signal.peak_flag, signal.demand.hex()) == (
                other_signal.selling_price.hex(), other_signal.peak_flag, other_signal.demand.hex()
            ), (run.__name__, a.slot)
            assert a.cps_cost.hex() == b.cps_cost.hex()
            assert (a.structure is None) == (b.structure is None)
            if a.structure is not None:
                assert set(a.structure.auction_members) == set(b.structure.auction_members)
                assert set(a.structure.midmarket_members) == set(b.structure.midmarket_members)
            assert a.per_prosumer == b.per_prosumer, (run.__name__, a.slot)
            assert Counter(a.trades) == Counter(b.trades), (run.__name__, a.slot)
    assert _bits_by_id(compare(*forward)) == _bits_by_id(compare(*other))


@pytest.mark.parametrize("n", [12, 31])
@pytest.mark.parametrize("seed", range(3))
def test_reversing_the_prosumers_changes_no_output(seed, n):
    # Energies times 1.1 leave the binary grid, so a float sum of them rounds
    # and could depend on the order of its terms.
    scenario = _with_energies(make_case_study_scenario(seed, n_prosumers=n), 1.1)
    _assert_same_outputs(scenario, dataclasses.replace(scenario, prosumers=scenario.prosumers[::-1]))


@settings(max_examples=10)
@given(st.integers(0, 10**6), st.integers(2, 12), st.randoms(use_true_random=False))
def test_shuffling_the_prosumers_changes_no_output(seed, n, rng):
    scenario = _with_energies(make_case_study_scenario(seed, n_prosumers=n), 1.1)
    _assert_same_outputs(scenario, dataclasses.replace(scenario, prosumers=tuple(rng.sample(scenario.prosumers, n))))


@settings(max_examples=10)
@given(st.integers(0, 10**6), st.integers(2, 12), st.data())
def test_an_idle_prosumer_changes_no_other_output(seed, n, data):
    # A prosumer with no energy at any slot, anywhere in the list; its alpha
    # is another's, so the leader's deterrence bound is unchanged.
    scenario = _with_energies(make_case_study_scenario(seed, n_prosumers=n), 1.1)
    idle = dataclasses.replace(scenario.prosumers[0], id="idle", net_energy=(0.0,) * scenario.slots)
    at = data.draw(st.integers(0, n))
    with_idle = dataclasses.replace(scenario, prosumers=(*scenario.prosumers[:at], idle, *scenario.prosumers[at:]))
    reports, idle_reports = ([run(s) for run in _RUNS] for s in (scenario, with_idle))
    for report, idle_report in zip(reports, idle_reports):
        for a, b in zip(report.slots, idle_report.slots, strict=True):
            assert (a.price_signal, a.cps_cost, a.structure) == (b.price_signal, b.cps_cost, b.structure)
            assert b.per_prosumer == {**a.per_prosumer, "idle": engine.ProsumerSlot(0, 0)}
            assert a.trades == b.trades
    # The idle prosumer has no base to take a percentage of, so only the
    # cost-per-prosumer averages, over every prosumer, may change.
    table, idle_table = (_bits_by_id(compare(*runs)) for runs in (reports, idle_reports))
    for name in ("avg_cost_per_prosumer_p2p", "avg_cost_per_prosumer_grid_only", "avg_cost_per_prosumer_third_party"):
        del table[name], idle_table[name]
    assert table == idle_table


def _written(reports, out):
    """Every CSV the three runs of ``reports`` write, and ``compare``'s summary, by run and file name."""
    for report in reports:
        write_run(report, out / report.mode)
    write_summary(compare(*reports), out / reports[0].mode)
    return {f"{path.parent.name}/{path.name}": path.read_text() for path in sorted(out.glob("*/*.csv"))}


# The start of an id that no report reserves and no CSV field quotes.
_PLAIN_WORDS = st.builds(operator.add, st.sampled_from(string.ascii_letters),
                         st.text(string.ascii_letters + string.digits + "_", max_size=5))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 31), st.data())
def test_an_order_preserving_renaming_renames_every_output_and_changes_nothing_else(seed, n, data):
    # The ids p01 < p02 < ... go to new ids in the same sorted order, so
    # every tie the auction breaks by id breaks the same way.
    scenario = _with_energies(make_case_study_scenario(seed, n_prosumers=n), 1.1)
    # A two-digit index keeps the drawn ids distinct and clear of the reserved ones.
    words = data.draw(st.lists(_PLAIN_WORDS, min_size=n, max_size=n))
    new_ids = sorted(f"{word}{i:02d}" for i, word in enumerate(words))
    rename = dict(zip((p.id for p in scenario.prosumers), new_ids, strict=True))
    renamed = dataclasses.replace(scenario, prosumers=tuple(
        dataclasses.replace(p, id=rename[p.id]) for p in scenario.prosumers))

    def name(pid):
        return rename.get(pid, pid)

    reports, renamed_reports = ([run(s) for run in _RUNS] for s in (scenario, renamed))
    for report, other_report in zip(reports, renamed_reports):
        for a, b in zip(report.slots, other_report.slots, strict=True):
            assert (a.price_signal, a.cps_cost.hex()) == (b.price_signal, b.cps_cost.hex())
            assert (a.structure is None) == (b.structure is None)
            if a.structure is not None:
                assert tuple(map(name, a.structure.auction_members)) == b.structure.auction_members
                assert tuple(map(name, a.structure.midmarket_members)) == b.structure.midmarket_members
            assert [(name(pid), s) for pid, s in a.per_prosumer.items()] == list(b.per_prosumer.items())
            assert [dataclasses.replace(t, seller_id=name(t.seller_id), buyer_id=name(t.buyer_id))
                    for t in a.trades] == list(b.trades)
    table, renamed_table = (_bits(compare(*runs)) for runs in (reports, renamed_reports))
    assert {metric: [(name(pid), v) for pid, v in value] if isinstance(value, list) else value
            for metric, value in table.items()} == renamed_table
    with tempfile.TemporaryDirectory() as out:
        files = _written(reports, Path(out) / "original")
        renamed_files = _written(renamed_reports, Path(out) / "renamed")
    assert {key: "".join(",".join(map(name, line.split(","))) + "\n" for line in text.splitlines())
            for key, text in files.items()} == renamed_files


@pytest.mark.parametrize("k", [-3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_scaling_energies_and_thresholds_by_a_power_of_two_scales_every_quantity(seed, k):
    # Energies and thresholds times 2^k and ``a`` over 2^k: every float stays
    # exact, the peak price 2a(e_d - e_t) + b is unchanged, and every kWh, cash
    # value and system cost scales by 2^k.
    base = _with_energies(make_case_study_scenario(seed), 1.1)
    scale = 2.0**k
    grid = dataclasses.replace(base.grid, a=base.grid.a / scale, threshold=tuple(t * scale for t in base.grid.threshold))
    scaled = dataclasses.replace(_with_energies(base, scale), grid=grid)
    exact = Fraction(scale)
    for run in _RUNS:
        report, scaled_report = run(base), run(scaled)
        for a, b in zip(report.slots, scaled_report.slots, strict=True):
            signal, other = a.price_signal, b.price_signal
            assert (signal.selling_price, signal.peak_flag) == (other.selling_price, other.peak_flag)
            assert (signal.demand * scale, a.cps_cost * scale) == (other.demand, b.cps_cost)
            assert (a.structure is None) == (b.structure is None)
            if a.structure is not None:
                outcome, other_outcome = a.structure.outcome, b.structure.outcome
                assert outcome.auction_price == other_outcome.auction_price
                assert (a.structure.auction_members, a.structure.midmarket_members) == (
                    b.structure.auction_members, b.structure.midmarket_members)
                for fills, other_fills in ((outcome.seller_fills, other_outcome.seller_fills),
                                           (outcome.buyer_fills, other_outcome.buyer_fills)):
                    assert [(f.prosumer_id, f.submitted * exact, f.cleared * exact) for f in fills] == [
                        (f.prosumer_id, f.submitted, f.cleared) for f in other_fills]
            assert [(t.seller_id, t.buyer_id, t.quantity * exact, t.seller_price, t.buyer_price, t.venue)
                    for t in a.trades] == [
                (t.seller_id, t.buyer_id, t.quantity, t.seller_price, t.buyer_price, t.venue) for t in b.trades]
            assert {pid: (s.revenue * exact, s.cost * exact) for pid, s in a.per_prosumer.items()} == {
                pid: (s.revenue, s.cost) for pid, s in b.per_prosumer.items()}
    table, scaled_table = (compare(*(run(s) for run in _RUNS)) for s in (base, scaled))
    for f in dataclasses.fields(table):
        value, other = getattr(table, f.name), getattr(scaled_table, f.name)
        if f.name.startswith(("cps_cost_", "avg_cost_per_prosumer_")):
            assert (value * scale).hex() == other.hex(), f.name
        else:
            assert _bits_by_id(table)[f.name] == _bits_by_id(scaled_table)[f.name], f.name
