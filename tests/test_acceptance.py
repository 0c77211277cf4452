"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist. Runtime-bounded criteria assert their own budget.
"""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

from conftest import allocated, ask, bid, book, oracle_price, oracle_trading_sets
from fixtures import (
    blended_price_scenario,
    uniform_auction_scenario,
    with_third_party_price,
)
from gridp2p.auction import clear, verify_truthful_delivery
from gridp2p.cli import EXIT_OK, main
from gridp2p.coalition import GRID_ID, THIRD_PARTY_ID, check_dhp_stability
from gridp2p.core import GridPolicy, ProsumerProfile, make_case_study_scenario
from gridp2p.engine import (
    baseline_grid_only,
    baseline_third_party,
    compare,
    run_horizon,
    run_slot,
    stability_context,
)
from gridp2p.leader import decide_slot_price


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_zero_peak_cost():
    start = time.perf_counter()
    peak_slots_seen = 0
    for seed in range(100):
        scenario = make_case_study_scenario(seed)
        report = run_horizon(scenario)
        assert any(s.price_signal.peak_flag for s in report.slots), f"seed {seed} produced no peak slots"
        for slot in report.slots:
            if slot.price_signal.peak_flag:
                peak_slots_seen += 1
                assert slot.cps_cost == 0.0, (seed, slot.slot, slot.cps_cost)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"cps cost exactly 0 at all {peak_slots_seen} peak slots of 100 scenarios ({elapsed:.2f}s)")


def test_criterion_02_price_multiplier():
    def one_slot(a, b, demand, threshold):
        policy = GridPolicy(a, b, (threshold,), 28.0, 10.0)
        buyer = ProsumerProfile("b1", 7.0, (-demand,), (12.0,), (12.0,))
        return decide_slot_price(policy, (buyer,), 0)

    signal = one_slot(68.6, 274.4, 10.0, 8.0)
    assert signal.peak_flag
    assert abs(signal.selling_price - 548.8) <= 1e-9
    assert abs(signal.selling_price - 19.6 * 28.0) <= 1e-9

    second = one_slot(18.9, 274.4, 10.0, 8.0)
    assert abs(second.selling_price - 350.0) <= 1e-9
    assert abs(second.selling_price - 12.5 * 28.0) <= 1e-9
    _report(2, "punitive price hits 548.8 (19.6x) and 350.0 (12.5x) within 1e-9")


def test_criterion_03_buyer_savings_vs_grid():
    start = time.perf_counter()
    scenario = uniform_auction_scenario()
    metrics = compare(
        run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
    )
    elapsed = time.perf_counter() - start
    assert run_slot(scenario, 0).structure.outcome.auction_price == 14.0
    assert 95.0 <= metrics.avg_buyer_savings_vs_grid_pct <= 99.0
    assert elapsed < 1.0
    _report(3, f"average buyer saving vs grid-only = {metrics.avg_buyer_savings_vs_grid_pct:.2f}% in [95, 99]")


def test_criterion_04_non_cooperative_premium():
    scenario = uniform_auction_scenario(third_party_price=21.0)
    metrics = compare(
        run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
    )
    premium = metrics.avg_buyer_premium_vs_third_party_pct
    assert abs(premium - 50.0) <= 2.0
    _report(4, f"third-party buyer premium over the auction = {premium:.2f}% (50 +/- 2pp)")


def test_criterion_05_seller_uplift():
    scenario = blended_price_scenario()
    metrics = compare(
        run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
    )
    uplift = metrics.avg_seller_uplift_pct
    assert abs(uplift - 22.0) <= 1.0

    rng = random.Random(2024)
    checked = 0
    for _ in range(1000):
        random_scenario = make_case_study_scenario(rng.randrange(10**9), slots=3)
        m = compare(
            run_horizon(random_scenario),
            baseline_grid_only(random_scenario),
            baseline_third_party(random_scenario),
        )
        for value in m.seller_uplift_pct.values():
            assert value >= -1e-9
            checked += 1
    _report(5, f"blended uplift {uplift:.2f}% (22 +/- 1pp); {checked} seller uplifts all >= 0")


def test_criterion_06_scaling_trend():
    base = make_case_study_scenario(0, n_prosumers=12, slots=10)
    without_p2p = []
    for n in (12, 24, 36, 48):
        scenario = make_case_study_scenario(0, n_prosumers=n, slots=10)
        scenario = replace(scenario, grid=replace(scenario.grid, threshold=base.grid.threshold))
        metrics = compare(
            run_horizon(scenario), baseline_grid_only(scenario), baseline_third_party(scenario)
        )
        assert metrics.cps_cost_with_p2p == 0.0, n
        assert metrics.avg_cost_per_prosumer_p2p < metrics.avg_cost_per_prosumer_grid_only, n
        without_p2p.append(metrics.cps_cost_without_p2p)
    assert all(a < b for a, b in zip(without_p2p, without_p2p[1:])), without_p2p
    _report(6, f"cps cost without peer trading strictly increases over N: {[round(x) for x in without_p2p]}")


def _grid_orders():
    prices = (10.0, 12.0, 14.0)
    quantities = (1.0, 2.0, 3.0)
    return list(itertools.product(prices, quantities))


def _oracle_check(b) -> None:
    out = clear(b)
    oracle = oracle_trading_sets(b.asks, b.bids)
    if oracle is None:
        assert out.is_empty
        return
    oracle_asks, oracle_bids = oracle
    assert tuple(out.sellers.ids) == tuple(o.prosumer_id for o in oracle_asks)
    assert tuple(out.buyers.ids) == tuple(o.prosumer_id for o in oracle_bids)
    assert out.auction_price == oracle_price(oracle_asks, vickrey=False)
    assert sum(f.cleared for f in out.seller_fills) == sum(f.cleared for f in out.buyer_fills)
    for fill, order in zip(out.seller_fills, oracle_asks):
        assert order.price <= out.auction_price
    for fill, order in zip(out.buyer_fills, oracle_bids):
        assert order.price >= out.auction_price


def test_criterion_07_auction_oracle_equivalence():
    start = time.perf_counter()
    grid = _grid_orders()
    side_multisets = [
        combo
        for size in range(4)
        for combo in itertools.combinations_with_replacement(grid, size)
    ]
    instances = 0
    for ask_combo in side_multisets:
        asks = [ask(f"s{i}", p, q) for i, (p, q) in enumerate(ask_combo)]
        for bid_combo in side_multisets:
            bids = [bid(f"b{i}", p, q) for i, (p, q) in enumerate(bid_combo)]
            _oracle_check(book(asks, bids))
            instances += 1
    # Randomized top-up at full depth 5x5 over the same grids.
    rng = random.Random(314)
    for _ in range(2000):
        n_asks = rng.randint(0, 5)
        n_bids = rng.randint(0, 5)
        _oracle_check(
            book(
                [ask(f"s{i}", *rng.choice(grid)) for i in range(n_asks)],
                [bid(f"b{i}", *rng.choice(grid)) for i in range(n_bids)],
            )
        )
        instances += 1
    elapsed = time.perf_counter() - start
    assert instances >= 10_000
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(7, f"cleared {instances} books identically to the breakeven oracle ({elapsed:.1f}s)")


def test_criterion_08_equal_burden():
    rng = random.Random(88)
    # Without clipping: every burden equals the common share exactly.
    for _ in range(10_000):
        k = rng.randint(1, 6)
        supplies = [Fraction(rng.randint(16, 36), 4) for _ in range(k)]
        headroom = min(supplies)
        share = Fraction(rng.randint(0, int(headroom * 4)), 4)
        demand_total = sum(supplies) - share * k
        if demand_total <= 0:
            continue
        cleared, burdens, buyers = allocated(supplies, [demand_total])
        expected = (sum(supplies) - demand_total) / k
        for burden in burdens:
            assert burden == expected
            assert abs(float(burden) - float(expected)) <= 1e-9
        assert sum(cleared) == sum(buyers)
    # With arbitrary books (clipping or not): totals match exactly.
    for _ in range(10_000):
        supplies = [Fraction(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 6))]
        demands = [Fraction(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in range(rng.randint(1, 6))]
        cleared, _, buyers = allocated(supplies, demands)
        assert sum(cleared) == sum(buyers)
        assert sum(cleared) == min(sum(supplies), sum(demands))
    _report(8, "equal burden exact on 10^4 unclipped draws; totals exact on 10^4 arbitrary draws")


def test_criterion_09_strategy_proofness():
    rng = random.Random(55)
    flagged = 0
    truthful = 0
    while flagged < 1000:
        n_asks = rng.randint(1, 5)
        n_bids = rng.randint(1, 5)
        b = book(
            [ask(f"s{i}", rng.uniform(10.0, 13.0), rng.uniform(1.0, 9.0)) for i in range(n_asks)],
            [bid(f"b{i}", rng.uniform(12.0, 15.0), rng.uniform(1.0, 9.0)) for i in range(n_bids)],
        )
        out = clear(b)
        if out.is_empty:
            continue
        honest = {f.prosumer_id: f.cleared for f in out.seller_fills}
        assert verify_truthful_delivery(out, honest).ok
        truthful += 1

        cheater = rng.choice(tuple(out.sellers.ids))
        delta = Fraction(rng.randint(1, 200), 100) * rng.choice((1, -1))
        dishonest = dict(honest)
        dishonest[cheater] = max(dishonest[cheater] + delta, Fraction(0))
        actual_delta = dishonest[cheater] - honest[cheater]
        if actual_delta == 0:
            continue
        report = verify_truthful_delivery(out, dishonest)
        assert report.deviators == (cheater,)
        assert report.inconsistency == abs(actual_delta)
        flagged += 1
    _report(9, f"{truthful} truthful settlements passed, {flagged} injected deviations flagged")


def test_criterion_10_dhp_stability():
    checks = 0
    for seed in range(100):
        scenario = make_case_study_scenario(seed)
        report = run_horizon(scenario)
        for slot in report.slots:
            if slot.structure is None:
                continue
            verdict = check_dhp_stability(slot.structure, stability_context(scenario, slot))
            assert verdict.stable, (seed, slot.slot, verdict.witness)
            checks += 1

    cheap = with_third_party_price(uniform_auction_scenario(), 5.0)
    result = run_slot(cheap, 0)
    verdict = check_dhp_stability(result.structure, stability_context(cheap, result))
    assert not verdict.stable
    witness = verdict.witness
    assert witness.kind == "third_party_alone"
    assert witness.member in result.structure.auction_members
    assert witness.cash_after > witness.cash_before
    _report(10, f"{checks} peak structures stable; cheap third party yields a valid witness")


def test_criterion_11_conservation_suite():
    rng = random.Random(7_777)
    for run in range(1000):
        scenario = make_case_study_scenario(rng.randrange(10**9))
        report = run_horizon(scenario)
        for slot in report.slots:
            if slot.structure is not None and not slot.structure.outcome.is_empty:
                out = slot.structure.outcome
                assert sum(f.cleared for f in out.seller_fills) == sum(
                    f.cleared for f in out.buyer_fills
                )
            # Every active position routes fully through some venue.
            sold: dict[str, Fraction] = {}
            bought: dict[str, Fraction] = {}
            for t in slot.trades:
                if t.seller_id not in (GRID_ID, THIRD_PARTY_ID):
                    sold[t.seller_id] = sold.get(t.seller_id, Fraction(0)) + t.quantity
                if t.buyer_id not in (GRID_ID, THIRD_PARTY_ID):
                    bought[t.buyer_id] = bought.get(t.buyer_id, Fraction(0)) + t.quantity
            for p in scenario.prosumers:
                net = p.net_energy[slot.slot]
                if net > 0:
                    assert sold[p.id] == Fraction(net)
                elif net < 0:
                    assert bought[p.id] == Fraction(-net)
    _report(11, "settlement and auction conservation exact over 1000 full horizons")


def test_criterion_12_determinism(tmp_path):
    scenario_path = tmp_path / "case.json"
    assert main(["gen-fixture", "--seed", "42", "--out", str(scenario_path)]) == EXIT_OK
    args = ["simulate", "--scenario", str(scenario_path), "--mode", "compare"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    _report(12, "repeated simulate runs are byte-identical")
