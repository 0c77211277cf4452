"""System-side cost, punitive pricing and the per-slot decision."""

import math

import pytest
from hypothesis import given, strategies as st

from gridp2p.core import (
    ConfigurationError,
    DomainError,
    GridPolicy,
    MarketConfig,
    ProsumerProfile,
    Scenario,
)
from gridp2p.leader import (
    cps_cost,
    decide_slot_price,
    max_willingness_price,
    min_b,
    peak_price,
)

LN2 = math.log(2.0)


def test_cps_cost_examples():
    assert cps_cost(1.0, 2.0, 10.0, 12.0, 28.0) == pytest.approx(-280.0)
    assert cps_cost(1.0, 2.0, 10.0, 8.0, 3.0) == pytest.approx(-22.0)
    assert cps_cost(3.0, 7.0, 6.0, 6.0, 11.0) == pytest.approx(-66.0)


def test_cps_cost_zero_delivery_is_exactly_zero():
    assert cps_cost(68.6, 274.4, 0.0, 16.0, 548.8) == 0.0


def test_cps_cost_rejects_negative_demand():
    with pytest.raises(DomainError):
        cps_cost(1.0, 1.0, -1.0, 5.0, 10.0)


def test_peak_price_examples():
    assert peak_price(1.0, 100.0, 10.0, 8.0) == pytest.approx(104.0)
    assert peak_price(68.6, 274.4, 10.0, 8.0) == pytest.approx(548.8)
    assert peak_price(68.6, 274.4, 10.0, 8.0) == pytest.approx(19.6 * 28.0)
    assert peak_price(1e-12, 50.0, 10.0, 8.0) == pytest.approx(50.0)


def test_peak_price_requires_overshoot():
    with pytest.raises(DomainError):
        peak_price(1.0, 1.0, 8.0, 8.0)


def test_min_b_examples():
    assert min_b(1.0, 2.0, 10.0, 8.0) == pytest.approx((2.0 - 4.0 * LN2) / LN2)
    assert min_b(1.0, 2.0, 10.0, 8.0) == pytest.approx(-1.1146099182220732)
    # As the quadratic term vanishes the bound reduces to the bare
    # willingness threshold alpha / ln 2.
    assert min_b(1e-15, 2.0, 10.0, 8.0) == pytest.approx(2.0 / LN2)
    assert min_b(1e-15, LN2, 10.0, 8.0) == pytest.approx(1.0)


@given(
    st.floats(0.1, 50.0),
    st.floats(0.1, 300.0),
    st.floats(0.01, 40.0),
    st.floats(0.0, 40.0),
    st.floats(1e-3, 5.0),
)
def test_peak_price_strictly_increasing(a, b, overshoot, e_t, step):
    e_d = e_t + overshoot
    assert peak_price(a, b, e_d + step, e_t) > peak_price(a, b, e_d, e_t)
    assert peak_price(a, b + step, e_d, e_t) > peak_price(a, b, e_d, e_t)


@given(st.floats(0.5, 20.0), st.floats(1.0, 100.0), st.floats(0.1, 30.0), st.floats(1.0, 30.0))
def test_cost_is_minimized_at_the_punitive_price(a, b, overshoot, e_t):
    """Finite differences around the stationary point of the cost curve."""
    e_d = e_t + overshoot
    price = peak_price(a, b, e_d, e_t)
    here = cps_cost(a, b, e_d, e_t, price)
    eps = 1e-4
    assert cps_cost(a, b, e_d + eps, e_t, price) >= here - 1e-6
    assert cps_cost(a, b, max(e_d - eps, 0.0), e_t, price) >= here - 1e-6


def _one_slot_policy(threshold: float, a: float = 68.6, b: float = 274.4) -> GridPolicy:
    return GridPolicy(a, b, (threshold,), 28.0, 10.0)


def _buyer(pid: str, deficit: float, alpha: float = 7.0) -> ProsumerProfile:
    return ProsumerProfile(pid, alpha, (-deficit,), (12.0,), (12.0,))


def _one_slot(policy: GridPolicy, prosumers) -> Scenario:
    return Scenario(1, prosumers, policy, MarketConfig())


def test_decide_slot_price_offpeak():
    signal = decide_slot_price(_one_slot(_one_slot_policy(8.0), (_buyer("p1", 5.0),)), 0)
    assert signal.selling_price == 28.0
    assert not signal.peak_flag


def test_decide_slot_price_boundary_is_offpeak():
    signal = decide_slot_price(_one_slot(_one_slot_policy(5.0), (_buyer("p1", 5.0),)), 0)
    assert not signal.peak_flag


def test_decide_slot_price_peak():
    signal = decide_slot_price(_one_slot(_one_slot_policy(8.0), (_buyer("p1", 10.0),)), 0)
    assert signal.peak_flag
    assert signal.selling_price == pytest.approx(548.8, abs=1e-9)


def test_decide_slot_price_second_parameterization():
    signal = decide_slot_price(
        _one_slot(_one_slot_policy(8.0, a=18.9, b=274.4), (_buyer("p1", 10.0),)), 0
    )
    assert signal.selling_price == pytest.approx(350.0, abs=1e-9)
    assert signal.selling_price == pytest.approx(12.5 * 28.0, abs=1e-9)


def test_decide_slot_price_rejects_weak_b():
    policy = GridPolicy(0.001, 1.0, (8.0,), 28.0, 10.0)
    prosumers = (_buyer("p1", 10.0, alpha=100.0),)
    with pytest.raises(ConfigurationError, match="slot 0"):
        decide_slot_price(_one_slot(policy, prosumers), 0)


def test_max_willingness_price_examples():
    assert max_willingness_price(LN2) == pytest.approx(1.0)
    assert max_willingness_price(1.0) == pytest.approx(1.4426950408889634)
    assert max_willingness_price(1e-9) == pytest.approx(0.0, abs=1e-8)


@given(st.floats(0.1, 50.0), st.floats(0.01, 100.0), st.floats(1e-3, 20.0))
def test_purchase_zero_above_willingness(alpha, margin, energy):
    # Above the willingness price every purchase is worth less than none:
    # alpha*log2(1+e) - price*e < 0 for every e > 0.
    price = max_willingness_price(alpha) + margin
    assert alpha * math.log2(1.0 + energy) - price * energy < 0


def test_peak_price_exceeds_every_willingness_when_bound_holds():
    prosumers = tuple(_buyer(f"p{i}", 3.0, alpha=4.0 + i) for i in range(5))
    policy = _one_slot_policy(10.0)
    signal = decide_slot_price(_one_slot(policy, prosumers), 0)
    assert signal.peak_flag
    for p in prosumers:
        assert signal.selling_price > max_willingness_price(p.alpha_at(0))


def test_case_study_signals_never_undercut_offpeak():
    from gridp2p.core import make_case_study_scenario

    for seed in range(20):
        scenario = make_case_study_scenario(seed, slots=6)
        for t in range(scenario.slots):
            signal = decide_slot_price(scenario, t)
            assert signal.selling_price >= scenario.grid.offpeak_price
            if not signal.peak_flag:
                assert signal.selling_price == scenario.grid.offpeak_price


def test_total_prosumer_demand_counts_only_deficits():
    prosumers = (
        ProsumerProfile("s", 1.0, (4.0,), (12.0,), (12.0,)),
        _buyer("b1", 3.0),
        _buyer("b2", 2.5),
    )
    assert _one_slot(_one_slot_policy(8.0), prosumers).demand[0] == pytest.approx(5.5)


@pytest.mark.parametrize("call, message", [
    (lambda: max_willingness_price(0.0), "alpha must be > 0"),
    (lambda: cps_cost(0.0, 1.0, 1.0, 1.0, 1.0), "a and b must be > 0"),
    (lambda: cps_cost(1.0, -1.0, 1.0, 1.0, 1.0), "a and b must be > 0"),
    (lambda: cps_cost(1.0, 1.0, 1.0, -0.5, 1.0), "threshold must be >= 0"),
    (lambda: peak_price(-1.0, 1.0, 2.0, 1.0), "a and b must be > 0"),
    (lambda: peak_price(1.0, 0.0, 2.0, 1.0), "a and b must be > 0"),
    (lambda: min_b(0.0, 1.0, 2.0, 1.0), "a must be > 0"),
    (lambda: min_b(1.0, -1.0, 2.0, 1.0), "alpha_max must be > 0"),
], ids=["alpha", "cps_cost-a", "cps_cost-b", "cps_cost-threshold", "peak_price-a", "peak_price-b",
        "min_b-a", "min_b-alpha_max"])
def test_each_guard_raises_its_domain_error(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert info.type is DomainError and str(info.value) == message
