"""The package root's supported API, and the internal names that left it."""

import importlib

import pytest

import gridp2p

SUPPORTED = {
    "Scenario", "ProsumerProfile", "GridPolicy", "MarketConfig", "AuctionPriceRule",
    "load_scenario", "save_scenario", "make_case_study_scenario",
    "run_horizon", "baseline_grid_only", "baseline_third_party", "compare",
    "check_dhp_stability", "stability_context",
    "GridP2PError", "DomainError", "ScenarioError", "ConfigurationError",
}
# The other names the root once exported, each with the module that keeps it; None for a deleted one.
INTERNAL = {
    "AuctionOutcome": "auction", "OrderBook": "auction", "allocate": "auction", "clear": "auction",
    "order_books": None,
    "CoalitionStructure": "coalition", "StabilityVerdict": "coalition", "Trade": "coalition",
    "match_midmarket": "coalition", "partition": "coalition", "mid_market_prices": None,
    "Order": "core",
    "MetricsTable": "engine", "SimulationReport": "engine", "SlotResult": "engine", "run_slot": "engine",
    "PriceSignal": "leader", "cps_cost": "leader", "decide_slot_price": "leader",
    "max_willingness_price": "leader", "min_b": "leader", "peak_price": "leader",
}


def test_all_is_the_supported_api():
    assert len(gridp2p.__all__) == len(SUPPORTED) == 18
    assert set(gridp2p.__all__) == SUPPORTED


def test_a_star_import_binds_the_supported_api_only():
    namespace = {}
    exec("from gridp2p import *", namespace)
    assert set(namespace) - {"__builtins__"} == SUPPORTED


def test_the_benchmark_harness_names_stay_at_the_root_outside_the_api():
    assert {"Venue", "verify_truthful_delivery"} <= set(dir(gridp2p)) - SUPPORTED


@pytest.mark.parametrize("name, module", sorted(INTERNAL.items()))
def test_each_internal_name_left_the_root_for_its_module(name, module):
    assert len(INTERNAL) == 22
    assert not hasattr(gridp2p, name)
    holders = [m for m in ("auction", "coalition", "core", "engine", "leader")
               if hasattr(importlib.import_module(f"gridp2p.{m}"), name)]
    assert module in holders if module is not None else holders == []
