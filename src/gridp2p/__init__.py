"""Grid-influenced peer-to-peer energy trading simulator."""

from .auction import AuctionOutcome, OrderBook, allocate, clear, order_books, verify_truthful_delivery
from .coalition import (
    CoalitionStructure,
    StabilityVerdict,
    Trade,
    Venue,
    check_dhp_stability,
    match_midmarket,
    mid_market_prices,
    partition,
)
from .core import (
    AuctionPriceRule,
    ConfigurationError,
    DomainError,
    GridP2PError,
    GridPolicy,
    MarketConfig,
    Order,
    ProsumerProfile,
    Scenario,
    ScenarioError,
    load_scenario,
    make_case_study_scenario,
    save_scenario,
)
from .engine import (
    MetricsTable,
    SimulationReport,
    SlotResult,
    baseline_grid_only,
    baseline_third_party,
    compare,
    run_horizon,
    run_slot,
    stability_context,
)
from .leader import PriceSignal, cps_cost, decide_slot_price, max_willingness_price, min_b, peak_price

__version__ = "0.1.0"
