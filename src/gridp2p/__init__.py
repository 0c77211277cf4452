"""Grid-influenced peer-to-peer energy trading simulator.

``__all__`` is the supported API; every other name is internal, imported from its own module.
"""

from .coalition import check_dhp_stability
from .core import (
    AuctionPriceRule, ConfigurationError, DomainError, GridP2PError, GridPolicy, MarketConfig, ProsumerProfile,
    Scenario, ScenarioError, load_scenario, make_case_study_scenario, save_scenario,
)
from .engine import baseline_grid_only, baseline_third_party, compare, run_horizon, stability_context

# Outside __all__: perfbench imports these two from the root; they leave with ROADMAP item 10.
from .auction import verify_truthful_delivery
from .coalition import Venue

__all__ = [
    # The scenario records, and their load, save and generate functions.
    "Scenario", "ProsumerProfile", "GridPolicy", "MarketConfig", "AuctionPriceRule",
    "load_scenario", "save_scenario", "make_case_study_scenario",
    # The peer-trading run, its two baselines and their comparison; the D_hp stability check.
    "run_horizon", "baseline_grid_only", "baseline_third_party", "compare", "check_dhp_stability", "stability_context",
    # The errors.
    "GridP2PError", "DomainError", "ScenarioError", "ConfigurationError",
]

__version__ = "0.1.0"
