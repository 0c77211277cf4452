"""The centralized power system's side of the game: cost and pricing.

Serving prosumer demand beyond the slot threshold costs the system
``a*(overshoot)^2 + b*overshoot`` (reserve activation, extra generation),
offset by sales revenue. Minimizing that cost over delivered demand yields a
closed-form punitive price of the prosumers' total demand beyond the
threshold; as long as ``b`` clears the bound from ``min_b`` the punitive
price exceeds every prosumer's willingness to pay
(``max_willingness_price``), so peak demand on the system collapses to zero
and prosumers trade among themselves instead. A slot's :class:`PriceSignal`
carries the demand it was priced on, so the system cost is booked on the same
sum. That sum is the scenario's own (``Scenario.demand``), made once per
scenario, so every run of a scenario prices a slot on the same float; a slot
whose demand overflows a float is refused when a run reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigurationError, DomainError, Scenario

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PriceSignal:
    """The system's selling price for one slot, whether the slot is a peak,
    and the total prosumer demand the decision was made on."""

    selling_price: float
    peak_flag: bool
    demand: float


def max_willingness_price(alpha: float) -> float:
    """The price above which a prosumer with weight ``alpha`` buys nothing.

    The marginal utility of ``alpha*log2(1+e)`` is at most ``alpha/ln 2``, at
    ``e = 0``, so no purchase is worth a higher price.
    """
    if alpha <= 0:
        raise DomainError("alpha must be > 0")
    return alpha / LN2


def cps_cost(a: float, b: float, e_d: float, e_t: float, price: float) -> float:
    """Net cost of serving ``e_d`` kWh of prosumer demand at ``price``.

    Only demand beyond the threshold ``e_t`` incurs the quadratic overage
    cost. Negative results are revenue.
    """
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be > 0")
    if e_d < 0:
        raise DomainError("delivered demand must be >= 0")
    if e_t < 0:
        raise DomainError("threshold must be >= 0")
    overshoot = max(e_d - e_t, 0.0)
    return a * overshoot * overshoot + b * overshoot - price * e_d


def peak_price(a: float, b: float, e_d: float, e_t: float) -> float:
    """The cost-minimizing selling price when demand exceeds the threshold."""
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be > 0")
    if e_d <= e_t:
        raise DomainError("peak_price requires e_d > e_t; use the off-peak price otherwise")
    return 2.0 * a * (e_d - e_t) + b


def min_b(a: float, alpha_max: float, e_d: float, e_t: float) -> float:
    """Strict lower bound on ``b`` that prices every prosumer off the grid.

    With ``b`` above this bound the punitive price exceeds the largest
    willingness-to-pay among the prosumers, so nobody buys at the peak.
    """
    if a <= 0:
        raise DomainError("a must be > 0")
    if alpha_max <= 0:
        raise DomainError("alpha_max must be > 0")
    return (alpha_max - 2.0 * a * LN2 * (e_d - e_t)) / LN2


def decide_slot_price(scenario: Scenario, slot: int) -> PriceSignal:
    """Announce the slot's prices: off-peak rate, or the punitive peak price.

    The signal carries ``scenario.demand[slot]``, the total prosumer demand it
    was decided on. The peak branch triggers only on a strict threshold
    crossing. Before announcing a punitive price the configured ``b`` is
    checked against the ``min_b`` bound; a violation means the scenario's
    parameters cannot actually deter grid purchases, which is a
    configuration error. So is a demand or a price too large for a float.
    """
    e_d = scenario.demand[slot]
    if math.isinf(e_d):
        raise ConfigurationError(f"slot {slot}: total prosumer demand overflows a float")
    policy = scenario.grid
    e_t = policy.threshold[slot]
    if e_d <= e_t:
        return PriceSignal(selling_price=policy.offpeak_price, peak_flag=False, demand=e_d)
    alpha_max = max(p.alpha_at(slot) for p in scenario.prosumers)
    bound = min_b(policy.a, alpha_max, e_d, e_t)
    if policy.b <= bound:
        raise ConfigurationError(
            f"slot {slot}: b={policy.b} does not exceed the required bound {bound:.6f} "
            f"(a={policy.a}, max alpha={alpha_max}, overshoot={e_d - e_t:.6f})"
        )
    price = peak_price(policy.a, policy.b, e_d, e_t)
    if not math.isfinite(price):
        raise ConfigurationError(f"slot {slot}: the peak price overflows a float (a={policy.a}, overshoot={e_d - e_t:g})")
    return PriceSignal(selling_price=price, peak_flag=True, demand=e_d)
