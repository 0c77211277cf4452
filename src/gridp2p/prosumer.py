"""Prosumer utility functions and the demand response they induce.

Utility is a satisfaction term, logarithmic in the total energy moved, plus
the signed cash flow of the trades. Because the satisfaction weight is
finite, there is a price above which buying from the grid is never worth it;
the punitive peak price is chosen to sit above that point for every prosumer.
"""

from __future__ import annotations

import math

from .core import DomainError

LN2 = math.log(2.0)


def satisfaction(alpha: float, energy: float) -> float:
    """The log-utility of moving ``energy`` kWh, weighted by ``alpha``."""
    return alpha * math.log2(1.0 + energy)


def position_value(alpha: float, energy: float, cash: float) -> float:
    """Utility of a settled position: satisfaction plus signed cash flow."""
    return satisfaction(alpha, energy) + cash


def optimal_grid_purchase(alpha: float, price: float) -> float:
    """Utility-maximizing grid purchase at the given price, clamped at zero.

    Stationary point of ``alpha*log2(1+e) - price*e``; negative roots mean
    the price is already past the willingness threshold and nothing is bought.
    """
    if alpha <= 0:
        raise DomainError("alpha must be > 0")
    if price <= 0:
        raise DomainError("price must be > 0")
    return max(alpha / (price * LN2) - 1.0, 0.0)


def max_willingness_price(alpha: float) -> float:
    """The price above which a prosumer with weight ``alpha`` buys nothing."""
    if alpha <= 0:
        raise DomainError("alpha must be > 0")
    return alpha / LN2
