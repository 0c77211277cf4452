"""Utility functions and the induced grid-demand response."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from gridp2p.core import DomainError
from gridp2p.prosumer import max_willingness_price, optimal_grid_purchase, position_value

LN2 = math.log(2.0)


def test_utility_sell_examples():
    # Selling q kWh at price p is worth the satisfaction of q plus revenue p*q.
    assert position_value(0.0001, 2.0, 14.0 * 2.0) == pytest.approx(28.0, abs=1e-3)
    assert position_value(5.0, 0.0, 0.0) == 0.0
    assert position_value(1.0, 1.0, 10.0 * 1.0) == pytest.approx(11.0)


def test_utility_buy_examples():
    # Buying q kWh at price p is worth the satisfaction of q minus the payment p*q.
    assert position_value(2.0, 3.0, -1.0 * 3.0) == pytest.approx(1.0)
    assert position_value(3.0, 0.0, -0.0) == 0.0
    assert position_value(1.0, 1.0, -0.5 * 1.0) == pytest.approx(0.5)


def test_optimal_grid_purchase_examples():
    assert optimal_grid_purchase(2.0, 1.0) == pytest.approx(2.0 / LN2 - 1.0)
    assert optimal_grid_purchase(LN2, 1.0) == 0.0
    assert optimal_grid_purchase(1.0, 100.0) == 0.0


def test_optimal_grid_purchase_rejects_zero_price():
    with pytest.raises(DomainError):
        optimal_grid_purchase(1.0, 0.0)


def test_max_willingness_price_examples():
    assert max_willingness_price(LN2) == pytest.approx(1.0)
    assert max_willingness_price(1.0) == pytest.approx(1.4426950408889634)
    assert max_willingness_price(1e-9) == pytest.approx(0.0, abs=1e-8)


def _buy_utility_at(alpha: float, price: float, e_g: float) -> float:
    return alpha * math.log2(1.0 + e_g) - price * e_g


def test_purchase_is_argmax_by_finite_differences():
    """The returned quantity beats both neighbors for 1000 random draws."""
    rng = random.Random(1234)
    eps = 1e-4
    for _ in range(1000):
        alpha = rng.uniform(0.1, 30.0)
        price = rng.uniform(0.1, 40.0)
        best = optimal_grid_purchase(alpha, price)
        reference = _buy_utility_at(alpha, price, best)
        assert reference >= _buy_utility_at(alpha, price, best + eps) - 1e-12
        if best > 0:
            assert reference >= _buy_utility_at(alpha, price, max(best - eps, 0.0)) - 1e-12


@given(st.floats(0.1, 50.0), st.floats(0.01, 100.0))
def test_purchase_zero_above_willingness(alpha, margin):
    price = max_willingness_price(alpha) + margin
    assert optimal_grid_purchase(alpha, price) == 0.0


@given(
    st.floats(0.1, 30.0),
    st.floats(0.1, 40.0),
    st.floats(0.0, 20.0),
    st.floats(1e-3, 1.0),
)
def test_buy_utility_concave_in_energy(alpha, price, e, step):
    second_diff = (
        _buy_utility_at(alpha, price, e + 2 * step)
        - 2 * _buy_utility_at(alpha, price, e + step)
        + _buy_utility_at(alpha, price, e)
    )
    assert second_diff <= 1e-9


@given(st.floats(0.1, 30.0), st.floats(0.0, 20.0), st.floats(1e-3, 1.0), st.floats(0.0, 40.0))
def test_sell_utility_concave_in_energy(alpha, e, step, price):
    def u(q):
        return position_value(alpha, q, price * q)

    assert u(e + 2 * step) - 2 * u(e + step) + u(e) <= 1e-9
