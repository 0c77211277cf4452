"""Shared domain types and scenario handling for the trading simulator.

A scenario bundles everything one simulation run needs: the grid's pricing
policy, the market configuration and the per-slot supply/demand positions of
every prosumer. All types are frozen value objects.

Quantities are kWh, prices are cents/kWh. A single signed ``net_energy``
value per slot encodes the prosumer's position: positive means surplus
offered for sale, negative means a deficit to be bought, zero means the
prosumer sits the slot out.

A scenario file is JSON in which each object holds exactly its record's
fields: the top level a :class:`Scenario`'s, ``grid`` a :class:`GridPolicy`'s,
``market`` a :class:`MarketConfig`'s and each entry of ``prosumers`` a
:class:`ProsumerProfile`'s, with tuples as arrays and the price rule as its
value. A written file is that JSON as ``json.dumps`` writes it at an indent
of 2, and a newline; :func:`_dump` lays it out, with the C encoder writing
each array of numbers. The grid object still accepts the two legacy keys of
older files, ``other_demand`` and ``supply_capacity``; they are checked as
per-slot numbers, then dropped.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence, Union


class GridP2PError(Exception):
    """Base class for all simulator errors."""


class DomainError(GridP2PError, ValueError):
    """An operation was called with arguments outside its domain."""


class ScenarioError(GridP2PError, ValueError):
    """A scenario file or object violates the schema or an invariant."""


class ConfigurationError(GridP2PError):
    """A scenario is structurally valid but cannot be priced as configured."""


class AuctionPriceRule(Enum):
    """How the uniform auction price is picked from the trading asks."""

    HIGHEST_RESERVATION = "highest_reservation"
    VICKREY = "vickrey"


# Ids the reports give to parties other than the prosumers: the grid and the
# third party trade in ``trades.csv``, and ``average`` is a ``summary.csv`` scope.
GRID_ID = "grid"
THIRD_PARTY_ID = "third_party"
_RESERVED_IDS = (GRID_ID, THIRD_PARTY_ID, "average")


def _as_float_tuple(values: Iterable[float], name: str) -> tuple[float, ...]:
    """Convert to floats, refusing booleans, strings, NaN and infinities."""
    try:
        values = tuple(values)
        floats = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{name}: expected numbers") from exc
    if set(map(type, values)) & {bool, str} or not all(map(math.isfinite, floats)):
        raise ScenarioError(f"{name}: expected finite numbers")
    return floats


def _as_float(value: float, name: str) -> float:
    return _as_float_tuple((value,), name)[0]


def _check_length(values: tuple, name: str, slots: int) -> None:
    if len(values) != slots:
        raise ScenarioError(f"{name} has length {len(values)}, expected {slots}")


@dataclass(frozen=True)
class ProsumerProfile:
    """One prosumer's identity, preference and per-slot market position.

    ``alpha`` weighs the satisfaction ``alpha*log2(1+e)`` of using ``e`` kWh,
    and so sets the willingness price ``alpha/ln 2`` above which the prosumer
    buys nothing; it may be a single value for the whole horizon or one value
    per slot.
    """

    id: str
    alpha: Union[float, tuple[float, ...]]
    net_energy: tuple[float, ...]
    reservation_price: tuple[float, ...]
    bid_price: tuple[float, ...]

    def __post_init__(self) -> None:
        if type(self.id) is not str or not self.id:
            raise ScenarioError(f"prosumer id must be a non-empty string, got {self.id!r}")
        if self.id in _RESERVED_IDS:
            raise ScenarioError(f"prosumer id {self.id!r} is reserved")
        for name in ("net_energy", "reservation_price", "bid_price"):
            object.__setattr__(self, name, _as_float_tuple(getattr(self, name), f"prosumers[{self.id}].{name}"))
        per_slot = isinstance(self.alpha, (list, tuple))
        alphas = _as_float_tuple(self.alpha if per_slot else (self.alpha,), f"prosumers[{self.id}].alpha")
        if any(a <= 0 for a in alphas):
            raise ScenarioError(f"prosumer {self.id}: alpha must be > 0{' at every slot' if per_slot else ''}")
        object.__setattr__(self, "alpha", alphas if per_slot else alphas[0])
        for name in ("reservation_price", "bid_price"):
            if any(p < 0 for p in getattr(self, name)):
                raise ScenarioError(f"prosumer {self.id}: {name} must be >= 0")

    def alpha_at(self, slot: int) -> float:
        if isinstance(self.alpha, tuple):
            return self.alpha[slot]
        return self.alpha


@dataclass(frozen=True)
class GridPolicy:
    """The centralized system's cost parameters and per-slot schedule.

    ``a`` (cents/kWh^2) and ``b`` (cents/kWh) shape the cost of serving
    demand beyond ``threshold``.
    """

    a: float
    b: float
    threshold: tuple[float, ...]
    offpeak_price: float
    fit_price: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", _as_float_tuple(self.threshold, "grid.threshold"))
        for name in ("a", "b", "offpeak_price", "fit_price"):
            _as_float(getattr(self, name), f"grid.{name}")
        for name in ("a", "b"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"grid.{name} must be > 0")
        if self.fit_price < 0:
            raise ScenarioError("grid.fit_price must be >= 0")
        if self.offpeak_price <= self.fit_price:
            raise ScenarioError("grid.offpeak_price must exceed grid.fit_price")
        if any(v < 0 for v in self.threshold):
            raise ScenarioError("grid.threshold entries must be >= 0")


# Case-study defaults. The punitive price at a 2 kWh threshold overshoot is
# 2 * 68.6 * 2 + 274.4 = 548.8 cents/kWh, i.e. 19.6x the off-peak rate.
CASE_STUDY_A = 68.6
CASE_STUDY_B = 274.4
CASE_STUDY_OFFPEAK = 28.0
CASE_STUDY_FIT = 10.0
CASE_STUDY_THIRD_PARTY = 21.0
CASE_STUDY_BETA = 0.1
CASE_STUDY_SLOTS = 22


@dataclass(frozen=True)
class MarketConfig:
    """Peer-market parameters shared by every slot."""

    beta: float = CASE_STUDY_BETA
    third_party_price: float = CASE_STUDY_THIRD_PARTY
    auction_price_rule: AuctionPriceRule = AuctionPriceRule.HIGHEST_RESERVATION

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "auction_price_rule", AuctionPriceRule(self.auction_price_rule))
        except ValueError as exc:
            raise ScenarioError(f"market.auction_price_rule: unknown rule {self.auction_price_rule!r}") from exc
        _as_float(self.beta, "market.beta")
        _as_float(self.third_party_price, "market.third_party_price")
        if self.beta < 0:
            raise ScenarioError("market.beta must be >= 0")
        if self.third_party_price <= 0:
            raise ScenarioError("market.third_party_price must be > 0")


@dataclass(frozen=True)
class Scenario:
    slots: int
    prosumers: tuple[ProsumerProfile, ...]
    grid: GridPolicy
    market: MarketConfig
    slot_minutes: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prosumers", tuple(self.prosumers))
        for name in ("slots", "slot_minutes"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ScenarioError(f"{name} must be an integer >= 1")
        if type(self.seed) is not int:
            raise ScenarioError("seed must be an integer")
        if not self.prosumers:
            raise ScenarioError("scenario needs at least one prosumer")
        seen: set[str] = set()
        for p in self.prosumers:
            if p.id in seen:
                raise ScenarioError(f"duplicate prosumer id {p.id!r}")
            seen.add(p.id)
            for name in ("net_energy", "reservation_price", "bid_price", "alpha"):
                # A scalar alpha holds for every slot.
                if isinstance(getattr(p, name), tuple):
                    _check_length(getattr(p, name), f"prosumers[{p.id}].{name}", self.slots)
        _check_length(self.grid.threshold, "grid.threshold", self.slots)

    def sellers_at(self, slot: int) -> list[ProsumerProfile]:
        return [p for p in self.prosumers if p.net_energy[slot] > 0]

    def buyers_at(self, slot: int) -> list[ProsumerProfile]:
        return [p for p in self.prosumers if p.net_energy[slot] < 0]


@dataclass(frozen=True)
class Order:
    """One ask or bid of the auction book for a single slot."""

    prosumer_id: str
    price: float
    quantity: float

    def __post_init__(self) -> None:
        if self.quantity <= 0:
            raise DomainError(f"order quantity must be > 0, got {self.quantity}")
        if self.price < 0:
            raise DomainError(f"order price must be >= 0, got {self.price}")


# Peak pattern over the 22-slot horizon (0-indexed). The overshoot is 2 kWh
# at every peak slot except index 5, which is sized so the punitive price
# lands on 350 cents/kWh (12.5x off-peak) instead of 548.8 (19.6x).
_PEAK_SLOTS_DEFAULT = (2, 3, 5, 12, 14, 18)
_OVERSHOOT_DEFAULT = 2.0
_OVERSHOOT_SLOT5 = (350.0 - CASE_STUDY_B) / (2.0 * CASE_STUDY_A)


def _quantize(value: float, steps: int = 1024) -> float:
    # Snap to a dyadic grid so the value converts to a small exact Fraction.
    return round(value * steps) / steps


def make_case_study_scenario(
    seed: int,
    n_prosumers: int = 12,
    slots: int = CASE_STUDY_SLOTS,
    sellers_per_slot: int | None = None,
) -> Scenario:
    """Build the seeded residential scenario used throughout the test bench.

    Half the prosumers hold a surplus and half a deficit in every slot (the
    split is configurable), with magnitudes uniform in [2, 9] kWh and ask/bid
    prices uniform in [11, 15] cents/kWh, between the 10 cent feed-in tariff
    and the 28 cent off-peak rate. The grid threshold is set below prosumer
    demand on the fixed peak pattern and above it elsewhere, so every seed
    yields the same peak slots. Identical seeds produce identical scenarios.
    """
    if n_prosumers < 2:
        raise DomainError("n_prosumers must be >= 2")
    if slots < 1:
        raise DomainError("slots must be >= 1")
    rng = random.Random(seed)
    n_sellers = n_prosumers // 2 if sellers_per_slot is None else sellers_per_slot
    if not 0 <= n_sellers <= n_prosumers:
        raise DomainError("sellers_per_slot out of range")
    if n_sellers == n_prosumers and slots > min(_PEAK_SLOTS_DEFAULT):
        # A peak's threshold sits below its demand, which needs a buyer.
        raise DomainError("sellers_per_slot must leave a buyer when the horizon has a peak slot")

    ids = [f"p{i + 1:02d}" for i in range(n_prosumers)]
    alphas = {pid: round(rng.uniform(7.0, 14.0), 4) for pid in ids}
    # Each per-slot value is ``_quantize(rng.uniform(lo, hi), steps)``, written
    # out as the expression ``uniform`` evaluates: the same draws, the same values.
    draw = rng.random
    net: dict[str, list[float]] = {pid: [] for pid in ids}
    asks: dict[str, list[float]] = {pid: [] for pid in ids}
    bids: dict[str, list[float]] = {pid: [] for pid in ids}

    demand_per_slot: list[float] = []
    for _ in range(slots):
        sellers = set(rng.sample(ids, n_sellers))
        deficit_total = 0.0
        for pid in ids:
            magnitude = round((2.0 + 7.0 * draw()) * 1024) / 1024
            if pid in sellers:
                net[pid].append(magnitude)
            else:
                net[pid].append(-magnitude)
                deficit_total += magnitude
            asks[pid].append(round((11.0 + 4.0 * draw()) * 64) / 64)
            bids[pid].append(round((11.0 + 4.0 * draw()) * 64) / 64)
        demand_per_slot.append(deficit_total)

    threshold = []
    for t, e_d in enumerate(demand_per_slot):
        if t in _PEAK_SLOTS_DEFAULT:
            overshoot = _OVERSHOOT_SLOT5 if t == 5 else _OVERSHOOT_DEFAULT
            threshold.append(e_d - overshoot)
        else:
            threshold.append(_quantize(e_d + 5.0 + rng.uniform(0.0, 5.0)))

    grid = GridPolicy(
        a=CASE_STUDY_A,
        b=CASE_STUDY_B,
        threshold=tuple(threshold),
        offpeak_price=CASE_STUDY_OFFPEAK,
        fit_price=CASE_STUDY_FIT,
    )
    prosumers = tuple(
        ProsumerProfile(
            id=pid,
            alpha=alphas[pid],
            net_energy=tuple(net[pid]),
            reservation_price=tuple(asks[pid]),
            bid_price=tuple(bids[pid]),
        )
        for pid in ids
    )
    return Scenario(
        slots=slots,
        prosumers=prosumers,
        grid=grid,
        market=MarketConfig(),
        seed=seed,
    )


# --- JSON scenario format -------------------------------------------------

# Every object lists its keys in field order, except the top level, which
# lists them in this order.
_TOP_KEYS = ("slots", "slot_minutes", "seed", "grid", "market", "prosumers")
# Per-slot arrays that older files carry (the load of customers outside the
# prosumer contract, and a supply ceiling) and that nothing reads: they are
# checked as per-slot numbers, then dropped.
_GRID_LEGACY = ("other_demand", "supply_capacity")


def _check_keys(mapping: dict, required: Sequence[str], where: str, optional: Sequence[str] = ()) -> None:
    missing = [key for key in required if key not in mapping]
    if missing:
        raise ScenarioError(f"{where}: missing key {sorted(missing)[0]!r}")
    unknown = [key for key in mapping if key not in required and key not in optional]
    if unknown:
        raise ScenarioError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _to_dict(record) -> dict:
    """``record``'s fields in declaration order, with tuples as lists and enums as their values."""
    data = {}
    for f in fields(record):
        value = getattr(record, f.name)
        data[f.name] = list(value) if isinstance(value, tuple) else value.value if isinstance(value, Enum) else value
    return data


def _from_dict(cls, raw, where: str, legacy: tuple[str, ...] = ()):
    """A ``cls`` built from the JSON object ``raw``, which holds exactly its fields and any ``legacy`` keys."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object")
    names = [f.name for f in fields(cls)]
    _check_keys(raw, names, where, legacy)
    return cls(**{name: raw[name] for name in names})


def scenario_to_dict(scenario: Scenario) -> dict:
    data = _to_dict(scenario) | {
        "grid": _to_dict(scenario.grid),
        "market": _to_dict(scenario.market),
        "prosumers": [_to_dict(p) for p in scenario.prosumers],
    }
    return {key: data[key] for key in _TOP_KEYS}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be an object")
    _check_keys(data, _TOP_KEYS, "scenario")
    grid_raw = data["grid"]
    grid = _from_dict(GridPolicy, grid_raw, "grid", _GRID_LEGACY)
    market = _from_dict(MarketConfig, data["market"], "market")
    if not isinstance(data["prosumers"], list):
        raise ScenarioError("prosumers must be an array")
    prosumers = [_from_dict(ProsumerProfile, raw, f"prosumers[{i}]") for i, raw in enumerate(data["prosumers"])]
    scenario = Scenario(**(data | {"grid": grid, "market": market, "prosumers": prosumers}))
    for name in _GRID_LEGACY:
        if name not in grid_raw or (name == "supply_capacity" and grid_raw[name] is None):
            continue
        _check_length(_as_float_tuple(grid_raw[name], f"grid.{name}"), f"grid.{name}", scenario.slots)
    return scenario


# The types of a JSON scalar: an array of only these is one C-encoder call.
_SCALARS = {float, int, str, bool, type(None)}


def _dump(value, pad: str = "") -> str:
    """``value`` laid out as ``json.dumps`` lays it out at an indent of 2, nested at ``pad``; keys are strings.

    ``json.dumps`` uses its C encoder only when it does not indent, so each
    array of scalars is one such call, its item separator carrying the
    newline and the indent; everything else is laid out here.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(key)}: {_dump(item, inner)}" for key, item in value.items()]
    elif isinstance(value, list) and value:
        if set(map(type, value)) <= _SCALARS:
            items = [json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]]
        else:
            items = [_dump(item, inner) for item in value]
    else:  # a scalar, [] or {}
        return json.dumps(value)
    start, end = "{}" if isinstance(value, dict) else "[]"
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{end}"


def emit_scenario(scenario: Scenario) -> str:
    """The file's text: ``scenario_to_dict(scenario)`` as ``json.dumps`` writes it at an indent of 2, and a newline."""
    return _dump(scenario_to_dict(scenario)) + "\n"


def _reject_constant(token: str) -> float:
    raise ValueError(f"{token} is not a finite number")


def load_scenario_text(text: str) -> Scenario:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, NaN or Infinity, an integer too long to convert, or
        # arrays nested too deep to parse.
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(emit_scenario(scenario), encoding="utf-8")


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a UTF-8 scenario file, raising ``ScenarioError`` on any defect."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return load_scenario_text(text)
