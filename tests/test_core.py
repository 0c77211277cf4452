"""Domain types, scenario generation and serialization."""

import json
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from gridp2p.cli import EXIT_VALIDATION, main
from gridp2p.core import (
    DomainError,
    GridPolicy,
    MarketConfig,
    Order,
    ProsumerProfile,
    Scenario,
    ScenarioError,
    _dump,
    emit_scenario,
    load_scenario,
    load_scenario_text,
    make_case_study_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def _with_legacy_grid_keys(data: dict, other_demand=None, supply_capacity=None) -> dict:
    """``data`` with the two grid keys that older scenario files carry."""
    slots = data["slots"]
    data["grid"]["other_demand"] = [30.0] * slots if other_demand is None else other_demand
    data["grid"]["supply_capacity"] = [80.0] * slots if supply_capacity is None else supply_capacity
    return data


def test_case_study_scenario_deterministic():
    a = make_case_study_scenario(42)
    b = make_case_study_scenario(42)
    assert a == b
    assert emit_scenario(a) == emit_scenario(b)
    assert make_case_study_scenario(43) != a


def test_case_study_scenario_shape():
    s = make_case_study_scenario(7)
    assert s.slots == 22
    assert len(s.prosumers) == 12
    assert s.grid.fit_price == 10.0
    assert s.grid.offpeak_price == 28.0
    for t in range(s.slots):
        sellers = s.sellers_at(t)
        buyers = s.buyers_at(t)
        assert len(sellers) == 6 and len(buyers) == 6


def test_case_study_ranges_over_many_seeds():
    for seed in range(1000):
        s = make_case_study_scenario(seed, slots=3)
        for p in s.prosumers:
            assert all(2.0 <= abs(e) <= 9.0 for e in p.net_energy)
            assert all(11.0 <= x <= 15.0 for x in p.reservation_price)
            assert all(11.0 <= x <= 15.0 for x in p.bid_price)
            assert p.alpha > 0


def test_case_study_rejects_all_sellers_when_the_horizon_has_a_peak():
    with pytest.raises(DomainError, match="^sellers_per_slot must leave a buyer when the horizon has a peak slot$"):
        make_case_study_scenario(0, n_prosumers=4, slots=3, sellers_per_slot=4)


@pytest.mark.parametrize("slots", [1, 2])
def test_case_study_allows_all_sellers_before_the_first_peak(slots):
    scenario = make_case_study_scenario(0, n_prosumers=4, slots=slots, sellers_per_slot=4)
    assert all(len(scenario.sellers_at(t)) == 4 for t in range(slots))


def test_round_trip_through_json():
    s = make_case_study_scenario(7)
    assert load_scenario_text(emit_scenario(s)) == s
    legacy = _with_legacy_grid_keys(scenario_to_dict(s))
    assert load_scenario_text(json.dumps(legacy)) == s


def test_round_trip_through_file(tmp_path):
    s = make_case_study_scenario(11, n_prosumers=6, slots=4)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_scenario_rejects_duplicate_ids():
    p = ProsumerProfile("x", 1.0, (1.0,), (11.0,), (11.0,))
    grid = GridPolicy(1.0, 1.0, (5.0,), 28.0, 10.0)
    with pytest.raises(ScenarioError, match="duplicate"):
        Scenario(slots=1, prosumers=(p, p), grid=grid, market=MarketConfig())


def test_scenario_rejects_length_mismatch():
    s = make_case_study_scenario(3)
    data = scenario_to_dict(s)
    data["grid"]["threshold"] = data["grid"]["threshold"][:-1]
    with pytest.raises(ScenarioError, match="grid.threshold"):
        scenario_from_dict(data)
    for name in ("other_demand", "supply_capacity"):
        data = _with_legacy_grid_keys(scenario_to_dict(s), **{name: [30.0] * (s.slots - 1)})
        with pytest.raises(ScenarioError, match=f"grid.{name} has length"):
            scenario_from_dict(data)


def test_scenario_rejects_bad_beta():
    s = make_case_study_scenario(3)
    data = scenario_to_dict(s)
    data["market"]["beta"] = -0.1
    with pytest.raises(ScenarioError, match="market.beta"):
        scenario_from_dict(data)


def test_scenario_rejects_unknown_keys():
    s = make_case_study_scenario(3)
    data = scenario_to_dict(s)
    data["comment"] = "nope"
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict(data)
    data = scenario_to_dict(s)
    data["grid"]["ramp"] = 1
    with pytest.raises(ScenarioError, match="grid.*ramp"):
        scenario_from_dict(data)
    data = scenario_to_dict(s)
    data["prosumers"][0]["notes"] = "hi"
    with pytest.raises(ScenarioError, match=r"prosumers\[0\].*notes"):
        scenario_from_dict(data)


def test_scenario_rejects_missing_key():
    s = make_case_study_scenario(3)
    data = scenario_to_dict(s)
    del data["market"]["beta"]
    with pytest.raises(ScenarioError, match="missing key 'beta'"):
        scenario_from_dict(data)


def test_scenario_rejects_bad_json():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario_text("{not json")


def test_profile_validation():
    with pytest.raises(ScenarioError, match="alpha"):
        ProsumerProfile("x", 0.0, (1.0,), (11.0,), (11.0,))
    with pytest.raises(ScenarioError, match="reservation_price"):
        ProsumerProfile("x", 1.0, (1.0,), (-1.0,), (11.0,))


def test_per_slot_alpha_accepted():
    p = ProsumerProfile("x", (1.0, 2.0), (1.0, 1.0), (11.0, 11.0), (11.0, 11.0))
    assert p.alpha_at(0) == 1.0
    assert p.alpha_at(1) == 2.0
    grid = GridPolicy(1.0, 1.0, (5.0, 5.0), 28.0, 10.0)
    s = Scenario(slots=2, prosumers=(p,), grid=grid, market=MarketConfig())
    assert load_scenario_text(emit_scenario(s)) == s


def _nets_scenario(nets) -> Scenario:
    """A scenario whose prosumer ``i`` holds the net energies ``nets[i]``."""
    slots = len(nets[0])
    grid = GridPolicy(1.0, 1.0, (0.0,) * slots, 28.0, 10.0)
    prosumers = [ProsumerProfile(f"p{i}", 1.0, row, (11.0,) * slots, (11.0,) * slots) for i, row in enumerate(nets)]
    return Scenario(slots, prosumers, grid, MarketConfig())


def _reference_demand(scenario: Scenario) -> list[str]:
    """Each slot's total demand, summed here from the scenario's nets, as ``float.hex``: ``math.fsum``
    of ``-net`` over the prosumers with a deficit, and ``inf`` where that sum overflows."""
    demand = []
    for t in range(scenario.slots):
        try:
            demand.append(math.fsum([-p.net_energy[t] for p in scenario.prosumers if p.net_energy[t] < 0]).hex())
        except OverflowError:
            demand.append("inf")
    return demand


_NETS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, -0.1, -1e308, -5e-324])


@given(st.integers(1, 4).flatmap(lambda slots: st.lists(st.lists(_NETS, min_size=slots, max_size=slots), min_size=1,
                                                          max_size=6)))
def test_each_slots_demand_is_the_correctly_rounded_sum_of_its_deficits(nets):
    scenario = _nets_scenario(nets)
    assert [d.hex() for d in scenario.demand] == _reference_demand(scenario)


def test_a_slot_without_a_deficit_demands_zero_and_an_overflowing_one_inf():
    scenario = _nets_scenario([[-0.0, 0.0, 2.5, -1e308, -0.1], [0.0, -0.0, -1.5, -1e308, -0.2],
                               [0.0, 3.0, -0.25, 1.0, -0.3]])
    # 0.1 + 0.2 + 0.3 adds up to 0.6000000000000001 left to right; the correctly rounded sum is 0.6.
    assert [d.hex() for d in scenario.demand] == ["0x0.0p+0", "0x0.0p+0", (1.75).hex(), "inf", (0.6).hex()]
    assert [d.hex() for d in scenario.demand] == _reference_demand(scenario)


def test_summing_the_demand_changes_nothing_else_and_no_copy_reads_a_stale_one():
    scenario, twin = make_case_study_scenario(3, slots=6), make_case_study_scenario(3, slots=6)
    before = (hash(scenario), repr(scenario), scenario_to_dict(scenario), emit_scenario(scenario))
    assert "demand" not in vars(scenario)
    demand = scenario.demand
    assert [d.hex() for d in demand] == _reference_demand(scenario) and scenario.demand is demand
    assert scenario == twin and "demand" not in vars(twin)
    assert (hash(scenario), repr(scenario), scenario_to_dict(scenario), emit_scenario(scenario)) == before
    # A copy with other nets, made after the sum or loaded from a pickle, sums its own.
    doubled = replace(scenario, prosumers=tuple(
        replace(p, net_energy=tuple(2 * e for e in p.net_energy)) for p in scenario.prosumers))
    assert doubled.demand == tuple(2 * d for d in demand)
    for copy in (pickle.loads(pickle.dumps(scenario)), pickle.loads(pickle.dumps(doubled))):
        assert [d.hex() for d in copy.demand] == _reference_demand(copy)
    assert pickle.loads(pickle.dumps(twin)).demand == demand


def test_grid_policy_validation():
    with pytest.raises(ScenarioError, match="offpeak_price"):
        GridPolicy(1.0, 1.0, (5.0,), 10.0, 10.0)
    with pytest.raises(ScenarioError, match="grid.a"):
        GridPolicy(0.0, 1.0, (5.0,), 28.0, 10.0)


def test_emitted_json_is_stable():
    s = make_case_study_scenario(5, n_prosumers=4, slots=2)
    first = emit_scenario(s)
    keys = list(json.loads(first).keys())
    assert keys == ["slots", "slot_minutes", "seed", "grid", "market", "prosumers"]
    assert emit_scenario(load_scenario_text(first)) == first
    assert first == json.dumps(scenario_to_dict(s), indent=2) + "\n"


# JSON values: strings with quotes, backslashes, newlines and non-ASCII
# characters; every kind of number, the float extremes among them; and
# arrays and string-keyed objects, some empty, nested.
_TEXT = st.text(st.sampled_from('"\\\n\t/aé€\U0001f600') | st.characters(exclude_categories=("Cs",)))
_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner) | st.dictionaries(_TEXT, inner),
    max_leaves=40,
)


@given(_JSON)
@example([])
@example({})
@example({"": [[], {}, [[]]], "a\"\\\n€": {"b": [-0.0, 5e-324, 1.7976931348623157e308, 7, True, None, "\u2028"]}})
def test_emitter_writes_what_json_dumps_writes_at_indent_two(value):
    assert _dump(value) + "\n" == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_loader_rejects_non_finite_json_numbers(value):
    data = scenario_to_dict(make_case_study_scenario(3, slots=2))
    data["grid"]["threshold"][0] = value
    with pytest.raises(ScenarioError, match="not a finite number"):
        load_scenario_text(json.dumps(data))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_built_objects_reject_non_finite_numbers(value):
    with pytest.raises(ScenarioError, match="threshold"):
        GridPolicy(1.0, 1.0, (value,), 28.0, 10.0)
    with pytest.raises(ScenarioError, match="net_energy"):
        ProsumerProfile("x", 1.0, (value,), (11.0,), (11.0,))
    with pytest.raises(ScenarioError, match="alpha"):
        ProsumerProfile("x", value, (1.0,), (11.0,), (11.0,))
    with pytest.raises(ScenarioError, match="market.third_party_price"):
        MarketConfig(third_party_price=value)


def test_loader_rejects_booleans_and_strings_as_numbers():
    for value in (True, "1.5"):
        data = scenario_to_dict(make_case_study_scenario(3, slots=2))
        data["prosumers"][0]["net_energy"][0] = value
        with pytest.raises(ScenarioError, match="net_energy"):
            scenario_from_dict(data)
    data = scenario_to_dict(make_case_study_scenario(3, slots=2))
    data["grid"]["a"] = True
    with pytest.raises(ScenarioError, match="grid.a"):
        scenario_from_dict(data)
    data = scenario_to_dict(make_case_study_scenario(3, slots=2))
    data["slots"] = True
    with pytest.raises(ScenarioError, match="slots"):
        scenario_from_dict(data)
    for name in ("other_demand", "supply_capacity"):
        for value in (True, "1.5"):
            data = _with_legacy_grid_keys(
                scenario_to_dict(make_case_study_scenario(3, slots=2)), **{name: [30.0, value]}
            )
            with pytest.raises(ScenarioError, match=name):
                scenario_from_dict(data)


@pytest.mark.parametrize("value", ["x", True, 1.0, None])
def test_loader_rejects_mistyped_seed(value):
    data = scenario_to_dict(make_case_study_scenario(3, slots=2))
    data["seed"] = value
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="seed"):
        replace(make_case_study_scenario(3, slots=2), seed=value)


@pytest.mark.parametrize("value", [True, 0, -30, 30.0, "30"])
def test_loader_rejects_mistyped_slot_minutes(value):
    data = scenario_to_dict(make_case_study_scenario(3, slots=2))
    data["slot_minutes"] = value
    with pytest.raises(ScenarioError, match="slot_minutes"):
        scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="slot_minutes"):
        replace(make_case_study_scenario(3, slots=2), slot_minutes=value)


@pytest.mark.parametrize("value", [7, "", None, True])
def test_loader_rejects_mistyped_prosumer_id(value):
    data = scenario_to_dict(make_case_study_scenario(3, slots=2))
    data["prosumers"][0]["id"] = value
    with pytest.raises(ScenarioError, match="prosumer id"):
        scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="prosumer id"):
        ProsumerProfile(value, 1.0, (1.0,), (11.0,), (11.0,))


@pytest.mark.parametrize("reserved", ["grid", "third_party", "average"])
def test_loader_rejects_a_reserved_prosumer_id(tmp_path, capsys, reserved):
    # trades.csv names the grid and the third party by these ids, and
    # summary.csv uses ``average`` as a scope, so a prosumer with one of them
    # would write a run that its own audit rejects, or passes wrongly.
    data = scenario_to_dict(make_case_study_scenario(3, slots=6))
    data["prosumers"][0]["id"] = reserved
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: prosumer id {reserved!r} is reserved\n"
    with pytest.raises(ScenarioError, match="reserved"):
        ProsumerProfile(reserved, 1.0, (1.0,), (11.0,), (11.0,))



@pytest.mark.parametrize(
    "alter, message",
    [
        (lambda d: [], "scenario root must be an object"),
        (lambda d: d | {"grid": []}, "grid must be an object"),
        (lambda d: d | {"market": 1}, "market must be an object"),
        (lambda d: d | {"prosumers": {}}, "prosumers must be an array"),
        (lambda d: d | {"prosumers": [d["prosumers"][0], "p02"]}, "prosumers[1] must be an object"),
        (
            lambda d: d | {"market": d["market"] | {"auction_price_rule": "x"}},
            "market.auction_price_rule: unknown rule 'x'",
        ),
        # Numbers too large for a float.
        (lambda d: d | {"grid": d["grid"] | {"a": 10**400}}, "grid.a: expected numbers"),
        # The id keeps the case's name from before errors were prefixed with the prosumer.
        pytest.param(
            lambda d: d | {"prosumers": [d["prosumers"][0] | {"net_energy": [10**400, 1.0]}, d["prosumers"][1]]},
            "prosumers[p01].net_energy: expected numbers",
            id="<lambda>-net_energy: expected numbers",
        ),
    ],
)
def test_loader_reports_each_structural_error(tmp_path, capsys, alter, message):
    data = alter(scenario_to_dict(make_case_study_scenario(3, n_prosumers=2, slots=2)))
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert str(exc.value) == message
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(scenario_path), "--mode", "p2p", "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"



@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe\x00", "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (
            b'{"slots": ' + b"1" * 5000 + b"}",
            "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
            " use sys.set_int_max_str_digits() to increase the limit",
        ),
        (
            b"[" * 100_000,
            "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        ),
    ],
    ids=["not-utf8", "integer-too-long", "nested-too-deep"],
)
def test_loader_reports_a_file_it_cannot_parse(tmp_path, capsys, content, message):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_bytes(content)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(scenario_path)
    assert str(exc.value) == message
    code = main(["simulate", "--scenario", str(scenario_path), "--mode", "p2p", "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


# One scenario per rule of the loader, each changed from a valid 2-prosumer,
# 2-slot case study by setting the values at the given paths. The two-fault
# cases pin which rule fires first.
_P0 = ("prosumers", 0)
_LOADER_RULES = [
    # ProsumerProfile
    pytest.param({(*_P0, "id"): 7}, "prosumer id must be a non-empty string, got 7", id="id-type"),
    pytest.param({(*_P0, "id"): "grid"}, "prosumer id 'grid' is reserved", id="id-reserved"),
    pytest.param(
        {(*_P0, "net_energy"): ["x", 1.0]}, "prosumers[p01].net_energy: expected numbers", id="net-energy-number"
    ),
    pytest.param(
        {(*_P0, "net_energy"): [True, 1.0]}, "prosumers[p01].net_energy: expected finite numbers", id="net-energy-type"
    ),
    pytest.param(
        {(*_P0, "reservation_price"): [12.0, "12"]},
        "prosumers[p01].reservation_price: expected finite numbers",
        id="ask-type",
    ),
    pytest.param({(*_P0, "bid_price"): 12.0}, "prosumers[p01].bid_price: expected numbers", id="bid-not-array"),
    pytest.param({(*_P0, "alpha"): "8"}, "prosumers[p01].alpha: expected finite numbers", id="alpha-type"),
    pytest.param({(*_P0, "alpha"): [8.0, None]}, "prosumers[p01].alpha: expected numbers", id="alpha-slot-type"),
    pytest.param({(*_P0, "alpha"): 0}, "prosumer p01: alpha must be > 0", id="alpha-positive"),
    pytest.param({(*_P0, "alpha"): [8.0, -1.0]}, "prosumer p01: alpha must be > 0 at every slot", id="alpha-per-slot"),
    pytest.param(
        {(*_P0, "reservation_price"): [12.0, -1.0]}, "prosumer p01: reservation_price must be >= 0", id="ask-floor"
    ),
    pytest.param({(*_P0, "bid_price"): [-1.0, 12.0]}, "prosumer p01: bid_price must be >= 0", id="bid-floor"),
    # GridPolicy
    pytest.param({("grid", "threshold"): [1.0, False]}, "grid.threshold: expected finite numbers", id="threshold-type"),
    pytest.param({("grid", "a"): "68.6"}, "grid.a: expected finite numbers", id="a-type"),
    pytest.param({("grid", "b"): None}, "grid.b: expected numbers", id="b-type"),
    pytest.param({("grid", "offpeak_price"): True}, "grid.offpeak_price: expected finite numbers", id="offpeak-type"),
    pytest.param({("grid", "fit_price"): []}, "grid.fit_price: expected numbers", id="fit-type"),
    pytest.param({("grid", "a"): 0}, "grid.a must be > 0", id="a-positive"),
    pytest.param({("grid", "b"): -1.0}, "grid.b must be > 0", id="b-positive"),
    pytest.param({("grid", "fit_price"): -5.0}, "grid.fit_price must be >= 0", id="fit-floor"),
    pytest.param({("grid", "offpeak_price"): 10.0}, "grid.offpeak_price must exceed grid.fit_price", id="offpeak-fit"),
    pytest.param({("grid", "threshold"): [1.0, -1.0]}, "grid.threshold entries must be >= 0", id="threshold-floor"),
    # MarketConfig
    pytest.param(
        {("market", "auction_price_rule"): "x"}, "market.auction_price_rule: unknown rule 'x'", id="price-rule"
    ),
    pytest.param({("market", "beta"): "0.1"}, "market.beta: expected finite numbers", id="beta-type"),
    pytest.param(
        {("market", "third_party_price"): {}}, "market.third_party_price: expected numbers", id="third-party-type"
    ),
    pytest.param({("market", "beta"): -0.1}, "market.beta must be >= 0", id="beta-floor"),
    pytest.param({("market", "third_party_price"): 0}, "market.third_party_price must be > 0", id="third-party-positive"),
    # Scenario
    pytest.param({("slots",): 0}, "slots must be an integer >= 1", id="slots"),
    pytest.param({("slot_minutes",): 1.5}, "slot_minutes must be an integer >= 1", id="slot-minutes"),
    pytest.param({("seed",): "0"}, "seed must be an integer", id="seed"),
    pytest.param({("prosumers",): []}, "scenario needs at least one prosumer", id="no-prosumers"),
    pytest.param({("prosumers", 1, "id"): "p01"}, "duplicate prosumer id 'p01'", id="duplicate-id"),
    # The seven per-slot lengths.
    pytest.param(
        {(*_P0, "net_energy"): [1.0]}, "prosumers[p01].net_energy has length 1, expected 2", id="net-energy-length"
    ),
    pytest.param(
        {(*_P0, "reservation_price"): [12.0] * 3},
        "prosumers[p01].reservation_price has length 3, expected 2",
        id="ask-length",
    ),
    pytest.param({(*_P0, "bid_price"): []}, "prosumers[p01].bid_price has length 0, expected 2", id="bid-length"),
    pytest.param({(*_P0, "alpha"): [8.0]}, "prosumers[p01].alpha has length 1, expected 2", id="alpha-length"),
    pytest.param({("grid", "threshold"): [9.0] * 3}, "grid.threshold has length 3, expected 2", id="threshold-length"),
    pytest.param(
        {("grid", "other_demand"): [30.0]}, "grid.other_demand has length 1, expected 2", id="other-demand-length"
    ),
    pytest.param(
        {("grid", "supply_capacity"): [80.0] * 3},
        "grid.supply_capacity has length 3, expected 2",
        id="supply-capacity-length",
    ),
    pytest.param(
        {("grid", "other_demand"): [30.0, "x"]}, "grid.other_demand: expected numbers", id="other-demand-type"
    ),
    # Two faults each: the first rule to fire names the error.
    pytest.param(
        {(*_P0, "net_energy"): [1.0], (*_P0, "alpha"): -1.0}, "prosumer p01: alpha must be > 0", id="length-and-alpha"
    ),
    pytest.param({("grid", "a"): -1.0, ("grid", "b"): -1.0}, "grid.a must be > 0", id="a-and-b"),
    pytest.param(
        {("grid", "fit_price"): -5.0, ("grid", "offpeak_price"): -6.0},
        "grid.fit_price must be >= 0",
        id="fit-and-offpeak",
    ),
]


@pytest.mark.parametrize("changes, message", _LOADER_RULES)
def test_loader_reports_each_rule_exactly(tmp_path, capsys, changes, message):
    data = scenario_to_dict(make_case_study_scenario(3, n_prosumers=2, slots=2))
    for path, value in changes.items():
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["p2p", "grid-only", "third-party", "compare"])
def test_negative_feed_in_tariff_exits_2_in_every_mode(tmp_path, capsys, mode):
    data = scenario_to_dict(make_case_study_scenario(0, n_prosumers=6, slots=4))
    data["grid"]["fit_price"] = -5.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(scenario_path), "--mode", mode, "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: grid.fit_price must be >= 0\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("call, message", [
    (lambda: Order("p01", -1.0, 1.0), "order price must be >= 0, got -1.0"),
    (lambda: make_case_study_scenario(0, n_prosumers=1), "n_prosumers must be >= 2"),
    (lambda: make_case_study_scenario(0, slots=0), "slots must be >= 1"),
    (lambda: make_case_study_scenario(0, sellers_per_slot=-1), "sellers_per_slot out of range"),
    (lambda: make_case_study_scenario(0, sellers_per_slot=13), "sellers_per_slot out of range"),
], ids=["order-price", "n_prosumers", "slots", "sellers-below", "sellers-above"])
def test_each_guard_raises_its_domain_error(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert info.type is DomainError and str(info.value) == message
