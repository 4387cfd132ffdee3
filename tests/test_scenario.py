"""Scenario config tests: parsing, validation paths, round trips."""

import pytest

from dualbid.scenario import (
    DriftSchedule,
    ScenarioError,
    parse_scenario,
    scenario_to_dict,
)
from helpers import mixed_scenario, stationary_scenario


class TestParsing:
    def test_round_trip(self):
        for cfg in (stationary_scenario(), mixed_scenario()):
            scenario = parse_scenario(cfg)
            assert parse_scenario(scenario_to_dict(scenario)) == scenario

    def test_round_trip_with_constraints_and_drift(self):
        cfg = stationary_scenario(
            cost_target=0.2,
            delivery_windows=[{"id": "w", "start": 10, "end": 30, "cap": 5.0}],
            guarantee_windows=[{"id": "g", "start": 40, "end": 60, "floor": 8.0}],
        )
        cfg["placements"][0]["drift"] = {"bid_mu": [[0, 0.0], [219, 0.4]]}
        scenario = parse_scenario(cfg)
        assert parse_scenario(scenario_to_dict(scenario)) == scenario

    def test_seed_override(self):
        scenario = parse_scenario(stationary_scenario(), seed_override=99)
        assert scenario.seed == 99

    def test_version_required(self):
        cfg = stationary_scenario()
        cfg["version"] = 2
        with pytest.raises(ScenarioError, match="version"):
            parse_scenario(cfg)

    def test_missing_budget_names_field(self):
        cfg = stationary_scenario()
        del cfg["budget"]
        with pytest.raises(ScenarioError, match="budget"):
            parse_scenario(cfg)

    def test_overlapping_windows_name_both(self):
        cfg = stationary_scenario(
            delivery_windows=[
                {"id": "weekend", "start": 10, "end": 30, "cap": 5.0},
                {"id": "launch", "start": 25, "end": 40, "cap": 5.0},
            ]
        )
        with pytest.raises(ScenarioError, match="weekend.*launch|launch.*weekend"):
            parse_scenario(cfg)

    def test_unknown_competitor_family(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["competitor"] = {"family": "pareto", "alpha": 2.0}
        with pytest.raises(ScenarioError, match=r"placements\[0\]"):
            parse_scenario(cfg)

    def test_intensity_schedule_length(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["intensity"] = [10.0] * 5
        with pytest.raises(ScenarioError):
            parse_scenario(cfg)

    def test_drift_must_cover_horizon(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["drift"] = {"bid_mu": [[0, 0.0], [100, 0.5]]}
        with pytest.raises(ScenarioError, match="cover"):
            parse_scenario(cfg)

    def test_drift_needs_lognormal_competitor(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["competitor"] = {"family": "uniform", "lo": 0.0, "hi": 1.0}
        cfg["placements"][0]["drift"] = {"bid_mu": [[0, 0.0], [219, 0.5]]}
        with pytest.raises(ScenarioError, match="lognormal"):
            parse_scenario(cfg)

    def test_window_past_horizon(self):
        cfg = stationary_scenario(
            delivery_windows=[{"id": "w", "start": 200, "end": 400, "cap": 5.0}]
        )
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(cfg)

    def test_agent_validation_propagates(self):
        cfg = stationary_scenario(agent={"mode": "newton"})
        with pytest.raises(ScenarioError, match="agent"):
            parse_scenario(cfg)

    def test_mpc_takes_only_a_json_boolean(self):
        for flag in (True, False):
            assert parse_scenario(stationary_scenario(agent={"mpc": flag})).agent.pacing.mpc is flag
        for bad in ("false", "true", 0, 1):
            with pytest.raises(ScenarioError, match=r"^agent\.mpc: expected true or false"):
                parse_scenario(stationary_scenario(agent={"mpc": bad}))

    def test_integral_numbers_are_integers(self):
        scenario = parse_scenario(stationary_scenario(intervals=220.0, seed=7.0))
        assert (scenario.intervals, scenario.seed) == (220, 7)
        assert isinstance(scenario.intervals, int) and isinstance(scenario.seed, int)

    def test_bad_batch_field(self):
        cfg = stationary_scenario(agent={"batch": "hourly"})
        with pytest.raises(ScenarioError, match="batch"):
            parse_scenario(cfg)

    def test_empirical_competitor_accepted(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["competitor"] = {
            "family": "empirical",
            "samples": [0.5, 1.0, 1.5],
        }
        scenario = parse_scenario(cfg)
        assert parse_scenario(scenario_to_dict(scenario)) == scenario


class TestDriftSchedule:
    def test_linear_interpolation(self):
        sched = DriftSchedule(knots=((0, 0.0), (100, 0.5)))
        assert sched.offset_at(50) == pytest.approx(0.25)
        assert sched.offset_at(0) == 0.0
        assert sched.offset_at(100) == 0.5

    def test_knots_must_increase(self):
        with pytest.raises(ValueError):
            DriftSchedule(knots=((10, 0.0), (10, 0.5)))

    def test_coverage(self):
        assert DriftSchedule(knots=((0, 0.0), (99, 1.0))).covers(100)
        assert not DriftSchedule(knots=((5, 0.0), (99, 1.0))).covers(100)


@pytest.mark.parametrize("step", ["epsilon", "xi"])
def test_round_trip_echoes_every_optional_field(step):
    # every optional agent and placement field is echoed, and the echo
    # parses back to the same scenario
    cfg = mixed_scenario(intervals=40)
    agent = {"mode": "ftl", "ftl_window": 300, "lambda_prime": 1.5, "batch": 25, "mpc": True}
    agent |= {"bid_cap": 50.0, "constraint_xi": 0.5, "initialization": {"lambda0": 2.0}}
    cfg["agent"] = {**agent, step: 0.05}
    feed, network = cfg["placements"]
    feed.update(reserve=0.1, intensity=[float(i % 5) for i in range(40)])
    feed["drift"] = {"bid_mu": [[0, 0.0], [39, 0.4]], "value_mu": [[0, 0.0], [20, -0.3], [39, -0.3]]}
    network["competitor"] = {"family": "uniform", "lo": 0.1, "hi": 1.5}
    cfg["placements"].append(
        {**network, "id": "exchange", "competitor": {"family": "empirical", "samples": [0.2, 0.9]}}
    )
    scenario = parse_scenario(cfg)
    echo = scenario_to_dict(scenario)
    assert parse_scenario(echo) == scenario
    for key, value in cfg["agent"].items():
        assert echo["agent"][key] == value, key
    assert {"epsilon": "xi", "xi": "epsilon"}[step] not in echo["agent"]
    for given, echoed in zip(cfg["placements"], echo["placements"]):
        for key, value in given.items():
            assert echoed[key] == value, (given["id"], key)
