"""Simulator tests: stream generation, episode accounting, budget safety."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualbid.oracle import LogRecord, MultiplierProfile, OpportunityLog, replay, solve_lambda_star
from dualbid.scenario import parse_scenario
from dualbid.simulate import (
    TRACE_COLUMNS,
    distributional_log,
    drifted_mechanism,
    generate_stream,
    initial_multiplier,
    realized_log,
    run_episode,
)
from helpers import episode_shading_every_row, mixed_scenario, stationary_scenario, stream_by_sort

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def stationary():
    return parse_scenario(stationary_scenario())


@pytest.fixture(scope="module")
def stationary_episode(stationary):
    return run_episode(stationary)


@pytest.fixture(scope="module")
def stationary_lambda_star(stationary):
    stream = generate_stream(stationary)
    return solve_lambda_star(realized_log(stationary, stream), stationary.constraints.budget)


class TestStream:
    def test_zero_intensity_is_empty(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["intensity"] = 0.0
        assert len(generate_stream(parse_scenario(cfg))) == 0

    def test_poisson_total_count(self):
        cfg = stationary_scenario(intervals=100)
        cfg["placements"][0]["intensity"] = 10.0
        stream = generate_stream(parse_scenario(cfg))
        expected = 1000.0
        assert abs(len(stream) - expected) <= 3 * math.sqrt(expected)

    def test_same_seed_identical(self, stationary):
        assert list(generate_stream(stationary)) == list(generate_stream(stationary))

    def test_different_seed_differs(self):
        a = generate_stream(parse_scenario(stationary_scenario(seed=1)))
        b = generate_stream(parse_scenario(stationary_scenario(seed=2)))
        assert list(a) != list(b)

    def test_adding_placement_preserves_existing_draws(self):
        single = parse_scenario(stationary_scenario())
        both = parse_scenario(mixed_scenario(seed=7))
        # first placement of the mixed scenario matches the single-placement
        # stream except for the extra interleaved opportunities
        cfg = mixed_scenario(seed=7)
        cfg["placements"] = [cfg["placements"][0]]
        cfg["placements"][0]["intensity"] = 80.0
        lone = generate_stream(parse_scenario(cfg))
        cfg2 = mixed_scenario(seed=7)
        cfg2["placements"][0]["intensity"] = 80.0
        paired = [o for o in generate_stream(parse_scenario(cfg2)) if o.placement == "feed"]
        assert [
            (o.interval, o.value, o.clearing_bid, o.jitter) for o in lone
        ] == [(o.interval, o.value, o.clearing_bid, o.jitter) for o in paired]

    def test_matches_one_at_a_time_sort(self):
        cfg = mixed_scenario(intervals=30)
        cfg["placements"][0]["id"] = "zeta"  # listed first, sorts last
        cfg["placements"][1]["drift"] = {"bid_mu": [[0, 0.0], [29, 0.3]]}
        scenario = parse_scenario(cfg)
        assert list(generate_stream(scenario)) == stream_by_sort(scenario)

    def test_logs_match_records(self):
        cfg = mixed_scenario(
            intervals=30, delivery_windows=[{"id": "w", "start": 10, "end": 20, "cap": 5.0}]
        )
        scenario = parse_scenario(cfg)
        stream = generate_stream(scenario)
        profile = MultiplierProfile(lam=2.0, window_lambda={"w": 0.5})
        for build, realized in ((realized_log, True), (distributional_log, False)):
            log = build(scenario, stream)
            records = [
                LogRecord(
                    time=o.interval + o.jitter,
                    placement=o.placement,
                    value=o.value,
                    mechanism=o.mechanism,
                    clearing_bid=o.clearing_bid if realized else None,
                    windows=scenario.constraints.window_ids_at(o.interval),
                )
                for o in stream
            ]
            assert log.records == records
            reference = OpportunityLog(records)
            # the network sub-log, from the sub-stream and from the filtered records
            network = stream[stream.placement == stream.placement_ids.index("network")]
            network_records = [r for r in records if r.placement == "network"]
            for ours, theirs in (
                (log, reference),
                (build(scenario, network), OpportunityLog(network_records)),
            ):
                assert ours.records == theirs.records
                got, want = replay(ours, profile), replay(theirs, profile)
                assert got == want
                assert list(got.per_placement) == list(want.per_placement)
                assert list(got.per_window) == list(want.per_window)

    def test_stream_is_time_ordered(self, stationary):
        stream = generate_stream(stationary)
        keys = [(o.interval, o.jitter) for o in stream]
        assert keys == sorted(keys)


class TestDrift:
    def test_no_schedule_is_identity(self, stationary):
        placement = stationary.placements[0]
        assert drifted_mechanism(placement, 5) is placement.mechanism

    def test_offsets_applied(self):
        cfg = stationary_scenario()
        cfg["placements"][0]["drift"] = {"bid_mu": [[0, 0.0], [100, 0.5], [219, 0.5]]}
        scenario = parse_scenario(cfg)
        mech = drifted_mechanism(scenario.placements[0], 50)
        assert mech.competitor.mu == pytest.approx(0.25)


class TestEpisode:
    def test_tiny_budget_halts_immediately(self):
        cfg = stationary_scenario(budget=1e-6, intervals=20)
        cfg["agent"]["initialization"] = {"lambda0": 1.0}
        episode = run_episode(parse_scenario(cfg))
        # at most one accidental win before the hard stop engages
        assert episode.metrics.total_spend <= episode.metrics.max_single_cost + 1e-6
        assert episode.metrics.n_wins <= 1

    def test_oracle_initialized_run(self, stationary, stationary_lambda_star):
        cfg = stationary_scenario(agent={"initialization": {"lambda0": stationary_lambda_star.lam}})
        episode = run_episode(parse_scenario(cfg))
        m = episode.metrics
        assert min(m.total_spend, m.budget) / m.budget >= 0.95
        assert m.total_spend <= m.budget + m.max_single_cost
        assert abs(m.final_lambda_tilde - 1.0) <= 0.10

    def test_conservation(self, stationary_episode):
        costs = [row.cost for row in stationary_episode.trace]
        assert sum(costs) == stationary_episode.metrics.total_spend
        assert stationary_episode.trace[-1].cum_spend == stationary_episode.metrics.total_spend

    def test_budget_stop(self):
        # force early exhaustion with an over-generous initial multiplier
        cfg = stationary_scenario(budget=20.0)
        cfg["agent"]["initialization"] = {"lambda0": 0.05}
        episode = run_episode(parse_scenario(cfg))
        m = episode.metrics
        assert m.total_spend >= m.budget
        assert m.total_spend <= m.budget + m.max_single_cost
        exhausted = False
        for row in episode.trace:
            if exhausted:
                assert row.bid == 0.0 and not row.won
            if row.cum_spend >= m.budget:
                exhausted = True
        assert exhausted

    def test_overshoot_bounded_by_single_cost(self, stationary_episode):
        m = stationary_episode.metrics
        assert m.total_spend <= m.budget + m.max_single_cost
        assert 0.0 <= m.budget_utilization <= 1.0 + m.max_single_cost / m.budget

    def test_window_accounting(self):
        cfg = stationary_scenario(
            delivery_windows=[{"id": "mid", "start": 100, "end": 160, "cap": 18.0}]
        )
        episode = run_episode(parse_scenario(cfg))
        in_window = sum(
            row.cost for row in episode.trace if 100 <= row.interval < 160
        )
        assert episode.metrics.window_spend["mid"] == pytest.approx(in_window)
        assert episode.metrics.window_spend["mid"] <= 1.05 * 18.0

    def test_mixed_mechanisms_run_end_to_end(self):
        episode = run_episode(parse_scenario(mixed_scenario()))
        fp_rows = [r for r in episode.trace if r.placement_id == "network" and r.bid > 0]
        assert fp_rows, "first price placement saw no bids"
        assert all(r.bid <= r.adjusted_value + 1e-9 for r in fp_rows)
        assert episode.metrics.placement_spend["network"] > 0
        assert episode.metrics.placement_spend["feed"] > 0

    def test_trace_columns_match_rows(self, stationary_episode):
        from dualbid.simulate import TRACE_COLUMNS

        assert stationary_episode.trace[0]._fields == TRACE_COLUMNS
        assert stationary_episode.trace[0].opportunity_index == 0
        indices = [r.opportunity_index for r in stationary_episode.trace]
        assert indices == list(range(len(indices)))

    def test_count_batch_trigger(self):
        cfg = stationary_scenario(agent={"batch": 200})
        episode = run_episode(parse_scenario(cfg))
        assert 0.9 <= episode.metrics.budget_utilization <= 1.05

    def test_count_batches_bid_only_their_segment(self, monkeypatch):
        import dualbid.bidding as bidding
        import dualbid.simulate as simulate

        rows, shaded = [], []
        bid, shade = simulate.optimal_bids, bidding.shade_bids

        def counting(table, adjusted, bid_cap):
            rows.append(len(adjusted))
            return bid(table, adjusted, bid_cap)

        def shading(table, adjusted, bid_cap):
            shaded.append(np.array(adjusted))
            return shade(table, adjusted, bid_cap)

        monkeypatch.setattr(simulate, "optimal_bids", counting)
        monkeypatch.setattr(bidding, "shade_bids", shading)
        cfg = json.loads((SCENARIOS / "stationary.json").read_text())
        cfg["agent"]["batch"] = 10
        episode = run_episode(parse_scenario(cfg))
        # every opportunity is bid exactly once
        assert sum(rows) == len(episode.stream) == 17645
        assert not shaded
        # first price: a segment bids the rows that may win, and one call
        # after the last bids the rest
        rows.clear()
        cfg = mixed_scenario(intervals=60, budget=30.0, agent={"batch": 7})
        episode = run_episode(parse_scenario(cfg))
        assert episode.state.spent_total < 30.0  # every opportunity is bid
        assert sum(rows) == len(episode.stream)
        first = episode.stream.table.first_price
        # each first-price row is shaded exactly once, at its adjusted value
        want = np.sort(episode.trace.adjusted_value[first])
        assert np.array_equal(np.sort(np.concatenate(shaded)), want)
        # 927 segments, most of which shade nothing (measured: 63 calls)
        assert len(rows) - 1 == 927
        assert len(shaded) <= 70

    def test_ftl_mode(self):
        cfg = stationary_scenario(
            intervals=120,
            budget=60.0,
            agent={"mode": "ftl", "ftl_window": 4000},
        )
        cfg["agent"].pop("xi", None)
        episode = run_episode(parse_scenario(cfg))
        assert 0.9 <= episode.metrics.budget_utilization <= 1.05

    def test_multiplicative_mode(self):
        cfg = stationary_scenario(agent={"mode": "multiplicative"})
        episode = run_episode(parse_scenario(cfg))
        assert 0.9 <= episode.metrics.budget_utilization <= 1.05

    def test_relative_forecast_mode(self):
        cfg = stationary_scenario(agent={"forecast": "relative"})
        episode = run_episode(parse_scenario(cfg))
        assert 0.9 <= episode.metrics.budget_utilization <= 1.05

    def test_distributional_twin_of_a_realized_log(self):
        cfg = mixed_scenario(
            intervals=30, delivery_windows=[{"id": "w", "start": 10, "end": 20, "cap": 5.0}]
        )
        scenario = parse_scenario(cfg)
        stream = generate_stream(scenario)
        realized = realized_log(scenario, stream)
        realized.realized_spend(1.0)
        assert not np.isnan(realized.arrays.price).any()  # cached before the twin is made
        twin = distributional_log(scenario, stream, realized)
        built = distributional_log(scenario, stream)
        assert (realized.mode, twin.mode) == ("realized", "distributional")
        assert twin.records == built.records
        profile = MultiplierProfile(lam=2.0, window_lambda={"w": 0.5})
        assert replay(twin, profile) == replay(built, profile)
        # the twin's clearing bids and caches are its own
        assert np.isnan(twin.arrays.price).all() and not np.isnan(realized.arrays.price).any()
        assert not twin.arrays.realized.any() and realized.arrays.realized.all()
        assert list(twin._realized_spends) == [] and list(realized._realized_spends) == [1.0]

    def test_metrics_rows_are_flat(self, stationary_episode):
        rows = stationary_episode.metrics.as_rows()
        keys = [k for k, _ in rows]
        assert len(keys) == len(set(keys))
        assert "total_spend" in keys and "budget_utilization" in keys

    def test_roi_attached_when_requested(self, stationary):
        episode = run_episode(stationary, compute_roi=True)
        assert episode.metrics.placement_roi is not None
        assert set(episode.metrics.placement_roi) == {"feed"}


def _first_price_network(**network) -> dict:
    cfg = mixed_scenario(intervals=20, budget=10.0, agent={"initialization": {"lambda0": 2.0}})
    cfg["placements"][1].update(network)
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(mixed_scenario(intervals=60, budget=30.0), id="lognormal"),
        pytest.param(_first_price_network(reserve=0.4), id="lognormal-reserve"),
        pytest.param(
            _first_price_network(
                reserve=0.3, competitor={"family": "uniform", "lo": 0.1, "hi": 1.5}
            ),
            id="uniform-reserve-above-lo",
        ),
        pytest.param(
            _first_price_network(
                competitor={"family": "empirical", "samples": [0.2, 0.35, 0.5, 0.8, 1.1, 1.6]}
            ),
            id="empirical",
        ),
        pytest.param(mixed_scenario(intervals=60, budget=30.0, agent={"bid_cap": 0.3}), id="bid-cap"),
        pytest.param(mixed_scenario(intervals=60, budget=30.0, agent={"batch": 7}), id="count-batches"),
        pytest.param(
            mixed_scenario(
                intervals=60, budget=15.0, agent={"initialization": {"lambda0": 2.0}, "xi": 0.1}
            ),
            id="budget-out",
        ),
        pytest.param(mixed_scenario(intervals=60, budget=30.0, agent={"mode": "ftl"}), id="ftl"),
        pytest.param(
            mixed_scenario(
                intervals=120,
                budget=40.0,
                cost_target=0.25,
                delivery_windows=[{"id": "w", "start": 20, "end": 60, "cap": 8.0}],
                guarantee_windows=[{"id": "g", "start": 70, "end": 110, "floor": 20.0}],
                agent={"constraint_xi": 5.0},
            ),
            id="constrained",
        ),
    ],
)
def test_first_price_losers_shaded_after_the_loop_keep_the_trace(cfg, request, monkeypatch):
    # a first-price row that loses for certain is resolved as a loss in its
    # segment and shaded after the loop: every trace column, and so every
    # total, is the one of shading every first-price row in its segment
    scenario = parse_scenario(cfg)
    calls = _count_shading(monkeypatch)
    episode = run_episode(scenario)
    monkeypatch.undo()
    want = episode_shading_every_row(scenario)
    trace = episode.trace
    for name in TRACE_COLUMNS:
        assert getattr(trace, name).tobytes() == getattr(want.trace, name).tobytes(), name
    assert episode.metrics == want.metrics
    first = episode.stream.table.first_price
    if cfg["agent"].get("bid_cap"):
        assert (trace.bid[first] == cfg["agent"]["bid_cap"]).any()
    if cfg.get("cost_target"):  # mu and both window multipliers move the factor
        assert (trace.mu > 0).any() and (trace.lambda_k > 0).any() and (trace.mu_k > 0).any()
    if episode.state.spent_total >= cfg["budget"]:  # cut off inside a segment
        last = int(np.flatnonzero(trace.adjusted_value > 0)[-1])
        assert trace.interval[last + 1] == trace.interval[last]
    if request.node.callspec.id == "lognormal-reserve":
        # rows priced at the reserve have win limits too, so most segments
        # shade only a few rows or none (measured: 8 calls in 20 segments)
        assert len(calls) <= 8


def _count_shading(monkeypatch) -> list[int]:
    """The number of rows of each shade_bids call an episode makes."""
    import dualbid.bidding as bidding

    calls, shade = [], bidding.shade_bids

    def shading(table, adjusted, bid_cap):
        calls.append(np.atleast_1d(adjusted).size)
        return shade(table, adjusted, bid_cap)

    monkeypatch.setattr(bidding, "shade_bids", shading)
    return calls


def test_no_row_is_shaded_after_the_budget_runs_out(monkeypatch):
    # a segment that starts with the budget spent bids no row: only the
    # segment in which spend reaches the budget shades rows it does not bid
    calls = _count_shading(monkeypatch)
    cfg = mixed_scenario(
        intervals=60, budget=15.0, agent={"initialization": {"lambda0": 2.0}, "xi": 0.1}
    )
    episode = run_episode(parse_scenario(cfg))
    trace, first = episode.trace, episode.stream.table.first_price
    cut = trace.interval[np.flatnonzero(trace.adjusted_value > 0)[-1]]
    assert cut == 14  # the budget runs out in interval 14 of 60
    bid = np.count_nonzero(first & (trace.adjusted_value > 0))
    # each first-price row bid is shaded once (720 rows, 721 shaded in all)
    assert bid <= sum(calls) <= np.count_nonzero(first & (trace.interval <= cut))


class TestConvergenceRegressions:
    def test_xi_sweep_converges_within_200_intervals(self, stationary_lambda_star):
        lam_star = stationary_lambda_star.lam
        for xi in (0.05, 0.1, 0.2):
            cfg = stationary_scenario(agent={"xi": xi})
            episode = run_episode(parse_scenario(cfg))
            lam_path = (
                np.array(episode.metrics.lambda_trajectory) * episode.metrics.lambda_prime
            )
            errs = np.abs(lam_path - lam_star) / lam_star
            assert np.all(errs[199:] <= 0.05), f"xi={xi} drifted outside 5% after interval 200"

    def test_tilde_band_when_normalized_at_optimum(self, stationary_lambda_star):
        cfg = stationary_scenario(
            agent={"initialization": {"lambda0": stationary_lambda_star.lam}}
        )
        episode = run_episode(parse_scenario(cfg))
        trajectory = np.array(episode.metrics.lambda_trajectory)
        assert np.all((trajectory[100:] >= 0.9) & (trajectory[100:] <= 1.1))

    def test_small_normalizer_slows_convergence(self, stationary_lambda_star):
        # same starting multiplier, different normalization scale: a small
        # lambda_prime shrinks every absolute step and convergence stalls
        lam_star = stationary_lambda_star.lam

        def first_within_5pct(lambda_prime):
            cfg = stationary_scenario(
                agent={
                    "xi": 4.0,
                    "initialization": {"lambda0": 2.0 * lam_star},
                    "lambda_prime": lambda_prime,
                }
            )
            episode = run_episode(parse_scenario(cfg))
            lam_path = (
                np.array(episode.metrics.lambda_trajectory) * episode.metrics.lambda_prime
            )
            within = np.abs(lam_path - lam_star) / lam_star <= 0.05
            return int(np.argmax(within)) if within.any() else len(lam_path)

        fast = first_within_5pct(lam_star)
        slow = first_within_5pct(lam_star / 10.0)
        assert fast < 200
        assert slow > fast

    def test_mpc_improves_exhaustion_under_bad_forecast(self):
        # actual traffic tails off relative to the static forecast; the
        # receding-horizon target claws the shortfall back
        sched = [120.0] * 100 + [40.0] * 200
        base = stationary_scenario(seed=5, intervals=300, budget=100.0)
        base["placements"][0]["intensity"] = sched
        utils = {}
        for mpc in (False, True):
            cfg = {**base, "agent": {**base["agent"], "mpc": mpc}}
            utils[mpc] = run_episode(parse_scenario(cfg)).metrics.budget_utilization
        assert utils[True] > utils[False]
        assert utils[True] >= 0.95


class TestInitialization:
    def test_coldstart_close_to_oracle(self, stationary, stationary_lambda_star):
        lam0, result = initial_multiplier(stationary)
        assert result is not None and not result.unconstrained
        assert abs(lam0 - stationary_lambda_star.lam) / stationary_lambda_star.lam <= 0.05

    def test_explicit_initialization(self):
        cfg = stationary_scenario(agent={"initialization": {"lambda0": 1.23}})
        lam0, result = initial_multiplier(parse_scenario(cfg))
        assert lam0 == 1.23 and result is None

    def test_coldstart_requires_lognormal(self):
        from dualbid.simulate import SimulationError

        cfg = stationary_scenario()
        cfg["placements"][0]["competitor"] = {"family": "uniform", "lo": 0.0, "hi": 1.0}
        with pytest.raises(SimulationError, match="lognormal"):
            initial_multiplier(parse_scenario(cfg))
