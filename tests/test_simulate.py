"""Simulator tests: stream generation, episode accounting, budget safety."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualbid.cli import main
from dualbid.oracle import LogRecord, MultiplierProfile, OpportunityLog, replay, solve_lambda_star
from dualbid.scenario import parse_scenario
from dualbid.simulate import (
    TRACE_COLUMNS,
    _stream_order,
    distributional_log,
    drifted_mechanism,
    drifted_value_mu,
    generate_stream,
    initial_multiplier,
    load_stream,
    realized_log,
    run_episode,
    save_stream,
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
        # a scenario expecting no opportunity at all is refused, so the
        # placement at intensity 0 sits beside one that draws
        cfg = mixed_scenario(intervals=40)
        cfg["placements"][1]["intensity"] = 0.0
        stream = generate_stream(parse_scenario(cfg))
        network = stream[stream.placement == stream.placement_ids.index("network")]
        assert len(network) == 0
        cfg["placements"] = cfg["placements"][:1]
        assert len(stream) > 0 and list(stream) == list(generate_stream(parse_scenario(cfg)))

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

    def test_stream_order_is_the_three_key_sort(self):
        # rows drawn interval by interval, the placements of an interval in
        # id order, go into the order that a stable sort on (interval,
        # jitter, placement id) gives rows drawn cell by cell in list order;
        # jitter from four values ties rows within a cell and across placements
        rng = np.random.default_rng(11)
        rank = np.array([2, 0, 1])  # id rank of each placement in list order
        cells = np.array([(p, i) for p in range(3) for i in range(12)])
        placement, interval = np.repeat(cells, rng.integers(0, 7, len(cells)), axis=0).T
        jitter = rng.integers(0, 4, len(interval)) / 4.0
        rows = np.stack([interval, jitter, placement])
        ties, counts = np.unique(rows, axis=1, return_counts=True)
        assert counts.max() > 1  # within a cell
        assert len(np.unique(ties[:2], axis=1)[0]) < ties.shape[1]  # across placements
        want = np.lexsort((rank[placement], jitter, interval))
        drawn = np.lexsort((rank[placement], interval))  # stable: cells keep their draw order
        got = drawn[_stream_order(interval[drawn], jitter[drawn])]
        assert np.array_equal(got, want)

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
                    windows=scenario.constraints.active_windows(o.interval).ids,
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

    def test_cells_that_draw_nothing_leave_the_others_unchanged(self):
        # at intensity 0.5 many cells draw no opportunity and are skipped;
        # every other cell draws what a fresh Philox keyed to it draws
        cfg = mixed_scenario(intervals=40)
        cfg["placements"][0]["intensity"] = 0.5
        scenario = parse_scenario(cfg)
        stream = generate_stream(scenario)
        feed = stream.placement == stream.placement_ids.index("feed")
        assert 0 < len(np.unique(stream.interval[feed])) < 30
        assert list(stream) == stream_by_sort(scenario)

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


    def test_value_drift_scales_values(self):
        # a value_mu offset moves the log-mean of every value of its
        # interval, so each value is the undrifted one times exp(offset)
        cfg = stationary_scenario(intervals=20)
        plain = generate_stream(parse_scenario(cfg))
        cfg["placements"][0]["drift"] = {"value_mu": [[0, 0.0], [19, 0.6]]}
        scenario = parse_scenario(cfg)
        drifted = generate_stream(scenario)
        feed = scenario.placements[0]
        offsets = np.array([drifted_value_mu(feed, i) - feed.value_mu for i in range(20)])
        assert np.array_equal(drifted.interval, plain.interval) and offsets.std() > 0.1
        np.testing.assert_allclose(
            drifted.value, plain.value * np.exp(offsets[drifted.interval]), rtol=1e-12
        )
        np.testing.assert_array_equal(drifted.clearing_bid, plain.clearing_bid)


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

        rows, shaded, split = [], [], []
        bid, shade = simulate.optimal_bids, bidding.shade_bids

        def counting(table, adjusted, bid_cap):
            rows.append(len(adjusted))
            bids = bid(table, adjusted, bid_cap)
            split.append("first_price_rows" in vars(table))
            return bids

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
        assert not any(split)  # no table without first-price rows is split
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
        assert sum(split) == len(shaded)  # only a call that shades splits its table

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
        # price and records are cached before the twin is made
        assert not np.isnan(realized.price).any() and realized.records[0].clearing_bid is not None
        twin = distributional_log(scenario, stream, realized)
        built = distributional_log(scenario, stream)
        assert (realized.mode, twin.mode) == ("realized", "distributional")
        assert twin.records == built.records
        profile = MultiplierProfile(lam=2.0, window_lambda={"w": 0.5})
        assert replay(twin, profile) == replay(built, profile)
        # the twin's clearing bids and caches are its own
        assert np.isnan(twin.price).all() and not np.isnan(realized.price).any()
        assert not twin.realized.any() and realized.realized.all()
        assert list(twin._realized_spends) == [] and list(realized._realized_spends) == [1.0]
        assert {r.clearing_bid is None for r in twin.records} == {True}
        assert {r.clearing_bid is None for r in realized.records} == {False}

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


def _budget_out() -> dict:
    """A first-price episode whose budget runs out inside interval 14 of 60."""
    return mixed_scenario(
        intervals=60, budget=15.0, agent={"initialization": {"lambda0": 2.0}, "xi": 0.1}
    )


def test_cumulative_columns_add_the_trace_one_row_at_a_time():
    # cum_spend and cum_value are the running totals of the cost and won
    # value columns, each added as a float in stream order, and cost is what
    # a win pays: the bid at first price, max(clearing, reserve) at second
    episode = run_episode(parse_scenario(_budget_out()))
    trace, stream = episode.trace, episode.stream
    assert episode.state.spent_total >= 15.0 > trace.cum_spend[trace.adjusted_value > 0][-2]
    spend = value = 0.0
    spends, values = [], []
    for cost, won, v in zip(trace.cost.tolist(), trace.won.tolist(), trace.value.tolist()):
        spend += cost
        value += v if won else 0.0
        spends.append(spend)
        values.append(value)
    assert trace.cum_spend.tobytes() == np.array(spends).tobytes()
    assert trace.cum_value.tobytes() == np.array(values).tobytes()
    assert (spend, value) == (episode.state.spent_total, episode.state.value_total)
    price = np.maximum(stream.clearing_bid, stream.table.reserve)
    paid = np.where(stream.table.first_price, trace.bid, price)
    assert np.array_equal(trace.won, trace.bid >= price)
    assert trace.cost.tobytes() == np.where(trace.won, paid, 0.0).tobytes()


def _stationary_batch_10() -> dict:
    cfg = json.loads((SCENARIOS / "stationary.json").read_text())
    cfg["agent"]["batch"] = 10
    return cfg


# sha256 of trace.csv and metrics.csv from `dualbid run`
EPISODE_DIGESTS = {
    # second price, count batches
    "stationary_batch_10": (
        _stationary_batch_10,
        "fa37db80d2e8902ab16015e660760cd8b27c4e3fe55d6a4b81d1c4335f8194e5",
        "23f422df710489e069492c145bccc6689f6c973e065e1c9ecd431e33b24a116a",
    ),
    # a cut-off inside a segment, then halted segments
    "budget_out": (
        _budget_out,
        "9d9275a348fbe1c5fadfaea7606f0188e4781648e42b435967e99d42f4c6cbf0",
        "5b466189f1d8f74b808a7cd6dbb0fa9096299faef4dd8a5bc9a42c77c8b4b658",
    ),
    # count batches over first-price rows
    "first_price_batch_7": (
        lambda: mixed_scenario(intervals=60, budget=30.0, agent={"batch": 7}),
        "bc72131246568b5fcdf41570f7efa0b1b1deeb05b1a3316481ebce7546496092",
        "1516a5d02e5416ff223ea7573ff7b6441a3b73ba679101846077af6a803bebc2",
    ),
    "first_price_ftl": (
        lambda: mixed_scenario(intervals=60, budget=30.0, agent={"mode": "ftl"}),
        "e62f9382a320aac5eadd19245747a6cc3a09abf77a1199a44f9a9d282a960200",
        "5b3085f562a40e2c3c348be78428763b31f09a38b2fe2846a66746f169d0785a",
    ),
}


@pytest.mark.parametrize("name", list(EPISODE_DIGESTS))
def test_episodes_are_pinned(tmp_path, name):
    # the episode's trace and metrics, byte for byte
    build, *digests = EPISODE_DIGESTS[name]
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(build()))
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    for file, digest in zip(("trace.csv", "metrics.csv"), digests):
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest, file


def _drifted_reversed() -> dict:
    """Two placements whose ids sort opposite to their list order, the
    first-price one with a competing-bid drift."""
    cfg = mixed_scenario(intervals=40)
    cfg["placements"][0]["id"] = "zeta"
    cfg["placements"][1]["drift"] = {"bid_mu": [[0, 0.0], [39, 0.3]]}
    return cfg


def _shipped(name: str):
    return lambda: json.loads((SCENARIOS / name).read_text())


def _column_digests(stream) -> dict[str, str]:
    """sha256 of each stream column's dtype and bytes, of its mechanism
    table's columns, and of the repr of its cells."""
    table = stream.table
    columns = {
        name: getattr(stream, name)
        for name in ("interval", "jitter", "placement", "value", "clearing_bid",
                     "result_draw", "cell")
    }  # fmt: skip
    columns.update(
        (f"table.{name}", getattr(table, name))
        for name in ("family", "p1", "p2", "reserve", "first_price", "support_top", "model")
    )
    digests = {
        name: hashlib.sha256(str(c.dtype).encode() + np.ascontiguousarray(c).tobytes()).hexdigest()
        for name, c in columns.items()
    }
    digests["cells"] = hashlib.sha256(repr(stream.cells).encode()).hexdigest()
    return digests


# sha256 of every column of generate_stream's output (see _column_digests)
STREAM_DIGESTS = {
    "stationary": (_shipped("stationary.json"), {
        "interval": "bebf6f81b44ad326e9cf27360c5d071315f99459b81d331305fabe4fb531c627",
        "jitter": "b36ba7c42e636c4c30a87205433d40b68c33166ce0e8a7cdf1b6c0b034f86241",
        "placement": "f7426b44501f919ff27778e42f89bbb5cc14f63fa3bff82af6f40291257a8746",
        "value": "62e7b36e2106bf2ee78d7ace76a370857a7b054d309f739d870605d8ea04ef3a",
        "clearing_bid": "6498fdfbcc3b91f959e30bc31b5b2ef060b257f5eccb47cb09e6e50dd028b765",
        "result_draw": "72c633d74f82833a3faedb67b44e4cc1e1a170ed7f9d8eaea27ae85bd93c42c5",
        "cell": "bebf6f81b44ad326e9cf27360c5d071315f99459b81d331305fabe4fb531c627",
        "table.family": "f7426b44501f919ff27778e42f89bbb5cc14f63fa3bff82af6f40291257a8746",
        "table.p1": "d484bd15d49710e325f0724d20f0efa8f57e7a523f7cfc2918b4f7495e8f844d",
        "table.p2": "6eb8f238aabce33a9f472613fbe1facb50d9dc5563949d1749a9df1e430c681c",
        "table.reserve": "d484bd15d49710e325f0724d20f0efa8f57e7a523f7cfc2918b4f7495e8f844d",
        "table.first_price": "cb03258ad51e20fd5fc3701dcefd126e4545bb6683c834e48e4946fd5fca3e9f",
        "table.support_top": "714dac8bd78cc832ac085abb6e071259f1c3e2b76a8ce15bcdc078719f5eb01e",
        "table.model": "b25335db3d6186f788ba63ae6741a017199930d84ab090c9f3900de1e0988c98",
        "cells": "e9b97025d30130c5a1fc9ca8628f7e1b5ad7c4cd7e3586346b993e7c3ec62d51",
    }),
    "mixed_constrained": (_shipped("mixed_constrained.json"), {
        "interval": "e100f74b7c19eccfda97a6b8dbbfb6ec704febdc1b06974b38d8fb5c282d0bc3",
        "jitter": "3a22d3787f7f38b3621bbae18e3fb36d3562b1db1cf5700979c86e2835d2dc29",
        "placement": "fb292a1850843e41fbe5abf136a39ac017b0b79d6f965f3f0997a7f6fad28a07",
        "value": "6431aebe4bc49c7cdf8709fefb6cfd67937c68a301bd312fcc16ec6d23826397",
        "clearing_bid": "9ee8efd25f5a1cb27b982c1d6c4d55bcf2ab757b41c0763be5d14a45b99d1bb4",
        "result_draw": "72e2d7ff71ed36ffc89b46a75053d4c13400668f102faad1f2ef24cdd63f9a04",
        "cell": "1b7e5e10f2fcd1b5bd6a07742b8905d34411e966ee45020317c9161225bab3e2",
        "table.family": "f206c0a94bd92d682cbc57ad94074b347ed6a4a586edb0fc4e935838913dcd19",
        "table.p1": "486845489ffca3c3e24692be23fcb2d79d392aedf96fb0a73db0fd422ce95d49",
        "table.p2": "ef63fea6eaf804567dfc9b8bd1ab0a1e1105e34a2c9d9c371ef57501c30839a8",
        "table.reserve": "d3a607c2e3e1ed43c7ddccd3c98c92235321b6792f61b759d0bac45938ce5284",
        "table.first_price": "69067b3e932daacab2c5e1076fff1ca5978ed0ecc044e35236ce14b6dc0e14c6",
        "table.support_top": "20067f29670f1bf4391b4306feab2111237255a9e56f7226d043b5616ee9c168",
        "table.model": "ec142ebe063a94f8c47aae361cce70bcfa24fc47defc4f88d39fc437cef9339f",
        "cells": "f54b016b2a08e10c98101c1c24880c8377e13c94d80af8dc708310feab648d87",
    }),
    "guaranteed": (_shipped("guaranteed.json"), {
        "interval": "2b4b29c76f031b6166d5d08c1b28c8b017b1af4a3987ab61ac35540e31933fe6",
        "jitter": "d63f183d3f57b2bb2c21a7cda6b895c6b44d6a8bd101c3f8a6d95d0e81539ce1",
        "placement": "e7366756b60db99c582f5143b6bea7eb17d97e4eacd5b11439c70c792d78eed3",
        "value": "9e9cc23fd866c5f24c8e8dbbc256490fc2a37fd416d52f515248f3d7da7226e6",
        "clearing_bid": "67537e14f0f9dd35885663f061b9bc5785cb5fc9905b1117a63199ef3aa5bc96",
        "result_draw": "a17c93d07a2861ea021e1f3f9717c8e4ec87fe3a755dce1236a4393da7f8102b",
        "cell": "2b4b29c76f031b6166d5d08c1b28c8b017b1af4a3987ab61ac35540e31933fe6",
        "table.family": "e7366756b60db99c582f5143b6bea7eb17d97e4eacd5b11439c70c792d78eed3",
        "table.p1": "8adf94337bb9a100b4ba6e3b9b0ab9413e9f7e5d9d051dc3fe6813c2f1d3b34d",
        "table.p2": "03eaac31a780d62aec4334e0b51e2a41fbc6116c6d2c6093e7b2d52d9627ca80",
        "table.reserve": "8adf94337bb9a100b4ba6e3b9b0ab9413e9f7e5d9d051dc3fe6813c2f1d3b34d",
        "table.first_price": "f6579a0098cf91d3cc1654965986fdb3e95e48463b1459a098d80e715dc888fd",
        "table.support_top": "3a47ee2e560f615e41fbfad4325e717303de5bc8938681862b04cba70c084c7d",
        "table.model": "a0a2d36d8e32ea4802d6201f97680c2bb374797860041b75ce03b06bf16b80e3",
        "cells": "756acea8528fab24935dbf6e7004403874847226d50bb9b2e547b1eaef168c21",
    }),
    "drifted_reversed": (_drifted_reversed, {
        "interval": "5ce3220a5c8636b3ee70f5494857c08673109ea66919586e9ec6c672dea7dcd4",
        "jitter": "b03f3e3a09bfa2a22d7597edafd41bccd8a481db8c02101e25aa1aa768e7e1d8",
        "placement": "225087b7ba1fb3faff68419f91e78492ce91ba622f529d3d5d66950b0fdac702",
        "value": "d7d5077eb3baa15b61967036fb8b438293f312278af410ec0cd39fedcd45790f",
        "clearing_bid": "6055c9d6fb2459c7e880a2eaa7a4700a7a52c19fd110ebe8e29a2d791d9dbd81",
        "result_draw": "68a939f16f446ba60a9fab9e29a9893d81fb86e1ae593f265b8cebecec03f27c",
        "cell": "46a54b77df684adf5abf4b1e67d5261187bf13e5a6324e697e35bcd74bf354cb",
        "table.family": "0d1cf4272f081772870d52cc2d081ee68b7b4977f341340cb162498ec39a00a6",
        "table.p1": "46e0a542c6175265d343e08fa6f18bc54c3eeac93762ca386283fc23783ee38b",
        "table.p2": "8f064de433b4a6a07c1131d5b287cb1f4b5ee314d4c4e6942e7b92412045abd7",
        "table.reserve": "4d2fec57530cc7ee6475d394282b772f88a43fe7177f2c247a9912a40f184950",
        "table.first_price": "43ad314a9bc223131acbb3f17ce921b9ebb541ab6b919a5a71d926f8aae64875",
        "table.support_top": "f1761c0015c1a3d0b2ffa441f65ea418f761b82e75271f727cb5a6fa81d36e81",
        "table.model": "3372ea95086c4c4c70f20cad9f51604ac27c8233ba93480e071721759366e7ae",
        "cells": "f8feca638485f487da9b25df9063b6a2e58d1b095a42da48a3c90e0e4cee747e",
    }),
}


@pytest.mark.parametrize("name", list(STREAM_DIGESTS))
def test_streams_are_pinned(name):
    build, digests = STREAM_DIGESTS[name]
    assert _column_digests(generate_stream(parse_scenario(build()))) == digests


@pytest.mark.parametrize(
    "build",
    [
        STREAM_DIGESTS["mixed_constrained"][0],  # drift and first price
        STREAM_DIGESTS["drifted_reversed"][0],  # ids opposite to list order
        _stationary_batch_10,  # count batches
    ],
    ids=["mixed_constrained", "drifted_reversed", "stationary_batch_10"],
)
def test_saved_stream_loads_bit_for_bit(tmp_path, build):
    scenario = parse_scenario(build())
    stream = generate_stream(scenario)
    save_stream(tmp_path / "stream.npy", stream)
    assert (tmp_path / "stream.npy").stat().st_size == 6 * 128 + 48 * len(stream)
    loaded = load_stream(tmp_path / "stream.npy", scenario)
    assert _column_digests(loaded) == _column_digests(stream)
    assert loaded.cells == stream.cells
    # one spec per distinct mechanism: cells of one drift offset share it
    assert len({id(c) for c in loaded.cells}) == len(set(loaded.cells))
    assert loaded.placement_ids == stream.placement_ids
    assert (loaded.table.uniform, loaded.table.models) == (stream.table.uniform, stream.table.models)
    assert list(loaded) == list(stream)


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
