"""Deterministic marketplace simulation.

The stream generator draws, for every (placement, interval) cell, a Poisson
opportunity count and the per-opportunity values, competing clearing bids,
interleaving jitter, and result draws from a counter-based random stream
keyed by (seed, placement, interval) -- so adding a placement or extending
the horizon never perturbs other cells' draws, and a fixed seed yields a
byte-identical trace.

An episode pairs the stream with a pacing agent: snapshot multipliers,
adjust the value, bid, resolve the auction against the realized clearing
bid, and update the multipliers at batch boundaries.  Bidding halts once
cumulative spend reaches the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bidding import LAMBDA_FLOOR, optimal_bids
from .coldstart import ColdStartResult, PlacementPriors, solve_lambda0_multi
from .mechanisms import LognormalBids, MechanismSpec, MechanismTable, resolve
from .oracle import LogRecord, OpportunityLog, marginal_roi
from .pacing import (
    ForecastModel,
    FtlEntry,
    PacingState,
    apply_batch_update,
    normalize,
)
from .scenario import PlacementConfig, ScenarioConfig


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Opportunity:
    interval: int
    jitter: float
    placement: str
    value: float
    clearing_bid: float
    mechanism: MechanismSpec
    result_draw: float


def drifted_mechanism(placement: PlacementConfig, interval: int) -> MechanismSpec:
    """Placement mechanism with the interval's competing-bid drift applied."""
    if placement.bid_mu_drift is None:
        return placement.mechanism
    offset = placement.bid_mu_drift.offset_at(interval)
    comp = placement.mechanism.competitor
    return replace(placement.mechanism, competitor=replace(comp, mu=comp.mu + offset))


def drifted_value_mu(placement: PlacementConfig, interval: int) -> float:
    if placement.value_mu_drift is None:
        return placement.value_mu
    return placement.value_mu + placement.value_mu_drift.offset_at(interval)


def _cell_rng(seed: int, placement_index: int, interval: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((placement_index << 32) | interval)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def generate_stream(scenario: ScenarioConfig) -> list[Opportunity]:
    """All opportunities for the scenario, interleaved across placements by
    a within-interval jitter and fully reproducible from the seed."""
    out: list[Opportunity] = []
    for p_idx, placement in enumerate(scenario.placements):
        for interval in range(scenario.intervals):
            intensity = placement.intensity_at(interval)
            if intensity <= 0:
                continue
            rng = _cell_rng(scenario.seed, p_idx, interval)
            n = int(rng.poisson(intensity))
            if n == 0:
                continue
            mech = drifted_mechanism(placement, interval)
            jitter = rng.random(n)
            values = rng.lognormal(
                mean=drifted_value_mu(placement, interval), sigma=placement.value_sigma, size=n
            )
            clearing = mech.competitor.quantile(rng.random(n))
            result_draws = rng.random(n)
            clearing = np.atleast_1d(clearing)
            for j in range(n):
                out.append(
                    Opportunity(
                        interval=interval,
                        jitter=float(jitter[j]),
                        placement=placement.id,
                        value=float(values[j]),
                        clearing_bid=float(clearing[j]),
                        mechanism=mech,
                        result_draw=float(result_draws[j]),
                    )
                )
    out.sort(key=lambda o: (o.interval, o.jitter, o.placement))
    return out


def realized_log(scenario: ScenarioConfig, stream: list[Opportunity]) -> OpportunityLog:
    """Stream reinterpreted as a realized opportunity log for the oracle."""
    return OpportunityLog(
        [
            LogRecord(
                time=o.interval + o.jitter,
                placement=o.placement,
                value=o.value,
                mechanism=o.mechanism,
                clearing_bid=o.clearing_bid,
                windows=scenario.constraints.window_ids_at(o.interval),
            )
            for o in stream
        ]
    )


def distributional_log(scenario: ScenarioConfig, stream: list[Opportunity]) -> OpportunityLog:
    """Stream with auctions kept as smooth G/H models instead of resolved
    clearing bids; used for derivative-based diagnostics."""
    return OpportunityLog(
        [
            LogRecord(
                time=o.interval + o.jitter,
                placement=o.placement,
                value=o.value,
                mechanism=o.mechanism,
                windows=scenario.constraints.window_ids_at(o.interval),
            )
            for o in stream
        ]
    )


def build_forecast(scenario: ScenarioConfig) -> ForecastModel:
    if scenario.agent.pacing.forecast_mode == "relative":
        per_interval = np.array(
            [
                sum(p.intensity_at(i) for p in scenario.placements)
                for i in range(scenario.intervals)
            ]
        )
        total = per_interval.sum()
        if total <= 0:
            raise SimulationError("relative forecast needs positive total intensity")
        return ForecastModel(shares=tuple(per_interval / total))
    return ForecastModel(total=scenario.expected_total())


def coldstart_priors(scenario: ScenarioConfig) -> list[PlacementPriors]:
    priors = []
    for p in scenario.placements:
        comp = p.mechanism.competitor
        if not isinstance(comp, LognormalBids):
            raise SimulationError(
                f"placement {p.id!r}: cold start needs a lognormal competing-bid model; "
                "set an explicit lambda0 instead"
            )
        priors.append(
            PlacementPriors(
                bid_mu=comp.mu,
                bid_sigma=comp.sigma,
                value_mu=p.value_mu,
                value_sigma=p.value_sigma,
                forecast_count=p.expected_total(scenario.intervals),
            )
        )
    return priors


def initial_multiplier(scenario: ScenarioConfig) -> tuple[float, ColdStartResult | None]:
    if scenario.agent.lambda0 is not None:
        return scenario.agent.lambda0, None
    result = solve_lambda0_multi(coldstart_priors(scenario), scenario.constraints.budget)
    return max(result.lam, 1e-9), result


TRACE_COLUMNS = (
    "interval",
    "opportunity_index",
    "placement_id",
    "value",
    "adjusted_value",
    "bid",
    "won",
    "cost",
    "lambda_tilde",
    "mu",
    "lambda_k",
    "mu_k",
    "cum_spend",
    "cum_value",
)


@dataclass(frozen=True)
class TraceRow:
    interval: int
    opportunity_index: int
    placement_id: str
    value: float
    adjusted_value: float
    bid: float
    won: bool
    cost: float
    lambda_tilde: float
    mu: float
    lambda_k: float
    mu_k: float
    cum_spend: float
    cum_value: float

    def as_csv_fields(self) -> tuple[str, ...]:
        return (
            str(self.interval),
            str(self.opportunity_index),
            self.placement_id,
            repr(self.value),
            repr(self.adjusted_value),
            repr(self.bid),
            "1" if self.won else "0",
            repr(self.cost),
            repr(self.lambda_tilde),
            repr(self.mu),
            repr(self.lambda_k),
            repr(self.mu_k),
            repr(self.cum_spend),
            repr(self.cum_value),
        )


@dataclass
class EpisodeMetrics:
    budget: float
    total_spend: float
    total_value: float
    results_realized: float
    n_opportunities: int
    n_wins: int
    budget_utilization: float
    cost_per_result: float
    cost_per_result_realized: float
    lambda0: float
    lambda_prime: float
    final_lambda_tilde: float
    final_lambda: float
    max_single_cost: float
    lambda_trajectory: tuple[float, ...]
    window_spend: dict[str, float]
    window_value: dict[str, float]
    placement_spend: dict[str, float]
    placement_value: dict[str, float]
    placement_roi: dict[str, float] | None = None

    def as_rows(self) -> list[tuple[str, float]]:
        rows = [
            ("budget", self.budget),
            ("total_spend", self.total_spend),
            ("total_value", self.total_value),
            ("results_realized", self.results_realized),
            ("n_opportunities", self.n_opportunities),
            ("n_wins", self.n_wins),
            ("budget_utilization", self.budget_utilization),
            ("cost_per_result", self.cost_per_result),
            ("cost_per_result_realized", self.cost_per_result_realized),
            ("lambda0", self.lambda0),
            ("lambda_prime", self.lambda_prime),
            ("final_lambda_tilde", self.final_lambda_tilde),
            ("final_lambda", self.final_lambda),
            ("max_single_cost", self.max_single_cost),
        ]
        for wid in sorted(self.window_spend):
            rows.append((f"window_{wid}_spend", self.window_spend[wid]))
            rows.append((f"window_{wid}_value", self.window_value[wid]))
        for pid in sorted(self.placement_spend):
            rows.append((f"placement_{pid}_spend", self.placement_spend[pid]))
            rows.append((f"placement_{pid}_value", self.placement_value[pid]))
        if self.placement_roi is not None:
            for pid in sorted(self.placement_roi):
                rows.append((f"placement_{pid}_roi", self.placement_roi[pid]))
        return rows


@dataclass
class EpisodeResult:
    scenario: ScenarioConfig
    stream: list[Opportunity]
    trace: list[TraceRow]
    metrics: EpisodeMetrics
    state: PacingState


def run_episode(scenario: ScenarioConfig, compute_roi: bool = False) -> EpisodeResult:
    """Run the pacing agent through the scenario's opportunity stream."""
    constraints = scenario.constraints
    cfg = scenario.agent.pacing
    forecast = build_forecast(scenario)
    lambda0, _ = initial_multiplier(scenario)

    state = PacingState(
        budget=constraints.budget,
        expected_total=scenario.expected_total(),
        intervals_total=scenario.intervals,
        lambda_prime=1.0,
        lambda_tilde=lambda0,
    )
    normalize(state, scenario.agent.lambda_prime or lambda0)

    stream = generate_stream(scenario)
    values = np.array([o.value for o in stream])
    table = MechanismTable.from_specs([o.mechanism for o in stream])
    clearing = np.array([o.clearing_bid for o in stream])
    # the stream is ordered by interval: interval i is stream[starts[i]:starts[i + 1]]
    starts = np.searchsorted([o.interval for o in stream], np.arange(scenario.intervals + 1))

    trace: list[TraceRow] = []
    trajectory: list[float] = []
    ftl_entries: list[FtlEntry] | None = [] if cfg.mode == "ftl" else None
    placement_spend: dict[str, float] = {p.id: 0.0 for p in scenario.placements}
    placement_value: dict[str, float] = {p.id: 0.0 for p in scenario.placements}
    max_single_cost = 0.0

    for interval in range(scenario.intervals):
        try:
            windows = constraints.window_ids_at(interval)
            end = int(starts[interval + 1])
            stale = True
            for index in range(int(starts[interval]), end):
                if stale:
                    # the multipliers only move at batch boundaries, so the
                    # rest of the interval is bid and resolved in one go
                    snapshot = state.multipliers_at(constraints, interval)
                    factor = snapshot.numerator / max(snapshot.denominator, LAMBDA_FLOOR)
                    first = index
                    rest = table.take(slice(index, end))
                    adjusted = factor * values[index:end]
                    bids = optimal_bids(rest, adjusted, scenario.agent.bid_cap)
                    wins, costs = resolve(rest, bids, clearing[index:end])
                    stale = False
                o = stream[index]
                if state.budget_exhausted:
                    adjusted_value, bid, won, cost = 0.0, 0.0, False, 0.0
                else:
                    k = index - first
                    adjusted_value, bid = float(adjusted[k]), float(bids[k])
                    won, cost = bool(wins[k]), float(costs[k])
                result = 1.0 if won and o.result_draw < min(o.value, 1.0) else 0.0
                state.record_outcome(windows, o.value, won, cost, result)
                if won:
                    placement_spend[o.placement] += cost
                    placement_value[o.placement] += o.value
                    max_single_cost = max(max_single_cost, cost)
                if ftl_entries is not None:
                    ftl_entries.append(
                        FtlEntry(value=o.value, clearing_bid=o.clearing_bid, mechanism=o.mechanism)
                    )
                trace.append(
                    TraceRow(
                        interval=interval,
                        opportunity_index=index,
                        placement_id=o.placement,
                        value=o.value,
                        adjusted_value=adjusted_value,
                        bid=bid,
                        won=won,
                        cost=cost,
                        lambda_tilde=state.lambda_tilde,
                        mu=snapshot.mu,
                        lambda_k=snapshot.lam_k,
                        mu_k=snapshot.mu_k,
                        cum_spend=state.spent_total,
                        cum_value=state.value_total,
                    )
                )
                if cfg.batch_size is not None and state.interval_count >= cfg.batch_size:
                    apply_batch_update(state, cfg, forecast, constraints, interval, ftl_entries)
                    stale = True
            if cfg.batch_size is None:
                apply_batch_update(state, cfg, forecast, constraints, interval, ftl_entries)
        except Exception as exc:
            raise SimulationError(f"interval {interval}: {exc}") from exc
        trajectory.append(state.lambda_tilde)

    total_value = state.value_total
    metrics = EpisodeMetrics(
        budget=constraints.budget,
        total_spend=state.spent_total,
        total_value=total_value,
        results_realized=state.results_realized,
        n_opportunities=state.opportunities_seen,
        n_wins=state.wins_total,
        budget_utilization=state.spent_total / constraints.budget,
        cost_per_result=state.spent_total / total_value if total_value > 0 else float("inf"),
        cost_per_result_realized=state.spent_total / state.results_realized
        if state.results_realized > 0
        else float("inf"),
        lambda0=lambda0,
        lambda_prime=state.lambda_prime,
        final_lambda_tilde=state.lambda_tilde,
        final_lambda=state.lam,
        max_single_cost=max_single_cost,
        lambda_trajectory=tuple(trajectory),
        window_spend=dict(state.window_spend),
        window_value=dict(state.window_value),
        placement_spend=placement_spend,
        placement_value=placement_value,
    )
    if compute_roi and stream:
        roi = marginal_roi(
            distributional_log(scenario, stream),
            constraints.budget,
            bid_cap=scenario.agent.bid_cap,
        )
        metrics.placement_roi = dict(roi.roi)
    return EpisodeResult(
        scenario=scenario, stream=stream, trace=trace, metrics=metrics, state=state
    )
