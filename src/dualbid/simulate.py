"""Deterministic marketplace simulation.

The stream generator draws, for every (placement, interval) cell, a Poisson
opportunity count and the per-opportunity values, competing clearing bids,
interleaving jitter, and result draws from a counter-based random stream
keyed by (seed, placement, interval) -- so adding a placement or extending
the horizon never perturbs other cells' draws, and a fixed seed yields a
byte-identical trace.  The stream is held as columns (``OpportunityStream``),
ordered by one stable sort on (interval, jitter, placement id), with one
mechanism per cell.

An episode pairs the stream with a pacing agent.  It runs in segments: the
opportunities from one multiplier update (interval start, or the end of a
count batch) to the next one or the end of the interval, whichever comes
first.  A segment, and only it, is bid and resolved in one call at the
snapshot multipliers; the budget cut-off and the pacing, placement and
window accounting are array operations whose sums run left to right, so
every total and the trace columns equal those of handling the opportunities
one at a time.  Bidding halts once cumulative spend reaches the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bidding import LAMBDA_FLOOR, optimal_bids
from .coldstart import ColdStartResult, PlacementPriors, solve_lambda0_multi
from .mechanisms import LognormalBids, MechanismSpec, MechanismTable, resolve
from .oracle import LogColumns, OpportunityLog, marginal_roi
from .pacing import ForecastModel, PacingState, apply_batch_update, ftl_win_limits, normalize
from .scenario import PlacementConfig, ScenarioConfig


class SimulationError(RuntimeError):
    pass


class Opportunity(NamedTuple):
    """One row of an OpportunityStream."""

    interval: int
    jitter: float
    placement: str
    value: float
    clearing_bid: float
    mechanism: MechanismSpec
    result_draw: float


class OpportunityStream:
    """Opportunities as parallel columns, in stream order.

    Columns: ``interval``, ``jitter``, ``placement`` (a code into
    ``placement_ids``), ``value``, ``clearing_bid``, ``result_draw``, and
    ``cell``, the index into ``cells`` of the mechanism each opportunity was
    drawn under; ``table`` holds that mechanism per row.  ``ftl_limit`` is
    each row's win limit under FTL's bid (``pacing.ftl_win_limits``), set by
    an FTL episode so that every history prefix carries it, and None
    otherwise.  An int index yields an ``Opportunity`` row view; a slice,
    mask or index array yields the sub-stream.
    """

    def __init__(
        self, placement_ids, cells, interval, jitter, placement, value, clearing_bid,
        result_draw, cell, table, ftl_limit=None,
    ):  # fmt: skip
        self.placement_ids = tuple(placement_ids)
        self.cells = tuple(cells)
        self.interval = interval
        self.jitter = jitter
        self.placement = placement
        self.value = value
        self.clearing_bid = clearing_bid
        self.result_draw = result_draw
        self.cell = cell
        self.table = table
        self.ftl_limit = ftl_limit

    def __len__(self) -> int:
        return len(self.value)

    def take(self, rows) -> OpportunityStream:
        return OpportunityStream(
            self.placement_ids, self.cells, self.interval[rows], self.jitter[rows],
            self.placement[rows], self.value[rows], self.clearing_bid[rows],
            self.result_draw[rows], self.cell[rows], self.table.take(rows),
            None if self.ftl_limit is None else self.ftl_limit[rows],
        )  # fmt: skip

    def __getitem__(self, key):
        if not isinstance(key, (int, np.integer)):
            return self.take(key)
        return Opportunity(
            interval=int(self.interval[key]),
            jitter=float(self.jitter[key]),
            placement=self.placement_ids[self.placement[key]],
            value=float(self.value[key]),
            clearing_bid=float(self.clearing_bid[key]),
            mechanism=self.cells[self.cell[key]],
            result_draw=float(self.result_draw[key]),
        )

    def __iter__(self):
        columns = (
            self.interval.tolist(),
            self.jitter.tolist(),
            [self.placement_ids[p] for p in self.placement.tolist()],
            self.value.tolist(),
            self.clearing_bid.tolist(),
            [self.cells[c] for c in self.cell.tolist()],
            self.result_draw.tolist(),
        )
        return map(Opportunity._make, zip(*columns))


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


def generate_stream(scenario: ScenarioConfig) -> OpportunityStream:
    """All opportunities for the scenario, interleaved across placements by
    a within-interval jitter and fully reproducible from the seed."""
    cells: list[MechanismSpec] = []
    cell_interval: list[int] = []
    cell_placement: list[int] = []
    draws: list[tuple[np.ndarray, ...]] = []
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
            draws.append((jitter, values, clearing, rng.random(n)))
            cells.append(mech)
            cell_interval.append(interval)
            cell_placement.append(p_idx)
    ids = [p.id for p in scenario.placements]
    sizes = [len(d[0]) for d in draws]
    cell = np.repeat(np.arange(len(cells)), sizes)
    interval = np.array(cell_interval, dtype=np.int64)[cell]
    placement = np.array(cell_placement, dtype=np.intp)[cell]
    columns = zip(*draws) if draws else [[np.empty(0)]] * 4
    jitter, values, clearing, result_draws = (np.concatenate(c) for c in columns)
    # stable, so ties keep the cell order: the order of sorting the
    # opportunities by (interval, jitter, placement id)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = np.lexsort((rank[placement], jitter, interval))
    table = MechanismTable.from_specs(cells).take(cell[order])
    return OpportunityStream(
        ids, cells, interval[order], jitter[order], placement[order], values[order],
        clearing[order], result_draws[order], cell[order], table,
    )  # fmt: skip


def _stream_log(scenario: ScenarioConfig, stream: OpportunityStream, clearing) -> OpportunityLog:
    combos: dict[tuple[str, ...], int] = {}
    per_interval = [
        combos.setdefault(scenario.constraints.window_ids_at(i), len(combos))
        for i in range(scenario.intervals)
    ]
    return OpportunityLog.from_columns(
        LogColumns(
            time=stream.interval + stream.jitter,
            values=stream.value,
            clearing=clearing,
            mechanisms=stream.cells,
            mechanism_codes=stream.cell,
            placement_names=stream.placement_ids,
            placement_codes=stream.placement,
            window_combos=list(combos),
            combo_codes=np.array(per_interval, dtype=np.intp)[stream.interval],
        )
    )


def realized_log(scenario: ScenarioConfig, stream: OpportunityStream) -> OpportunityLog:
    """Stream reinterpreted as a realized opportunity log for the oracle."""
    return _stream_log(scenario, stream, stream.clearing_bid)


def distributional_log(scenario: ScenarioConfig, stream: OpportunityStream) -> OpportunityLog:
    """Stream with auctions kept as smooth G/H models instead of resolved
    clearing bids; used for derivative-based diagnostics."""
    return _stream_log(scenario, stream, np.full(len(stream), np.nan))


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


class TraceRow(NamedTuple):
    """One row of a Trace: one line of trace.csv."""

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


TRACE_COLUMNS = TraceRow._fields


@dataclass(eq=False)
class Trace:
    """The episode's decisions as columns named after TRACE_COLUMNS, one row
    per opportunity in stream order; ``placement_id`` holds codes into
    ``placement_ids``.  Indexing with an int or iterating yields TraceRow
    views."""

    placement_ids: tuple[str, ...]
    interval: np.ndarray
    opportunity_index: np.ndarray
    placement_id: np.ndarray
    value: np.ndarray
    adjusted_value: np.ndarray
    bid: np.ndarray
    won: np.ndarray
    cost: np.ndarray
    lambda_tilde: np.ndarray
    mu: np.ndarray
    lambda_k: np.ndarray
    mu_k: np.ndarray
    cum_spend: np.ndarray
    cum_value: np.ndarray

    @classmethod
    def for_stream(cls, stream: OpportunityStream) -> Trace:
        """A trace of the stream with every decision column zero."""
        n = len(stream)
        decisions = {name: np.zeros(n) for name in TRACE_COLUMNS[4:]}
        decisions["won"] = np.zeros(n, dtype=bool)
        return cls(
            stream.placement_ids, stream.interval, np.arange(n), stream.placement, stream.value,
            **decisions,
        )  # fmt: skip

    def __len__(self) -> int:
        return len(self.interval)

    def __getitem__(self, index: int) -> TraceRow:
        row = TraceRow._make(getattr(self, name)[index].item() for name in TRACE_COLUMNS)
        return row._replace(placement_id=self.placement_ids[row.placement_id])

    def __iter__(self):
        columns = {name: getattr(self, name).tolist() for name in TRACE_COLUMNS}
        columns["placement_id"] = [self.placement_ids[p] for p in columns["placement_id"]]
        return map(TraceRow._make, zip(*columns.values()))


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
    stream: OpportunityStream
    trace: Trace
    metrics: EpisodeMetrics
    state: PacingState


def run_episode(scenario: ScenarioConfig, compute_roi: bool = False) -> EpisodeResult:
    """Run the pacing agent through the scenario's opportunity stream."""
    constraints = scenario.constraints
    cfg = scenario.agent.pacing
    batch = cfg.batch_size
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
    if cfg.mode == "ftl":
        # once per row for the episode; each history prefix slices it
        stream.ftl_limit = ftl_win_limits(stream)
    values, clearing = stream.value, stream.clearing_bid
    # the stream is ordered by interval: interval i is rows starts[i]:starts[i + 1]
    starts = np.searchsorted(stream.interval, np.arange(scenario.intervals + 1))
    # rows cut off by the budget keep a zero adjusted value, bid and cost
    trace = Trace.for_stream(stream)
    trajectory: list[float] = []

    def close_batch(interval: int, seen: int) -> None:
        history = stream[:seen] if cfg.mode == "ftl" else None
        apply_batch_update(state, cfg, forecast, constraints, interval, history)

    for interval in range(scenario.intervals):
        try:
            windows = constraints.window_ids_at(interval)
            index, end = int(starts[interval]), int(starts[interval + 1])
            while index < end:
                # the multipliers only move at batch boundaries, so the rest
                # of the interval, or of the count batch, is bid and resolved
                # in one go
                snapshot = state.multipliers_at(constraints, interval)
                factor = snapshot.numerator / max(snapshot.denominator, LAMBDA_FLOOR)
                size = end - index if batch is None else min(end - index, batch - state.interval_count)
                seg = slice(index, index + size)
                table = stream.table.take(seg)
                adjusted = factor * values[seg]
                bids = optimal_bids(table, adjusted, scenario.agent.bid_cap)
                wins, costs = resolve(table, bids, clearing[seg])
                results = wins & (stream.result_draw[seg] < np.minimum(values[seg], 1.0))
                trace.lambda_tilde[seg] = state.lambda_tilde
                trace.mu[seg], trace.lambda_k[seg], trace.mu_k[seg] = (
                    snapshot.mu, snapshot.lam_k, snapshot.mu_k
                )
                bid, trace.cum_spend[seg], trace.cum_value[seg] = state.record_outcomes(
                    windows, values[seg], wins, costs, results
                )
                rows = slice(index, index + bid)
                trace.adjusted_value[rows], trace.bid[rows] = adjusted[:bid], bids[:bid]
                trace.won[rows], trace.cost[rows] = wins[:bid], costs[:bid]
                index += size
                if batch is not None and state.interval_count >= batch:
                    close_batch(interval, index)
            if batch is None:
                close_batch(interval, end)
        except Exception as exc:
            raise SimulationError(f"interval {interval}: {exc}") from exc
        trajectory.append(state.lambda_tilde)

    won_value = np.where(trace.won, values, 0.0)
    placement_spend: dict[str, float] = {p.id: 0.0 for p in scenario.placements}
    placement_value: dict[str, float] = {p.id: 0.0 for p in scenario.placements}
    for code, pid in enumerate(stream.placement_ids):
        mine = stream.placement == code
        if mine.any():
            # cumsum adds in stream order, as spending one win at a time does
            placement_spend[pid] = float(np.cumsum(trace.cost[mine])[-1])
            placement_value[pid] = float(np.cumsum(won_value[mine])[-1])
    max_single_cost = float(trace.cost.max(initial=0.0))

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
