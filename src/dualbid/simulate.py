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
first.  A segment is resolved in one go at the snapshot multipliers; the
budget cut-off and the pacing, placement and window accounting are array
operations whose sums run left to right, so every total and the trace
columns equal those of handling the opportunities one at a time.  Bidding
halts once cumulative spend reaches the budget: a segment that starts with
the budget spent shades and resolves no row, and only counts them as seen.

A first-price row whose factor lies below the least factor at which it may
win (oracle.first_price_limits) loses for certain: its segment resolves it
as a loss without shading it, and every such row that was bid is shaded in
one call after the last segment.  Shading is per row, so its bid is the one
its segment would have given.  The other rows of a segment are bid in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bidding import optimal_bids
from .coldstart import ColdStartResult, PlacementPriors, solve_lambda0_multi
from .mechanisms import LognormalBids, MechanismSpec, MechanismTable, resolve
from .oracle import LogColumns, OpportunityLog, RealizedSpend, first_price_limits, marginal_roi
from .pacing import ForecastModel, PacingState, apply_batch_update, normalize
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
    drawn under; ``table`` holds that mechanism per row.  An int index
    yields an ``Opportunity`` row view; a slice, mask or index array yields
    the sub-stream.
    """

    def __init__(
        self, placement_ids, cells, interval, jitter, placement, value, clearing_bid,
        result_draw, cell, table,
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

    def __len__(self) -> int:
        return len(self.value)

    def take(self, rows) -> OpportunityStream:
        return OpportunityStream(
            self.placement_ids, self.cells, self.interval[rows], self.jitter[rows],
            self.placement[rows], self.value[rows], self.clearing_bid[rows],
            self.result_draw[rows], self.cell[rows], self.table.take(rows),
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


def _cell_rngs(seed: int):
    """A function of (placement index, interval) giving that cell's random
    generator, keyed by (seed, placement, interval).

    One Philox serves every cell: its state is set to the cell's key, a zero
    counter and an empty buffer, so each cell draws what a fresh
    Philox(key=...) would, without seeding a throwaway SeedSequence from OS
    entropy per cell.  The generator returned is valid until the next call.
    The seed is the key's first word as it is, so a seed outside [0, 2**64)
    raises OverflowError instead of sharing another seed's stream.
    """
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)

    def cell_rng(placement_index: int, interval: int) -> np.random.Generator:
        key = np.array([seed, (placement_index << 32) | interval], dtype=np.uint64)
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng

    return cell_rng


def generate_stream(scenario: ScenarioConfig) -> OpportunityStream:
    """All opportunities for the scenario, interleaved across placements by
    a within-interval jitter and fully reproducible from the seed.

    Each cell draws its jitter, values, clearing-bid uniforms and result
    draws in that order; the uniforms of every cell become clearing bids in
    one MechanismTable.quantile call over the stream."""
    cells: list[MechanismSpec] = []
    cell_interval: list[int] = []
    cell_placement: list[int] = []
    draws: list[tuple[np.ndarray, ...]] = []
    cell_rng = _cell_rngs(scenario.seed)
    for p_idx, placement in enumerate(scenario.placements):
        for interval in range(scenario.intervals):
            intensity = placement.intensity_at(interval)
            if intensity <= 0:
                continue
            rng = cell_rng(p_idx, interval)
            n = int(rng.poisson(intensity))
            if n == 0:
                continue
            mech = drifted_mechanism(placement, interval)
            jitter = rng.random(n)
            values = rng.lognormal(
                mean=drifted_value_mu(placement, interval), sigma=placement.value_sigma, size=n
            )
            clearing_draws = rng.random(n)
            draws.append((jitter, values, clearing_draws, rng.random(n)))
            cells.append(mech)
            cell_interval.append(interval)
            cell_placement.append(p_idx)
    ids = [p.id for p in scenario.placements]
    sizes = [len(d[0]) for d in draws]
    cell = np.repeat(np.arange(len(cells)), sizes)
    interval = np.array(cell_interval, dtype=np.int64)[cell]
    placement = np.array(cell_placement, dtype=np.intp)[cell]
    columns = zip(*draws) if draws else [[np.empty(0)]] * 4
    jitter, values, clearing_draws, result_draws = (np.concatenate(c) for c in columns)
    # stable, so ties keep the cell order: the order of sorting the
    # opportunities by (interval, jitter, placement id)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = np.lexsort((rank[placement], jitter, interval))
    table = MechanismTable.from_specs(cells).take(cell[order])
    clearing = table.quantile(clearing_draws[order])
    return OpportunityStream(
        ids, cells, interval[order], jitter[order], placement[order], values[order],
        clearing, result_draws[order], cell[order], table,
    )  # fmt: skip


def realized_log(scenario: ScenarioConfig, stream: OpportunityStream) -> OpportunityLog:
    """Stream reinterpreted as a realized opportunity log for the oracle."""
    combos: dict[tuple[str, ...], int] = {}
    per_interval = [
        combos.setdefault(scenario.constraints.window_ids_at(i), len(combos))
        for i in range(scenario.intervals)
    ]
    return OpportunityLog.from_columns(
        LogColumns(
            time=stream.interval + stream.jitter,
            values=stream.value,
            clearing=stream.clearing_bid,
            mechanisms=stream.cells,
            mechanism_codes=stream.cell,
            placement_names=stream.placement_ids,
            placement_codes=stream.placement,
            window_combos=list(combos),
            combo_codes=np.array(per_interval, dtype=np.intp)[stream.interval],
        )
    )


def distributional_log(
    scenario: ScenarioConfig, stream: OpportunityStream, realized: OpportunityLog | None = None
) -> OpportunityLog:
    """Stream with auctions kept as smooth G/H models instead of resolved
    clearing bids; used for derivative-based diagnostics.  Its columns are
    those of realized, the stream's realized log (built here where none is
    given), with every clearing bid NaN (LogColumns.distributional); the
    two logs share arrays and a mechanism table, not a log's caches."""
    if realized is None:
        realized = realized_log(scenario, stream)
    return OpportunityLog.from_columns(realized.arrays.distributional())


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


def _least_factors(stream: OpportunityStream, history, bid_cap: float) -> np.ndarray | None:
    """The least factor at which each first-price row of the stream may win
    (NaN on second-price rows), the FTL history's where there is one; None
    without first-price rows."""
    first = np.flatnonzero(stream.table.first_price)
    if not first.size:
        return None
    if history is not None:
        return history.least_factors
    least = np.full(len(stream), np.nan)
    least[first] = first_price_limits(stream.value, stream.clearing_bid, stream.table, bid_cap)[1]
    return least


def _bid(stream: OpportunityStream, rows, adjusted, bid_cap: float):
    """The rows' bids at their adjusted values, and whether each wins and
    what it pays."""
    table = stream.table.take(rows)
    bids = optimal_bids(table, adjusted, bid_cap)
    return (bids, *resolve(table, bids, stream.clearing_bid[rows]))


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
    bid_cap = scenario.agent.bid_cap
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
    values, clearing = stream.value, stream.clearing_bid
    success = stream.result_draw < np.minimum(values, 1.0)  # a win's result, if it wins
    # FTL replays the auctions seen so far, each update a prefix of one
    # history sorted once for the episode
    history = (
        RealizedSpend(values, clearing, stream.table, bid_cap) if cfg.mode == "ftl" else None
    )
    least = _least_factors(stream, history, bid_cap)
    deferred: list[np.ndarray] = []  # the certain losers bid, shaded after the loop
    # the stream is ordered by interval: interval i is rows starts[i]:starts[i + 1]
    starts = np.searchsorted(stream.interval, np.arange(scenario.intervals + 1))
    # rows cut off by the budget keep a zero adjusted value, bid and cost
    trace = Trace.for_stream(stream)
    trajectory: list[float] = []

    def close_batch(interval: int, seen: int) -> None:
        seen_so_far = None if history is None else history[:seen]
        apply_batch_update(state, cfg, forecast, constraints, interval, seen_so_far)

    for interval in range(scenario.intervals):
        try:
            windows = constraints.window_ids_at(interval)
            index, end = int(starts[interval]), int(starts[interval + 1])
            while index < end:
                # the multipliers only move at batch boundaries, so the rest
                # of the interval, or of the count batch, is resolved in one go
                snapshot = state.multipliers_at(constraints, interval)
                size = end - index if batch is None else min(end - index, batch - state.interval_count)
                seg = slice(index, index + size)
                adjusted = snapshot.factor * values[seg]
                halted = state.spent_total >= state.budget  # no row of the segment is bid
                out = None if least is None or halted else least[seg] > snapshot.factor
                if halted:
                    bids, wins, costs = np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size)
                elif out is None or not out.any():
                    bids, wins, costs = _bid(stream, seg, adjusted, bid_cap)
                else:  # certain losers bid 0 for now, lose and pay nothing
                    live = np.flatnonzero(~out)
                    bids, wins, costs = np.zeros(size), np.zeros(size, dtype=bool), np.zeros(size)
                    bids[live], wins[live], costs[live] = _bid(
                        stream, index + live, adjusted[live], bid_cap
                    )
                results = wins & success[seg]
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
                if out is not None:
                    deferred.append(index + np.flatnonzero(out[:bid]))
                index += size
                if batch is not None and state.interval_count >= batch:
                    close_batch(interval, index)
            if batch is None:
                close_batch(interval, end)
        except Exception as exc:
            raise SimulationError(f"interval {interval}: {exc}") from exc
        trajectory.append(state.lambda_tilde)
    if deferred:
        late = np.concatenate(deferred)
        trace.bid[late] = optimal_bids(stream.table.take(late), trace.adjusted_value[late], bid_cap)

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
